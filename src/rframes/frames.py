"""Frame diagnostics for uniform Ramanujan banks: Zak transform, polyphase
matrices, frame bounds, and the tight/not-frame classification.

The Zak transform used here maps a length-N signal (N = pd) to a d×p array

    (Zx)(m, n) = (1/√d) Σ_{ℓ<d} x(pℓ + n) e^{−2πimℓ/d},

which is unitary.  Shifting by pk multiplies the image by the phase
e^{−2πikm/d}; the transform itself carries no extra normalization in that
identity (a common source of inconsistency in the literature — see the
note on :func:`zak`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InternalError, PreconditionError
from .filterbank import RamanujanFilterBank, uniform_bank
from .numtheory import divisors

__all__ = [
    "zak",
    "zak_inverse",
    "polyphase_matrix",
    "FrameReport",
    "frame_report",
    "frame_operator",
    "TheoremCase",
    "classify_theorem_case",
    "zak_value_oracle",
]

# relative singular-value cutoff for numerical rank decisions
RANK_RTOL = 1e-10


def zak(x, p: int) -> np.ndarray:
    """Zak transform of x with polyphase stride p; returns a d×p complex array.

    Unitary: the Frobenius norm of the image equals ‖x‖.  The companion shift
    identity is phase-only,

        zak(L_{pk} x, p)[m, n] = e^{−2πikm/d} · zak(x, p)[m, n],

    with no 1/√d factor (any extra normalization there would contradict
    unitarity; both are verified in the test suite).
    """
    x = np.asarray(x)
    N = len(x)
    if p < 1 or N % p:
        raise PreconditionError(f"stride p={p} must divide N={N}")
    d = N // p
    # x(pℓ+n) laid out as a d×p array, ℓ down the rows
    return np.fft.fft(x.reshape(d, p), axis=0, norm="ortho")


def zak_inverse(Z) -> np.ndarray:
    """Invert :func:`zak`; the stride is the column count of Z."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2:
        raise PreconditionError(f"expected a d×p matrix, got shape {Z.shape}")
    d, p = Z.shape
    return np.fft.ifft(Z, axis=0, norm="ortho").reshape(d * p)


def polyphase_matrix(bank: RamanujanFilterBank, m: int) -> np.ndarray:
    """The K×p analysis polyphase matrix U(m) of a uniform bank.

    Entry (i, n) is √d · conj(zak(c_{q_i}, p)[m, n]), i.e. the plain sum
    Σ_{ℓ<d} c_{q_i}(pℓ + n) e^{2πimℓ/d}.  The bank is a frame iff U(m) has
    full column rank p for every m, and the frame bounds are the extreme
    eigenvalues of U*(m)U(m) over m.
    """
    stack = _polyphase_stack(bank)
    d = stack.shape[0]
    if not 0 <= m < d:
        raise PreconditionError(f"frequency index m={m} outside Z_{d}")
    return stack[m]


def _polyphase_stack(bank: RamanujanFilterBank) -> np.ndarray:
    """All U(m) at once: a (d, K, p) complex array.

    U(m)[i, n] = Σ_ℓ c_{q_i}(pℓ + n) e^{2πimℓ/d} is the conjugate of the DFT
    along ℓ of the real d×p array c_{q_i}(pℓ + n), one FFT for the bank.
    """
    if not bank.uniform:
        raise PreconditionError("polyphase analysis requires a uniform bank")
    p = bank.ratio
    d = bank.n // p
    C = np.array([c.reshape(d, p) for c in bank.filters()], dtype=float)  # (K, d, p)
    return np.fft.fft(C, axis=1).conj().transpose(1, 0, 2)


@dataclass(frozen=True)
class FrameReport:
    """Frame bounds and per-frequency diagnostics of a uniform bank.

    A (resp. B) is the minimum (maximum) over m of the smallest (largest)
    eigenvalue of U*(m)U(m); the bank is a frame iff every U(m) has rank p,
    and tight iff additionally A = B (relative 1e−9).
    """

    n: int
    p: int
    A: float
    B: float
    tight: bool
    is_frame: bool
    ranks: tuple[int, ...]
    per_m_eigs: tuple[tuple[float, ...], ...]
    cross_validated: bool | None = None

    @property
    def classification(self) -> str:
        if self.tight:
            return "tight"
        return "frame" if self.is_frame else "not_frame"


def frame_operator(bank: RamanujanFilterBank) -> np.ndarray:
    """The N×N frame operator S = Σ_{i,k} f fᵀ over all kept shifts f = L_{p_i k} c_{q_i}."""
    S = np.zeros((bank.n, bank.n))
    for i in range(len(bank.channels)):
        F = bank.shifts(i)
        S += F @ F.T
    return S


def frame_report(bank: RamanujanFilterBank, cross_validate: bool = False) -> FrameReport:
    """Compute frame bounds/ranks of a uniform bank from its polyphase matrices.

    Parameters
    ----------
    bank : RamanujanFilterBank
        Uniform (common decimation ratio).
    cross_validate : bool
        Additionally build the N×N frame operator directly from the shifted
        filters and check its spectrum lies in [A, B] (and equals A·I for
        tight banks).  O(N³); meant for tests and audits.

    Raises
    ------
    PreconditionError
        Non-uniform bank.
    InternalError
        Cross-validation mismatch (should never happen).
    """
    stack = _polyphase_stack(bank)
    p = stack.shape[2]
    eigs = np.linalg.eigvalsh(stack.conj().transpose(0, 2, 1) @ stack)  # ascending, (d, p)
    # numerical rank from the singular values of U(m) itself: the square roots
    # of the Gram eigenvalues carry √ε-sized noise where U(m) is singular
    sv = np.linalg.svd(stack, compute_uv=False)
    ranks = tuple(np.sum(sv > RANK_RTOL * sv[:, :1], axis=1).tolist())
    is_frame = all(r == p for r in ranks)
    A = float(eigs[:, 0].min())
    B = float(eigs[:, -1].max())
    tight = bool(is_frame and B > 0 and (B - A) <= 1e-9 * B)
    report = FrameReport(
        n=bank.n, p=p, A=A, B=B, tight=tight, is_frame=is_frame,
        ranks=ranks, per_m_eigs=tuple(map(tuple, eigs.tolist())),
    )
    if cross_validate:
        _cross_validate(bank, report)
        report = replace(report, cross_validated=True)
    return report


def _cross_validate(bank: RamanujanFilterBank, report: FrameReport) -> None:
    S = frame_operator(bank)
    eigs = np.linalg.eigvalsh(S)
    tol = 1e-8 * max(1.0, report.B)
    if eigs.min() < report.A - tol or eigs.max() > report.B + tol:
        raise InternalError(
            f"frame-operator spectrum [{eigs.min():.6g}, {eigs.max():.6g}] "
            f"escapes polyphase bounds [{report.A:.6g}, {report.B:.6g}]"
        )
    if report.tight:
        dev = np.abs(S - report.A * np.eye(bank.n)).max()
        if dev > 1e-8 * report.A:
            raise InternalError(
                f"tight bank but ‖S − A·I‖_max = {dev:.3g} exceeds 1e-8·A"
            )


@dataclass(frozen=True)
class TheoremCase:
    """Predicted classification of the full divisor bank at (N, p)."""

    n: int
    p: int
    d: int
    case: str  # "tight" or "not_frame"
    bound: float | None  # tight bound when case == "tight"
    reason: str


def classify_theorem_case(N: int, p: int) -> TheoremCase:
    """Predict tight/not-frame for the uniform divisor bank without computing it.

    The classification: p=1 is always tight with bound N²; p=2 is tight with
    bound 2d² when d = N/2 is odd and fails to be a frame when d is even;
    p>2 never gives a frame (the m=0 polyphase columns n and p−n coincide,
    because Ramanujan sums are even, so U(0) is rank-deficient).

    Raises
    ------
    PreconditionError
        If p ∤ N, or the channel count K is below p (the polyphase matrix
        cannot have rank p at all — hypothesis violation).
    """
    if N < 1 or p < 1 or N % p:
        raise PreconditionError(f"need p | N, got N={N}, p={p}")
    d = N // p
    K = divisors(N).count
    if K < p:
        raise PreconditionError(
            f"hypothesis violation: K={K} channels < p={p}; rank p is unreachable"
        )
    if p == 1:
        return TheoremCase(N, p, d, "tight", float(N * N), "p=1: bound N²")
    if p == 2:
        if d % 2 == 1:
            return TheoremCase(N, p, d, "tight", float(2 * d * d), "p=2, d odd: bound 2d²")
        return TheoremCase(N, p, d, "not_frame", None, "p=2, d even: rank deficiency")
    return TheoremCase(
        N, p, d, "not_frame", None,
        "p>2: U(0) columns n and p−n coincide (even filters), rank < p",
    )


def zak_value_oracle(q_j: int, q_i: int, k: int, n: int, N: int) -> complex:
    """Closed-form Zak samples of c_{q_j} at the resonant frequencies of c_{q_i}.

    For half-decimated banks (p = 2, N = 2d with d odd) the Zak transform of
    any divisor filter at row m = kN/q_i (gcd(k, q_i) = 1) and column
    n ∈ {0, 1} takes one of three values:

        e^{2πikn/q_i} · √(N/2)          if q_j = q_i,
        e^{2πikn/q_i} · (−1)ⁿ √(N/2)    if q_j = q_i/2 or q_j = 2q_i,
        0                               otherwise.

    Must agree with :func:`zak` numerically (tested to 1e−9); the row index
    is taken mod d, matching the d-periodicity of the transform.
    """
    if N < 2 or N % 2 or (N // 2) % 2 == 0:
        raise PreconditionError(f"oracle needs N = 2d with d odd, got N={N}")
    if N % q_i or N % q_j:
        raise PreconditionError(f"q_i={q_i}, q_j={q_j} must divide N={N}")
    if math.gcd(k, q_i) != 1:
        raise PreconditionError(f"k={k} must be coprime to q_i={q_i}")
    if n not in (0, 1):
        raise PreconditionError(f"column index n must be 0 or 1, got {n}")
    phase = cmath.exp(2j * math.pi * k * n / q_i)
    mag = math.sqrt(N / 2)
    if q_j == q_i:
        return phase * mag
    if 2 * q_j == q_i or q_j == 2 * q_i:
        return phase * mag * ((-1) ** n)
    return 0j
