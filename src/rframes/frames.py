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
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .filterbank import RamanujanFilterBank
from .numtheory import _bin_owners, _is_int, divisors

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


def zak(x, p: int) -> np.ndarray:
    """Zak transform of x with polyphase stride p; returns a d×p complex array.

    Unitary: the Frobenius norm of the image equals ‖x‖.  The companion shift
    identity is phase-only,

        zak(L_{pk} x, p)[m, n] = e^{−2πikm/d} · zak(x, p)[m, n],

    with no 1/√d factor (any extra normalization there would contradict
    unitarity; both are verified in the test suite).
    """
    try:
        x = np.asarray(x)
        numeric = x.ndim == 1 and x.dtype.kind in "biufc"
    except ValueError:  # ragged nesting
        numeric = False
    if not numeric:
        raise PreconditionError("zak needs a vector of numbers")
    N = len(x)
    if not _is_int(p) or p < 1 or N % p:
        raise PreconditionError(f"stride p={p!r} must be an integer that divides N={N}")
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
    p = bank.ratio  # raises on a bank that is not uniform
    d = bank.n // p
    if not _is_int(m) or not 0 <= m < d:
        raise PreconditionError(f"frequency index m={m!r} outside Z_{d}")
    # the conjugate of the DFT along ℓ of the real d×p arrays c_{q_i}(pℓ + n)
    C = bank.filter_matrix.reshape(-1, d, p)  # (K, d, p)
    return np.fft.fft(C, axis=1)[:, m, :].conj()


@dataclass(frozen=True)
class FrameReport:
    """Frame bounds and per-frequency diagnostics of a uniform bank.

    A (resp. B) is the minimum (maximum) over m of the smallest (largest)
    eigenvalue of U*(m)U(m); the bank is a frame iff every U(m) has rank p,
    and tight iff additionally A = B.  The eigenvalues are integers counted
    from the bin owners, so the comparison is exact and a frame's A and B
    equal :attr:`RamanujanFilterBank.frame_bounds`.
    """

    n: int
    p: int
    A: float
    B: float
    tight: bool
    is_frame: bool
    ranks: tuple[int, ...]
    per_m_eigs: tuple[tuple[float, ...], ...]

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


def frame_report(bank: RamanujanFilterBank) -> FrameReport:
    """Frame bounds and ranks of a uniform bank, counted exactly over the bin owners.

    U(m) sees the p bins −m + jd.  Bins f and −f share an owner, so their
    owners are those of the bins m + jd: column m of the owner vector
    :func:`~rframes.numtheory._bin_owners` laid out as p×d, with no gather
    (notes/decisions.md, entry 13).  An owner q on t_q of them, with m_q
    channels, gives U(m)ᴴU(m) the eigenvalue N·d·m_q·t_q and t_q − 1 zeros
    (t_q zeros when m_q = 0), so rank U(m) is the number of the row's owners
    that have a channel (entries 6 and 7).  No filter is built, no gcd is
    taken and no eigenproblem is solved.

    Raises
    ------
    PreconditionError
        Non-uniform bank.
    """
    N, p = bank.n, bank.ratio  # bank.ratio raises on a bank that is not uniform
    d = N // p
    # q(−f) = q(f): row m's bins −m + jd share the owners of m + jd, column m
    owners = np.sort(_bin_owners(N).reshape(p, d).T, axis=1)  # each owner's t_q bins in one run
    first = np.ones((d, p), dtype=bool)
    first[:, 1:] = owners[:, 1:] != owners[:, :-1]
    starts = np.flatnonzero(first)  # every row starts a run
    runs = np.diff(starts, append=d * p)  # t_q
    channels = np.bincount(bank.qs, minlength=N + 1)  # m_q
    eigs = np.zeros(d * p, dtype=np.int64)
    eigs[starts] = N * d * channels[owners.flat[starts]] * runs
    eigs = np.sort(eigs.reshape(d, p), axis=1)  # ascending, (d, p)
    ranks = tuple((eigs > 0).sum(axis=1).tolist())
    is_frame = all(r == p for r in ranks)
    A = float(eigs[:, 0].min())
    B = float(eigs[:, -1].max())
    return FrameReport(
        n=N, p=p, A=A, B=B, tight=is_frame and A == B, is_frame=is_frame,
        ranks=ranks, per_m_eigs=tuple(map(tuple, eigs.astype(float).tolist())),
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
    if not (_is_int(N) and _is_int(p)) or N < 1 or p < 1 or N % p:
        raise PreconditionError(f"need integers with p | N, got N={N!r}, p={p!r}")
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
    is taken mod d, matching the d-periodicity of the transform.  Every
    argument must be an integer (floats and bools are refused).
    """
    if not all(map(_is_int, (q_j, q_i, k, n, N))):
        raise PreconditionError(
            f"oracle needs integers, got q_j={q_j!r}, q_i={q_i!r}, k={k!r}, n={n!r}, N={N!r}"
        )
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
