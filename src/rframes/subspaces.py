"""Ramanujan subspaces and everything built on them: strided-shift bases,
orthogonal decompositions, the RPT expansion, non-uniform (rank-repaired)
banks, erasure robustness, and fusion-frame checks.

S_{p,q} is the span of the φ(q) consecutive p-strided shifts of c_q.  For
p = 1 the subspaces of the divisors of N decompose ℓ²(Z_N) orthogonally for
every N; for p = 2 the same holds exactly when N = 2·(odd), in which case
S_{2,q} = S_{1,q}.  These are exactly the strides whose divisor bank is
tight, so the subspace functions require ``uniform_bank(N, p).tight_bound()``
and take every span fact from that exact count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError, PreconditionError
from .filterbank import (
    _SURVIVOR_TOL, Channel, RamanujanFilterBank, _checked_pairs, _checked_signal, _is_int,
    _real_vector, coefficient_rows, uniform_bank,
)
from .numtheory import _bin_owners, _factorize, _shift_rank, divisors, totient

__all__ = [
    "RamanujanSubspace",
    "subspace_basis",
    "orthonormalize",
    "DecompositionCheck",
    "orthogonal_decomposition_check",
    "rpt_expand",
    "rank_Q",
    "NonUniformBankSpec",
    "build_nonuniform",
    "filterbank_erasure_margin",
    "channel_erasure_margins",
    "robust_to_erasures",
    "FusionFrameReport",
    "fusion_frame_check",
    "FusionErasureReport",
    "fusion_after_local_erasures",
]

@dataclass(frozen=True)
class RamanujanSubspace:
    """S_{p,q} ⊂ ℓ²(Z_N) with its natural (non-orthogonal) shift basis.

    basis columns are L_{pk} c_q for k = 0..φ(q)−1, read from the cached
    divisor bank at stride p.  That bank is required to be tight, which
    proves rank φ(q) for every divisor (notes/decisions.md, entry 14).
    """

    p: int
    q: int
    n: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def subspace_basis(p: int, q: int, N: int) -> RamanujanSubspace:
    """The φ(q) consecutive p-strided shifts of c_q as basis columns.

    Read from channel q of the cached divisor bank ``uniform_bank(N, p)``,
    which must be tight: that holds for p = 1, and for p = 2 exactly when
    N = 2·(odd), and proves that every divisor's shifts span its V_q.

    Parameters
    ----------
    p : int
        Shift stride of a tight divisor bank.
    q : int
        Divisor of N.
    N : int
        Ambient dimension.
    """
    bank = uniform_bank(N, p)
    bank.tight_bound()
    if not _is_int(q) or q not in bank.qs:
        raise PreconditionError(f"q={q!r} is not a divisor of N={N}")
    rows = coefficient_rows(bank, [(k, bank.qs.index(q)) for k in range(totient(q))])
    # C order: BLAS products round differently on a transposed view
    return RamanujanSubspace(p=p, q=q, n=N, basis=np.ascontiguousarray(rows.T))


def orthonormalize(cols: np.ndarray) -> np.ndarray:
    """Orthonormal columns with the span of cols, from one Householder QR.

    Column j is flipped to the sign of R_jj, which makes it the vector
    Gram–Schmidt would produce from the first j + 1 columns.
    """
    cols = np.asarray(cols, dtype=float)
    Q, R = np.linalg.qr(cols)
    diag = np.diagonal(R)
    if len(diag) < cols.shape[1] or (np.abs(diag) < 1e-12).any():
        raise InternalError("dependent column during orthonormalization")
    return Q * np.sign(diag)


@dataclass(frozen=True)
class DecompositionCheck:
    """Result of verifying ℓ²(Z_N) = ⊕_q S_{p,q} over the divisors of N."""

    ok: bool
    dim_total: int
    max_cross: float  # worst normalized inner product between different subspaces
    identity_residual: float  # ‖Σ_q P_q − I‖_max


def orthogonal_decomposition_check(p: int, N: int) -> DecompositionCheck:
    """Verify pairwise orthogonality of the divisor subspaces and that they fill Z_N."""
    prof = divisors(N)
    bases = [subspace_basis(p, q, N).basis for q in prof.divisors]
    B = np.hstack(bases)
    B = B / np.linalg.norm(B, axis=0)
    owner = np.repeat(np.arange(len(bases)), [b.shape[1] for b in bases])
    max_cross = float(np.abs(B.T @ B)[owner[:, None] != owner].max(initial=0.0))
    total = B.shape[1]
    acc = sum(Q @ Q.T for Q in map(orthonormalize, bases))
    identity_residual = float(np.abs(acc - np.eye(N)).max())
    ok = total == N and max_cross < 1e-9 and identity_residual < 1e-8
    return DecompositionCheck(ok, total, max_cross, identity_residual)


def rpt_expand(x, p: int) -> dict[tuple[int, int], float]:
    """Expand x in the union of the divisor shift bases (the RPT coefficients).

    Returns {(q, ℓ): α} with x = Σ α_{q,ℓ} · L_{pℓ} c_q, ℓ = 0..φ(q)−1.  The
    N×N block system is solved directly; the reconstruction residual is
    verified below 1e−8·‖x‖.

    Raises
    ------
    PreconditionError
        If x is not a real vector or holds NaN or inf, or the divisor bank
        at stride p is not tight.
    """
    N = len(_real_vector(x, "signal"))
    x = _checked_signal(x, uniform_bank(N, p))
    prof = divisors(N)
    blocks = [subspace_basis(p, q, N).basis for q in prof.divisors]
    B = np.hstack(blocks)
    try:
        alpha = np.linalg.solve(B, x)
    except np.linalg.LinAlgError as exc:  # decomposition valid ⇒ cannot happen
        raise InternalError(f"RPT block system singular for N={N}, p={p}") from exc
    residual = float(np.linalg.norm(B @ alpha - x))
    scale = float(np.linalg.norm(x))
    if residual > 1e-8 * max(scale, 1e-30):
        raise InternalError(
            f"RPT reconstruction residual {residual:.3g} exceeds 1e-8·‖x‖"
        )
    keys = [(q, ell) for q in prof.divisors for ell in range(totient(q))]
    return {key: float(a) for key, a in zip(keys, alpha)}


def rank_Q(p: int, q: int, N: int) -> int:
    """Rank of the N×(N/p) matrix of all p-strided shifts of c_q.

    p must be a prime divisor of N.  The rank is φ(q) unless p | q and p ≤ q,
    in which case the stride aliases the shifts down to φ(q/p) — the defect
    that the non-uniform construction repairs.

    Raises
    ------
    PreconditionError
        If p, q or N is not an integer (floats and bools are refused), p is
        not a prime divisor of N, or q does not divide N.
    """
    if not (_is_int(p) and _is_int(q) and _is_int(N)) or min(p, q, N) < 1:
        raise PreconditionError(f"rank_Q needs positive integers, got p={p!r}, q={q!r}, N={N!r}")
    if _factorize(p) != {p: 1}:
        raise PreconditionError(f"stride p={p} must be prime")
    if N % p:
        raise PreconditionError(f"p={p} does not divide N={N}")
    if N % q:
        raise PreconditionError(f"q={q} does not divide N={N}")
    return _shift_rank(p, q, N)


@dataclass(frozen=True)
class NonUniformBankSpec:
    """A mixed-ratio bank: stride p everywhere except the aliasing divisors 𝔇_p.

    𝔇_p collects the divisors whose p-strided shifts lose rank (p | q, p ≤ q
    for odd p; multiples of 4 for p = 2); those channels run at the repaired
    ratio r instead.  A and B are the frame-operator bounds of the full
    vector collection.
    """

    p: int
    r: int
    n: int
    dset: tuple[int, ...]
    ratios: tuple[int, ...]
    bank: RamanujanFilterBank
    A: float
    B: float
    is_frame: bool


def aliasing_divisors(p: int, N: int) -> tuple[int, ...]:
    """𝔇_p: the divisors of N whose p-strided shift matrix is rank-deficient."""
    if _factorize(p) != {p: 1} or N % p:
        raise PreconditionError(f"p={p} must be a prime divisor of N={N}")
    prof = divisors(N)
    if p == 2:
        return tuple(q for q in prof.divisors if q % 4 == 0)
    return tuple(q for q in prof.divisors if q % p == 0 and p <= q)


def build_nonuniform(p: int, r: int, N: int) -> NonUniformBankSpec:
    """Construct and verify the frame with ratio p outside 𝔇_p and ratio r inside.

    Parameters
    ----------
    p : int
        Prime divisor of N (the interesting cases have p > 2, where the
        uniform bank is never a frame).
    r : {1, 2}
        Repaired ratio for the aliasing channels; r=2 additionally requires
        N = 2·(odd) so that the stride-2 shifts still span those subspaces.
    N : int
        Signal length.

    Raises
    ------
    PreconditionError
        Hypothesis violations, and a repaired bank that the exact count
        finds is not a frame, which for r ∈ {1, 2} is r = 2 with 4 | N.
    """
    if r not in (1, 2):
        raise PreconditionError(f"repair ratio r must be 1 or 2, got {r}")
    dset = aliasing_divisors(p, N)  # validates p prime, p | N
    qs = divisors(N).divisors
    ratios = tuple(r if q in dset else p for q in qs)
    bank = RamanujanFilterBank(N, tuple(map(Channel, qs, ratios)))
    if bank.frame_bounds is None:
        raise PreconditionError(f"non-uniform bank (p={p}, r={r}, N={N}) is not a frame")
    A, B = map(float, bank.frame_bounds)
    return NonUniformBankSpec(
        p=p, r=r, n=N, dset=dset, ratios=ratios, bank=bank, A=A, B=B, is_frame=True
    )


# ---------------------------------------------------------------------------
# erasures


def filterbank_erasure_margin(bank: RamanujanFilterBank, j: int, m: int) -> float:
    """Channel-erasure margin 1 − (d/A)·Σ_n |Zc_{q_j}(m, n)|² at frequency m.

    The bank survives losing the whole of channel j iff the margin is nonzero
    for every m; the q=1 channel always has margin exactly 0 at m=0, which is
    why no uniform tight bank tolerates a full channel erasure.

    Raises
    ------
    PreconditionError
        If the bank is not uniform and tight, or j or m is not an integer
        (bools and floats are refused) or is out of range.
    """
    margins = channel_erasure_margins(bank, j)
    if not _is_int(m) or not 0 <= m < len(margins):
        raise PreconditionError(f"frequency index {m!r} is not an integer in Z_{len(margins)}")
    return float(margins[m])


def channel_erasure_margins(bank: RamanujanFilterBank, j: int) -> np.ndarray:
    """Margins of channel j at every m ∈ Z_d: 1 − (N·d/A)·#{j′ < p : q_j owns bin −m + j′d}.

    Row m of the Zak image of c_q sees the DFT of c_q on those p bins, N on
    the bins q owns and 0 elsewhere, so Σ_n |Zc_q(m, n)|² = N·(the count).
    The count is one pass over q_j's bins f in the owner vector, binned by
    their row −f mod d (notes/decisions.md, entry 13).

    Raises
    ------
    PreconditionError
        If the bank is not uniform and tight, or j is not an integer channel
        index (bools and floats are refused).
    """
    A = bank.tight_bound()
    if not _is_int(j) or not 0 <= j < len(bank.channels):
        raise PreconditionError(f"channel index {j!r} is not an integer in range")
    N = bank.n
    d = N // bank.ratio
    f = np.flatnonzero(_bin_owners(N) == bank.qs[j])
    return 1.0 - (N * d / A) * np.bincount(-f % d, minlength=d)


def _survivor_bounds(bank: RamanujanFilterBank, erased) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel λ_min and λ_max of A·I − Σ_erased f fᵀ, the survivors' frame operator.

    Channel i's shifts lie in V_{q_i}, the span of the DFT bins q_i owns; these
    subspaces are orthogonal, so erasures act channel by channel.  As
    c_q ∗ c_q = N·c_q, the n_i erased shifts k of channel i have the Gram
    N·c_{q_i}(p(k − k′)); its ascending eigenvalues μ share their nonzero part
    with the erased operator's spectrum on V_{q_i}, of dimension φ(q_i).  So
    λ_min,i = A − μ_max, and λ_max,i = A while n_i < φ(q_i), else A − μ_{n_i−φ(q_i)}.
    """
    A = bank.tight_bound()
    N = bank.n
    erased_by_channel = [[] for _ in bank.channels]
    for k, i in _checked_pairs(bank, erased):
        erased_by_channel[i].append(k)
    lo = np.full(len(bank.channels), A)
    hi = lo.copy()
    phi = np.bincount(_bin_owners(N))  # q owns exactly φ(q) bins
    for i, (ch, ks) in enumerate(zip(bank.channels, erased_by_channel)):
        if not ks:
            continue
        if len(ks) == 1:  # the 1×1 Gram N·c_q(0) = N·φ(q)
            mu = N * bank.filter_matrix[i, :1]
        else:
            k = np.array(ks)
            mu = np.linalg.eigvalsh(N * bank.filter_matrix[i, ch.p * (k[:, None] - k) % N])
        lo[i] = A - mu[-1]
        if len(ks) >= phi[ch.q]:
            hi[i] = A - mu[len(ks) - phi[ch.q]]
    return lo, hi


def robust_to_erasures(p: int, N: int, erased) -> bool:
    """Do the frame vectors survive deleting the given (k, i) pairs?

    Works on tight configurations, where the survivors' frame operator is
    A·I − Σ_erased f fᵀ; the survivors form a frame iff its smallest
    eigenvalue stays above τ = 1e−8 times its largest, the tolerance at
    which recovery counts a direction lost.

    Parameters
    ----------
    erased : iterable of (k, i)
        Shift index k ∈ Z_{N/p} and 0-based channel index i.
    """
    lo, hi = _survivor_bounds(uniform_bank(N, p), erased)
    return bool(lo.min() > _SURVIVOR_TOL * hi.max())


# ---------------------------------------------------------------------------
# fusion frames


@dataclass(frozen=True)
class FusionFrameReport:
    """Empirical fusion bounds of the divisor subspaces {S_{p,q}} with unit weights."""

    p: int
    n: int
    draws: int
    seed: int
    a_f: float  # min over draws of Σ‖P_i x‖² / ‖x‖²
    b_f: float  # max over draws
    parseval: bool
    energies: tuple[float, ...]  # per-subspace ‖P_i x‖² of the first draw
    op_min: float  # fewest divisor channels owning one DFT bin: λ_min of Σ P_i
    op_max: float  # most channels owning one bin: λ_max of Σ P_i


def fusion_frame_check(p: int, N: int, draws: int = 20, seed: int = 0) -> FusionFrameReport:
    """Check the Parseval identity Σ_q ‖P_{S_{p,q}} x‖² = ‖x‖² on seeded draws.

    S_{p,q} lies in V_q, the span of the DFT bins q owns, and equals it once
    the strided shifts have rank φ(q) = dim V_q.  The divisor bank at stride
    p must be tight, and its exact frame bounds prove that rank for every
    divisor (notes/decisions.md, entry 14).  Then P_q x keeps x's DFT on q's
    bins, so ‖P_q x‖² = Σ_{f owned by q} |x̂(f)|²/N from one FFT of the
    draws.  Both routes are reported: per-draw energy ratios (a_f, b_f) and
    the exact eigenvalue range of Σ_q P_q (op_min, op_max).  Σ_q P_q is
    diagonal in the DFT basis, with bin f's entry the number of divisor
    channels owning f, so the exact route reduces to the min and max of that
    count.  All four are 1 for a Parseval fusion frame.  Both routes read the
    owner vector :func:`~rframes.numtheory._bin_owners` (entry 13).

    Raises
    ------
    PreconditionError
        If the divisor bank at stride p is not tight, draws is not an
        integer ≥ 1 or seed not an integer ≥ 0 (bools and floats are refused).
    """
    bank = uniform_bank(N, p)
    bank.tight_bound()
    if not _is_int(draws) or draws < 1:
        raise PreconditionError(f"need an integer count of draws >= 1, got {draws!r}")
    if not _is_int(seed) or seed < 0:
        raise PreconditionError(f"need an integer seed >= 0, got {seed!r}")
    qs = bank.qs
    owns = (_bin_owners(N)[:, None] == np.array(qs)).astype(float)  # bin × channel
    owners = owns.sum(axis=1)
    X = np.random.default_rng(seed).standard_normal((draws, N))  # row t is draw t
    energies = (np.abs(np.fft.fft(X, axis=1)) ** 2 / N @ owns).T  # channel × draw
    ratios = energies.sum(axis=0) / np.sum(X * X, axis=1)
    return FusionFrameReport(
        p=p, n=N, draws=draws, seed=seed, a_f=float(ratios.min()), b_f=float(ratios.max()),
        parseval=bool(np.all(np.abs(ratios - 1.0) <= 1e-9)),
        energies=tuple(energies[:, 0].tolist()),
        op_min=float(owners.min()), op_max=float(owners.max()),
    )


@dataclass(frozen=True)
class FusionErasureReport:
    """Fusion bounds after deleting a few vectors inside each channel.

    a_f and b_f are the survivors' global frame bounds divided by the tight
    constant A = pd² (so the untouched bank reports exactly 1, 1); the guaranteed
    floor is min_i A_{p,i} / A with A_{p,i} the surviving collection's
    lower bound on its own subspace.  The channel subspaces are orthogonal,
    so a_f equals that floor and bound_ok always holds.
    """

    p: int
    n: int
    a_f: float
    b_f: float
    frame_flag: bool
    per_channel_lower: tuple[float, ...]  # A_{p,i}
    bound_ok: bool
    hypothesis_borderline: bool


def fusion_after_local_erasures(p: int, N: int, erased_sets) -> FusionErasureReport:
    """Delete ≤2 shifts per channel and measure what is left, channel by channel.

    Parameters
    ----------
    erased_sets : sequence of int collections
        One collection of shift indices k per channel, aligned with the
        ascending divisor order; at most one entry each (any tight case) or
        two entries each (requires N−1 ≥ 2φ(N) for p=1, d−1 ≥ 2φ(N) for p=2;
        equality is accepted and flagged as borderline).  Each k must be an
        integer: floats, strings and bools are refused, not truncated.
    """
    bank = uniform_bank(N, p)
    K = len(bank.channels)
    if len(erased_sets) != K:
        raise PreconditionError(
            f"need one erased set per channel ({K}), got {len(erased_sets)}"
        )
    sets = [list(s) for s in erased_sets]  # _survivor_bounds checks each k
    lmax = max(map(len, sets), default=0)
    borderline = False
    if lmax > 2:
        raise PreconditionError("at most two erasures per channel are supported")
    if lmax == 2:
        budget, need = N // p - 1, 2 * totient(N)  # d − 1, which is N − 1 for p = 1
        if budget < need:
            raise PreconditionError(
                f"two-per-channel erasures need {'N' if p == 1 else 'd'}−1 ≥ 2φ(N); "
                f"{budget} < {need}"
            )
        borderline = budget == need

    lo, hi = _survivor_bounds(bank, [(k, i) for i, s in enumerate(sets) for k in s])
    A = bank.tight_bound()
    return FusionErasureReport(
        p=p, n=N, a_f=float(lo.min()) / A, b_f=float(hi.max()) / A,
        frame_flag=bool(lo.min() > _SURVIVOR_TOL * hi.max()),
        per_channel_lower=tuple(lo.tolist()),
        bound_ok=True,
        hypothesis_borderline=borderline,
    )
