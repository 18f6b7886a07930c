"""Ramanujan subspaces and everything built on them: strided-shift bases,
orthogonal decompositions, the RPT expansion, non-uniform (rank-repaired)
banks, erasure robustness, and fusion-frame checks.

S_{p,q} is the span of the φ(q) consecutive p-strided shifts of c_q.  For
p = 1 the subspaces of the divisors of N decompose ℓ²(Z_N) orthogonally for
every N; for p = 2 the same holds exactly when N = 2·(odd), in which case
S_{2,q} = S_{1,q}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, PreconditionError
from .filterbank import Channel, RamanujanFilterBank, uniform_bank
from .frames import classify_theorem_case, frame_operator, frame_report, zak
from .numtheory import divisors, ramanujan_sum, totient

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

_RANK_RTOL = 1e-10


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _check_stride(p: int, N: int) -> None:
    """Strides with a full orthogonal divisor decomposition: p=1 always, p=2 for N=2·odd."""
    if p == 1:
        return
    if p == 2:
        if N % 2 == 0 and (N // 2) % 2 == 1:
            return
        raise PreconditionError(
            f"stride 2 subspaces need N = 2·(odd), got N={N}"
        )
    raise PreconditionError(f"subspace stride must be 1 or 2, got p={p}")


@dataclass(frozen=True)
class RamanujanSubspace:
    """S_{p,q} ⊂ ℓ²(Z_N) with its natural (non-orthogonal) shift basis.

    basis columns are L_{pk} c_q for k = 0..φ(q)−1; rank φ(q) is verified at
    construction.
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

    Parameters
    ----------
    p : {1, 2}
        Shift stride; p=2 requires N = 2·(odd).
    q : int
        Divisor of N.
    N : int
        Ambient dimension.
    """
    _check_stride(p, N)
    if N % q:
        raise PreconditionError(f"q={q} does not divide N={N}")
    c = ramanujan_sum(q, N).astype(float)
    phi = totient(q)
    cols = np.empty((N, phi))
    for k in range(phi):
        cols[:, k] = np.roll(c, p * k)
    sv = np.linalg.svd(cols, compute_uv=False)
    rank = int(np.sum(sv > _RANK_RTOL * sv[0]))
    if rank != phi:
        raise InternalError(
            f"shift basis of S_({p},{q}) in Z_{N} has rank {rank}, expected φ({q})={phi}"
        )
    return RamanujanSubspace(p=p, q=q, n=N, basis=cols)


def orthonormalize(cols: np.ndarray) -> np.ndarray:
    """Modified Gram–Schmidt with one re-orthogonalization pass.

    The double pass restores orthogonality to ~1e−12 even for the moderately
    conditioned Ramanujan shift bases.
    """
    Q = np.array(cols, dtype=float, copy=True)
    ncols = Q.shape[1]
    for _ in range(2):
        for j in range(ncols):
            for i in range(j):
                Q[:, j] -= (Q[:, i] @ Q[:, j]) * Q[:, i]
            nrm = float(np.linalg.norm(Q[:, j]))
            if nrm < 1e-12:
                raise InternalError("dependent column during orthonormalization")
            Q[:, j] /= nrm
    return Q


def _projector(p: int, q: int, N: int) -> np.ndarray:
    Q = orthonormalize(subspace_basis(p, q, N).basis)
    return Q @ Q.T


@dataclass(frozen=True)
class DecompositionCheck:
    """Result of verifying ℓ²(Z_N) = ⊕_q S_{p,q} over the divisors of N."""

    ok: bool
    dim_total: int
    max_cross: float  # worst normalized inner product between different subspaces
    identity_residual: float  # ‖Σ_q P_q − I‖_max


def orthogonal_decomposition_check(p: int, N: int) -> DecompositionCheck:
    """Verify pairwise orthogonality of the divisor subspaces and that they fill Z_N."""
    _check_stride(p, N)
    prof = divisors(N)
    bases = [subspace_basis(p, q, N).basis for q in prof.divisors]
    max_cross = 0.0
    for a in range(len(bases)):
        for b in range(a + 1, len(bases)):
            G = bases[a].T @ bases[b]
            scale = np.outer(
                np.linalg.norm(bases[a], axis=0), np.linalg.norm(bases[b], axis=0)
            )
            max_cross = max(max_cross, float(np.abs(G / scale).max()))
    total = sum(B.shape[1] for B in bases)
    acc = np.zeros((N, N))
    for q in prof.divisors:
        acc += _projector(p, q, N)
    identity_residual = float(np.abs(acc - np.eye(N)).max())
    ok = total == N and max_cross < 1e-9 and identity_residual < 1e-8
    return DecompositionCheck(ok, total, max_cross, identity_residual)


def rpt_expand(x, p: int) -> dict[tuple[int, int], float]:
    """Expand x in the union of the divisor shift bases (the RPT coefficients).

    Returns {(q, ℓ): α} with x = Σ α_{q,ℓ} · L_{pℓ} c_q, ℓ = 0..φ(q)−1.  The
    N×N block system is solved directly; the reconstruction residual is
    verified below 1e−8·‖x‖.
    """
    x = np.asarray(x, dtype=float)
    N = len(x)
    _check_stride(p, N)
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
    out: dict[tuple[int, int], float] = {}
    pos = 0
    for q in prof.divisors:
        for ell in range(totient(q)):
            out[(q, ell)] = float(alpha[pos])
            pos += 1
    return out


def rank_Q(p: int, q: int, N: int) -> int:
    """Numerical rank of the N×(N/p) matrix of all p-strided shifts of c_q.

    p must be a prime divisor of N.  The rank is φ(q) unless p | q and p ≤ q,
    in which case the stride aliases the shifts down to φ(q/p) — the defect
    that the non-uniform construction repairs.
    """
    if not _is_prime(p):
        raise PreconditionError(f"stride p={p} must be prime")
    if N % p:
        raise PreconditionError(f"p={p} does not divide N={N}")
    if N % q:
        raise PreconditionError(f"q={q} does not divide N={N}")
    c = ramanujan_sum(q, N).astype(float)
    d = N // p
    cols = np.empty((N, d))
    for k in range(d):
        cols[:, k] = np.roll(c, p * k)
    sv = np.linalg.svd(cols, compute_uv=False)
    if sv[0] <= 0:
        return 0
    return int(np.sum(sv > _RANK_RTOL * sv[0]))


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
    if not _is_prime(p) or N % p:
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
        Hypothesis violations.
    InternalError
        If the verified collection fails to be a frame (cannot happen under
        the preconditions).
    """
    if r not in (1, 2):
        raise PreconditionError(f"repair ratio r must be 1 or 2, got {r}")
    if r == 2:
        _check_stride(2, N)  # stride-2 spans need N = 2·odd
    dset = aliasing_divisors(p, N)  # validates p prime, p | N
    prof = divisors(N)
    ratios = tuple(r if q in dset else p for q in prof.divisors)
    bank = RamanujanFilterBank(
        N, tuple(Channel(q, pq) for q, pq in zip(prof.divisors, ratios))
    )
    eigs = np.linalg.eigvalsh(frame_operator(bank))
    A, B = float(eigs[0]), float(eigs[-1])
    is_frame = A > 1e-8 * B
    if not is_frame:
        raise InternalError(
            f"non-uniform bank (p={p}, r={r}, N={N}) failed its frame check: "
            f"A={A:.3g}, B={B:.3g}"
        )
    return NonUniformBankSpec(
        p=p, r=r, n=N, dset=dset, ratios=ratios, bank=bank, A=A, B=B, is_frame=is_frame
    )


# ---------------------------------------------------------------------------
# erasures


def _tight_bound_or_error(p: int, N: int) -> float:
    case = classify_theorem_case(N, p)
    if case.case != "tight":
        raise PreconditionError(
            f"(N={N}, p={p}) is not a tight configuration: {case.reason}"
        )
    return float(case.bound)


def filterbank_erasure_margin(bank: RamanujanFilterBank, j: int, m: int) -> float:
    """Channel-erasure margin 1 − (d/A)·Σ_n |Zc_{q_j}(m, n)|² at frequency m.

    The bank survives losing the whole of channel j iff the margin is nonzero
    for every m; the q=1 channel always has margin exactly 0 at m=0, which is
    why no uniform tight bank tolerates a full channel erasure.
    """
    margins = channel_erasure_margins(bank, j)
    if not 0 <= m < len(margins):
        raise PreconditionError(f"frequency index {m} outside Z_{len(margins)}")
    return float(margins[m])


def channel_erasure_margins(bank: RamanujanFilterBank, j: int) -> np.ndarray:
    """Margins of channel j at every frequency m ∈ Z_d, from one report and one Zak image."""
    if not bank.uniform:
        raise PreconditionError("channel-erasure margins need a uniform bank")
    report = frame_report(bank)
    if not report.tight:
        raise PreconditionError(f"bank (N={bank.n}, p={bank.ratio}) is not tight")
    if not 0 <= j < len(bank.channels):
        raise PreconditionError(f"channel index {j} out of range")
    p = bank.ratio
    d = bank.n // p
    Z = zak(ramanujan_sum(bank.channels[j].q, bank.n).astype(float), p)
    return 1.0 - (d / report.A) * np.sum(np.abs(Z) ** 2, axis=1)


def _erased_vectors(p: int, N: int, erased) -> np.ndarray:
    """Columns L_{pk} c_{q_i} for the (k, i) pairs; validates ranges/duplicates."""
    prof = divisors(N)
    d = N // p
    seen = set()
    cols = []
    for k, i in erased:
        k, i = int(k), int(i)
        if not 0 <= i < prof.count:
            raise PreconditionError(f"channel index {i} out of range for N={N}")
        if not 0 <= k < d:
            raise PreconditionError(f"shift index {k} outside Z_{d}")
        if (k, i) in seen:
            raise PreconditionError(f"duplicate erasure pair {(k, i)}")
        seen.add((k, i))
        cols.append(np.roll(ramanujan_sum(prof.divisors[i], N).astype(float), p * k))
    return np.array(cols).T if cols else np.empty((N, 0))


def robust_to_erasures(p: int, N: int, erased) -> bool:
    """Do the frame vectors survive deleting the given (k, i) pairs?

    Works on tight configurations, where the survivors' frame operator is
    A·I − Σ_erased f fᵀ; the survivors form a frame iff
    A − λ_max(Gram of erased) stays above 1e−8 times the surviving maximum.

    Parameters
    ----------
    erased : iterable of (k, i)
        Shift index k ∈ Z_{N/p} and 0-based channel index i.
    """
    A = _tight_bound_or_error(p, N)
    F = _erased_vectors(p, N, erased)
    r = F.shape[1]
    if r == 0:
        return True
    mu = np.linalg.eigvalsh(F.T @ F)
    lam_min = A - float(mu[-1])
    lam_max = A if r < N else A - float(mu[0])
    return lam_min > 1e-8 * lam_max


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
    op_min: float  # smallest eigenvalue of Σ P_i (exact route)
    op_max: float


def fusion_frame_check(p: int, N: int, draws: int = 20, seed: int = 0) -> FusionFrameReport:
    """Check the Parseval identity Σ_q ‖P_{S_{p,q}} x‖² = ‖x‖² on seeded draws.

    Both routes are reported: per-draw energy ratios (a_f, b_f) and the exact
    eigenvalue range of Σ_q P_q (op_min, op_max); all four are 1 for a
    Parseval fusion frame.
    """
    _check_stride(p, N)
    if draws < 1:
        raise PreconditionError("need at least one draw")
    prof = divisors(N)
    projectors = [_projector(p, q, N) for q in prof.divisors]
    acc = np.zeros((N, N))
    for P in projectors:
        acc += P
    op_eigs = np.linalg.eigvalsh(acc)
    rng = np.random.default_rng(seed)
    lo, hi = math.inf, -math.inf
    first_energies: tuple[float, ...] = ()
    parseval = True
    for t in range(draws):
        x = rng.standard_normal(N)
        total = float(x @ x)
        energies = [float(np.linalg.norm(P @ x) ** 2) for P in projectors]
        if t == 0:
            first_energies = tuple(energies)
        ratio = sum(energies) / total
        lo, hi = min(lo, ratio), max(hi, ratio)
        if abs(ratio - 1.0) > 1e-9:
            parseval = False
    return FusionFrameReport(
        p=p, n=N, draws=draws, seed=seed, a_f=float(lo), b_f=float(hi),
        parseval=parseval, energies=first_energies,
        op_min=float(op_eigs[0]), op_max=float(op_eigs[-1]),
    )


@dataclass(frozen=True)
class FusionErasureReport:
    """Fusion bounds after deleting a few vectors inside each channel.

    a_f and b_f are the survivors' global frame bounds divided by the tight
    constant pd² (so the untouched bank reports exactly 1, 1); the guaranteed
    floor is min_i A_{p,i} / (pd²) with A_{p,i} the surviving collection's
    lower bound on its own subspace.
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
        equality is accepted and flagged as borderline).
    """
    A = _tight_bound_or_error(p, N)
    _check_stride(p, N)
    prof = divisors(N)
    d = N // p
    if len(erased_sets) != prof.count:
        raise PreconditionError(
            f"need one erased set per channel ({prof.count}), got {len(erased_sets)}"
        )
    sets = [sorted(set(int(k) for k in s)) for s in erased_sets]
    for i, s in enumerate(sets):
        if len(s) != len(list(erased_sets[i])):
            raise PreconditionError(f"duplicate shift indices in channel {i}")
        if any(not 0 <= k < d for k in s):
            raise PreconditionError(f"shift index out of Z_{d} in channel {i}")
    lmax = max((len(s) for s in sets), default=0)
    borderline = False
    if lmax > 2:
        raise PreconditionError("at most two erasures per channel are supported")
    if lmax == 2:
        budget = (N - 1) if p == 1 else (d - 1)
        need = 2 * totient(N)
        if budget < need:
            raise PreconditionError(
                f"two-per-channel erasures need {'N' if p == 1 else 'd'}−1 ≥ 2φ(N); "
                f"{budget} < {need}"
            )
        borderline = budget == need

    pairs = [(k, i) for i, s in enumerate(sets) for k in s]
    F = _erased_vectors(p, N, pairs)
    if F.shape[1]:
        mu = np.linalg.eigvalsh(F.T @ F)
        lam_min = A - float(mu[-1])
        lam_max = A if F.shape[1] < N else A - float(mu[0])
    else:
        lam_min = lam_max = A

    per_channel = []
    for i, q in enumerate(prof.divisors):
        keep = [k for k in range(d) if k not in sets[i]]
        c = ramanujan_sum(q, N).astype(float)
        Fi = np.array([np.roll(c, p * k) for k in keep]).T
        Q = orthonormalize(subspace_basis(p, q, N).basis)
        G = Q.T @ Fi
        eigs = np.linalg.eigvalsh(G @ G.T)
        per_channel.append(float(eigs[0]))

    scale = p * d * d
    a_f = lam_min / scale
    b_f = lam_max / scale
    floor = min(per_channel) / scale
    return FusionErasureReport(
        p=p, n=N, a_f=a_f, b_f=b_f,
        frame_flag=lam_min > 1e-8 * lam_max,
        per_channel_lower=tuple(per_channel),
        bound_ok=a_f >= floor - 1e-8,
        hypothesis_borderline=borderline,
    )
