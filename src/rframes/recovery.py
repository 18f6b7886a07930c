"""Uncertainty bounds, truncated analysis sums, and ℓ1 signal recovery.

Everything here works over a tight uniform bank with constant A = pd².  A
coefficient pair (k, i) means shift index k ∈ Z_d on 0-based channel i; the
coefficient itself is (x ∗ c_{q_i})(pk) = ⟨x, L_{pk} c_{q_i}⟩ for real x,
because Ramanujan sums are even.

The recovery problems are linear programs over the coefficient constraints:

* ``recover_missing``    — min ‖x′‖₁ with the retained coefficients pinned.
* ``recover_missing_periodic`` — the same plus hard zeros on every channel
  outside the declared period list.
* ``denoise``            — min ‖y − x′‖₁ with x′ ranging over the subspace of
  signals whose coefficients vanish off a detected support set.

All three split by channel: the shifts of c_q span V_q, and the V_q are
orthogonal.  Each channel factors only its erased shifts D, because its
kept shifts R satisfy RᵀR = A·I − DᵀD.  A channel whose retained shifts
still span V_q is recovered by a φ(q)-dimensional linear solve; an ℓ1 fit
over the null coordinates runs only when some channel's retained shifts
fall short.  Denoising fits y over the null directions of the channels
with the membership as the erased set, which span the membership subspace.
Every ℓ1 fit is :func:`~rframes.simplex.lad_fit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SolverError
from .filterbank import (
    ChannelGeometry,
    RamanujanFilterBank,
    _SURVIVOR_TOL,
    _checked_pairs,
    _checked_signal,
    _finite_vector,
    analyze,
    channel_energies,
    coefficient_rows,
    synthesize,
)
from .numtheory import _bin_owners, _is_finite_real, _is_int, _seeded_rng, totient
from .simplex import _least_distance, _rank, lad_fit

__all__ = [
    "UncertaintyReport",
    "uncertainty_report",
    "all_pairs",
    "coefficient_rows",
    "truncated_sum",
    "recover_missing",
    "recover_missing_periodic",
    "membership_null_basis",
    "denoise",
    "MembershipConstraintSet",
    "detect_support_set",
    "snr_db",
    "GaussianNoiseModel",
    "SparseNoiseModel",
    "add_noise",
]


# ---------------------------------------------------------------------------
# uncertainty


@dataclass(frozen=True)
class UncertaintyReport:
    """Support counts of a signal against a tight bank, with their lower bounds.

    s_x counts nonzero analysis coefficients across all channels and shifts,
    b_x counts nonzero samples of x; both at relative tolerance tol.  The
    bounds are  s_x + b_x ≥ 2√A/β_o  and  s_x·b_x ≥ A/β_o², with A = pd² the
    tight bound and β_o = φ(N) the largest filter magnitude.
    """

    n: int
    p: int
    tol: float
    s_x: int
    b_x: int
    sum_bound: float
    prod_bound: float
    beta_o: int
    sum_ok: bool
    prod_ok: bool


def uncertainty_report(
    x, bank: RamanujanFilterBank, tol: float = 1e-8
) -> UncertaintyReport:
    """Count coefficient/sample supports of x and check the uncertainty bounds."""
    if not _is_finite_real(tol) or not 0.0 <= tol < 1.0:
        raise PreconditionError(f"tol must be a real number in [0, 1), got {tol!r}")
    x = _checked_signal(x, bank)
    A = bank.tight_bound()
    if not np.any(x):
        raise PreconditionError("uncertainty counts need a nonzero signal")
    coeffs = np.concatenate(analyze(x, bank))
    cmax = float(np.abs(coeffs).max())
    s_x = int(np.sum(np.abs(coeffs) > tol * cmax)) if cmax > 0 else 0
    xmax = float(np.abs(x).max())
    b_x = int(np.sum(np.abs(x) > tol * xmax))
    phi = totient(bank.n)
    sum_bound = 2.0 * math.sqrt(A) / phi
    prod_bound = A / phi**2
    return UncertaintyReport(
        n=bank.n, p=bank.ratio, tol=tol, s_x=s_x, b_x=b_x,
        sum_bound=sum_bound, prod_bound=prod_bound, beta_o=phi,
        sum_ok=(s_x + b_x) >= sum_bound - 1e-12,
        prod_ok=(s_x * b_x) >= prod_bound - 1e-12,
    )


# ---------------------------------------------------------------------------
# coefficient plumbing


def all_pairs(bank: RamanujanFilterBank) -> list[tuple[int, int]]:
    """Every (shift k, channel i) pair of a uniform bank, channel-major."""
    d = bank.n // bank.ratio
    return [(k, i) for i in range(len(bank.channels)) for k in range(d)]


def truncated_sum(x, pairs, bank: RamanujanFilterBank) -> np.ndarray:
    """(1/A) Σ_{(k,i) ∈ pairs} (x ∗ c_{q_i})(pk) · L_{pk} c_{q_i}.

    With the full pair set this is the tight-frame reconstruction of x; with
    pairs missing it is the lossy partial sum the recovery problems start
    from.  Computed as one :func:`analyze`, with the coefficients outside
    pairs zeroed, and one :func:`synthesize`.
    """
    bank.tight_bound()  # first: a non-uniform bank's coefficient arrays differ in length
    coeffs = np.array(analyze(x, bank))
    return synthesize(np.where(_pair_mask(bank, pairs), coeffs, 0.0), bank)


# ---------------------------------------------------------------------------
# recovery, channel by channel


@dataclass(frozen=True)
class _ChannelSystem:
    """Divisor q's erased shifts against the survivors' frame operator, in real Fourier coordinates.

    geo describes the orthonormal basis U of V_q
    (:class:`~rframes.filterbank.ChannelGeometry`).  The system depends on
    the erasure pattern alone, never on a signal.  On a tight bank the kept
    rows R and the erased rows D of q satisfy RᵀR = A·I − DᵀD, so the
    survivors' eigenvalue is lam_j = A − σ_j² on row j of vt, D's right
    singular vectors, and A on every direction outside vt's rows.  vt has no
    rows where no shift of q is erased, and is I (lam = 0) where every one
    is.  lam ascends, and the first ``nulls`` rows of vt, those with
    lam ≤ τ·A, are the directions the kept shifts miss.
    """

    geo: ChannelGeometry
    vt: np.ndarray
    lam: np.ndarray
    nulls: int


def _pair_mask(bank: RamanujanFilterBank, pairs) -> np.ndarray:
    """The checked pairs of a uniform bank as a K×d mask, entry (i, k) set for pair (k, i)."""
    keep = np.zeros((len(bank.channels), bank.n // bank.ratio), dtype=bool)
    for k, i in _checked_pairs(bank, pairs):
        keep[i, k] = True
    return keep


def _channel_systems(erased, bank: RamanujanFilterBank) -> list[_ChannelSystem]:
    """One :class:`_ChannelSystem` per divisor q of N, for a tight uniform bank.

    erased is the K×d mask of the erased pairs (:func:`_pair_mask`), so the
    pairs are checked once by the caller, and their order does not matter:
    each divisor's erased rows are taken k-ascending, over all of q's
    channels.  The rows L_{pk}c_q lie in V_q and the V_q are orthogonal, so
    the coefficient constraints split by divisor.  A divisor with no shift
    erased, or with every one, takes its closed form with no SVD.  Any
    other gathers its n_e erased rows D = N·w·trig[sine, (p·k·g) mod N]
    from the bank's ``channel_geometry`` and takes the thin SVD of that
    n_e × φ(q) matrix (notes/decisions.md, entry 15).  Nothing here reads a
    signal: a caller clears a divisor's rows from the mask to skip its SVD.

    Raises
    ------
    PreconditionError
        If the bank is not tight.
    """
    A = bank.tight_bound()
    N, p = bank.n, bank.ratio
    qs = np.array(bank.qs)
    out = []
    for geo in bank.channel_geometry:
        gone = erased[qs == geo.q]
        ks = np.nonzero(gone)[1]
        if not ks.size:
            vt, lam = np.zeros((0, geo.bins.size)), np.zeros(0)
        elif gone.all():
            vt, lam = np.eye(geo.bins.size), np.zeros(geo.bins.size)
        else:
            D = N * geo.w * geo.trig[geo.sine.astype(int), (p * ks[:, None] * geo.bins) % N]
            _, sv, vt = np.linalg.svd(D, full_matrices=False)
            lam = A - sv**2
        out.append(_ChannelSystem(geo, vt, lam, np.count_nonzero(lam <= _SURVIVOR_TOL * A)))
    return out


def _spectrum(N: int, geo: ChannelGeometry, coords: np.ndarray) -> np.ndarray:
    """rfft of U·a for each row a of coords (U the basis of V_q that geo describes)."""
    cos, sin = ~geo.sine, geo.sine
    S = np.zeros((coords.shape[0], N // 2 + 1), dtype=complex)
    S[:, geo.bins[cos]] = coords[:, cos] / geo.w[cos]
    S[:, geo.bins[sin]] -= 1j * coords[:, sin] / geo.w[sin]
    return S


def _null_directions(N: int, system: _ChannelSystem) -> np.ndarray:
    """Orthonormal N×nulls basis of the part of V_q the kept shifts miss."""
    return np.fft.irfft(_spectrum(N, system.geo, system.vt[: system.nulls]), n=N, axis=1).T


def _null_basis(N: int, systems) -> np.ndarray | None:
    """Every system's :func:`_null_directions` side by side (N×Σnulls), or None if there are none."""
    null = [_null_directions(N, s) for s in systems if s.nulls]
    return np.hstack(null) if null else None


def _solve_channels(observed, pairs, bank: RamanujanFilterBank, killed=()) -> np.ndarray:
    """min ‖x′‖₁ over the x′ whose channels match observed, those in ``killed`` at zero.

    One rfft of observed gives every channel's coordinates t = Uᵀ·observed.
    Channel q's particular solution is α_q = A·(RᵀR)⁺·t on its determined
    directions, R its kept rows: t off vt's rows, (A/lam)·t on its
    determined rows and zero on its null rows, so α_q = t where no shift is
    erased.  A killed channel is determined entirely, at zero: its rows are
    cleared from the erased mask first, so it is never factored, and its t
    must carry no energy.  When every channel is determined, the answer is
    the particular solution x_p; otherwise the feasible set is x_p + span(Z),
    Z the orthonormal null directions of the deficient channels, and the
    answer is x_p + Z·z, the residual of the least-absolute-deviations fit
    of x_p by −Z.
    """
    observed = _checked_signal(observed, bank)
    A = bank.tight_bound()
    N = bank.n
    erased = ~_pair_mask(bank, pairs)
    erased[[q in killed for q in bank.qs]] = False
    X = np.fft.rfft(observed)
    X_p = np.zeros(N // 2 + 1, dtype=complex)
    systems = _channel_systems(erased, bank)
    for s in systems:
        geo = s.geo
        t = geo.w * np.where(geo.sine, -X[geo.bins].imag, X[geo.bins].real)
        if geo.q in killed:
            if np.linalg.norm(t) > 1e-7 * np.linalg.norm(observed):
                raise PreconditionError(
                    f"observation has energy in channel {geo.q}, outside the declared periods"
                )
            continue
        if len(s.vt):  # some shift erased
            det = s.vt[s.nulls:]
            t = t - s.vt.T @ (s.vt @ t) + det.T @ ((A / s.lam[s.nulls:]) * (det @ t))
        X_p += _spectrum(N, geo, t[None, :])[0]
    x_p = np.fft.irfft(X_p, n=N)
    Z = _null_basis(N, systems)
    return x_p if Z is None else lad_fit(-Z, x_p).residual


def recover_missing(observed, pairs, bank: RamanujanFilterBank) -> np.ndarray:
    """min ‖x′‖₁ subject to the retained coefficients matching the observation.

    Solved channel by channel (:func:`_solve_channels`): a channel whose
    retained shifts span V_q is recovered by a φ(q)-dimensional linear solve,
    and an ℓ1 fit over the null coordinates runs only when some channel's
    shifts fall short.

    Parameters
    ----------
    observed : Signal
        The truncated sum over the retained pairs (what the receiver holds).
    pairs : iterable of (k, i)
        The retained coefficient set 𝒥.
    """
    return _solve_channels(observed, pairs, bank)


def recover_missing_periodic(
    observed, pairs, bank: RamanujanFilterBank, periods
) -> np.ndarray:
    """recover_missing plus hard zeros on every channel outside ``periods``.

    The coordinates of each divisor q of N not listed in periods are dropped
    (fixed at zero); q = 1, the mean, is zeroed too unless listed.

    Raises
    ------
    PreconditionError
        If the bank is not tight, periods is a string or not iterable, or a
        period is not an integer divisor of N (floats and bools are refused,
        not truncated), or the observation carries energy (above 1e−7
        relative) in a channel outside ``periods``.
    """
    bank.tight_bound()  # first: a tight bank has a channel at every divisor of N
    periods = _checked_periods(periods, bank.qs, bank.n)
    killed = {q for q in bank.qs if q not in periods}
    return _solve_channels(observed, pairs, bank, killed)


def _checked_periods(periods, qs, N: int) -> list:
    """periods as a list, each an integer among the divisors qs of N.

    Raises
    ------
    PreconditionError
        If periods is a string or not iterable, or a period is not an
        integer divisor of N (floats and bools are refused, not truncated).
    """
    if isinstance(periods, str):
        raise PreconditionError(f"periods {periods!r} is a string, not a list of divisors")
    try:
        periods = list(periods)
    except TypeError:
        raise PreconditionError(f"periods {periods!r} is not a list of divisors") from None
    for q in periods:
        if not _is_int(q) or q not in qs:
            raise PreconditionError(f"period {q!r} is not an integer divisor of N={N}")
    return periods


# ---------------------------------------------------------------------------
# denoising


def membership_null_basis(bank: RamanujanFilterBank, pairs) -> np.ndarray:
    """Orthonormal basis (columns) of {v : ⟨v, f_j⟩ = 0 for every pair j ∉ pairs}.

    Built channel by channel, as recovery builds its null coordinates, with
    the membership as the erased set: the complement rows of divisor q lie
    in V_q and the V_q are orthogonal, so the subspace is the union over q
    of :func:`_null_directions` of q's system.  A divisor with no member
    adds nothing, and one whose every shift is a member adds all φ(q) of
    its real Fourier directions, both with no SVD; any other takes the thin
    SVD of its member rows (notes/decisions.md, entry 15).

    Raises
    ------
    PreconditionError
        If the bank is not uniform and tight, a pair is malformed, or the
        subspace is trivial.
    """
    Z = _null_basis(bank.n, _channel_systems(_pair_mask(bank, pairs), bank))
    if Z is None:
        raise PreconditionError(
            "membership subspace is trivial: every signal consistent with the "
            "constraint set is zero"
        )
    return Z


def _nearest_optimum(B, y, fit) -> np.ndarray:
    """The ℓ1 optimum B·z nearest y in ℓ2, given lad_fit's fit of y by B.

    B has orthonormal columns.  Any optimal dual u fixes the optimal face:
    z is optimal iff u_i·r_i = |r_i| for every residual r = y − B·z, so
    r_i = 0 where |u_i| < 1 and sign(r_i) ∈ {0, u_i} where |u_i| = 1 (then
    ‖r‖₁ = uᵀy, the optimum).  With z = fit.x + N·w, N an orthonormal basis
    of the null space of the equality rows, ‖y − B·z‖₂² is
    ‖w − NᵀBᵀr‖₂² plus a constant, so the nearest optimum is a least-distance
    program in w over the sign rows.  The answer keeps the fit's objective
    to 1e−9 relative, or SolverError.
    """
    u, r = fit.dual, fit.residual
    eq = np.abs(u) < 1.0 - 1e-9
    N = np.eye(B.shape[1])
    if eq.any():
        _, sv, vh = np.linalg.svd(B[eq])
        N = vh[_rank(sv):].T
    w0 = N.T @ (B.T @ r)
    s = np.sign(u[~eq])
    rs = np.maximum(s * r[~eq], 0.0)  # a wrong sign is rounding below the fit's gap
    G = -(s[:, None] * B[~eq]) @ N  # s_i·r_i(w) = rs_i + G_i·w ≥ 0 on the sign rows
    w = w0 + _least_distance(G, -rs - G @ w0)
    xhat = y - r + B @ (N @ w)
    obj = float(np.abs(y - xhat).sum())
    if obj > fit.objective + 1e-9 * max(1.0, fit.objective):
        raise SolverError(
            f"nearest ℓ1 optimum left the optimal face: ‖y − x̂‖₁ = {obj!r} "
            f"against {fit.objective!r}"
        )
    return xhat


def _denoise_fit(y, membership, bank: RamanujanFilterBank):
    """denoise's x̂, with the membership basis B, the checked y and lad_fit's fit of y by B."""
    y = _checked_signal(y, bank)
    B = membership_null_basis(bank, getattr(membership, "pairs", membership))
    fit = lad_fit(B, y)
    return _nearest_optimum(B, y, fit), B, y, fit


def denoise(y, membership, bank: RamanujanFilterBank) -> np.ndarray:
    """ℓ1-closest signal to y among those supported on the membership set.

    min ‖y − B·z‖₁ over the orthonormal membership basis B
    (:func:`membership_null_basis`), solved by :func:`lad_fit`.  Where the
    optimum is a face, not a point, the answer is the optimum nearest y in
    ℓ2 (:func:`_nearest_optimum`), a fixed point of the face that no pivot
    order moves; :func:`~rframes.simplex.lad_fit_unique` says whether the
    face is a point.

    Parameters
    ----------
    membership : MembershipConstraintSet or iterable of (k, i)
        Coefficient pairs allowed to be nonzero; everything else is
        constrained to zero output.
    """
    return _denoise_fit(y, membership, bank)[0]


@dataclass(frozen=True)
class MembershipConstraintSet:
    """A detected coefficient support: all shifts of every retained channel."""

    pairs: tuple[tuple[int, int], ...]
    channels: tuple[int, ...]  # retained divisors q
    energies: tuple[float, ...]  # per-channel energies, normalized by N·φ(q)
    threshold: float

    def __iter__(self):
        return iter(self.pairs)


def detect_support_set(
    y, bank: RamanujanFilterBank, threshold_factor: float
) -> MembershipConstraintSet:
    """Channels whose output energy clears threshold_factor times the maximum.

    Energies are normalized per channel by ‖c_q‖² = N·φ(q) before comparing:
    white noise then contributes the same expected energy to every channel, so
    the threshold separates structure from the flat noise floor rather than
    from the filters' wildly different gains.  All d shifts of each retained
    channel enter the membership set.
    """
    if not _is_finite_real(threshold_factor) or not 0.0 < threshold_factor < 1.0:
        raise PreconditionError(
            f"threshold_factor must be a real number in (0, 1), got {threshold_factor!r}"
        )
    phi = np.bincount(_bin_owners(bank.n))[list(bank.qs)]  # q owns exactly φ(q) bins
    norm = channel_energies(y, bank) / (bank.n * phi)
    top = float(norm.max())
    if top <= 0.0:
        raise PreconditionError("all channel energies vanish; nothing to detect")
    kept = [i for i in range(len(bank.channels)) if norm[i] > threshold_factor * top]
    d = bank.n // bank.ratio
    pairs = tuple((k, i) for i in kept for k in range(d))
    return MembershipConstraintSet(
        pairs=pairs,
        channels=tuple(bank.channels[i].q for i in kept),
        energies=tuple(float(v) for v in norm),
        threshold=threshold_factor * top,
    )


# ---------------------------------------------------------------------------
# noise


def snr_db(signal: np.ndarray, noise: np.ndarray) -> float:
    """10·log₁₀ of the power ratio; +inf when the error vector is exactly zero.

    A vector that is not real and finite is a PreconditionError.
    """
    signal = _finite_vector(signal, "signal")
    noise = _finite_vector(noise, "error")
    if signal.shape != noise.shape:
        raise PreconditionError("signal and error must have the same length")
    pn = float(noise @ noise)
    if pn == 0.0:
        return math.inf
    ps = float(signal @ signal)
    return 10.0 * math.log10(ps / pn)


@dataclass(frozen=True)
class GaussianNoiseModel:
    """White Gaussian noise rescaled so the achieved SNR hits the target exactly."""

    snr_db: float


@dataclass(frozen=True)
class SparseNoiseModel:
    """Corruption on a fixed sample set: given values, or seeded ±amplitude draws."""

    support: tuple[int, ...]
    values: tuple[float, ...] | None = None
    amplitude: float = 1.0


def _box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)  # (0, 1]
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    return out[:n]


def add_noise(x, model, seed: int = 0) -> np.ndarray:
    """Return x + η for the given noise model, deterministically under seed.

    A signal, sparse value or level that is not real and finite, a sparse
    index or a seed that is not an integer, or a negative seed is a
    PreconditionError.
    """
    x = _finite_vector(x, "signal")
    n = len(x)
    rng = _seeded_rng(seed)
    if isinstance(model, GaussianNoiseModel):
        if not _is_finite_real(model.snr_db):
            raise PreconditionError(f"SNR must be a finite real number of dB, got {model.snr_db!r}")
        px = float(x @ x)
        if px == 0.0:
            raise PreconditionError("cannot target an SNR against a zero signal")
        eta = _box_muller(rng, n)
        eta *= math.sqrt(px / float(eta @ eta)) * 10.0 ** (-model.snr_db / 20.0)
        return x + eta
    if isinstance(model, SparseNoiseModel):
        try:
            support = list(model.support)
        except TypeError:
            raise PreconditionError(
                f"sparse noise support {model.support!r} is not a list of indices"
            ) from None
        if not all(_is_int(k) for k in support):
            raise PreconditionError(f"sparse noise support {model.support!r} is not all integers")
        if len(set(support)) != len(support):
            raise PreconditionError("sparse noise support has duplicates")
        if any(not 0 <= k < n for k in support):
            raise PreconditionError(f"sparse noise support outside Z_{n}")
        if model.values is not None:
            vals = _finite_vector(model.values, "sparse noise")
            if len(vals) != len(support):
                raise PreconditionError("values and support lengths differ")
        elif not _is_finite_real(model.amplitude):
            raise PreconditionError(f"amplitude must be a finite real number, got {model.amplitude!r}")
        else:
            vals = model.amplitude * _box_muller(rng, len(support))
        y = x.copy()
        for k, v in zip(support, vals):
            y[k] += v
        return y
    raise PreconditionError(f"unknown noise model {type(model).__name__}")
