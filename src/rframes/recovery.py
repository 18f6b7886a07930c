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

The first two split by channel: the shifts of c_q span V_q, and the V_q are
orthogonal.  A channel whose retained shifts still span V_q is recovered by
a φ(q)-dimensional linear solve; an ℓ1 fit over the null coordinates runs
only when some channel's retained shifts fall short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PreconditionError
from .filterbank import (
    RamanujanFilterBank,
    _checked_pairs,
    _checked_signal,
    analyze,
    channel_energies,
    coefficient_rows,
    synthesize,
)
from .numtheory import _bin_channel, divisors, totient
from .simplex import l1_fit, lad_fit

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
    bounds are  s_x + b_x ≥ 2d√p/φ(N)  and  s_x·b_x ≥ p(d/φ(N))², with
    β_o = φ(N) the largest filter magnitude that drives both.  In frame terms
    they are 2√A/β_o and A/β_o² with the tight-frame bound A = pd².
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
    x = np.asarray(x, dtype=float)
    bank.tight_bound()
    if not np.any(x):
        raise PreconditionError("uncertainty counts need a nonzero signal")
    coeffs = np.concatenate(analyze(x, bank))
    cmax = float(np.abs(coeffs).max())
    s_x = int(np.sum(np.abs(coeffs) > tol * cmax)) if cmax > 0 else 0
    xmax = float(np.abs(x).max())
    b_x = int(np.sum(np.abs(x) > tol * xmax))
    p = bank.ratio
    d = bank.n // p
    phi = totient(bank.n)
    sum_bound = 2.0 * d * math.sqrt(p) / phi
    prod_bound = p * (d / phi) ** 2
    return UncertaintyReport(
        n=bank.n, p=p, tol=tol, s_x=s_x, b_x=b_x,
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
    kept = np.zeros(coeffs.shape, dtype=bool)
    k, i = np.array(_checked_pairs(bank, pairs), dtype=int).reshape(-1, 2).T
    kept[i, k] = True
    return synthesize(np.where(kept, coeffs, 0.0), bank)


# ---------------------------------------------------------------------------
# recovery, channel by channel


@dataclass(frozen=True)
class _ChannelSystem:
    """Channel q's retained coefficients as b = B·α in real Fourier coordinates.

    Coordinate j of α is the inner product with √(2/N)·cos or sin(2π·g_j·n/N)
    for a half-spectrum bin g_j that q owns (1/√N·cos at g = 0 and N/2): an
    orthonormal basis U of V_q with φ(q) columns.  Row s of B is a retained
    shift, B = W·diag(sv)·vt is its SVD with vt square (φ(q)×φ(q)), and
    t = Uᵀ·observed.  The first ``rank`` rows of vt are the directions the
    retained shifts determine, the rest the null directions.
    """

    q: int
    bins: np.ndarray  # g_j per coordinate
    sine: np.ndarray  # True where coordinate j is the sine of its bin
    w: np.ndarray  # the basis norm factor of coordinate j
    sv: np.ndarray
    vt: np.ndarray
    t: np.ndarray
    rank: int


def _channel_systems(observed, pairs, bank: RamanujanFilterBank) -> list[_ChannelSystem]:
    """One :class:`_ChannelSystem` per distinct channel q of a tight uniform bank.

    The rows L_{pk}c_q lie in V_q and the V_q are orthogonal, so the
    coefficient constraints split by channel.  In U's coordinates
    ⟨x, L_s c_q⟩ = Σ_j N·w_j·(cos or sin)(2π·g_j·s/N)·α_j, with w_j = √(2/N)
    (1/√N at the edge bins), and one rfft of observed gives every t.  The
    rank cut s > 1e−10·max σ runs over all channels at once: the singular
    values of the stacked rows R are the union of the channels', so this is
    the cut of the simplex's row reduction on R.  A channel that keeps fewer
    shifts than φ(q) takes the full SVD, because the thin vt stops at the
    shift count and would lose null directions.
    """
    N, p = bank.n, bank.ratio
    X = np.fft.rfft(observed)
    half = np.arange(N // 2 + 1)
    owner = _bin_channel(half, N)
    norm = np.where((half == 0) | (2 * half == N), 1.0 / math.sqrt(N), math.sqrt(2.0 / N))
    k, i = np.array(_checked_pairs(bank, pairs), dtype=int).reshape(-1, 2).T
    q_of = np.array(bank.qs)[i]
    systems = []
    for q in sorted(set(bank.qs)):
        g = half[owner == q]
        bins = np.concatenate([g, g[(g != 0) & (2 * g != N)]])
        sine = np.arange(bins.size) >= g.size
        w = norm[bins]
        s = p * k[q_of == q]
        angle = (2.0 * np.pi / N) * ((s[:, None] * bins) % N)
        B = N * w * np.where(sine, np.sin(angle), np.cos(angle))
        if s.size:
            _, sv, vt = np.linalg.svd(B, full_matrices=s.size < bins.size)
        else:
            sv, vt = np.zeros(0), np.eye(bins.size)
        t = w * np.where(sine, -X[bins].imag, X[bins].real)
        systems.append(_ChannelSystem(q, bins, sine, w, sv, vt, t, rank=0))
    cut = 1e-10 * max((s.sv[0] for s in systems if s.sv.size), default=0.0)
    return [replace(s, rank=int(np.sum(s.sv > cut))) for s in systems]


def _spectrum(N: int, system: _ChannelSystem, coords: np.ndarray) -> np.ndarray:
    """rfft of U·a for each row a of coords (U the system's basis of V_q)."""
    cos, sin = ~system.sine, system.sine
    S = np.zeros((coords.shape[0], N // 2 + 1), dtype=complex)
    S[:, system.bins[cos]] = coords[:, cos] / system.w[cos]
    S[:, system.bins[sin]] -= 1j * coords[:, sin] / system.w[sin]
    return S


def _null_directions(N: int, system: _ChannelSystem) -> np.ndarray:
    """Orthonormal N×(φ(q) − rank) basis of the part of V_q the retained shifts miss."""
    return np.fft.irfft(_spectrum(N, system, system.vt[system.rank:]), n=N, axis=1).T


def _solve_channels(observed, pairs, bank: RamanujanFilterBank, killed=()) -> np.ndarray:
    """min ‖x′‖₁ over the x′ whose channels match observed, those in ``killed`` at zero.

    Channel q's particular solution is α_q = A·(BᵀB)⁺·t on its determined
    directions.  A killed channel is determined entirely, at zero.  When
    every channel is determined, the answer is the particular solution x_p;
    otherwise the feasible set is x_p + span(Z), Z the orthonormal null
    directions of the deficient channels, and the answer is x_p + Z·z, the
    residual of the least-absolute-deviations fit of x_p by −Z.
    """
    observed = _checked_signal(observed, bank)
    A = bank.tight_bound()
    N = bank.n
    X_p = np.zeros(N // 2 + 1, dtype=complex)
    null = []
    for s in _channel_systems(observed, pairs, bank):
        if s.q in killed:
            if np.linalg.norm(s.t) > 1e-7 * np.linalg.norm(observed):
                raise PreconditionError(
                    f"observation has energy in channel {s.q}, outside the declared periods"
                )
            continue
        V = s.vt[: s.rank]
        alpha = A * (V.T @ ((V @ s.t) / s.sv[: s.rank] ** 2))
        X_p += _spectrum(N, s, alpha[None, :])[0]
        if s.rank < s.bins.size:
            null.append(_null_directions(N, s))
    x_p = np.fft.irfft(X_p, n=N)
    if not null:
        return x_p
    return lad_fit(-np.hstack(null), x_p).residual


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
        If a period does not divide N, or the observation carries energy
        (above 1e−7 relative) in a channel outside ``periods``.
    """
    prof = divisors(bank.n)
    periods = sorted(set(int(q) for q in periods))
    for q in periods:
        if q not in prof.divisors:
            raise PreconditionError(f"period {q} is not a divisor of N={bank.n}")
    killed = {q for q in prof.divisors if q not in periods}
    return _solve_channels(observed, pairs, bank, killed)


# ---------------------------------------------------------------------------
# denoising


def membership_null_basis(bank: RamanujanFilterBank, pairs) -> np.ndarray:
    """Orthonormal basis (columns) of {v : ⟨v, f_j⟩ = 0 for every pair j ∉ pairs}.

    Computed as the numerical null space (SVD, cutoff 1e−10·σ_max) of the
    complement's coefficient rows R: the rows of V beyond rank(R).  U is never
    needed, so a tall R (at least N rows) takes the thin SVD, whose V is
    already N×N; a wide R takes the full SVD, because its thin V stops at
    len(R) rows and would lose the null directions.
    """
    keep = set(_checked_pairs(bank, pairs))
    complement = [pr for pr in all_pairs(bank) if pr not in keep]
    if not complement:
        return np.eye(bank.n)
    R = coefficient_rows(bank, complement)
    _, sv, vh = np.linalg.svd(R, full_matrices=len(R) < bank.n)
    rank = int(np.sum(sv > 1e-10 * sv[0])) if sv.size and sv[0] > 0 else 0
    if rank >= bank.n:
        raise PreconditionError(
            "membership subspace is trivial: every signal consistent with the "
            "constraint set is zero"
        )
    return vh[rank:].T


def denoise(y, membership, bank: RamanujanFilterBank) -> np.ndarray:
    """ℓ1-closest signal to y among those supported on the membership set.

    Parameters
    ----------
    membership : MembershipConstraintSet or iterable of (k, i)
        Coefficient pairs allowed to be nonzero; everything else is
        constrained to zero output.
    """
    y = _checked_signal(y, bank)
    bank.tight_bound()
    pairs = getattr(membership, "pairs", membership)
    B = membership_null_basis(bank, pairs)
    z = l1_fit(B, y).x
    return B @ z


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
    y = np.asarray(y, dtype=float)
    if not 0.0 < threshold_factor < 1.0:
        raise PreconditionError(
            f"threshold_factor must lie in (0, 1), got {threshold_factor}"
        )
    raw = channel_energies(y, bank)
    norm = np.array(
        [e / (bank.n * totient(ch.q)) for e, ch in zip(raw, bank.channels)]
    )
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
    """10·log₁₀ of the power ratio; +inf when the error vector is exactly zero."""
    signal = np.asarray(signal, dtype=float)
    noise = np.asarray(noise, dtype=float)
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
    """Return x + η for the given noise model, deterministically under seed."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    rng = np.random.default_rng(seed)
    if isinstance(model, GaussianNoiseModel):
        px = float(x @ x)
        if px == 0.0:
            raise PreconditionError("cannot target an SNR against a zero signal")
        eta = _box_muller(rng, n)
        eta *= math.sqrt(px / float(eta @ eta)) * 10.0 ** (-model.snr_db / 20.0)
        return x + eta
    if isinstance(model, SparseNoiseModel):
        support = [int(k) for k in model.support]
        if len(set(support)) != len(support):
            raise PreconditionError("sparse noise support has duplicates")
        if any(not 0 <= k < n for k in support):
            raise PreconditionError(f"sparse noise support outside Z_{n}")
        if model.values is not None:
            vals = np.asarray(model.values, dtype=float)
            if len(vals) != len(support):
                raise PreconditionError("values and support lengths differ")
        else:
            vals = model.amplitude * _box_muller(rng, len(support))
        y = x.copy()
        for k, v in zip(support, vals):
            y[k] += v
        return y
    raise PreconditionError(f"unknown noise model {type(model).__name__}")
