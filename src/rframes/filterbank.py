"""Ramanujan filter banks: analysis/synthesis on Z_N and period identification.

A bank is a list of channels (q_i, p_i): channel i filters with the q_i-th
Ramanujan sum and keeps every p_i-th output.  Uniform banks (all p_i equal)
are the ones with polyphase/frame diagnostics; non-uniform banks arise from
the rank-repair construction in :mod:`rframes.subspaces`.

A bank owns its linear operator: the filter matrix, the exact frame bounds,
counted over the bin owners q(f) = N/gcd(f, N), the bin map that every
spectral layer reads, and a uniform bank's channel geometry in real Fourier
coordinates are derived once per bank object, and :func:`coefficient_rows`
is the one builder of shifted filters.  The owners themselves are derived
once per N, by :func:`rframes.numtheory._bin_owners`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import PreconditionError
from .numtheory import _bin_owners, _shift_rank, divisors, ramanujan_sum

__all__ = [
    "BinMap",
    "Channel",
    "ChannelGeometry",
    "RamanujanFilterBank",
    "uniform_bank",
    "coefficient_rows",
    "analyze",
    "synthesize",
    "channel_energies",
    "identify_period",
]


def _is_int(v) -> bool:
    """Python and numpy integers; not bools, floats or strings."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class Channel:
    q: int
    p: int


@dataclass(frozen=True)
class ChannelGeometry:
    """Divisor q's shifts in an orthonormal basis U of V_q, for a uniform bank.

    Coordinate j is the inner product with √(2/N)·cos or sin(2π·g_j·n/N) for
    a half-spectrum bin g_j that q owns (1/√N·cos at g = 0 and N/2), so U has
    φ(q) columns.  Row k of ``rows`` is the kept shift L_{pk}c_q in U's
    coordinates, N·w_j·(cos or sin)(2π·g_j·pk/N), for every k ∈ Z_d.
    ``spans`` says whether those shifts span V_q, _shift_rank(p, q, N) = φ(q).
    Then their Gram rowsᵀ·rows is exactly (N²/p)·I, the channel's share of
    the frame operator, so every singular value is N/√p
    (notes/decisions.md, entry 14).  Read-only.
    """

    q: int
    bins: np.ndarray  # g_j per coordinate
    sine: np.ndarray  # True where coordinate j is the sine of its bin
    w: np.ndarray  # the basis norm factor of coordinate j
    rows: np.ndarray  # d × φ(q)
    spans: bool


@dataclass(frozen=True)
class BinMap:
    """Every (channel, owned bin) pair of a bank on the half spectrum, with its fold.

    Entry e says that channel i = ``channel[e]`` owns bin f = ``bins[e]`` of
    ``numpy.fft.rfft``: N/gcd(f, N) = q_i.  Keeping every p_i-th output
    aliases f onto a = f mod d_i, d_i = N/p_i.  On the half spectrum of
    length d_i//2 + 1 that lands on g = a, or on g = d_i − a with the value
    conjugated where 2a > d_i.  Row e of ``slots`` holds the offsets of
    Re and Im of g in its run's buffer of floats, 2·(row·(d_i//2 + 1) + g) + (0, 1).

    Row e of ``fold`` weighs (Re X(f), Im X(f)) into analysis: (1, ±1), −1
    where conjugated.  At g = 0 or d_i/2 the mirror bin N − f lands on g too,
    so there the weights are (2, 0), and (1, 0) for f = 0 or N/2, which is
    its own mirror.  Row e of ``unfold`` weighs Re and Im of DFT_{d_i}(y_i)(g)
    into synthesis: (1, ±1).

    ``runs`` lists (d, channels, entries): channels with one d, in bank order,
    cut so that a run's half spectra of d//2 + 1 complex bins fill at most
    64 KiB, and the slice of their entries.  A run's d coefficients per
    channel take about as much again, so the two blocks that synthesis holds
    at once stay below glibc malloc's 128 KiB mmap threshold
    (notes/decisions.md, entries 11 and 12).  Read-only.
    """

    channel: np.ndarray
    bins: np.ndarray
    slots: np.ndarray  # E × 2
    fold: np.ndarray  # E × 2
    unfold: np.ndarray  # E × 2
    runs: tuple[tuple[int, tuple[int, ...], slice], ...]


@dataclass(frozen=True)
class RamanujanFilterBank:
    """A bank of Ramanujan-sum channels over Z_N.

    Attributes
    ----------
    n : int
        Signal length N.
    channels : tuple[Channel, ...]
        (q_i, p_i) per channel; q_i must divide n, p_i must divide n.
    """

    n: int
    channels: tuple[Channel, ...]

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise PreconditionError(f"bank needs an integer N >= 1, got {self.n!r}")
        if not self.channels:
            raise PreconditionError("bank needs at least one channel")
        for ch in self.channels:
            if not (_is_int(ch.q) and _is_int(ch.p)):
                raise PreconditionError(f"channel q={ch.q!r}, p={ch.p!r} is not a pair of integers")
            if ch.q < 1 or self.n % ch.q:
                raise PreconditionError(f"channel q={ch.q} is not a positive divisor of N={self.n}")
            if ch.p < 1 or self.n % ch.p:
                raise PreconditionError(f"ratio p={ch.p} is not a positive divisor of N={self.n}")

    @property
    def uniform(self) -> bool:
        return len({ch.p for ch in self.channels}) == 1

    @property
    def ratio(self) -> int:
        """The common decimation ratio p of a uniform bank."""
        if not self.uniform:
            raise PreconditionError("bank is not uniform; channels have mixed ratios")
        return self.channels[0].p

    @property
    def qs(self) -> tuple[int, ...]:
        return tuple(ch.q for ch in self.channels)

    @cached_property
    def filter_matrix(self) -> np.ndarray:
        """K×N float matrix with row i = c_{q_i}, built once per bank; read-only."""
        C = np.array([ramanujan_sum(ch.q, self.n) for ch in self.channels], dtype=float)
        C.flags.writeable = False  # banks are shared: see uniform_bank
        return C

    @cached_property
    def frame_bounds(self) -> tuple[int, int] | None:
        """Exact frame bounds (A, B), or None when the bank is not a frame.

        Bin f lies in V_q, q = N/gcd(f, N).  Channel (q, p) spans V_q iff q's
        bins have distinct residues mod N/p, and then adds (N²/p)·P_{V_q} to
        the frame operator.  So the bank is a frame iff every divisor of N is
        spanned, and A, B are the extreme N²·m_q/p over the divisors, m_q the
        number of channels at q (notes/decisions.md, entry 6).

        Raises
        ------
        PreconditionError
            If a divisor's channels have mixed ratios, where the rule is not exact.
        """
        N = self.n
        qs, ps = np.array(self.qs), np.array([ch.p for ch in self.channels])
        ratio = np.zeros(N + 1, dtype=np.int64)  # p_q by q; 0 where q has no channel
        ratio[qs] = ps
        if (ratio[qs] != ps).any():
            raise PreconditionError("channels of one divisor have mixed ratios")
        owner = _bin_owners(N)
        p = ratio[owner]
        if not p.all():
            return None  # a divisor of N has no channel
        # np.sort, not np.unique, which imports numpy.ma (1 MB) on first use
        if not np.diff(np.sort(owner * N + np.arange(N) % (N // p))).all():
            return None  # two of a channel's bins share a residue: it misses part of V_q
        weights = N * N * np.bincount(qs)[qs] // ps  # N²·m_q/p at each channel's q
        return int(weights.min()), int(weights.max())

    @cached_property
    def bin_map(self) -> BinMap:
        """The :class:`BinMap` that analysis, synthesis and channel energies read.

        Built once per bank: one sort of the owners of the N//2 + 1 bins, then a
        few array passes per run.  A divisor bank has N//2 + 1 entries.
        """
        N = self.n
        owner = _bin_owners(N)[: N // 2 + 1]
        order = np.argsort(owner, kind="stable")  # each q's bins in one ascending segment
        cuts = np.flatnonzero(np.diff(owner[order])) + 1
        owned = dict(zip(owner[order[np.r_[0, cuts]]].tolist(), np.split(order, cuts)))
        d_of = [N // ch.p for ch in self.channels]
        runs, parts, start = [], [], 0
        for d in sorted(set(d_of)):
            h = d // 2 + 1
            group = [i for i, di in enumerate(d_of) if di == d]
            rows = max(1, (1 << 16) // (16 * h))  # entries 11 and 12
            for s in range(0, len(group), rows):
                chans = tuple(group[s : s + rows])
                segs = [owned[self.channels[i].q] for i in chans]
                sizes = [seg.size for seg in segs]
                f = np.concatenate(segs)
                a = f % d
                conj = 2 * a > d
                g = np.where(conj, d - a, a)
                edge = 2 * g % d == 0  # g = 0 or d/2, where a real signal's DFT is real
                sign = np.where(conj, -1.0, 1.0)
                slots = 2 * (np.repeat(np.arange(len(chans)), sizes) * h + g)[:, None] + (0, 1)
                mirrored = edge & (f != 0) & (2 * f != N)
                fold = np.stack([1.0 + mirrored, np.where(edge, 0.0, sign)], 1)
                unfold = np.stack([np.ones_like(sign), sign], 1)
                parts.append((np.repeat(chans, sizes), f, slots, fold, unfold))
                runs.append((d, chans, slice(start, start + f.size)))
                start += f.size
        arrays = [np.concatenate(col) for col in zip(*parts)]
        for arr in arrays:
            arr.flags.writeable = False  # banks are shared: see uniform_bank
        return BinMap(*arrays, tuple(runs))

    @cached_property
    def channel_geometry(self) -> tuple[ChannelGeometry, ...]:
        """One :class:`ChannelGeometry` per divisor q of N, ascending; built once per bank.

        The recovery layer selects its retained shifts from ``rows``, and a
        channel that keeps all d of them takes the closed form where it
        ``spans``.  Every entry is gathered from one 2×N table of cos and sin
        of 2πn/N.  Holds N²/p doubles (notes/decisions.md, entries 9 and 14).

        Raises
        ------
        PreconditionError
            If the bank is not uniform.
        """
        N, p = self.n, self.ratio
        half = np.arange(N // 2 + 1)
        owner = _bin_owners(N)[: half.size]
        norm = np.where((half == 0) | (2 * half == N), 1.0 / math.sqrt(N), math.sqrt(2.0 / N))
        angle = (2.0 * np.pi / N) * np.arange(N)
        trig = np.stack([np.cos(angle), np.sin(angle)])
        s = p * np.arange(N // p)
        out = []
        for q in divisors(N).divisors:
            g = half[owner == q]
            bins = np.concatenate([g, g[(g != 0) & (2 * g != N)]])
            sine = np.arange(bins.size) >= g.size
            w = norm[bins]
            rows = N * w * trig[sine.astype(int), (s[:, None] * bins) % N]
            for a in (bins, sine, w, rows):
                a.flags.writeable = False  # banks are shared: see uniform_bank
            out.append(ChannelGeometry(q, bins, sine, w, rows, _shift_rank(p, q, N) == bins.size))
        return tuple(out)

    def tight_bound(self) -> float:
        """The tight frame bound A = N²·m/p of a uniform bank, exact.

        Raises
        ------
        PreconditionError
            If the bank is not uniform and tight.
        """
        p = self.ratio
        bounds = self.frame_bounds
        if bounds is None or bounds[0] != bounds[1]:
            raise PreconditionError(f"bank (N={self.n}, p={p}) is not tight")
        return float(bounds[0])

    def shifts(self, i: int) -> np.ndarray:
        """All kept shifts of channel i as columns: N × (N/p_i) matrix of L_{p_i k} c_{q_i}."""
        d = self.n // self.channels[i].p
        return coefficient_rows(self, [(k, i) for k in range(d)]).T


@lru_cache(maxsize=32, typed=True)
def uniform_bank(N: int, p: int) -> RamanujanFilterBank:
    """The full divisor bank over Z_N with one common decimation ratio p.

    One bank per (N, p), so its filter matrix, frame bounds and channel
    geometry are derived once for every caller; the 32 most recent are kept.
    """
    if N < 1:
        raise PreconditionError(f"need N >= 1, got {N}")
    if p < 1 or N % p:
        raise PreconditionError(f"decimation ratio p={p} must divide N={N}")
    prof = divisors(N)
    return RamanujanFilterBank(N, tuple(Channel(q, p) for q in prof.divisors))


def _checked_pairs(bank: RamanujanFilterBank, pairs) -> list[tuple[int, int]]:
    """The (k, i) pairs as ints, each with i < K and k ∈ Z_{N/p_i}, none repeated.

    A plain loop: on the two-pair lists of the erasure certificates an array
    route costs more than ten times as much (notes/decisions.md, entry 9).

    Raises
    ------
    PreconditionError
        If an entry is not a pair of integers (floats, strings and bools are
        refused, not truncated), or a pair is out of range or repeated.
    """
    K = len(bank.channels)
    d = [bank.n // ch.p for ch in bank.channels]
    out: list[tuple[int, int]] = []
    for pair in pairs:
        try:
            k, i = pair
        except (TypeError, ValueError):
            raise PreconditionError(f"coefficient pair {pair!r} is not a (k, i) pair") from None
        if type(k) is not int or type(i) is not int:  # Python ints pass without a call
            if not (_is_int(k) and _is_int(i)):
                raise PreconditionError(f"coefficient pair {pair!r} is not a pair of integers")
            k, i = int(k), int(i)
        if not 0 <= i < K:
            raise PreconditionError(f"channel index {i} out of range (K={K})")
        if not 0 <= k < d[i]:
            raise PreconditionError(f"shift index {k} outside Z_{d[i]}")
        out.append((k, i))
    if len(set(out)) < len(out):  # one set build; name the first repeat only on failure
        seen = set()
        for pair in out:
            if pair in seen:
                raise PreconditionError(f"duplicate coefficient pair {pair}")
            seen.add(pair)
    return out


def coefficient_rows(bank: RamanujanFilterBank, pairs) -> np.ndarray:
    """Matrix with rows (L_{p_i k} c_{q_i})ᵀ, so (rows @ x)_j is the j-th coefficient.

    Each pair (k, i) is shift k ∈ Z_{N/p_i} of channel i at the channel's own
    ratio p_i, so non-uniform banks work too.  L_s c(n) = c((n − s) mod N).

    Raises
    ------
    PreconditionError
        If a pair is out of range or repeated.
    """
    pairs = _checked_pairs(bank, pairs)
    if not pairs:
        return np.empty((0, bank.n))
    k, i = np.array(pairs).T
    shift = k * np.array([ch.p for ch in bank.channels])[i]
    return bank.filter_matrix[i[:, None], (np.arange(bank.n) - shift[:, None]) % bank.n]


def _real_vector(v, what: str) -> np.ndarray:
    """v as an array of real numbers with one dimension, not yet checked to be finite.

    Raises
    ------
    PreconditionError
        If v is complex, non-numeric, ragged or not one-dimensional.  Every
        signal here is real, so an imaginary part is refused, not dropped.
    """
    try:
        a = np.asarray(v)
    except ValueError:  # ragged nesting
        raise PreconditionError(f"{what} is not a numeric vector") from None
    if a.dtype.kind not in "biuf":
        kind = "complex" if a.dtype.kind == "c" else "non-numeric"
        raise PreconditionError(f"{what} holds {kind} values; only real values are accepted")
    if a.ndim != 1:
        raise PreconditionError(f"{what} of shape {a.shape} is not a vector")
    return a


def _checked_signal(x, bank: RamanujanFilterBank) -> np.ndarray:
    """x as a float vector.

    Raises
    ------
    PreconditionError
        If x is not a real length-N vector or holds NaN or inf.
    """
    x = _real_vector(x, "signal").astype(float, copy=False)
    if x.size != bank.n:
        raise PreconditionError(f"signal of shape {x.shape} does not match bank N {bank.n}")
    if not np.isfinite(x).all():
        raise PreconditionError("signal holds NaN or inf values")
    return x


def analyze(x, bank: RamanujanFilterBank) -> list[np.ndarray]:
    """Analysis coefficients y_i(k) = ⟨x, L_{p_i k} c_{q_i}⟩ for every channel.

    Equal to the decimated convolution (x ∗ c_{q_i})(p_i k) because Ramanujan
    sums are even, so the matched filter equals the filter itself.  Keeping
    every p_i-th sample aliases the spectrum mod d_i = N/p_i, so
    y_i = d_i·IDFT_{d_i}(F_i), F_i(g) = Σ X(f) over the bins f that q_i owns
    with f ≡ g (mod d_i): one FFT of x, one fold per run of channels and
    inverse FFTs of length d_i (notes/decisions.md, entry 12).

    Returns
    -------
    list of numpy.ndarray
        One length-(N/p_i) coefficient array per channel, each a row of its
        run's output.
    """
    X = np.fft.rfft(_checked_signal(x, bank)).view(float).reshape(-1, 2)  # (Re, Im) per bin
    m = bank.bin_map
    out: list = [None] * len(bank.channels)
    for d, chans, e in m.runs:
        h = d // 2 + 1
        F = np.bincount(m.slots[e].ravel(), (X[m.bins[e]] * m.fold[e]).ravel(),
                        minlength=2 * h * len(chans))
        y = np.fft.irfft(F.view(complex).reshape(len(chans), h), n=d, axis=1)
        y *= d
        del F  # before the next run's fold is taken
        for row, i in enumerate(chans):
            out[i] = y[row]
    return out


def synthesize(coeffs, bank: RamanujanFilterBank) -> np.ndarray:
    """Reconstruct x = (1/A) Σ_i Σ_k y_i(k) L_{p_i k} c_{q_i} from analysis coefficients.

    Valid only for tight banks (synthesis filters equal analysis filters up to
    the 1/A scaling exactly when the frame is tight).  In the DFT domain the
    kept shifts of channel i contribute N·R_i(f mod d) on the bins q_i owns,
    R_i = DFT_d(y_i), so one real FFT per run of channels, one gather and one
    inverse FFT give the whole sum (notes/decisions.md, entry 12).

    Parameters
    ----------
    coeffs : sequence of arrays
        Per-channel coefficients, as produced by :func:`analyze`.
    bank : RamanujanFilterBank
        Must be uniform and tight.

    Raises
    ------
    PreconditionError
        If the bank is not uniform+tight, or coeffs do not match its shape,
        or a coefficient is complex, non-numeric, NaN or inf.
    """
    A = bank.tight_bound()
    if len(coeffs) != len(bank.channels):
        raise PreconditionError(
            f"expected {len(bank.channels)} coefficient arrays, got {len(coeffs)}"
        )
    N = bank.n
    m = bank.bin_map
    vals = np.empty((2, m.bins.size))  # Re and Im of each entry's R_i(f mod d), conjugated
    for d, chans, e in m.runs:
        Y = np.empty((len(chans), d))
        for row, i in enumerate(chans):
            y = _real_vector(coeffs[i], f"channel {i} coefficients")
            if y.shape != (d,):
                raise PreconditionError(
                    f"channel {i}: expected {d} coefficients, got shape {y.shape}"
                )
            Y[row] = y
        if not np.isfinite(Y).all():
            raise PreconditionError("coefficients hold NaN or inf values")
        R = np.fft.rfft(Y, axis=1).view(float).ravel()
        vals[:, e] = (R[m.slots[e]] * m.unfold[e]).T
        del Y, R  # before the next run's buffers are taken
    spectrum = np.empty(N // 2 + 1, dtype=complex)
    spectrum.real = np.bincount(m.bins, vals[0], minlength=N // 2 + 1)
    spectrum.imag = np.bincount(m.bins, vals[1], minlength=N // 2 + 1)
    x = np.fft.irfft(spectrum, n=N)
    x *= N / A
    return x


def channel_energies(x, bank: RamanujanFilterBank) -> np.ndarray:
    """Full (undecimated) channel output energies E_i = ‖x ∗ c_{q_i}‖².

    By Parseval E_i = N·Σ |X(f)|² over the full-spectrum bins q_i owns; the
    half spectrum counts every bin other than 0 and N/2 twice.
    """
    X = np.fft.rfft(_checked_signal(x, bank))
    power = np.abs(X) ** 2
    power[1 : (bank.n + 1) // 2] *= 2.0
    m = bank.bin_map
    return bank.n * np.bincount(m.channel, power[m.bins], minlength=len(bank.channels))


def identify_period(x, N: int | None = None, zero_tol: float = 1e-8) -> int:
    """Detect the period of x as the lcm of the divisors whose channels respond.

    Runs the full divisor bank (undecimated) and keeps the channels with
    energy above ``zero_tol`` times the maximum channel energy; the period is
    the lcm of the surviving q's.  Periods that do not divide N are outside
    this corollary's scope.

    Raises
    ------
    PreconditionError
        If x is the zero signal (every channel is silent; an all-zero signal
        has no period, while a constant one correctly reports period 1).
    """
    return _period_scan(x, N, zero_tol)[0]


def _period_scan(x, N: int | None, zero_tol: float) -> tuple[int, tuple[int, ...], np.ndarray]:
    """:func:`identify_period`'s work: the period, the responding q's and every channel energy."""
    x = _real_vector(x, "signal")  # channel_energies checks the values
    if N is None:
        N = len(x)
    elif N != len(x):
        raise PreconditionError(f"declared N={N} but signal has length {len(x)}")
    bank = uniform_bank(N, 1)
    energies = channel_energies(x, bank)
    top = float(energies.max())
    if top <= 0.0:
        raise PreconditionError("all channel energies vanish: zero signal has no period")
    responding = tuple(q for q, e in zip(bank.qs, energies) if e > zero_tol * top)
    return math.lcm(*responding), responding, energies
