"""Ramanujan filter banks: analysis/synthesis on Z_N and period identification.

A bank is a list of channels (q_i, p_i): channel i filters with the q_i-th
Ramanujan sum and keeps every p_i-th output.  Uniform banks (all p_i equal)
are the ones with polyphase/frame diagnostics; non-uniform banks arise from
the rank-repair construction in :mod:`rframes.subspaces`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .numtheory import divisors, ramanujan_sum

__all__ = [
    "Channel",
    "RamanujanFilterBank",
    "uniform_bank",
    "analyze",
    "synthesize",
    "channel_energies",
    "identify_period",
]


@dataclass(frozen=True)
class Channel:
    q: int
    p: int


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
        if self.n < 1:
            raise PreconditionError(f"bank needs N >= 1, got {self.n}")
        if not self.channels:
            raise PreconditionError("bank needs at least one channel")
        for ch in self.channels:
            if self.n % ch.q:
                raise PreconditionError(f"channel q={ch.q} does not divide N={self.n}")
            if ch.p < 1 or self.n % ch.p:
                raise PreconditionError(f"ratio p={ch.p} does not divide N={self.n}")

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

    def filters(self) -> list[np.ndarray]:
        """The channel filters c_{q_i} as length-N integer vectors."""
        return [ramanujan_sum(ch.q, self.n) for ch in self.channels]

    def shifts(self, i: int) -> np.ndarray:
        """All kept shifts of channel i as columns: N × (N/p_i) matrix of L_{p_i k} c_{q_i}."""
        c = ramanujan_sum(self.channels[i].q, self.n)
        p = self.channels[i].p
        d = self.n // p
        cols = np.empty((self.n, d))
        for k in range(d):
            cols[:, k] = np.roll(c, p * k)
        return cols


def uniform_bank(N: int, p: int) -> RamanujanFilterBank:
    """The full divisor bank over Z_N with one common decimation ratio p."""
    if N < 1:
        raise PreconditionError(f"need N >= 1, got {N}")
    if p < 1 or N % p:
        raise PreconditionError(f"decimation ratio p={p} must divide N={N}")
    prof = divisors(N)
    return RamanujanFilterBank(N, tuple(Channel(q, p) for q in prof.divisors))


def _masks(bank: RamanujanFilterBank) -> np.ndarray:
    """K×(N//2+1) boolean channel masks over the half spectrum.

    The DFT of c_q is N on the bins f with N / gcd(f, N) = q and 0 elsewhere,
    so bin f belongs to channel i iff q_i = N / gcd(f, N).  The masks are
    symmetric under f → N − f and every signal here is real, so the half
    spectrum of ``numpy.fft.rfft`` carries everything.
    """
    f = np.arange(bank.n // 2 + 1)
    return (bank.n // np.gcd(f, bank.n))[None, :] == np.array(bank.qs)[:, None]


def _spectrum(x, bank: RamanujanFilterBank) -> tuple[np.ndarray, np.ndarray]:
    """One FFT of x and the bank's channel masks: x ∗ c_{q_i} = N·IDFT(X·mask_i).

    Raises
    ------
    PreconditionError
        If x is not a length-N vector or holds NaN or inf.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (bank.n,):
        raise PreconditionError(f"signal of shape {x.shape} does not match bank N {bank.n}")
    if not np.isfinite(x).all():
        raise PreconditionError("signal holds NaN or inf values")
    return np.fft.rfft(x), _masks(bank)


def analyze(x, bank: RamanujanFilterBank) -> list[np.ndarray]:
    """Analysis coefficients y_i(k) = ⟨x, L_{p_i k} c_{q_i}⟩ for every channel.

    Equal to the decimated convolution (x ∗ c_{q_i})(p_i k) because Ramanujan
    sums are even, so the matched filter equals the filter itself.  The
    convolutions are N·IDFT(X·mask_i), one FFT of x for the whole bank.

    Returns
    -------
    list of numpy.ndarray
        One length-(N/p_i) coefficient array per channel.
    """
    X, masks = _spectrum(x, bank)
    full = bank.n * np.fft.irfft(X * masks, n=bank.n, axis=1)
    return [full[i, :: ch.p].copy() for i, ch in enumerate(bank.channels)]


def synthesize(coeffs, bank: RamanujanFilterBank, A: float | None = None) -> np.ndarray:
    """Reconstruct x = (1/A) Σ_i Σ_k y_i(k) L_{p_i k} c_{q_i} from analysis coefficients.

    Valid only for tight banks (synthesis filters equal analysis filters up to
    the 1/A scaling exactly when the frame is tight).  In the DFT domain the
    kept shifts of channel i contribute N·mask_i·tile(DFT_d(y_i), p), so the
    whole sum is one inverse FFT.

    Parameters
    ----------
    coeffs : sequence of arrays
        Per-channel coefficients, as produced by :func:`analyze`.
    bank : RamanujanFilterBank
        Must be uniform and tight.
    A : float, optional
        The tight frame bound.  Computed (and certified) from the bank when
        omitted; when given it must match.

    Raises
    ------
    PreconditionError
        If the bank is not uniform+tight, or A disagrees with the certified bound.
    """
    from .frames import frame_report  # local import to avoid a cycle

    if not bank.uniform:
        raise PreconditionError("synthesis requires a uniform tight bank")
    report = frame_report(bank)
    if not report.tight:
        raise PreconditionError(
            f"bank (N={bank.n}, p={bank.ratio}) is not tight; synthesize is undefined"
        )
    if A is None:
        A = report.A
    elif not math.isclose(A, report.A, rel_tol=1e-9):
        raise PreconditionError(f"supplied A={A} does not match tight bound {report.A}")
    if len(coeffs) != len(bank.channels):
        raise PreconditionError(
            f"expected {len(bank.channels)} coefficient arrays, got {len(coeffs)}"
        )
    N = bank.n
    d = N // bank.ratio
    Y = np.empty((len(bank.channels), d))
    for i, y in enumerate(coeffs):
        y = np.asarray(y, dtype=float)
        if y.shape != (d,):
            raise PreconditionError(f"channel {i}: expected {d} coefficients, got shape {y.shape}")
        Y[i] = y
    # DFT_N of the upsampled y_i is DFT_d(y_i) repeated p times: index f mod d
    f = np.arange(N // 2 + 1)
    spectrum = (_masks(bank) * np.fft.fft(Y, axis=1)[:, f % d]).sum(axis=0)
    return N * np.fft.irfft(spectrum, n=N) / A


def channel_energies(x, bank: RamanujanFilterBank) -> np.ndarray:
    """Full (undecimated) channel output energies E_i = ‖x ∗ c_{q_i}‖².

    By Parseval E_i = N·Σ_{f ∈ mask_i} |X(f)|² over the full spectrum; the
    half spectrum counts every bin other than 0 and N/2 twice.
    """
    X, masks = _spectrum(x, bank)
    power = np.abs(X) ** 2
    power[1 : (bank.n + 1) // 2] *= 2.0
    return bank.n * (masks @ power)


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
    x = np.asarray(x, dtype=float)
    if N is None:
        N = len(x)
    elif N != len(x):
        raise PreconditionError(f"declared N={N} but signal has length {len(x)}")
    bank = uniform_bank(N, 1)
    energies = channel_energies(x, bank)
    top = float(energies.max())
    if top <= 0.0:
        raise PreconditionError("all channel energies vanish: zero signal has no period")
    period = 1
    for q, e in zip(bank.qs, energies):
        if e > zero_tol * top:
            period = math.lcm(period, q)
    return period
