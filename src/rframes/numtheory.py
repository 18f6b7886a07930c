"""Exact arithmetic on Z_N: totients, divisors, Ramanujan sums, circular
shifts and convolutions.

Ramanujan sums are evaluated through the Hölder/von Sterneck closed form

    c_q(n) = μ(q/g) · φ(q) / φ(q/g),   g = gcd(n, q),

which stays inside the integers because φ(d) | φ(q) whenever d | q.  The
trigonometric definition (sum over primitive q-th roots of unity) is kept to
the test suite as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PreconditionError

__all__ = [
    "totient",
    "mobius",
    "divisors",
    "DivisorProfile",
    "ramanujan_sum",
    "circular_shift",
    "circular_convolution",
    "inner_product",
]


def _is_int(v) -> bool:
    """Python and numpy integers; not bools, floats or strings."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_finite_real(v) -> bool:
    """Integers as :func:`_is_int` takes them, and finite Python and numpy floats."""
    return _is_int(v) or (isinstance(v, (float, np.floating)) and math.isfinite(v))


def _seeded_rng(seed) -> np.random.Generator:
    """default_rng(seed) for an integer seed ≥ 0; any other seed is a PreconditionError."""
    if not _is_int(seed) or seed < 0:
        raise PreconditionError(f"need an integer seed >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def _factorize(n):
    """Prime factorization as a dict {prime: exponent}; trial division.

    {} for n < 2.  A non-integer is a PreconditionError: trial division of
    a float inf never ends, and 1.5 would come back as the "prime" 1.5.
    """
    if not _is_int(n):
        raise PreconditionError(f"need an integer, got {n!r}")
    fac = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def totient(q: int) -> int:
    """Euler's totient φ(q) = #{k ∈ [1, q] : gcd(k, q) = 1}.

    Parameters
    ----------
    q : int
        Positive integer.  φ(1) = 1 (empty product).

    Returns
    -------
    int
        Exact value via the product formula φ(q) = q·Π(1 − 1/p).
    """
    if not _is_int(q) or q < 1:
        raise PreconditionError(f"totient requires an integer q >= 1, got {q!r}")
    result = q
    for p in _factorize(q):
        result -= result // p
    return result


def mobius(n: int) -> int:
    """Möbius function μ(n): (−1)^k for squarefree n with k prime factors, else 0."""
    if not _is_int(n) or n < 1:
        raise PreconditionError(f"mobius requires an integer n >= 1, got {n!r}")
    fac = _factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


@dataclass(frozen=True)
class DivisorProfile:
    """The sorted divisors q_1 < … < q_K of N together with their totients.

    The Gauss identity Σ φ(q_i) = N is asserted at construction; it is the
    dimension count behind every orthogonal decomposition in this package.
    """

    n: int
    divisors: tuple[int, ...]
    totients: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.totients:
            object.__setattr__(
                self, "totients", tuple(totient(q) for q in self.divisors)
            )
        if sum(self.totients) != self.n:
            raise PreconditionError(
                f"Gauss identity violated for N={self.n}: "
                f"sum of totients is {sum(self.totients)}"
            )

    @property
    def count(self) -> int:
        """K, the number of divisors."""
        return len(self.divisors)

    def index_of(self, q: int) -> int:
        """0-based channel index of divisor q."""
        try:
            return self.divisors.index(q)
        except ValueError:
            raise PreconditionError(f"{q} is not a divisor of {self.n}") from None


def divisors(n: int) -> DivisorProfile:
    """All divisors of n in increasing order, wrapped in a DivisorProfile.

    Examples
    --------
    >>> divisors(30).divisors
    (1, 2, 3, 5, 6, 10, 15, 30)
    >>> divisors(30).count
    8
    """
    if not _is_int(n) or n < 1:
        raise PreconditionError(f"divisors requires an integer n >= 1, got {n!r}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return DivisorProfile(n, tuple(small + large[::-1]))


def ramanujan_sum(q: int, N: int) -> np.ndarray:
    """The q-th Ramanujan sum as an integer vector over Z_N.

    c_q(n) is the sum of e^{2πikn/q} over 1 ≤ k ≤ q with gcd(k, q) = 1; the
    N-vector returned is its q-periodic extension, computed exactly in integer
    arithmetic via the Hölder evaluation.

    Parameters
    ----------
    q : int
        Positive divisor of N.
    N : int
        Ambient signal length.

    Returns
    -------
    numpy.ndarray
        Length-N int64 array with entry n equal to c_q(n).

    Raises
    ------
    PreconditionError
        If q does not divide N (the filter-bank theory needs q | N; other
        periods enter only through their divisors).
    """
    if not (_is_int(q) and _is_int(N)) or N < 1 or q < 1:
        raise PreconditionError(f"need integers q >= 1 and N >= 1, got q={q!r}, N={N!r}")
    if N % q:
        raise PreconditionError(f"q={q} does not divide N={N}")
    # one Hölder value per divisor m of q, looked up by the order q // gcd(n, q)
    # of n in Z_q, which is the bin owner map of Z_q
    prof = divisors(q)
    phi_q = prof.totients[-1]
    table = np.zeros(q + 1, dtype=np.int64)
    for m, phi_m in zip(prof.divisors, prof.totients):
        # integer-exact: φ(m) | φ(q) for m | q
        table[m] = mobius(m) * (phi_q // phi_m)
    return np.tile(table[_bin_owners(q)], N // q)


@lru_cache(maxsize=32)
def _bin_owners(N: int) -> np.ndarray:
    """Length-N int vector: entry f is the channel q = N // gcd(f, N) that owns DFT bin f.

    The DFT of c_q is N on exactly the bins with N / gcd(f, N) = q, so every
    bin belongs to one divisor channel, and every exact rank, frame bound,
    erasure margin and fusion bound is a count over this vector.  It is the
    one place the owners are derived: read-only, kept for the 32 most recent
    N (notes/decisions.md, entry 13).
    """
    owners = N // np.gcd(np.arange(N), N)
    owners.flags.writeable = False  # shared by every caller at this N
    return owners


def _shift_rank(p: int, q: int, N: int) -> int:
    """Exact rank of the p-strided shifts of c_q: distinct f mod N/p over its DFT bins f.

    Shift k multiplies bin f of c_q by e^{−2πifk/d}, d = N/p, a character of
    Z_d fixed by f mod d.  Distinct characters are independent and bins with
    equal residues give equal rows, so all d shifts, and already the first
    φ(q) of them (a Vandermonde system), have rank #{f mod d}.
    """
    # np.sort, not np.unique, which imports numpy.ma (1 MB) on first use
    residues = np.sort(np.flatnonzero(_bin_owners(N) == q) % (N // p))
    return residues.size and 1 + int(np.count_nonzero(np.diff(residues)))


def circular_shift(x, m: int) -> np.ndarray:
    """(L_m x)(n) = x(n − m mod N); m may be any integer."""
    if not _is_int(m):
        raise PreconditionError(f"shift m must be an integer, got {m!r}")
    return np.roll(np.asarray(x), m)


def circular_convolution(x, h) -> np.ndarray:
    """Circular convolution on Z_N, (x ∗ h)(n) = Σ_m x(m) h(n − m).

    Computed by the direct O(N²) sum.  The filter banks go through their bin
    map instead; this routine is the O(N²) oracle they are tested against.
    """
    x = np.asarray(x)
    h = np.asarray(h)
    if x.shape != h.shape or x.ndim != 1:
        raise PreconditionError(
            f"convolution needs two equal-length vectors, got {x.shape} and {h.shape}"
        )
    n = len(x)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return h[idx] @ x


def inner_product(x, y):
    """⟨x, y⟩ = Σ x(n)·conj(y(n)) — conjugate-linear in the second argument."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise PreconditionError(f"shape mismatch: {x.shape} vs {y.shape}")
    value = np.sum(x * np.conj(y))
    return complex(value) if np.iscomplexobj(value) else float(value)
