"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports rframes.  Ramanujan sums come from their trigonometric
definition; channel outputs, projections and detection statistics from numpy
FFT masks, using the fact that bin f of Z_N belongs to channel N/gcd(f, N)
(Vaidyanathan, "Ramanujan sums in the context of signal processing", IEEE TSP
2014); Zak samples from an FFT along the polyphase index; frame operators from
explicit shift vectors; and ℓ1 optima from HiGHS when scipy imports.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    return tuple(q for q in range(1, n + 1) if n % q == 0)


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def tight_bound(N: int, p: int) -> float:
    """The theorem's tight frame bound: N² for p = 1, 2d² for p = 2 with d odd."""
    d = N // p
    if p == 1:
        return float(N * N)
    if p == 2 and N % 2 == 0 and d % 2 == 1:
        return float(2 * d * d)
    raise ValueError(f"(N={N}, p={p}) is not a tight configuration")


@lru_cache(maxsize=None)
def ramanujan_sum(q: int, N: int) -> np.ndarray:
    """c_q(n), n ∈ Z_N, as Σ_{1≤k≤q, gcd(k,q)=1} cos(2πkn/q)."""
    ks = np.array([k for k in range(1, q + 1) if math.gcd(k, q) == 1], dtype=float)
    n = np.arange(N, dtype=float)
    c = np.cos(2.0 * np.pi * np.outer(n, ks) / q).sum(axis=1)
    c.setflags(write=False)
    return c


@lru_cache(maxsize=None)
def bin_channels(N: int) -> np.ndarray:
    """Channel (divisor q) that owns each DFT bin f of Z_N: q = N/gcd(f, N)."""
    ch = np.array([N // math.gcd(f, N) for f in range(N)])
    ch.setflags(write=False)
    return ch


def project(x, qs) -> np.ndarray:
    """Orthogonal projection of x onto the channels qs (FFT mask)."""
    x = np.asarray(x, dtype=float)
    mask = np.isin(bin_channels(len(x)), list(qs))
    return np.fft.ifft(np.fft.fft(x) * mask).real


def channel_energies(x) -> dict[int, float]:
    """‖P_q x‖² for every divisor q, from Parseval on the masked spectrum."""
    x = np.asarray(x, dtype=float)
    N = len(x)
    power = np.abs(np.fft.fft(x)) ** 2 / N
    ch = bin_channels(N)
    return {q: float(power[ch == q].sum()) for q in divisors(N)}


def analysis(x, p: int) -> list[np.ndarray]:
    """Coefficients (x ∗ c_q)(pk) per ascending divisor q, as N·IDFT of the masked spectrum."""
    x = np.asarray(x, dtype=float)
    N = len(x)
    X = np.fft.fft(x)
    ch = bin_channels(N)
    return [N * np.fft.ifft(X * (ch == q)).real[::p] for q in divisors(N)]


def coefficient_support(x, p: int, tol: float = 1e-8) -> list[tuple[int, int]]:
    """(k, i) pairs whose analysis coefficient exceeds tol times the largest one."""
    coeffs = analysis(x, p)
    top = max(float(np.abs(c).max()) for c in coeffs)
    return [(int(k), i) for i, c in enumerate(coeffs)
            for k in np.flatnonzero(np.abs(c) > tol * top)]


def detect(y, threshold: float, ambiguity: float = 1e-9):
    """Channels whose energy normalised by N·φ(q) exceeds threshold × the largest.

    ‖y ∗ c_q‖² = N²‖P_q y‖², so the normalised statistic is N‖P_q y‖²/φ(q).
    Returns (kept, ambiguous): channels within ``ambiguity`` (relative) of the
    threshold may fall either way under rounding and are listed apart.
    """
    N = len(y)
    norm = {q: N * e / totient(q) for q, e in channel_energies(y).items()}
    cut = threshold * max(norm.values())
    kept = tuple(q for q in divisors(N) if norm[q] > cut)
    ambiguous = {q for q in divisors(N) if abs(norm[q] - cut) <= ambiguity * cut}
    return kept, ambiguous


def shift_rows(N: int, p: int, pairs) -> np.ndarray:
    """Rows L_{pk} c_{q_i} for (k, i) pairs, i indexing the ascending divisors."""
    qs = divisors(N)
    rows = np.empty((len(pairs), N))
    for j, (k, i) in enumerate(pairs):
        rows[j] = np.roll(ramanujan_sum(qs[i], N), p * k)
    return rows


def kill_rows(N: int, qs) -> np.ndarray:
    """φ(q) consecutive unit shifts of c_q for each q in qs; they span channel q."""
    rows = [np.roll(ramanujan_sum(q, N), ell) for q in qs for ell in range(totient(q))]
    return np.array(rows) if rows else np.empty((0, N))


def frame_operator(N: int, channels) -> np.ndarray:
    """Σ f fᵀ over every kept shift f = L_{p k} c_q of the (q, p) channels."""
    S = np.zeros((N, N))
    for q, p in channels:
        c = ramanujan_sum(q, N)
        F = np.array([np.roll(c, p * k) for k in range(N // p)])
        S += F.T @ F
    return S


@lru_cache(maxsize=None)
def uniform_frame_operator(N: int, p: int) -> np.ndarray:
    S = frame_operator(N, [(q, p) for q in divisors(N)])
    S.setflags(write=False)
    return S


def survivor_bounds(N: int, p: int, erased) -> tuple[float, float]:
    """Extreme eigenvalues of the frame operator left after deleting the erased pairs."""
    F = shift_rows(N, p, list(erased))
    eigs = np.linalg.eigvalsh(uniform_frame_operator(N, p) - F.T @ F)
    return float(eigs[0]), float(eigs[-1])


def erasure_margins(N: int, p: int, q: int) -> np.ndarray:
    """1 − (d/A)·Σ_n |Zc_q(m, n)|² for every m, with the Zak transform by FFT over ℓ."""
    d = N // p
    Z = np.fft.fft(ramanujan_sum(q, N).reshape(d, p), axis=0) / math.sqrt(d)
    return 1.0 - (d / tight_bound(N, p)) * np.sum(np.abs(Z) ** 2, axis=1)


def sparse_top_channel(N: int) -> np.ndarray:
    """Π over the primes ℓ | N of (δ_0 − δ_{N/ℓ}): a 2^ω(N)-sparse vector of channel N."""
    x = np.zeros(N)
    x[0] = 1.0
    for ell in (q for q in divisors(N) if q > 1 and totient(q) == q - 1):
        x = x - np.roll(x, N // ell)
    return x


# ---------------------------------------------------------------------------
# HiGHS


def scipy_version() -> str | None:
    """scipy's version when it imports, else None (scipy is not a declared dependency)."""
    try:
        import scipy
    except ImportError:
        return None
    return scipy.__version__


def _row_reduce(R: np.ndarray, b: np.ndarray):
    """Orthonormal rows spanning R's row space, with the matching right-hand side."""
    u, sv, vh = np.linalg.svd(R, full_matrices=False)
    rank = int(np.sum(sv > 1e-10 * sv[0])) if sv.size else 0
    return vh[:rank], (u[:, :rank].T @ b) / sv[:rank]


_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


def highs_min_l1(R, b) -> float:
    """min ‖v‖₁ subject to R v = b, solved by HiGHS."""
    from scipy.optimize import linprog

    A, rhs = _row_reduce(np.asarray(R, dtype=float), np.asarray(b, dtype=float))
    n = A.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([A, -A]), b_eq=rhs,
                  bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def highs_l1_fit(y, K) -> float:
    """min ‖y − v‖₁ subject to K v = 0, solved by HiGHS over (v free, t ≥ 0)."""
    from scipy.optimize import linprog

    y = np.asarray(y, dtype=float)
    N = len(y)
    eye = np.eye(N)
    A_ub = np.block([[eye, -eye], [-eye, -eye]])
    b_ub = np.concatenate([y, -y])
    bounds = [(None, None)] * N + [(0, None)] * N
    kw = {}
    if len(K):
        A, rhs = _row_reduce(np.asarray(K, dtype=float), np.zeros(len(K)))
        kw = {"A_eq": np.hstack([A, np.zeros_like(A)]), "b_eq": rhs}
    res = linprog(np.concatenate([np.zeros(N), np.ones(N)]), A_ub=A_ub, b_ub=b_ub,
                  bounds=bounds, method="highs", options=_HIGHS_OPTIONS, **kw)
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)
