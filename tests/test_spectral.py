"""The DFT-mask route of the bank layers against the direct O(N²) route.

The direct route is written here from the trigonometric Ramanujan sums:
``circular_convolution`` for analysis, the circulant matrices of the filters
(columns L_k c_q) for synthesis, and the d×d exponential matrix times the
polyphase components for U(m).  The library never takes it.
"""

import functools

import math

import numpy as np
import pytest

from conftest import dft_channel_mask, trig_ramanujan
from rframes import (
    PreconditionError,
    analyze,
    channel_energies,
    circular_convolution,
    divisors,
    frame_report,
    identify_period,
    synthesize,
    uniform_bank,
)

RTOL = 1e-12


def _close(got, want, scale):
    return float(np.abs(np.asarray(got) - np.asarray(want)).max()) <= RTOL * scale


@functools.lru_cache(maxsize=None)
def _filters(N):
    return tuple(trig_ramanujan(q, N) for q in divisors(N).divisors)


def _circulants(filters):
    """(K, N, N) array whose i-th matrix has columns L_k c_{q_i}: C_i @ v = c_{q_i} ∗ v."""
    N = len(filters[0])
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return np.array(filters)[:, idx]


def _direct_period(energies, qs, zero_tol=1e-8):
    top = max(energies)
    return math.lcm(*(q for q, e in zip(qs, energies) if e > zero_tol * top))


def _reference_stack(filters, p):
    """U(m) for every m as E @ C, with E[m, ℓ] = e^{2πimℓ/d}: shape (d, K, p)."""
    d = len(filters[0]) // p
    mm = np.arange(d)
    E = np.exp(2j * np.pi * np.outer(mm, mm) / d)
    return (E @ np.array(filters).reshape(-1, d, p)).transpose(1, 0, 2)


def _mask_ranks(N, p):
    """Rank of U(m) from the channel masks: distinct channels among the bins −m + jd."""
    d = N // p
    order = [N // math.gcd(f, N) for f in range(N)]
    return tuple(len({order[(-m) % d + j * d] for j in range(p)}) for m in range(d))


def test_layers_match_direct_route_for_every_n_up_to_420():
    rng = np.random.default_rng(420)
    for N in range(1, 421):
        qs = divisors(N).divisors
        filters = _filters(N)
        circ = _circulants(filters)
        x = rng.standard_normal(N)
        full = np.array([circular_convolution(x, c) for c in filters])
        energies = np.sum(full**2, axis=1)
        assert _close(channel_energies(x, uniform_bank(N, 1)), energies, energies.max()), N
        for p in (1, 2):
            if N % p:
                continue
            bank = uniform_bank(N, p)
            assert _close(analyze(x, bank), full[:, ::p], np.abs(full).max()), (N, p)
            if not frame_report(bank).tight:
                continue
            # any coefficients, not only those in the range of analysis
            y = rng.standard_normal((len(qs), N // p))
            want = np.einsum("ink,ik->n", circ[:, :, ::p], y) / (p * (N // p) ** 2)
            assert _close(synthesize(y, bank), want, np.abs(want).max()), (N, p)
        # a planted signal: shifts of c_q for a few q, period = their lcm
        picks = [q for q in qs if rng.random() < 0.3] or [qs[-1]]
        planted = sum(np.roll(filters[qs.index(q)], int(rng.integers(N))) for q in picks)
        direct = np.sum((circ @ planted) ** 2, axis=1)
        assert identify_period(planted) == _direct_period(direct, qs) == math.lcm(*picks), N


def test_frame_report_matches_direct_polyphase_stack():
    for N in range(1, 421):
        filters = _filters(N)
        for p in (1, 2):
            if N % p:
                continue
            rep = frame_report(uniform_bank(N, p))
            U = _reference_stack(filters, p)
            eigs = np.linalg.eigvalsh(U.conj().transpose(0, 2, 1) @ U)
            B = float(eigs[:, -1].max())
            assert abs(rep.A - eigs[:, 0].min()) <= RTOL * B, (N, p)
            assert abs(rep.B - B) <= RTOL * B, (N, p)
            assert _close(rep.per_m_eigs, eigs, B), (N, p)
            sv = np.linalg.svd(U, compute_uv=False)
            ranks = tuple(np.sum(sv > 1e-10 * sv[:, :1], axis=1).tolist())
            assert rep.ranks == ranks == _mask_ranks(N, p), (N, p)
            assert rep.is_frame == (N % 4 != 0 or p == 1), (N, p)
    assert frame_report(uniform_bank(12, 2)).ranks == (2, 1, 2, 1, 2, 1)


def test_frame_report_ranks_for_larger_ratios():
    # p > 2 never gives a frame; the ranks are counts of distinct channels,
    # which the square roots of the Gram eigenvalues cannot resolve
    for N in range(2, 121):
        for p in divisors(N).divisors:
            if p < 3:
                continue
            rep = frame_report(uniform_bank(N, p))
            assert rep.ranks == _mask_ranks(N, p), (N, p)
            assert not rep.is_frame, (N, p)
    assert frame_report(uniform_bank(6, 6)).ranks == (4,)


def test_round_trip_at_n_30030():
    N = 30030
    bank = uniform_bank(N, 1)
    rng = np.random.default_rng(30030)
    x = rng.standard_normal(N)
    coeffs = analyze(x, bank)
    assert np.abs(synthesize(coeffs, bank) - x).max() <= 1e-12 * np.abs(x).max()
    # Parseval for the tight bank: Σ_q ‖x ∗ c_q‖² = N²‖x‖²
    total = sum(float(y @ y) for y in coeffs)
    assert math.isclose(total, N * N * float(x @ x), rel_tol=1e-12)
    assert math.isclose(channel_energies(x, bank).sum(), total, rel_tol=1e-12)
    # channel 1001 holds the projection of x onto its DFT bins, times N
    i = bank.qs.index(1001)
    mask = dft_channel_mask(1001, N)
    want = N * np.fft.ifft(np.fft.fft(x) * mask).real
    assert np.abs(coeffs[i] - want).max() <= 1e-9 * np.abs(want).max()
    planted = np.roll(trig_ramanujan(143, N), 7) + trig_ramanujan(210, N)
    assert identify_period(planted) == math.lcm(143, 210)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_layers_reject_non_finite_signals(bad):
    bank = uniform_bank(30, 1)
    x = np.ones(30)
    x[7] = bad
    for call in (lambda: analyze(x, bank), lambda: channel_energies(x, bank),
                 lambda: identify_period(x)):
        with pytest.raises(PreconditionError, match="NaN or inf"):
            call()
