"""The bin-map route of the bank layers against the direct O(N²) route.

The direct route is written here from the trigonometric Ramanujan sums:
``circular_convolution`` for analysis, the circulant matrices of the filters
(columns L_k c_q) for synthesis, and the d×d exponential matrix times the
polyphase components for U(m).  The library never takes it.
"""

import functools

import math
import tracemalloc

import numpy as np
import pytest

from conftest import dft_channel_mask, trig_ramanujan
from rframes import (
    Channel,
    PreconditionError,
    RamanujanFilterBank,
    analyze,
    channel_energies,
    circular_convolution,
    divisors,
    frame_report,
    identify_period,
    synthesize,
    uniform_bank,
)
from rframes.subspaces import build_nonuniform

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


def test_layers_match_direct_route_across_channel_runs():
    # a doubled divisor bank at (1050, 2): analyze and synthesize take its
    # channels in several runs of the bin map, and every bin has two
    # channels to add up
    N, p = 1050, 2
    filters = _filters(N) * 2
    bank = RamanujanFilterBank(N, tuple(Channel(q, p) for q in divisors(N).divisors * 2))
    assert len(bank.bin_map.runs) > 1
    rng = np.random.default_rng(1050)
    x = rng.standard_normal(N)
    full = np.array([circular_convolution(x, c) for c in filters])
    assert _close(analyze(x, bank), full[:, ::p], np.abs(full).max())
    y = rng.standard_normal((len(filters), N // p))
    up = np.zeros((len(filters), N))
    up[:, ::p] = y
    want = sum(circular_convolution(u, c) for u, c in zip(up, filters)) / bank.tight_bound()
    assert _close(synthesize(y, bank), want, np.abs(want).max())


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_layers_match_direct_route_where_the_fold_aliases_more_than_two_bins():
    # keeping every p-th output folds p bins onto each residue mod N/p; the
    # non-uniform banks mix ratios, so their channels fold in groups by N/p_i
    rng = np.random.default_rng(120)
    mixed = 0
    for N in range(3, 121):
        qs = divisors(N).divisors
        x = rng.standard_normal(N)
        full = np.array([circular_convolution(x, c) for c in _filters(N)])
        banks = [uniform_bank(N, p) for p in qs if p >= 3]
        for p in (p for p in qs if p >= 3 and _is_prime(p)):
            for r in (1, 2):
                if r == 2 and N % 4 != 2:
                    continue  # stride-2 repair needs N = 2·odd
                banks.append(build_nonuniform(p, r, N).bank)
                mixed += not banks[-1].uniform
        for bank in banks:
            rows = [qs.index(q) for q in bank.qs]
            want = [full[j, :: ch.p] for j, ch in zip(rows, bank.channels)]
            got = analyze(x, bank)
            assert [g.shape for g in got] == [w.shape for w in want], (N, bank.channels)
            assert _close(np.concatenate(got), np.concatenate(want), np.abs(full).max()), (
                N, bank.channels)
            energies = np.sum(full[rows] ** 2, axis=1)
            assert _close(channel_energies(x, bank), energies, energies.max()), (N, bank.channels)
    assert mixed > 100


def test_bin_map_is_derived_once_per_bank(monkeypatch):
    N, p = 210, 2
    bank = RamanujanFilterBank(N, tuple(Channel(q, p) for q in divisors(N).divisors))
    assert "bin_map" not in bank.__dict__
    rng = np.random.default_rng(210)
    x = rng.standard_normal(N)
    y = rng.standard_normal((len(bank.channels), N // p))

    def layers():
        return (analyze(x, bank), synthesize(y, bank), channel_energies(x, bank),
                identify_period(x))

    first = layers()

    def gcd(*args, **kwargs):
        raise AssertionError("a second call derived the bin owners again")

    monkeypatch.setattr(np, "gcd", gcd)
    second = layers()
    assert all(np.array_equal(a, b) for a, b in zip(first[0], second[0]))
    assert np.array_equal(first[1], second[1]) and np.array_equal(first[2], second[2])
    assert first[3] == second[3]
    m = bank.bin_map
    assert m is bank.bin_map
    for arr in (m.channel, m.bins, m.slots, m.fold, m.unfold):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_spectral_layers_keep_per_call_temporaries_small():
    # notes/decisions.md entries 11 and 12: each call works on one run of
    # channels at a time, so what it allocates beyond its output stays small
    N, p = 2310, 2
    bank = uniform_bank(N, p)
    x = np.random.default_rng(2310).standard_normal(N)
    coeffs = analyze(x, bank)
    calls = {
        "analyze": lambda: analyze(x, bank),
        "synthesize": lambda: synthesize(coeffs, bank),
        "channel_energies": lambda: channel_energies(x, bank),
    }
    for name, call in calls.items():
        call()  # the bin map and the frame bounds are built once, outside the bound
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for a in out) if isinstance(out, list) else out.nbytes
        assert peak <= size + 256 * 1024, (name, (peak - size) // 1024)


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


def _svd_ranks(U):
    """Numerical ranks of the U(m), on the scale of the whole stack: a sub-bank's
    U(m) can vanish at some m, leaving only the oracle's rounding noise."""
    sv = np.linalg.svd(U, compute_uv=False)
    return tuple(np.sum(sv > 1e-10 * sv.max(), axis=1).tolist())


def test_frame_report_ranks_match_svd_up_to_ratio_6():
    # the integer ranks against an SVD of the direct U(m) stack, for the
    # divisor banks with 3 ≤ p ≤ 6 and for seeded sub-banks with p ≤ 6;
    # none of the sub-banks missing a channel is a frame
    rng = np.random.default_rng(6)
    for N in range(3, 211):
        filters = _filters(N)
        qs = divisors(N).divisors
        for p in (p for p in range(1, 7) if N % p == 0):
            if p >= 3:
                rep = frame_report(uniform_bank(N, p))
                assert rep.ranks == _svd_ranks(_reference_stack(filters, p)), (N, p)
            if N > 60 or len(qs) < 2:
                continue
            keep = sorted(rng.choice(len(qs), size=int(rng.integers(1, len(qs))), replace=False))
            bank = RamanujanFilterBank(N, tuple(Channel(qs[i], p) for i in keep))
            rep = frame_report(bank)
            U = _reference_stack([filters[i] for i in keep], p)
            assert rep.ranks == _svd_ranks(U), (N, p, keep)
            assert not rep.is_frame, (N, p, keep)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j, "a"])
def test_spectral_layers_reject_non_finite_signals(bad):
    # signals and coefficients are real: a NaN, inf, complex or string entry
    # is refused, never dropped or passed on as an all-NaN answer
    message = {complex: "complex", str: "non-numeric"}.get(type(bad), "NaN or inf")
    bank = uniform_bank(30, 1)
    x = [1.0] * 30
    x[7] = bad
    coeffs = [list(c) for c in analyze(np.ones(30), bank)]
    coeffs[3][2] = bad
    for call in (lambda: analyze(x, bank), lambda: channel_energies(x, bank),
                 lambda: identify_period(x), lambda: synthesize(coeffs, bank)):
        with pytest.raises(PreconditionError, match=message):
            call()
