"""Bank construction, analysis/synthesis round-trips, period identification."""

import math
import sys

import numpy as np
import pytest

import rframes.frames as frames
from rframes import (
    Channel,
    PreconditionError,
    RamanujanFilterBank,
    all_pairs,
    analyze,
    channel_energies,
    channel_erasure_margins,
    denoise,
    divisors,
    fusion_after_local_erasures,
    identify_period,
    ramanujan_sum,
    recover_missing,
    robust_to_erasures,
    synthesize,
    totient,
    truncated_sum,
    uncertainty_report,
    uniform_bank,
)
from rframes.filterbank import coefficient_rows
from rframes.experiments import periodic_signal


def test_uniform_bank_channels():
    bank = uniform_bank(30, 2)
    assert bank.n == 30
    assert bank.qs == (1, 2, 3, 5, 6, 10, 15, 30)
    assert bank.uniform and bank.ratio == 2
    # total filter count: one shift per k < N/p per channel
    assert sum(bank.n // ch.p for ch in bank.channels) == 8 * 15


def test_bank_validation():
    with pytest.raises(PreconditionError):
        RamanujanFilterBank(10, (Channel(3, 1),))  # q does not divide N
    with pytest.raises(PreconditionError):
        RamanujanFilterBank(10, (Channel(5, 3),))  # p does not divide N
    with pytest.raises(PreconditionError):
        RamanujanFilterBank(10, ())
    for bad in (Channel(0, 1), Channel(1, 0), Channel(1.5, 1), Channel(1, True)):
        with pytest.raises(PreconditionError):
            RamanujanFilterBank(6, (bad,))  # checked before any n % q
    with pytest.raises(PreconditionError):
        RamanujanFilterBank(6.0, (Channel(1, 1),))
    assert RamanujanFilterBank(np.int64(6), (Channel(np.int64(3), 1),)).qs == (3,)
    with pytest.raises(PreconditionError):
        uniform_bank(12, 5)
    mixed = RamanujanFilterBank(12, (Channel(3, 1), Channel(4, 2)))
    assert not mixed.uniform
    with pytest.raises(PreconditionError):
        mixed.ratio


def test_shift_matrix_columns():
    bank = uniform_bank(6, 2)
    S = bank.shifts(3)  # channel q=6
    c6 = ramanujan_sum(6, 6)
    assert S.shape == (6, 3)
    for k in range(3):
        assert np.array_equal(S[:, k], np.roll(c6, 2 * k))


def test_coefficient_rows_use_each_channel_ratio():
    bank = RamanujanFilterBank(12, (Channel(4, 3), Channel(6, 2), Channel(12, 1)))
    pairs = [(3, 0), (0, 1), (5, 1), (11, 2), (0, 0)]
    R = coefficient_rows(bank, pairs)
    for row, (k, i) in zip(R, pairs):
        ch = bank.channels[i]
        assert np.array_equal(row, np.roll(ramanujan_sum(ch.q, 12), ch.p * k))
    assert coefficient_rows(bank, []).shape == (0, 12)
    for bad in ([(4, 0)], [(6, 1)], [(0, 3)], [(0, -1)], [(1, 2), (1, 2)]):
        with pytest.raises(PreconditionError):
            coefficient_rows(bank, bad)  # k ∉ Z_{N/p_i}, i ∉ [0, K), or repeated


def test_bank_report_is_derived_once(monkeypatch):
    # every tight path reads the bank's cached bounds: no frame_report
    calls = []
    real = frames.frame_report

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rframes" and getattr(module, "frame_report", None) is real:
            monkeypatch.setattr(module, "frame_report", counted)
    bank = uniform_bank(30, 2)
    x = periodic_signal(30, (3, 5), seed=4)
    pairs = all_pairs(bank)[3:]
    synthesize(analyze(x, bank), bank)
    observed = truncated_sum(x, pairs, bank)
    recover_missing(observed, pairs, bank)
    denoise(x, pairs, bank)
    uncertainty_report(x, bank)
    channel_erasure_margins(bank, 2)
    robust_to_erasures(2, 30, [(0, 1), (3, 4)])
    fusion_after_local_erasures(1, 30, [[0]] * len(divisors(30).divisors))
    assert calls == []
    assert bank.frame_bounds is bank.frame_bounds  # cached per bank
    assert bank.tight_bound() == 30 * 30 / 2
    assert abs(bank.tight_bound() - real(bank).A) <= 1e-12 * bank.tight_bound()
    with pytest.raises(PreconditionError):
        uniform_bank(12, 2).tight_bound()  # not a frame


def test_analyze_matches_inner_products(rng):
    for N, p in ((30, 1), (6, 2), (18, 2)):
        bank = uniform_bank(N, p)
        x = rng.standard_normal(N)
        coeffs = analyze(x, bank)
        for i, ch in enumerate(bank.channels):
            c = ramanujan_sum(ch.q, N).astype(float)
            for k in range(N // p):
                assert np.isclose(coeffs[i][k], x @ np.roll(c, p * k), atol=1e-9)


def test_analyze_is_linear(rng):
    bank = uniform_bank(12, 1)
    x, y = rng.standard_normal(12), rng.standard_normal(12)
    cx, cy, cxy = analyze(x, bank), analyze(y, bank), analyze(2 * x - 3 * y, bank)
    for a, b, ab in zip(cx, cy, cxy):
        assert np.allclose(ab, 2 * a - 3 * b, atol=1e-9)


@pytest.mark.parametrize("N,p,A", [(30, 1, 900), (6, 2, 18), (18, 2, 162)])
def test_round_trip_on_tight_banks(N, p, A, rng):
    bank = uniform_bank(N, p)
    for _ in range(5):
        x = rng.standard_normal(N)
        y = analyze(x, bank)
        assert np.allclose(synthesize(y, bank), x, atol=1e-9)
    assert bank.tight_bound() == A


def test_uniform_bank_refuses_a_non_integer():
    # uniform_bank('6', 1) once raised a raw TypeError from N < 1, and a list a
    # raw "unhashable" TypeError from the lru_cache; the check runs before the
    # cache, so a repeated bad call raises again
    for N, p in (("6", 1), (6, "1"), (6.0, 1), (6, 1.0), (True, 1), (6, True), ([6], 1),
                 (6, [1])):
        for _ in range(2):
            with pytest.raises(PreconditionError, match="integers"):
                uniform_bank(N, p)
    assert uniform_bank(np.int64(6), np.int64(2)).qs == (1, 2, 3, 6)


def test_synthesize_guards():
    bank = uniform_bank(12, 2)  # d even: not a frame
    y = analyze(np.ones(12), bank)
    with pytest.raises(PreconditionError):
        synthesize(y, bank)
    tight = uniform_bank(6, 2)
    yt = analyze(np.ones(6), tight)
    with pytest.raises(PreconditionError):
        synthesize(yt[:-1], tight)
    for bad in (yt[2][:-1], np.append(yt[2], 0.0)):  # one channel of the wrong length
        with pytest.raises(PreconditionError, match="channel 2: expected 3 coefficients"):
            synthesize(yt[:2] + [bad] + yt[3:], tight)


def test_parseval_energy_budget(rng):
    # tight banks split ‖x‖² across channels with constant A
    bank = uniform_bank(30, 1)
    x = rng.standard_normal(30)
    total = sum(float(y @ y) for y in analyze(x, bank))
    assert np.isclose(total, 900 * float(x @ x), rtol=1e-9)


def test_channel_energies_locate_components():
    x = periodic_signal(30, (3, 5), seed=7)
    bank = uniform_bank(30, 1)
    e = channel_energies(x, bank)
    hot = {q for q, v in zip(bank.qs, e) if v > 1e-8 * e.max()}
    assert hot == {1, 3, 5} or hot == {3, 5}  # q=1 may get a mean leak of 0


def test_identify_period_mixed_components():
    x = periodic_signal(30, (3, 5), seed=3)
    assert identify_period(x) == 15


def test_identify_period_basic_cases():
    assert identify_period(np.ones(24)) == 1
    c7 = ramanujan_sum(7, 70).astype(float)
    assert identify_period(c7) == 7
    with pytest.raises(PreconditionError):
        identify_period(np.zeros(12))
    with pytest.raises(PreconditionError):
        identify_period(np.ones(12), N=10)


def test_identify_period_refuses_a_threshold_outside_0_1():
    # zero_tol = −1 once counted every channel, and NaN none
    x = periodic_signal(30, (3, 5), seed=3)
    for bad in (-1, -1e-12, 1.0, math.nan, math.inf, True, "1e-8", None):
        with pytest.raises(PreconditionError, match="zero_tol"):
            identify_period(x, zero_tol=bad)
    assert identify_period(x, zero_tol=1e-6) == identify_period(x, zero_tol=np.float64(1e-8)) == 15


def test_identify_period_seeded_sweep(rng):
    # random divisor subsets: the detected period is the lcm of the drawn q's
    for N in (24, 30, 36, 60):
        qs = divisors(N).divisors
        for _ in range(50):
            take = [q for q in qs if rng.random() < 0.4]
            if not take:
                continue
            x = periodic_signal(N, tuple(take), seed=int(rng.integers(1 << 30)))
            assert identify_period(x, N) == math.lcm(*take)


def test_channel_energy_scaling():
    # a lone c_q input concentrates at q: c_q ∗ c_q = N·c_q, so the matched
    # channel's output energy is N²·‖c_q‖² = N³·phi(q), every other channel 0
    N = 36
    bank = uniform_bank(N, 1)
    for q in (4, 9, 12):
        e = channel_energies(ramanujan_sum(q, N).astype(float), bank)
        i = bank.qs.index(q)
        assert np.isclose(e[i], N**3 * totient(q), rtol=1e-9)
        others = np.delete(e, i)
        assert others.max() < 1e-16 * e[i] + 1e-9
