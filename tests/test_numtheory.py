"""Arithmetic layer: totient/Möbius, divisor profiles, and Ramanujan sums.

The closed-form construction is checked against the literal trigonometric
sum (conftest.trig_ramanujan) and against the classical identities the rest
of the library leans on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rframes import (
    PreconditionError,
    circular_convolution,
    circular_shift,
    divisors,
    inner_product,
    mobius,
    ramanujan_sum,
    totient,
)
from conftest import dft_channel_mask, trig_ramanujan
from rframes.numtheory import _bin_owners

LCM = math.lcm


def test_totient_small_table():
    # classic table values
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6,
                10: 4, 12: 4, 30: 8, 36: 12, 38: 18, 70: 24, 105: 48}
    for n, phi in expected.items():
        assert totient(n) == phi


def test_mobius_small_table():
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0]
    assert [mobius(n) for n in range(1, 17)] == expected


@settings(derandomize=True, database=None)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
def test_totient_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert totient(a * b) == totient(a) * totient(b)


def test_divisor_profile():
    prof = divisors(30)
    assert prof.divisors == (1, 2, 3, 5, 6, 10, 15, 30)
    assert prof.count == 8
    assert prof.index_of(15) == 6
    # Gauss: sum of phi over divisors is n
    assert sum(totient(q) for q in prof.divisors) == 30


@pytest.mark.parametrize("N", range(1, 61))
def test_ramanujan_sum_matches_trig_oracle(N):
    for q in divisors(N).divisors:
        got = ramanujan_sum(q, N)
        want = trig_ramanujan(q, N)
        assert got.dtype == np.int64
        assert np.allclose(got, want, atol=1e-8), (q, N)


def test_ramanujan_sum_trig_oracle_random():
    # every (q, mult) pair the former random draw could pick, q ≤ 30 and mult ≤ 8
    for q in range(1, 31):
        for mult in range(1, 9):
            N = q * mult
            assert np.allclose(ramanujan_sum(q, N), trig_ramanujan(q, N), atol=1e-8), (q, N)


def test_ramanujan_sum_listing_values():
    # c_5 over Z_10: the period-5 pattern (4,-1,-1,-1,-1) repeated
    assert ramanujan_sum(5, 10).tolist() == [4, -1, -1, -1, -1] * 2
    assert ramanujan_sum(1, 3).tolist() == [1, 1, 1]
    assert ramanujan_sum(2, 2).tolist() == [1, -1]


def test_ramanujan_sum_matches_per_sample_holder_loop():
    # the divisor lookup gives the integers of the per-sample evaluation,
    # c_q(n) = μ(m)·φ(q)/φ(m) with m = q / gcd(n, q), bit for bit
    for N in [*range(1, 61), 2310]:
        for q in divisors(N).divisors:
            want = [mobius(q // math.gcd(n, q)) * (totient(q) // totient(q // math.gcd(n, q)))
                    for n in range(N)]
            got = ramanujan_sum(q, N)
            assert got.dtype == np.int64 and got.tolist() == want, (q, N)


def test_ramanujan_sum_requires_divisor():
    with pytest.raises(PreconditionError):
        ramanujan_sum(3, 4)
    with pytest.raises(PreconditionError):
        ramanujan_sum(0, 4)


# a float, bool or string where an integer belongs was once read as a number:
# totient(2.5) gave 1.5, divisors(6.0) float divisors, ramanujan_sum(True, 6)
# c_1 and circular_shift(x, 1.5) a shift by 1


def test_totient_and_mobius_refuse_a_non_integer():
    for bad in (2.5, 6.0, True, "6"):
        with pytest.raises(PreconditionError, match="integer"):
            totient(bad)
        with pytest.raises(PreconditionError, match="integer"):
            mobius(bad)
    assert totient(np.int64(12)) == 4 and mobius(np.int64(6)) == 1


def test_divisors_refuses_a_non_integer():
    for bad in (6.0, 2.5, False, "6"):
        with pytest.raises(PreconditionError, match="integer"):
            divisors(bad)
    assert divisors(np.int64(6)).divisors == (1, 2, 3, 6)


def test_ramanujan_sum_refuses_a_non_integer():
    for q, N in ((True, 6), (2, 6.0), (2.0, 6), (1, "6")):
        with pytest.raises(PreconditionError, match="integers"):
            ramanujan_sum(q, N)
    assert ramanujan_sum(np.int64(2), np.int64(6)).tolist() == ramanujan_sum(2, 6).tolist()


def test_circular_shift_refuses_a_non_integer_shift():
    x = np.arange(6.0)
    for bad in (1.5, 1.0, True, None):
        with pytest.raises(PreconditionError, match="integer"):
            circular_shift(x, bad)
    assert circular_shift(x, np.int64(-1)).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 0.0]


def test_norm_squared_is_n_phi():
    for N in (6, 12, 30, 38, 70):
        for q in divisors(N).divisors:
            c = ramanujan_sum(q, N).astype(float)
            assert c @ c == N * totient(q)


# --- the integer-arithmetic property suite the construction rests on -------


def _property_suite(N):
    """Per-N checks; each failure returns a short tag for the assert message."""
    bad = []
    prof = divisors(N).divisors
    for q in prof:
        c = ramanujan_sum(q, N)
        phi = totient(q)
        # integrality and peak value
        if not (c[0] == phi and np.abs(c).max() <= phi):
            bad.append(("peak", q))
        # evenness c_q(-n) = c_q(n)
        if not np.array_equal(c, c[(-np.arange(N)) % N]):
            bad.append(("even", q))
        # q-periodicity
        if any(c[n] != c[n % q] for n in range(N)):
            bad.append(("period", q))
        # zero mean over one period for q > 1
        if q > 1 and int(c[:q].sum()) != 0:
            bad.append(("mean", q))
        # power over one period
        if int((c[:q].astype(np.int64) ** 2).sum()) != q * phi:
            bad.append(("power", q))
        # autocorrelation over one period: sum_n c(n)c(n-l) = q c(l)
        cq = c[:q].astype(np.int64)
        for l in range(q):
            acf = sum(int(cq[n]) * int(cq[(n - l) % q]) for n in range(q))
            if acf != q * int(cq[l]):
                bad.append(("acf", q, l))
                break
        # cross-correlation over an lcm window vanishes
        for r in prof:
            if r <= q:
                continue
            cr = ramanujan_sum(r, N)
            L = LCM(q, r)
            for l in range(min(L, 8)):
                s = sum(int(c[n % N]) * int(cr[(n - l) % N]) for n in range(L))
                if s != 0:
                    bad.append(("cross", q, r, l))
                    break
    return bad


@pytest.mark.parametrize("N", [1, 2, 6, 12, 16, 24, 30, 36, 45, 60])
def test_integer_property_suite(N):
    assert _property_suite(N) == []


def test_peak_over_all_divisors_is_phi_n():
    # max_{q|N, n} |c_q(n)| equals phi(N), attained at q = N
    for N in (6, 12, 30, 38, 60):
        peak = max(int(np.abs(ramanujan_sum(q, N)).max()) for q in divisors(N).divisors)
        assert peak == totient(N)
        assert int(np.abs(ramanujan_sum(N, N)).max()) == totient(N)


# --- DFT-side identities ----------------------------------------------------


@pytest.mark.parametrize("N", [2, 6, 10, 18, 30, 38, 54, 58])
def test_dft_support(N):
    # \hat{c_q} = N exactly on {kN/q : (k,q)=1}, zero elsewhere (FFT oracle)
    for q in divisors(N).divisors:
        spec = np.fft.fft(ramanujan_sum(q, N).astype(float))
        mask = dft_channel_mask(q, N)
        assert np.allclose(spec[mask], N, atol=1e-7)
        assert np.allclose(spec[~mask], 0.0, atol=1e-7)


@pytest.mark.parametrize("N", [2, 6, 10, 18, 30, 54])
def test_half_shift_phase_identity_on_support(N):
    # c_q(N/2+n) e^{-2pi i m(N/2+n)/N} = c_q(n) e^{-2pi i mn/N} holds for every
    # m in the DFT support of c_q (as printed for all m it fails on parity
    # grounds; the support set is where the identity is ever used)
    n = np.arange(N)
    for q in divisors(N).divisors:
        c = ramanujan_sum(q, N).astype(float)
        for m in np.flatnonzero(dft_channel_mask(q, N)):
            lhs = c[(N // 2 + n) % N] * np.exp(-2j * np.pi * m * (N // 2 + n) / N)
            rhs = c[n] * np.exp(-2j * np.pi * m * n / N)
            assert np.allclose(lhs, rhs, atol=1e-9), (q, m)


@pytest.mark.parametrize("N", [2, 6, 10, 18, 30, 54, 58])
def test_halved_divisor_sign_flip(N):
    # for even q | N (N = 2·odd): c_{q/2}(n) = (-1)^n c_q(n)
    signs = (-1.0) ** np.arange(N)
    for q in divisors(N).divisors:
        if q % 2:
            continue
        assert np.allclose(
            ramanujan_sum(q // 2, N), signs * ramanujan_sum(q, N), atol=1e-12
        )


# --- convolution helpers -----------------------------------------------------


def test_circular_shift_matches_roll(rng):
    x = rng.standard_normal(17)
    for k in (0, 1, 5, 16, 20, -3):
        assert np.allclose(circular_shift(x, k), np.roll(x, k))


def test_circular_convolution_fft_oracle(rng):
    x = rng.standard_normal(24)
    h = rng.standard_normal(24)
    direct = circular_convolution(x, h)
    via_fft = np.real(np.fft.ifft(np.fft.fft(x) * np.fft.fft(h)))
    assert np.allclose(direct, via_fft, atol=1e-9)


def test_convolution_orthogonality_of_coprime_channels():
    # c_3 * c_5 = 0 over Z_15 (disjoint DFT supports)
    z = circular_convolution(ramanujan_sum(3, 15), ramanujan_sum(5, 15))
    assert np.abs(z).max() == 0


def test_self_convolution_reproduces_channel():
    for N, q in ((15, 5), (12, 12), (30, 6)):
        c = ramanujan_sum(q, N)
        assert np.allclose(circular_convolution(c, c), N * c)


def test_inner_product_is_plain_dot(rng):
    x, y = rng.standard_normal((2, 11))
    assert np.isclose(inner_product(x, y), float(x @ y))


def test_bin_owners_match_the_dft_masks():
    # entry f of the owner vector is the q whose DFT mask {kN/q : (k,q)=1} holds f
    for N in range(1, 121):
        owners = _bin_owners(N)
        want = np.zeros(N, dtype=np.int64)
        for q in divisors(N).divisors:
            mask = dft_channel_mask(q, N)
            assert not want[mask].any(), (N, q)  # one owner per bin
            want[mask] = q
        assert np.array_equal(owners, want), N
        # q owns exactly φ(q) bins: the φ that erasure bounds and detection read
        counts = np.bincount(owners)
        assert all(counts[q] == totient(q) for q in divisors(N).divisors), N
        assert _bin_owners(N) is owners
        assert not owners.flags.writeable
        with pytest.raises(ValueError):
            owners[0] = 0
