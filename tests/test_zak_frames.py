"""Zak transform, polyphase matrices, and frame classification."""

import math
from collections import Counter

import numpy as np
import pytest

from rframes import (
    Channel,
    PreconditionError,
    RamanujanFilterBank,
    classify_theorem_case,
    divisors,
    frame_operator,
    frame_report,
    polyphase_matrix,
    ramanujan_sum,
    totient,
    uniform_bank,
    zak,
    zak_inverse,
    zak_value_oracle,
)
from rframes.experiments import GOLDEN_U6, GOLDEN_U8_COLUMNS


@pytest.mark.parametrize("N,p", [(6, 2), (8, 1), (12, 2), (30, 2), (35, 5), (16, 4)])
def test_zak_is_unitary(N, p, rng):
    for _ in range(5):
        x = rng.standard_normal(N)
        Z = zak(x, p)
        assert Z.shape == (N // p, p)
        assert np.isclose(np.linalg.norm(Z), np.linalg.norm(x), atol=1e-10)
        assert np.allclose(zak_inverse(Z), x, atol=1e-10)


@pytest.mark.parametrize("N,p", [(6, 2), (10, 2), (30, 2), (12, 1)])
def test_zak_shift_identity_is_phase_only(N, p, rng):
    d = N // p
    x = rng.standard_normal(N)
    Z = zak(x, p)
    for k in (1, 2, d - 1):
        got = zak(np.roll(x, p * k), p)
        phase = np.exp(-2j * np.pi * k * np.arange(d) / d)[:, None]
        assert np.allclose(got, phase * Z, atol=1e-10)


def test_zak_value_oracle_matches_transform():
    # closed-form Zak values of the filters at the support frequencies,
    # compared against the generic transform (N = 2d, d odd)
    for N in (6, 10, 18, 30):
        qs = divisors(N).divisors
        for qi in qs:
            for k in range(1, qi + 1):
                if np.gcd(k, qi) != 1:
                    continue
                m = (k * N // qi) % (N // 2)
                for qj in qs:
                    Z = zak(ramanujan_sum(qj, N).astype(float), 2)
                    for n in (0, 1):
                        want = zak_value_oracle(qj, qi, k, n, N)
                        assert np.isclose(Z[m, n], want, atol=1e-9), (N, qi, qj, k, n)


def test_zak_value_oracle_refuses_non_integers():
    # k = 1.0 raised a raw TypeError from math.gcd; N = 6.0 and q_j = True gave values
    good = (1, 3, 1, 0, 6)
    for slot in range(5):
        for bad in (1.0 * good[slot], True, "1", None):
            args = list(good)
            args[slot] = bad
            with pytest.raises(PreconditionError, match="integers"):
                zak_value_oracle(*args)
    assert zak_value_oracle(*map(np.int64, good)) == zak_value_oracle(*good)


def test_polyphase_golden_matrices_n6():
    bank = uniform_bank(6, 2)
    for m in range(3):
        U = polyphase_matrix(bank, m)
        assert np.allclose(U, GOLDEN_U6[m], atol=1e-9)
        G = U.conj().T @ U
        assert np.allclose(G, 18 * np.eye(2), atol=1e-9)


def test_polyphase_golden_matrix_n8():
    # p=1: single-column matrices; entry 8 sits on the channel whose DFT
    # support contains m, everything else is zero
    bank = uniform_bank(8, 1)
    for m, row in GOLDEN_U8_COLUMNS.items():
        U = polyphase_matrix(bank, m)
        assert U.shape == (4, 1)
        want = np.zeros(4, dtype=complex)
        want[row] = 8.0
        assert np.allclose(U[:, 0], want, atol=1e-9)


def test_polyphase_rank_profile_n12():
    bank = uniform_bank(12, 2)
    rep = frame_report(bank)
    assert rep.ranks == (2, 1, 2, 1, 2, 1)
    assert not rep.is_frame
    assert rep.classification == "not_frame"


def test_polyphase_index_range():
    bank = uniform_bank(6, 2)
    with pytest.raises(PreconditionError):
        polyphase_matrix(bank, 3)


def test_polyphase_matrix_refuses_a_non_integer_index():
    # m = 1.5 once raised a raw IndexError from the FFT's row lookup
    bank = uniform_bank(6, 2)
    for bad in (1.5, 1.0, True, "1", None):
        with pytest.raises(PreconditionError, match="frequency index"):
            polyphase_matrix(bank, bad)
    assert np.array_equal(polyphase_matrix(bank, np.int64(1)), polyphase_matrix(bank, 1))


def test_zak_refuses_a_non_integer_stride():
    # zak(x, 2.0) once raised a raw TypeError from the reshape
    x = np.arange(6.0)
    for bad in (2.0, 1.5, True, "2", None):
        with pytest.raises(PreconditionError, match="stride"):
            zak(x, bad)
    assert np.array_equal(zak(x, np.int64(2)), zak(x, 2))


def test_trace_identity():
    # sum_m tr(U*(m)U(m)) = d * N^2  (corrected constant; the filters carry
    # total energy sum_q N*phi(q) = N^2 and each of the d frequencies sees it)
    for N, p in ((6, 2), (8, 1), (12, 2), (20, 1), (30, 2)):
        bank = uniform_bank(N, p)
        d = N // p
        tot = sum(
            float(np.trace(polyphase_matrix(bank, m).conj().T @ polyphase_matrix(bank, m)).real)
            for m in range(d)
        )
        assert np.isclose(tot, d * N * N, rtol=1e-9)


def _assert_dense_spectrum_matches(bank, rep):
    """The N×N frame operator's spectrum lies in [A, B], and S = A·I when tight."""
    S = frame_operator(bank)
    eigs = np.linalg.eigvalsh(S)
    tol = 1e-8 * max(1.0, rep.B)
    assert rep.A - tol <= eigs.min() and eigs.max() <= rep.B + tol
    if rep.tight:
        assert np.abs(S - rep.A * np.eye(bank.n)).max() <= 1e-8 * rep.A


def test_tight_for_unit_ratio():
    for N in (2, 6, 8, 12, 17, 24):
        bank = uniform_bank(N, 1)
        rep = frame_report(bank)
        assert rep.tight and rep.is_frame
        assert np.isclose(rep.A, N * N, rtol=1e-9)
        assert np.isclose(rep.B, N * N, rtol=1e-9)
        _assert_dense_spectrum_matches(bank, rep)


def test_tight_for_ratio_two_odd_half():
    for N in (6, 10, 18, 30, 38):
        d = N // 2
        bank = uniform_bank(N, 2)
        rep = frame_report(bank)
        assert rep.tight
        assert np.isclose(rep.A, 2 * d * d, rtol=1e-9)
        _assert_dense_spectrum_matches(bank, rep)


def test_not_frame_for_ratio_two_even_half():
    for N in (4, 8, 12, 16, 20):
        rep = frame_report(uniform_bank(N, 2))
        assert not rep.is_frame


def test_not_frame_for_larger_ratios():
    for N, p in ((9, 3), (30, 3), (20, 5), (16, 4), (25, 5)):
        bank = uniform_bank(N, p)
        if len(bank.channels) < p:
            continue
        rep = frame_report(bank)
        assert not rep.is_frame, (N, p)
        # the m=0 matrix already has a repeated-column defect
        U0 = polyphase_matrix(bank, 0)
        assert np.linalg.matrix_rank(U0) < p


def test_classifier_agrees_with_measured_reports():
    for N in range(2, 37):
        for p in divisors(N).divisors:
            if p == N or len(divisors(N).divisors) < p:
                continue
            case = classify_theorem_case(N, p)
            rep = frame_report(uniform_bank(N, p))
            assert case.case == rep.classification, (N, p)
            if case.case == "tight":
                assert np.isclose(case.bound, rep.A, rtol=1e-9)


def _rule_banks():
    """Every N ≤ 60 and p | N: the divisor bank, it doubled, and four seeded multisets."""
    for N in range(1, 61):
        qs = divisors(N).divisors
        for p in qs:
            rng = np.random.default_rng(100 * N + p)
            draws = [sorted(rng.choice(qs, size=rng.integers(1, 2 * len(qs) + 1)))
                     for _ in range(4)]
            for multiset in [qs, qs + qs, *draws]:
                yield RamanujanFilterBank(N, tuple(Channel(int(q), p) for q in multiset))


def _polyphase_stack(bank):
    """Every U(m) of a uniform bank from the integer Ramanujan sums: (d, K, p) complex."""
    N, p = bank.n, bank.ratio
    C = np.array([ramanujan_sum(q, N) for q in bank.qs], dtype=float).reshape(-1, N // p, p)
    return np.fft.fft(C, axis=1).conj().transpose(1, 0, 2)


def test_frame_bounds_rule_matches_polyphase_reports():
    # the rule and the report are both counts over the bin owners; the oracle
    # is an eigen solve of the polyphase Grams, which counts nothing
    banks = frames_seen = tight_seen = 0
    for bank in _rule_banks():
        U = _polyphase_stack(bank)
        eigs = np.linalg.eigvalsh(U.conj().transpose(0, 2, 1) @ U)  # ascending, (d, p)
        lo, hi = float(eigs[:, 0].min()), float(eigs[:, -1].max())
        tol = 1e-9 * hi
        frame, tight = lo > tol, lo > tol and hi - lo <= tol
        rep = frame_report(bank)
        bounds = bank.frame_bounds
        key = (bank.n, bank.ratio, bank.qs)
        assert (bounds is not None) == frame == rep.is_frame, key
        assert rep.tight == tight, key
        assert abs(rep.A - lo) <= tol and abs(rep.B - hi) <= tol, key
        assert np.abs(np.array(rep.per_m_eigs) - eigs).max() <= tol, key
        banks += 1
        if bounds is None:
            continue
        A, B = bounds
        assert (A == B) == tight, key
        assert abs(A - lo) <= 1e-9 * B and abs(B - hi) <= 1e-9 * B, key
        frames_seen += 1
        tight_seen += A == B
    assert banks == 1566
    assert frames_seen >= 200 and frames_seen - tight_seen >= 50  # both cases exercised
    with pytest.raises(PreconditionError):
        RamanujanFilterBank(6, (Channel(1, 1), Channel(1, 2))).frame_bounds  # mixed at q = 1


def _owner_count_eigs(bank):
    """U(m)ᴴU(m)'s eigenvalues row by row: N·d·m_q·t_q and t_q − 1 zeros per owner q."""
    N, p = bank.n, bank.ratio
    d = N // p
    rows = []
    for m in range(d):
        owners = Counter(N // math.gcd((j * d - m) % N, N) for j in range(p))
        row = []
        for q, t in owners.items():
            m_q = bank.qs.count(q)
            row += [N * d * m_q * t] + [0] * (t - 1) if m_q else [0] * t
        rows.append(tuple(float(e) for e in sorted(row)))
    return tuple(rows)


def test_frame_report_counts_owners_without_filters_or_eigen_solves(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("frame_report called a numpy.linalg routine")

    for name in ("eigvalsh", "eigh", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    cases = [(N, p, reps) for N in range(1, 61) for p in divisors(N).divisors for reps in (1, 2)]
    for N, p, reps in cases + [(2310, 2310, 1)]:
        # a fresh bank: uniform_bank's banks are shared and may hold a filter matrix
        bank = RamanujanFilterBank(N, tuple(Channel(q, p) for q in divisors(N).divisors * reps))
        rep = frame_report(bank)
        assert "filter_matrix" not in bank.__dict__, (N, p, reps)
        want = _owner_count_eigs(bank)
        assert rep.per_m_eigs == want, (N, p, reps)
        assert rep.ranks == tuple(sum(e > 0 for e in row) for row in want), (N, p, reps)
        assert rep.A == min(row[0] for row in want) and rep.B == max(row[-1] for row in want)
        assert rep.is_frame == all(r == p for r in rep.ranks), (N, p, reps)
        assert rep.tight == (rep.is_frame and rep.A == rep.B), (N, p, reps)


def test_tight_bound_is_exact():
    checked = 0
    for N in range(1, 421):
        for p in (1, 2):
            if N % p:
                continue
            bank = uniform_bank(N, p)
            if classify_theorem_case(N, p).case == "tight":
                assert bank.tight_bound() == N * N / p, (N, p)
                checked += 1
            else:
                with pytest.raises(PreconditionError):
                    bank.tight_bound()
    assert checked == 420 + 105


def test_classifier_preconditions():
    with pytest.raises(PreconditionError):
        classify_theorem_case(10, 3)  # p does not divide N
    with pytest.raises(PreconditionError):
        classify_theorem_case(4, 4)  # K = 3 < p


def test_classify_theorem_case_refuses_non_integers():
    # (12.0, 2) once returned a case with a float n and d
    for N, p in ((12.0, 2), (12, 2.0), (True, 1), ("12", 2), (12, None)):
        with pytest.raises(PreconditionError, match="integers"):
            classify_theorem_case(N, p)
    case = classify_theorem_case(np.int64(12), np.int64(2))
    assert (case.n, case.d, case.case) == (12, 6, "not_frame")


def test_frame_operator_identity_for_tight_banks(rng):
    for N, p in ((12, 1), (30, 2)):
        bank = uniform_bank(N, p)
        S = frame_operator(bank)
        rep = frame_report(bank)
        assert np.allclose(S, rep.A * np.eye(N), atol=1e-8 * rep.A)
        x = rng.standard_normal(N)
        assert np.allclose(S @ x, rep.A * x, rtol=1e-9)


def test_zak_refuses_a_signal_that_is_not_a_numeric_vector():
    # 5 raised a raw TypeError, a matrix a ValueError, strings a DTypePromotionError
    for bad in (5, [[1, 2], [3, 4]], ["a", "b"], [[1], [2, 3]], None):
        with pytest.raises(PreconditionError, match="vector of numbers"):
            zak(bad, 1)
    z = np.array([1j, 2.0, -1.0, 0.5j])  # complex signals are transformed as before
    assert np.allclose(zak_inverse(zak(z, 2)), z, atol=1e-12)
