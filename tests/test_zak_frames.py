"""Zak transform, polyphase matrices, and frame classification."""

import numpy as np
import pytest

from rframes import (
    Channel,
    InternalError,
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


def test_frame_bounds_rule_matches_polyphase_reports():
    banks = frames_seen = tight_seen = 0
    for bank in _rule_banks():
        rep = frame_report(bank)
        bounds = bank.frame_bounds
        assert (bounds is not None) == rep.is_frame, (bank.n, bank.ratio, bank.qs)
        banks += 1
        if bounds is None:
            continue
        A, B = bounds
        assert (A == B) == rep.tight, (bank.n, bank.ratio, bank.qs)
        assert abs(A - rep.A) <= 1e-9 * B and abs(B - rep.B) <= 1e-9 * B, (bank.n, bank.qs)
        frames_seen += 1
        tight_seen += A == B
    assert banks == 1566
    assert frames_seen >= 200 and frames_seen - tight_seen >= 50  # both cases exercised
    with pytest.raises(PreconditionError):
        RamanujanFilterBank(6, (Channel(1, 1), Channel(1, 2))).frame_bounds  # mixed at q = 1


def test_frame_report_audits_itself_against_the_rule():
    # a fresh bank object each time: uniform_bank's banks are shared
    def bank_with(N, p, bounds):
        bank = RamanujanFilterBank(N, tuple(Channel(q, p) for q in divisors(N).divisors))
        bank.__dict__["frame_bounds"] = bounds  # overrides the cached property
        return bank

    assert frame_report(bank_with(30, 1, (900, 900))).tight
    assert not frame_report(bank_with(12, 2, None)).is_frame
    for N, p, wrong in (
        (30, 1, (900, 901)),  # B off by more than 1e-9·B, and not tight
        (30, 1, (899, 899)),  # A and B both off
        (30, 1, (450, 900)),  # a frame, but not tight
        (30, 1, None),  # not a frame
        (12, 2, (72, 72)),  # a frame, where the polyphase ranks say not
    ):
        with pytest.raises(InternalError):
            frame_report(bank_with(N, p, wrong))


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


def test_frame_operator_identity_for_tight_banks(rng):
    for N, p in ((12, 1), (30, 2)):
        bank = uniform_bank(N, p)
        S = frame_operator(bank)
        rep = frame_report(bank)
        assert np.allclose(S, rep.A * np.eye(N), atol=1e-8 * rep.A)
        x = rng.standard_normal(N)
        assert np.allclose(S @ x, rep.A * x, rtol=1e-9)
