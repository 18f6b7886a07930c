"""Shift-invariant subspaces, non-uniform banks, erasures, fusion frames."""

import os
import subprocess
import sys

import numpy as np
import pytest

import rframes.filterbank as filterbank
import rframes.frames as frames
import rframes.numtheory as numtheory
import rframes.subspaces as subspaces
from conftest import dft_subspace_projector, trig_ramanujan
from rframes import (
    Channel,
    PreconditionError,
    RamanujanFilterBank,
    aliasing_divisors,
    build_nonuniform,
    channel_erasure_margins,
    divisors,
    filterbank_erasure_margin,
    frame_report,
    fusion_after_local_erasures,
    fusion_frame_check,
    orthogonal_decomposition_check,
    orthonormalize,
    ramanujan_sum,
    rank_Q,
    robust_to_erasures,
    rpt_expand,
    subspace_basis,
    totient,
    uniform_bank,
)


@pytest.mark.parametrize("p,N", [(1, 12), (1, 30), (2, 6), (2, 30)])
def test_shift_basis_spans_dft_subspace(p, N):
    # the strided shifts of c_q span exactly the DFT bins {kN/q : (k,q)=1}
    for q in divisors(N).divisors:
        sub = subspace_basis(p, q, N)
        assert sub.basis.shape == (N, totient(q))
        Q = orthonormalize(sub.basis)
        P = Q @ Q.T
        assert np.allclose(P, dft_subspace_projector(q, N).real, atol=1e-9)


def test_subspace_basis_columns():
    sub = subspace_basis(2, 6, 6)
    c6 = ramanujan_sum(6, 6).astype(float)
    assert np.array_equal(sub.basis[:, 0], c6)
    assert np.array_equal(sub.basis[:, 1], np.roll(c6, 2))


def test_subspace_basis_preconditions():
    with pytest.raises(PreconditionError):
        subspace_basis(2, 3, 12)  # stride 2 needs N = 2·odd
    with pytest.raises(PreconditionError):
        subspace_basis(1, 5, 12)  # q must divide N
    with pytest.raises(PreconditionError):
        subspace_basis(3, 3, 9)  # only strides 1 and 2 keep the spans intact
    for q in (2.0, np.float64(2), True, "2", None):  # refused, not read as an integer
        with pytest.raises(PreconditionError):
            subspace_basis(1, q, 6)
    assert np.array_equal(subspace_basis(1, np.int64(2), 6).basis, subspace_basis(1, 2, 6).basis)


def test_tight_divisor_banks_admit_exactly_strides_one_and_half_of_two_odd():
    # the subspace layer requires a tight divisor bank: p = 1, or p = 2 with N = 2·odd
    for N in range(1, 121):
        for p in divisors(N).divisors:
            valid = p == 1 or (p == 2 and N % 4 == 2)
            bounds = uniform_bank(N, p).frame_bounds
            assert (bounds is not None and bounds[0] == bounds[1]) == valid, (N, p)
            if valid:
                assert subspace_basis(p, N, N).dim == totient(N)
                continue
            with pytest.raises(PreconditionError, match="not tight"):
                subspace_basis(p, 1, N)
            with pytest.raises(PreconditionError, match="not tight"):
                fusion_frame_check(p, N, draws=1)


def test_orthonormalize_produces_frames_of_unit_vectors(rng):
    cols = rng.standard_normal((10, 4))
    Q = orthonormalize(cols)
    assert np.allclose(Q.T @ Q, np.eye(4), atol=1e-12)
    # same column space
    r = np.linalg.matrix_rank(np.hstack([cols, Q]))
    assert r == 4


@pytest.mark.parametrize("p,N", [(1, 7), (1, 12), (1, 45), (2, 6), (2, 18), (2, 10)])
def test_orthogonal_decomposition(p, N):
    chk = orthogonal_decomposition_check(p, N)
    assert chk.ok
    assert chk.dim_total == N
    assert chk.max_cross < 1e-9
    assert chk.identity_residual < 1e-9


def test_decomposition_rejects_bad_stride():
    with pytest.raises(PreconditionError):
        orthogonal_decomposition_check(2, 12)  # 4 | N breaks the stride-2 spans


def test_rpt_expansion_round_trip(rng):
    for p, N in ((1, 24), (2, 30)):
        x = rng.standard_normal(N)
        coeffs = rpt_expand(x, p)
        assert sum(1 for _ in coeffs) == N
        rebuilt = np.zeros(N)
        for (q, ell), a in coeffs.items():
            rebuilt += a * np.roll(ramanujan_sum(q, N).astype(float), p * ell)
        assert np.allclose(rebuilt, x, atol=1e-8)


def test_rpt_expansion_refuses_values_it_cannot_expand():
    # NaN and inf used to give NaN coefficients, and a complex x lost its imaginary part
    x = np.ones(12)
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[3] = bad
        with pytest.raises(PreconditionError, match="NaN or inf"):
            rpt_expand(y, 1)
    for bad in (x + 1j, x.astype(str), [[1.0] * 12], [], 5.0):
        with pytest.raises(PreconditionError):
            rpt_expand(bad, 1)
    assert rpt_expand([1] * 12, 1) == rpt_expand(x, 1)


def test_rpt_expansion_of_single_filter():
    coeffs = rpt_expand(ramanujan_sum(5, 30).astype(float), 1)
    assert np.isclose(coeffs[(5, 0)], 1.0, atol=1e-10)
    rest = [v for k, v in coeffs.items() if k != (5, 0)]
    assert np.max(np.abs(rest)) < 1e-10


def test_rank_formula_spot_checks():
    # rank = φ(q) unless p | q and p ≤ q, where it collapses to φ(q/p)
    assert rank_Q(3, 3, 12) == totient(1)
    assert rank_Q(3, 6, 12) == totient(2)
    assert rank_Q(3, 12, 12) == totient(4)
    assert rank_Q(3, 4, 12) == totient(4)
    assert rank_Q(2, 4, 12) == totient(2)
    assert rank_Q(2, 3, 12) == totient(3)
    with pytest.raises(PreconditionError):
        rank_Q(4, 4, 12)  # stride must be prime
    with pytest.raises(PreconditionError):
        rank_Q(5, 5, 12)  # and divide N


def test_rank_q_refuses_arguments_that_are_not_integers():
    # a float or bool argument is refused, not read as the integer it equals
    for args in ((3, 3.0, 12), (3.0, 3, 12), (3, 3, 12.0), (3, True, 12), (True, 3, 12),
                 (3, "3", 12), (3, 0, 12), (3, -3, 12)):
        with pytest.raises(PreconditionError):
            rank_Q(*args)
    assert rank_Q(np.int64(3), np.int64(6), np.int64(12)) == rank_Q(3, 6, 12) == 1


def test_aliasing_divisor_sets():
    assert aliasing_divisors(3, 12) == (3, 6, 12)
    assert aliasing_divisors(2, 12) == (4, 12)
    assert aliasing_divisors(2, 6) == ()
    assert aliasing_divisors(5, 30) == (5, 10, 15, 30)
    with pytest.raises(PreconditionError):
        aliasing_divisors(6, 12)
    with pytest.raises(PreconditionError):
        aliasing_divisors(5, 12)


def test_aliasing_divisors_and_build_nonuniform_refuse_a_non_integer():
    # trial division of a float inf never ended, and 1.5 came back as the "prime" 1.5
    inf = float("inf")
    for p in (inf, 1.5, 3.0, True, "3", None):
        with pytest.raises(PreconditionError):
            aliasing_divisors(p, 6)
    with pytest.raises(PreconditionError):
        build_nonuniform(inf, 1, 12)
    for r in (1.0, True):
        with pytest.raises(PreconditionError):
            build_nonuniform(3, r, 12)
    assert build_nonuniform(np.int64(3), np.int64(1), 12).dset == (3, 6, 12)


def test_nonuniform_bank_repairs_stride_three():
    spec = build_nonuniform(3, 1, 12)
    assert spec.dset == (3, 6, 12)
    assert spec.ratios == (3, 3, 1, 3, 1, 1)
    assert spec.is_frame
    assert np.isclose(spec.A, 48.0, atol=1e-6)
    assert np.isclose(spec.B, 144.0, atol=1e-6)
    # not tight: the repaired channels are over-weighted
    assert spec.B - spec.A > 1.0


def test_nonuniform_bank_with_stride_two_repair():
    spec = build_nonuniform(3, 2, 6)
    assert spec.dset == (3, 6)
    assert spec.is_frame
    with pytest.raises(PreconditionError):
        build_nonuniform(3, 2, 12)  # r=2 needs N = 2·odd
    with pytest.raises(PreconditionError):
        build_nonuniform(3, 3, 9)


def test_erasure_margin_zero_at_dc():
    # the constant channel puts all its Zak energy at m=0: margin exactly 0
    for N, p in ((8, 1), (12, 1), (6, 2), (18, 2)):
        bank = uniform_bank(N, p)
        assert abs(filterbank_erasure_margin(bank, 0, 0)) < 1e-12


def test_margins_match_direct_eigenvalues():
    # nonzero margin at every m <=> survivors of the channel erasure still frame
    bank = uniform_bank(8, 1)
    for j, q in enumerate(bank.qs):
        margins = channel_erasure_margins(bank, j)
        assert len(margins) == 8
        assert margins.min() > -1e-12


@pytest.mark.parametrize("N,p", [(210, 2), (105, 1)])
def test_channel_margins_from_one_report(N, p, monkeypatch):
    bank = uniform_bank(N, p)
    d = N // p
    E = np.exp(-2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    reports = []
    real_report = frames.frame_report
    monkeypatch.setattr(frames, "frame_report", lambda b: reports.append(b) or real_report(b))
    for j, q in enumerate(bank.qs):
        margins = channel_erasure_margins(bank, j)
        assert not reports  # the bound is the bank's exact rule, read without a report
        # Σ_n |Σ_ℓ c(pℓ + n) e^{−2πimℓ/d}|² / d over the tight bound p·d²
        energy = np.sum(np.abs(E @ trig_ramanujan(q, N).reshape(d, p)) ** 2, axis=1) / d
        assert np.abs(margins - (1 - energy / (p * d))).max() <= 1e-12
    dc = channel_erasure_margins(bank, 0)  # q = 1
    assert [filterbank_erasure_margin(bank, 0, m) for m in range(d)] == dc.tolist()
    assert dc[0] == 0.0  # exact, with A = p·d² exact


def test_certificates_share_one_bank_per_configuration(monkeypatch):
    calls = []
    real = filterbank.ramanujan_sum
    monkeypatch.setattr(filterbank, "ramanujan_sum", lambda q, n: calls.append(q) or real(q, n))
    filterbank.uniform_bank.cache_clear()
    N, p = 66, 2  # d = 33 odd: tight
    K = len(divisors(N).divisors)
    assert robust_to_erasures(p, N, [(0, 1), (4, 3)])
    rep = fusion_after_local_erasures(p, N, [[k] for k in range(K)])
    assert rep.frame_flag
    assert len(calls) == K  # one filter matrix for both calls
    bank = uniform_bank(N, p)
    assert uniform_bank(N, p) is bank
    with pytest.raises(ValueError):
        bank.filter_matrix[0, 0] = 1.0  # shared, so read-only


def test_shift_rank_leaves_numpy_ma_unimported():
    code = (
        "import sys\n"
        "from rframes import fusion_frame_check, rank_Q\n"
        "assert rank_Q(3, 6, 12) == 1\n"
        "fusion_frame_check(1, 30)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_margin_preconditions():
    bank = uniform_bank(12, 2)  # not a frame at all
    with pytest.raises(PreconditionError):
        filterbank_erasure_margin(bank, 0, 0)
    tight = uniform_bank(6, 2)
    with pytest.raises(PreconditionError):
        filterbank_erasure_margin(tight, 9, 0)
    with pytest.raises(PreconditionError):
        filterbank_erasure_margin(tight, 0, 3)
    # indices are integers: a bool or a float is refused, not read as one
    for j in (True, False, 1.0, np.float64(1), "1", None):
        with pytest.raises(PreconditionError):
            channel_erasure_margins(tight, j)
        with pytest.raises(PreconditionError):
            filterbank_erasure_margin(tight, j, 0)
    for m in (True, False, 2.0, np.float64(0), "0", None):
        with pytest.raises(PreconditionError):
            filterbank_erasure_margin(tight, 1, m)
    margins = channel_erasure_margins(tight, np.int64(1))
    assert np.array_equal(margins, channel_erasure_margins(tight, 1))
    assert filterbank_erasure_margin(tight, np.int64(1), np.int64(2)) == margins[2]


def test_owner_counts_take_no_gcd_after_the_first_round(monkeypatch):
    # notes/decisions.md entry 13: the owners are derived once per N, and
    # every exact count after that reads the cached owner vector
    N = 210  # 2·odd, so both strides of the subspace layer apply
    qs = divisors(N).divisors

    def owner_round():
        tight = uniform_bank(N, 2)
        fresh = RamanujanFilterBank(N, tuple(Channel(q, 2) for q in qs))
        return [
            frame_report(tight), frame_report(uniform_bank(N, 3)),
            [channel_erasure_margins(tight, j) for j in range(len(qs))],
            fusion_frame_check(1, N), fusion_frame_check(2, N),
            [rank_Q(p, q, N) for p in (2, 3, 5, 7) for q in qs],
            [subspace_basis(p, q, N).basis for p in (1, 2) for q in qs],
            build_nonuniform(3, 2, N), build_nonuniform(7, 1, N),
            fresh.frame_bounds,
            [getattr(fresh.bin_map, a) for a in ("channel", "bins", "slots", "fold", "unfold")],
            [g.bins for g in fresh.channel_geometry],
        ]

    first = owner_round()

    def gcd(*args, **kwargs):
        raise AssertionError("a second round derived the bin owners again")

    monkeypatch.setattr(np, "gcd", gcd)
    second = owner_round()
    for a, b in zip(first, second):
        if isinstance(a, list):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        else:
            assert a == b


def test_single_erasures_of_z4_bank():
    # every single deletion from the N=4, p=1 bank leaves a frame
    for i, q in enumerate((1, 2, 4)):
        d = 4
        for k in range(d):
            assert robust_to_erasures(1, 4, [(k, i)])


def test_specific_pair_breaks_z4_bank():
    # deleting shifts 0 and 2 of the q=4 channel kills the span: c_4(n) and
    # c_4(n−2) = −c_4(n) are parallel, and S_4 is 2-dimensional
    assert not robust_to_erasures(1, 4, [(0, 2), (2, 2)])
    # a generic pair from different channels survives
    assert robust_to_erasures(1, 4, [(0, 2), (1, 1)])


def test_erasure_input_validation():
    with pytest.raises(PreconditionError):
        robust_to_erasures(1, 4, [(0, 7)])
    with pytest.raises(PreconditionError):
        robust_to_erasures(1, 4, [(9, 0)])
    with pytest.raises(PreconditionError):
        robust_to_erasures(1, 4, [(0, 0), (0, 0)])
    with pytest.raises(PreconditionError):
        robust_to_erasures(2, 12, [(0, 0)])  # not a tight configuration
    assert robust_to_erasures(1, 4, [])


def test_two_erasure_guarantee_spot_checks(rng):
    # N−1 ≥ 2φ(N) certifies every 2-subset deletion (p=1); check a batch
    for N in (12, 30):
        assert N - 1 >= 2 * totient(N)
        d = N
        for _ in range(25):
            k1, k2 = rng.integers(0, d, size=2)
            i1, i2 = rng.integers(0, divisors(N).count, size=2)
            if (k1, i1) == (k2, i2):
                continue
            assert robust_to_erasures(1, N, [(int(k1), int(i1)), (int(k2), int(i2))])


def test_two_erasure_guarantee_half_stride(rng):
    # d−1 ≥ 2φ(N) version for p=2, N = 2·odd.  The smallest case is
    # d = 3·5·7 = 105 (26 < 36 already fails it at N = 54).
    N = 210
    d = N // 2
    assert d - 1 >= 2 * totient(N)
    for _ in range(10):
        k1, k2 = (int(v) for v in rng.integers(0, d, size=2))
        i1, i2 = (int(v) for v in rng.integers(0, divisors(N).count, size=2))
        if (k1, i1) == (k2, i2):
            continue
        assert robust_to_erasures(2, N, [(k1, i1), (k2, i2)])


@pytest.mark.parametrize("p,N", [(1, 9), (1, 16), (1, 30), (2, 6), (2, 30)])
def test_fusion_parseval(p, N):
    rep = fusion_frame_check(p, N, draws=10, seed=1)
    assert rep.parseval
    assert np.isclose(rep.a_f, 1.0, atol=1e-9)
    assert np.isclose(rep.b_f, 1.0, atol=1e-9)
    assert np.isclose(rep.op_min, 1.0, atol=1e-9)
    assert np.isclose(rep.op_max, 1.0, atol=1e-9)
    # per-subspace energies of the first draw add up to that draw's ‖x‖²
    x0 = np.random.default_rng(1).standard_normal(N)
    assert np.isclose(sum(rep.energies), float(x0 @ x0), rtol=1e-9)


def test_fusion_check_preconditions():
    with pytest.raises(PreconditionError):
        fusion_frame_check(2, 12)
    with pytest.raises(PreconditionError):
        fusion_frame_check(1, 9, draws=0)


def _shift_projector(p, q, N):
    """Projector onto S_{p,q} from a QR of its shift basis, an oracle for the bin owners."""
    Q = orthonormalize(subspace_basis(p, q, N).basis)
    return Q @ Q.T


def test_fusion_energies_match_both_projector_oracles():
    # every N <= 210 at p = 1 and every N = 2·odd <= 210 at p = 2, two seeds each
    dft = {}  # the DFT-mask projectors of Z_N, shared by both strides
    cases = [(1, N) for N in range(1, 211)] + [(2, N) for N in range(2, 211, 4)]
    for p, N in cases:
        qs = divisors(N).divisors
        if N not in dft:
            dft[N] = [dft_subspace_projector(q, N) for q in qs]
        oracles = dft[N], [_shift_projector(p, q, N) for q in qs]
        for seed in (3, 4):
            rep = fusion_frame_check(p, N, draws=3, seed=seed)
            assert rep.op_min == rep.op_max == 1.0, (p, N)
            x = np.random.default_rng(seed).standard_normal((3, N))[0]
            assert len(rep.energies) == len(qs)
            for P in oracles:
                want = np.array([np.sum((P_q @ x) ** 2) for P_q in P])
                err = np.abs(np.array(rep.energies) - want)
                assert (err <= 1e-12 * want).all(), (p, N, seed, err.max())


def test_fusion_check_refuses_draw_counts_that_are_not_integers():
    for draws in (2.5, 3.0, True, False, "3", None, 0, -1):
        with pytest.raises(PreconditionError, match="draws"):
            fusion_frame_check(1, 30, draws=draws)
    assert fusion_frame_check(1, 30, draws=np.int64(3)) == fusion_frame_check(1, 30, draws=3)


def test_fusion_check_refuses_seeds_that_are_not_integers():
    # a seed numpy would refuse with its own TypeError or ValueError, or a
    # bool it would read as 1, is a precondition failure
    for seed in (1.5, 2.0, True, False, "1", None, -1):
        with pytest.raises(PreconditionError, match="seed"):
            fusion_frame_check(1, 30, seed=seed)
    assert fusion_frame_check(1, 30, seed=np.int64(2)) == fusion_frame_check(1, 30, seed=2)


def test_subspace_bases_build_no_bank_after_the_first_round(monkeypatch):
    # every span fact comes from the cached divisor bank: a second round
    # builds no bank and evaluates no Ramanujan sum
    N = 210
    x = np.random.default_rng(5).standard_normal(N)

    def subspace_round():
        return [
            [subspace_basis(p, q, N).basis for p in (1, 2) for q in divisors(N).divisors],
            list(rpt_expand(x, 2).values()),
            [fusion_frame_check(p, N, draws=2).energies for p in (1, 2)],
        ]

    first = subspace_round()

    def refuse(*args, **kwargs):
        raise AssertionError("a second round built a bank or a Ramanujan sum")

    monkeypatch.setattr(RamanujanFilterBank, "__post_init__", refuse)
    monkeypatch.setattr(numtheory, "ramanujan_sum", refuse)
    monkeypatch.setattr(filterbank, "ramanujan_sum", refuse)
    second = subspace_round()
    for a, b in zip(first, second):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert orthogonal_decomposition_check(2, N).ok


def test_fusion_check_refuses_shifts_short_of_the_subspace(monkeypatch):
    # the span facts come from the divisor bank's exact count: a bank whose
    # q = 3 shifts fall short of V_3 (bins 10, 20 share residue 0 mod 10) is not tight
    short = RamanujanFilterBank(30, tuple(Channel(q, 3) for q in divisors(30).divisors))
    assert subspaces._shift_rank(3, 3, 30) < totient(3)
    monkeypatch.setattr(subspaces, "uniform_bank", lambda N, p: short)
    with pytest.raises(PreconditionError, match="not tight"):
        fusion_frame_check(1, 30)


def test_fusion_after_single_local_erasures():
    rep = fusion_after_local_erasures(1, 12, [[0], [3], [5], [1], [2], [11]])
    assert rep.frame_flag
    assert rep.bound_ok
    assert not rep.hypothesis_borderline
    assert rep.a_f > 0
    assert rep.b_f <= 1 + 1e-12


def test_fusion_after_double_local_erasures():
    # N = 12: N−1 = 11 ≥ 2φ(12) = 8, two deletions per channel are certified
    sets = [[0, 6], [1, 7], [2, 8], [3, 9], [4, 10], [5, 11]]
    rep = fusion_after_local_erasures(1, 12, sets)
    assert rep.frame_flag and rep.bound_ok
    assert not rep.hypothesis_borderline
    assert min(rep.per_channel_lower) > 0


def test_fusion_erasure_guards():
    # exact equality budget == 2φ(N) has no solutions below 3000 on either
    # stride (scanned), so the borderline flag is exercised only by its guard
    # logic; the hypothesis *violation* is reachable: N = 4 gives 3 < 4
    with pytest.raises(PreconditionError):
        fusion_after_local_erasures(1, 4, [[0, 1], [], []])
    with pytest.raises(PreconditionError):
        fusion_after_local_erasures(1, 12, [[0, 1, 2]] + [[]] * 5)  # >2 per channel
    with pytest.raises(PreconditionError):
        fusion_after_local_erasures(1, 12, [[0]])  # wrong channel count
    with pytest.raises(PreconditionError):
        fusion_after_local_erasures(1, 12, [[0, 0]] + [[]] * 5)  # duplicates
    with pytest.raises(PreconditionError):
        fusion_after_local_erasures(2, 12, [[0]] * 6)  # not tight


def test_fusion_erasures_refuse_shift_indices_that_are_not_integers():
    # 1.5 used to erase shift 1, and '0' and True were read as shift 0 and 1
    for k in (1.5, 1.0, "0", True, None):
        with pytest.raises(PreconditionError):
            fusion_after_local_erasures(1, 12, [[k]] * 6)
    sets = [[np.int64(k)] for k in (0, 3, 5, 1, 2, 11)]
    assert fusion_after_local_erasures(1, 12, sets) == fusion_after_local_erasures(
        1, 12, [[0], [3], [5], [1], [2], [11]])


def test_untouched_bank_reports_unit_bounds():
    rep = fusion_after_local_erasures(1, 12, [[]] * 6)
    assert np.isclose(rep.a_f, 1.0, atol=1e-12)
    assert np.isclose(rep.b_f, 1.0, atol=1e-12)


def _svd_rank(M):
    """Numerical rank of a shift matrix, the oracle for the exact counts."""
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > 1e-10 * sv[0]))


def _circulant(q, N):
    """Columns L_k c_q for every k ∈ Z_N, from the trigonometric sum."""
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return trig_ramanujan(q, N)[idx]


def test_rank_q_matches_svd_of_shift_matrices():
    primes = (2, 3, 5, 7, 11, 13)
    cases = 0
    for N in range(2, 211):
        strides = [p for p in primes if N % p == 0]
        for q in divisors(N).divisors if strides else ():
            C = _circulant(q, N)
            for p in strides:
                assert rank_Q(p, q, N) == _svd_rank(C[:, ::p]), (p, q, N)
                cases += 1
    assert cases > 2000


def test_subspace_basis_rank_check_matches_svd():
    # the exact check accepts (p, q, N) iff the first φ(q) p-strided shifts
    # have full rank; subspace_basis itself admits only the valid strides
    for N in range(1, 121):
        for q in divisors(N).divisors:
            C = _circulant(q, N)
            phi = totient(q)
            for p in (1, 2) if N % 2 == 0 else (1,):
                first = C[:, : p * phi : p]
                assert subspaces._shift_rank(p, q, N) == _svd_rank(first), (p, q, N)
                if p == 1 or (N // 2) % 2 == 1:
                    basis = subspace_basis(p, q, N).basis
                    assert np.array_equal(basis, np.round(first)), (p, q, N)


def _tight_cases():
    """Every tight uniform bank with N ≤ 60, plus one large case per stride."""
    return [(N, 1) for N in range(1, 61)] + [(N, 2) for N in range(2, 61, 4)] + [
        (105, 1), (210, 2)
    ]


def _erasure_sets(bank, rng):
    """Small, whole-channel, and more-than-N erasure sets of (k, i) pairs."""
    N = bank.n
    pairs = [(k, i) for i, ch in enumerate(bank.channels) for k in range(N // ch.p)]
    j = int(rng.integers(len(bank.channels)))
    whole = [(k, j) for k in range(N // bank.channels[j].p)]
    sets = [whole]
    for size in (2, N + 1, len(pairs) - 1):
        if 0 < size < len(pairs):
            sets.append([pairs[t] for t in rng.choice(len(pairs), size, replace=False)])
    return sets


def _survivor_operator(bank, erased):
    """Σ f fᵀ over the surviving shifts f = L_{pk} c_q, from the trigonometric sums."""
    N = bank.n
    gone = set(erased)
    S = np.zeros((N, N))
    for i, ch in enumerate(bank.channels):
        c = trig_ramanujan(ch.q, N)
        F = np.array([np.roll(c, ch.p * k) for k in range(N // ch.p) if (k, i) not in gone])
        if len(F):
            S += F.T @ F
    return S


@pytest.mark.parametrize("N,p", _tight_cases())
def test_survivor_bounds_match_trig_oracle(N, p):
    # per channel: the spectrum of the survivors' operator on V_q; overall:
    # its extreme eigenvalues, also when more than N vectors are erased
    bank = uniform_bank(N, p)
    A = bank.tight_bound()
    rng = np.random.default_rng(1000 * N + p)
    bases = []
    for q in bank.qs:
        w, V = np.linalg.eigh(dft_subspace_projector(q, N).real)
        bases.append(V[:, w > 0.5])
    for erased in _erasure_sets(bank, rng):
        lo, hi = subspaces._survivor_bounds(bank, erased)
        S = _survivor_operator(bank, erased)
        eigs = np.linalg.eigvalsh(S)
        assert abs(lo.min() - eigs[0]) <= 1e-12 * A, (N, p, len(erased))
        assert abs(hi.max() - eigs[-1]) <= 1e-12 * A, (N, p, len(erased))
        for i, Q in enumerate(bases):
            on_v = np.linalg.eigvalsh(Q.T @ S @ Q)
            assert abs(lo[i] - on_v[0]) <= 1e-12 * A, (N, p, i)
            assert abs(hi[i] - on_v[-1]) <= 1e-12 * A, (N, p, i)


@pytest.mark.parametrize("N,p", [(30, 1), (126, 1), (210, 2)])
def test_single_erasure_per_channel_reads_the_closed_form(N, p):
    # one erased shift leaves the 1×1 Gram N·φ(q): the bounds equal the
    # eigen solve's bit for bit and match the survivors' operator
    bank = uniform_bank(N, p)
    A = bank.tight_bound()
    rng = np.random.default_rng(N + p)
    erased = [(int(rng.integers(N // p)), i) for i in range(len(bank.channels))]
    lo, hi = subspaces._survivor_bounds(bank, erased)
    for i, q in enumerate(bank.qs):
        mu = np.linalg.eigvalsh(np.array([[float(N * totient(q))]]))[0]
        assert lo[i] == A - mu, (N, q)
        assert hi[i] == (A - mu if totient(q) == 1 else A), (N, q)
    eigs = np.linalg.eigvalsh(_survivor_operator(bank, erased))
    assert abs(lo.min() - eigs[0]) <= 1e-12 * A
    assert abs(hi.max() - eigs[-1]) <= 1e-12 * A


def test_fusion_upper_bound_with_more_than_n_erasures():
    # 8 erasures in Z_6: the q = 3 and q = 6 channels lose both dimensions'
    # worth of shifts, and their survivors top out at 36 − 6 = 30 = (5/6)·A
    rep = fusion_after_local_erasures(1, 6, [[0, 1]] * 4)
    assert abs(rep.b_f - 5 / 6) <= 1e-12
    S = _survivor_operator(uniform_bank(6, 1), [(k, i) for i in range(4) for k in (0, 1)])
    assert abs(np.linalg.eigvalsh(S)[-1] / 36 - 5 / 6) <= 1e-12


def _nonuniform_cases():
    for N in range(2, 121):
        for p in (q for q in divisors(N).divisors if q > 1 and totient(q) == q - 1):
            for r in (1, 2) if N % 4 == 2 else (1,):
                yield p, r, N


def test_nonuniform_bounds_match_frame_operator():
    cases = 0
    for p, r, N in _nonuniform_cases():
        spec = build_nonuniform(p, r, N)
        eigs = np.linalg.eigvalsh(frames.frame_operator(spec.bank))
        assert abs(spec.A - eigs[0]) <= 1e-12 * eigs[-1], (p, r, N)
        assert abs(spec.B - eigs[-1]) <= 1e-12 * eigs[-1], (p, r, N)
        cases += 1
    assert cases > 200


def _gram_schmidt(cols):
    """Classical Gram–Schmidt, column by column, the oracle for orthonormalize."""
    Q = np.zeros_like(cols, dtype=float)
    for j in range(cols.shape[1]):
        v = cols[:, j] - Q[:, :j] @ (Q[:, :j].T @ cols[:, j])
        v = v - Q[:, :j] @ (Q[:, :j].T @ v)
        Q[:, j] = v / np.linalg.norm(v)
    return Q


@pytest.mark.parametrize("p,N", [(1, 60), (2, 210)])
def test_orthonormalize_matches_gram_schmidt(p, N):
    for q in divisors(N).divisors:
        B = subspace_basis(p, q, N).basis
        assert np.abs(orthonormalize(B) - _gram_schmidt(B)).max() <= 1e-13, (p, q, N)


def test_orthonormalize_rejects_dependent_columns():
    c = ramanujan_sum(4, 4).astype(float)
    with pytest.raises(subspaces.InternalError):
        orthonormalize(np.column_stack([c, np.roll(c, 2)]))  # c_4(n − 2) = −c_4(n)
    with pytest.raises(subspaces.InternalError):
        orthonormalize(np.eye(3, 4))  # more columns than rows


def test_fusion_erasures_refuse_erased_sets_that_are_not_sequences():
    # None raised a raw TypeError from len(), and [5] * 8 one from list(5)
    for bad in (None, 5, [5] * 8, [[0]] * 7 + [None]):
        with pytest.raises(PreconditionError, match="erased sets"):
            fusion_after_local_erasures(1, 30, bad)
    assert fusion_after_local_erasures(1, 12, iter([[0]] * 6)) == fusion_after_local_erasures(
        1, 12, [[0]] * 6)


def test_orthonormalize_refuses_input_that_is_not_a_matrix():
    # True and a vector raised a raw LinAlgError, "a" a ValueError, [[1j]] a TypeError
    for bad in (True, 5.0, np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(PreconditionError, match="matrix, got shape"):
            orthonormalize(bad)
    for bad in ("a", [["a", "b"]], [[1.0], [2.0, 3.0]], [[1j]]):
        with pytest.raises(PreconditionError, match="matrix of real numbers"):
            orthonormalize(bad)
