"""Uncertainty counts, ℓ1 recovery/denoising, support detection, noise models."""

import functools
import math

import numpy as np
import pytest

from conftest import dft_subspace_projector, trig_ramanujan

from rframes import (
    Channel,
    GaussianNoiseModel,
    PreconditionError,
    RamanujanFilterBank,
    SparseNoiseModel,
    add_noise,
    all_pairs,
    analyze,
    denoise,
    detect_support_set,
    divisors,
    frame_report,
    membership_null_basis,
    ramanujan_sum,
    recover_missing,
    recover_missing_periodic,
    robust_to_erasures,
    snr_db,
    totient,
    truncated_sum,
    uncertainty_report,
    uniform_bank,
)
from rframes.recovery import _nearest_optimum, coefficient_rows
from rframes.simplex import lad_fit
from rframes.experiments import (
    periodic_signal,
    sparse_top_channel,
    recovery_instances,
    denoise_instances,
)


# ---------------------------------------------------------------------------
# uncertainty counts


def test_impulse_support_counts():
    # an impulse has every coefficient alive (s_x = Kd) and one sample (b_x = 1)
    bank = uniform_bank(38, 2)
    x = np.zeros(38)
    x[5] = 1.0
    rep = uncertainty_report(x, bank)
    assert rep.s_x == 4 * 19  # 4 divisors of 38, d = 19 shifts each
    assert rep.b_x == 1
    assert rep.sum_ok and rep.prod_ok


def test_bound_formulas():
    bank = uniform_bank(38, 2)
    rep = uncertainty_report(np.eye(38)[0], bank)
    assert rep.beta_o == totient(38) == 18
    assert np.isclose(rep.sum_bound, 2 * 19 * math.sqrt(2) / 18, rtol=1e-12)
    # product bound from the formula p(d/φ(N))²; for N=38, p=2 this is
    # 2·(19/18)² ≈ 2.2284 (the acceptance run pins the printed-constant check)
    assert np.isclose(rep.prod_bound, 2 * (19 / 18) ** 2, rtol=1e-12)
    assert np.isclose(rep.prod_bound, 2.228395061728395, rtol=1e-12)

    b1 = uniform_bank(12, 1)
    r1 = uncertainty_report(np.eye(12)[3], b1)
    assert np.isclose(r1.sum_bound, 2 * 12 / 4, rtol=1e-12)
    assert np.isclose(r1.prod_bound, (12 / 4) ** 2, rtol=1e-12)


def test_sparse_signal_counts():
    # the top-channel vector keeps coefficients only on q = N, and since
    # x ∈ S_N the convolution x ∗ c_N equals N·x — so the coefficient
    # sequence inherits the same 4-point ± support
    N = 12
    bank = uniform_bank(N, 1)
    x = sparse_top_channel(N)
    rep = uncertainty_report(x, bank)
    assert rep.b_x == 2 ** 2  # one ± spike per squarefree prime combination
    assert rep.s_x == 2 ** 2
    assert rep.sum_ok and rep.prod_ok


def test_uncertainty_preconditions():
    bank = uniform_bank(12, 2)  # not tight
    with pytest.raises(PreconditionError):
        uncertainty_report(np.ones(12), bank)
    with pytest.raises(PreconditionError):
        uncertainty_report(np.zeros(6), uniform_bank(6, 1))


def test_uncertainty_report_refuses_a_tolerance_outside_0_1():
    # tol = NaN once reported s_x = b_x = 0, and a negative tol counts every entry
    bank = uniform_bank(12, 1)
    x = sparse_top_channel(12)
    for bad in (math.nan, math.inf, -1e-3, 1.0, True, "1e-8", None):
        with pytest.raises(PreconditionError, match="tol"):
            uncertainty_report(x, bank, tol=bad)
    assert uncertainty_report(x, bank, tol=0) == uncertainty_report(x, bank, tol=0.0)


def test_uncertainty_random_sample_never_violates(rng):
    for _ in range(25):
        N = int(rng.choice([6, 10, 12, 21]))
        x = rng.standard_normal(N)
        rep = uncertainty_report(x, uniform_bank(N, 1))
        assert rep.s_x + rep.b_x >= rep.sum_bound - 1e-12
        assert rep.s_x * rep.b_x >= rep.prod_bound - 1e-12


# ---------------------------------------------------------------------------
# coefficient plumbing


def test_coefficient_rows_match_analysis(rng):
    for N, p in ((30, 1), (18, 2)):
        bank = uniform_bank(N, p)
        x = rng.standard_normal(N)
        coeffs = analyze(x, bank)
        pairs = all_pairs(bank)
        R = coefficient_rows(bank, pairs)
        flat = R @ x
        for j, (k, i) in enumerate(pairs):
            assert np.isclose(flat[j], coeffs[i][k], atol=1e-9)


def test_truncated_sum_with_all_pairs_is_identity(rng):
    for N, p in ((12, 1), (6, 2)):
        bank = uniform_bank(N, p)
        x = rng.standard_normal(N)
        assert np.allclose(truncated_sum(x, all_pairs(bank), bank), x, atol=1e-9)


def test_truncated_sum_matches_direct_formula(rng):
    bank = uniform_bank(12, 1)
    x = rng.standard_normal(12)
    pairs = [(0, 0), (3, 2), (7, 5), (11, 5)]
    got = truncated_sum(x, pairs, bank)
    want = np.zeros(12)
    for k, i in pairs:
        f = np.roll(ramanujan_sum(bank.qs[i], 12).astype(float), k)
        want += (x @ f) * f
    assert np.allclose(got, want / 144.0, atol=1e-9)
    assert np.array_equal(truncated_sum(x, [], bank), np.zeros(12))


def test_truncated_sum_matches_the_coefficient_rows():
    # Rᵀ(R·x)/A over the stacked shift rows, against the analyze/synthesize route
    checked = 0
    for N in (6, 12, 30, 42, 60, 70, 105, 126, 210):
        for p in (1, 2):
            if N % p or not frame_report(uniform_bank(N, p)).tight:
                continue
            bank = uniform_bank(N, p)
            pairs = all_pairs(bank)
            rng = np.random.default_rng(N + p)
            for fraction in (0.05, 0.5, 0.9, 1.0):
                size = max(1, int(fraction * len(pairs)))
                subset = [pairs[j] for j in rng.choice(len(pairs), size=size, replace=False)]
                x = rng.standard_normal(N)
                R = coefficient_rows(bank, subset)
                want = R.T @ (R @ x) / bank.tight_bound()
                got = truncated_sum(x, subset, bank)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (N, p, fraction)
                checked += 1
    assert checked >= 50


def test_pair_validation():
    bank = uniform_bank(12, 1)
    x = np.ones(12)
    with pytest.raises(PreconditionError):
        truncated_sum(x, [(0, 9)], bank)
    with pytest.raises(PreconditionError):
        truncated_sum(x, [(12, 0)], bank)
    with pytest.raises(PreconditionError):
        truncated_sum(x, [(0, 0), (0, 0)], bank)
    with pytest.raises(PreconditionError):
        truncated_sum(x, [(0, 0)], uniform_bank(12, 2))  # not tight
    # not a pair of integers: refused, never truncated or coerced
    malformed = ([(0.7, 1)], [("3", 1)], [(True, 1)], [(1, True)], [(np.float64(2.0), 1)],
                 [(1, 2, 3)], [5], [(0,)], [None])
    for bad in malformed:
        for call in (lambda: truncated_sum(x, bad, bank),
                     lambda: recover_missing(x, bad, bank),
                     lambda: denoise(x, bad, bank),
                     lambda: robust_to_erasures(1, 12, bad)):
            with pytest.raises(PreconditionError, match="pair"):
                call()
    # numpy integers are integers
    assert robust_to_erasures(1, 12, [(np.int64(0), np.int32(1))])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_recovery_layer_rejects_non_finite_signals(bad):
    bank = uniform_bank(6, 1)
    pairs = all_pairs(bank)[1:]
    x = np.array([1.0, 2.0, bad, 4.0, 1.0, 2.0])
    for call in (lambda: truncated_sum(x, pairs, bank),
                 lambda: recover_missing(x, pairs, bank),
                 lambda: recover_missing_periodic(x, pairs, bank, [3]),
                 lambda: denoise(x, pairs, bank)):
        with pytest.raises(PreconditionError, match="NaN or inf"):
            call()


# ---------------------------------------------------------------------------
# ℓ1 recovery


def test_recover_missing_small_instances():
    for inst in recovery_instances(4, seed=11):
        obs = truncated_sum(inst.x, inst.retained, inst.bank)
        xh = recover_missing(obs, inst.retained, inst.bank)
        assert np.abs(xh - inst.x).max() < 1e-6
        assert set(inst.missing) | set(inst.retained) == set(all_pairs(inst.bank))
        assert not set(inst.missing) & set(inst.retained)
        assert inst.condition < inst.bound


def test_recover_missing_periodic_uses_side_information():
    # drop far more coefficients than the blind bound allows; the divisor
    # side-information still pins the answer
    N = 30
    bank = uniform_bank(N, 1)
    x = periodic_signal(N, (3, 5), seed=4)
    i3 = bank.qs.index(3)
    i5 = bank.qs.index(5)
    retained = [(k, i) for (k, i) in all_pairs(bank) if i in (i3, i5) and k < 10]
    obs = truncated_sum(x, retained, bank)
    xh = recover_missing_periodic(obs, retained, bank, periods=(3, 5))
    assert np.abs(xh - x).max() < 1e-6


def test_recover_missing_periodic_validates_periods():
    bank = uniform_bank(30, 1)
    with pytest.raises(PreconditionError):
        recover_missing_periodic(np.zeros(30), [], bank, periods=(4,))


def test_empty_retained_set_recovers_zero():
    bank = uniform_bank(6, 1)
    assert np.array_equal(recover_missing(np.zeros(6), [], bank), np.zeros(6))


# ---------------------------------------------------------------------------
# membership subspaces and denoising


def test_membership_null_basis_dimensions():
    bank = uniform_bank(6, 1)
    # full channels: S_1 ⊕ S_2 has dimension φ(1) + φ(2) = 2
    pairs = [(k, 0) for k in range(6)] + [(k, 1) for k in range(6)]
    B = membership_null_basis(bank, pairs)
    assert B.shape == (6, 2)
    # columns are orthonormal and invisible to the complement rows
    assert np.allclose(B.T @ B, np.eye(2), atol=1e-10)
    comp = [pr for pr in all_pairs(bank) if pr not in set(pairs)]
    R = coefficient_rows(bank, comp)
    assert np.abs(R @ B).max() < 1e-9


def test_membership_null_basis_trivial_set_raises():
    bank = uniform_bank(6, 1)
    with pytest.raises(PreconditionError):
        membership_null_basis(bank, [])  # complement spans everything


@functools.cache
def _mask_basis(q: int, N: int) -> np.ndarray:
    """Orthonormal basis (columns) of V_q from the DFT-mask projector."""
    w, v = np.linalg.eigh(dft_subspace_projector(q, N))
    return v[:, w > 0.5]


def _memberships(Ns=(6, 12, 18, 30, 42, 60)):
    """Whole-channel and seeded sparse memberships at each N, p ∈ {1, 2}."""
    for N in Ns:
        for p in (1, 2):
            bank = uniform_bank(N, p)
            pairs = all_pairs(bank)
            K = len(bank.channels)
            rng = np.random.default_rng(10 * N + p)
            for _ in range(2):
                chosen = set(rng.choice(K, size=int(rng.integers(1, K)), replace=False).tolist())
                yield bank, [pr for pr in pairs if pr[1] in chosen]
            for fraction in (0.2, 0.6, 0.9):
                size = int(fraction * len(pairs))
                yield bank, [pairs[j] for j in rng.choice(len(pairs), size=size, replace=False)]


def test_membership_null_basis_against_the_dft_masks():
    # channel i's complement rows lie in V_q, so the null space is the sum over
    # channels of V_q minus their span: its dimension comes from trig-sum shifts
    # in the DFT-mask basis, and must equal N − rank from the full SVD; the
    # banks that are not tight, (12, 2) and (60, 2), are refused
    tall = wide = refused = 0
    for bank, membership in _memberships():
        N, p = bank.n, bank.ratio
        if not frame_report(bank).tight:
            with pytest.raises(PreconditionError, match="not tight"):
                membership_null_basis(bank, membership)
            refused += 1
            continue
        keep = set(membership)
        complement = [(k, i) for k, i in all_pairs(bank) if (k, i) not in keep]
        rows = np.array([np.roll(trig_ramanujan(bank.qs[i], N), p * k)
                         for k, i in complement]).reshape(-1, N)
        sv = np.linalg.svd(rows, compute_uv=False)
        cut = 1e-10 * sv[0]
        dims = {}
        for i, q in enumerate(bank.qs):
            block = rows[[j for j, (_, i2) in enumerate(complement) if i2 == i]] @ _mask_basis(q, N)
            ssv = np.linalg.svd(block, compute_uv=False) if block.size else np.zeros(0)
            dims[q] = totient(q) - int(np.sum(ssv > cut))
        dim = sum(dims.values())
        assert dim == N - int(np.sum(sv > cut)), (N, p, len(membership))
        if dim == 0:
            with pytest.raises(PreconditionError):
                membership_null_basis(bank, membership)
            continue
        B = membership_null_basis(bank, membership)
        assert B.shape == (N, dim), (N, p, len(membership))
        assert np.abs(B.T @ B - np.eye(dim)).max() < 1e-10
        assert np.abs(rows @ B).max() < 1e-9 * N
        for q, want in dims.items():
            assert np.isclose(np.linalg.norm(_mask_basis(q, N).T @ B) ** 2, want, atol=1e-8)
        tall += len(complement) >= N
        wide += len(complement) < N
    assert tall >= 20 and wide >= 10 and refused == 10


def _svd_null_basis(bank, membership):
    """The SVD route: the rows of V beyond rank(R), R the complement's coefficient rows."""
    keep = set(membership)
    R = coefficient_rows(bank, [pr for pr in all_pairs(bank) if pr not in keep])
    _, sv, vh = np.linalg.svd(R)
    return vh[int(np.sum(sv > 1e-10 * sv[0])):].T


def _denoise_memberships():
    """Whole-channel and sparse memberships at N ∈ {30, 70, 126}, p ∈ {1, 2}."""
    for N in (30, 70, 126):
        for p in (1, 2):
            bank = uniform_bank(N, p)
            pairs = all_pairs(bank)
            K = len(bank.channels)
            rng = np.random.default_rng(7 * N + p)
            for size in (1, 2, K // 2):
                chosen = set(rng.choice(K, size=size, replace=False).tolist())
                yield bank, [pr for pr in pairs if pr[1] in chosen], "whole"
            for fraction in (0.8, 0.95):
                picks = rng.choice(len(pairs), size=int(fraction * len(pairs)), replace=False)
                yield bank, [pairs[j] for j in picks], "sparse"


def test_membership_null_basis_spans_the_svd_null_space():
    # differential: the per-channel basis and the null space of the stacked
    # complement rows are one subspace (equal orthogonal projectors) on every
    # tight bank; the banks that are not tight are refused, among them one
    # that lacks the divisor 2 and so is not a frame
    checked = refused = 0
    cases = [(bank, m) for bank, m, _ in _denoise_memberships()]
    cases += list(_memberships()) + list(_memberships((66, 90)))
    gappy = RamanujanFilterBank(6, (Channel(1, 1), Channel(3, 1), Channel(6, 1)))
    cases.append((gappy, [pr for pr in all_pairs(gappy) if pr[1] == 2][:3]))
    for bank, membership in cases:
        if bank.frame_bounds is None or bank.frame_bounds[0] != bank.frame_bounds[1]:
            with pytest.raises(PreconditionError, match="not tight"):
                membership_null_basis(bank, membership)
            refused += 1
            continue
        want = _svd_null_basis(bank, membership)
        if not want.shape[1]:
            continue
        B = membership_null_basis(bank, membership)
        assert B.shape == want.shape, (bank.n, bank.ratio, len(membership))
        assert np.abs(B @ B.T - want @ want.T).max() < 1e-9, (bank.n, bank.ratio, len(membership))
        checked += 1
    assert checked >= 80 and refused == 11


def test_denoise_matches_highs():
    # min ‖y − v‖₁ subject to ⟨v, f_j⟩ = 0 off the membership, f_j the
    # shifted trig sums, solved by HiGHS over (v free, e ≥ 0)
    optimize = pytest.importorskip("scipy.optimize")
    kinds = set()
    for bank, membership, kind in _denoise_memberships():
        N, p = bank.n, bank.ratio
        keep = set(membership)
        rows = np.array([np.roll(trig_ramanujan(bank.qs[i], N), p * k)
                         for k, i in all_pairs(bank) if (k, i) not in keep])
        _, sv, vh = np.linalg.svd(rows, full_matrices=False)
        C = vh[: int(np.sum(sv > 1e-10 * sv[0]))]  # orthonormal rows, same constraints
        rng = np.random.default_rng(N + len(membership))
        y = rng.standard_normal(N) + 2.0 * membership_null_basis(bank, membership) @ (
            rng.standard_normal(N - len(C)))
        eye = np.eye(N)
        ref = optimize.linprog(np.concatenate([np.zeros(N), np.ones(N)]),
                               A_ub=np.block([[eye, -eye], [-eye, -eye]]),
                               b_ub=np.concatenate([y, -y]),
                               A_eq=np.hstack([C, np.zeros_like(C)]), b_eq=np.zeros(len(C)),
                               bounds=[(None, None)] * N + [(0, None)] * N, method="highs")
        assert ref.status == 0
        xhat = denoise(y, membership, bank)
        where = (N, p, kind, len(membership))
        assert math.isclose(np.abs(y - xhat).sum(), ref.fun, rel_tol=1e-9), where
        assert np.abs(rows @ xhat).max() <= 1e-9 * N * np.abs(y).max(), where
        kinds.add((N, p, kind))
    assert len(kinds) == 12


def test_nearest_optimum_on_medians():
    # one column 1/2: the optimal face is the median interval, and the
    # optimum nearest y is the mean clipped to it
    B = np.full((4, 1), 0.5)
    for y, want in (([1.0, 2.0, 7.0, -4.0], 1.5), ([0.0, 1.0, 10.0, 20.0], 7.75),
                    ([0.0, 1.0, 2.0, 100.0], 2.0), ([3.0, 3.0, 3.0, 3.0], 3.0)):
        y = np.array(y)
        fit = lad_fit(B, y)
        xhat = _nearest_optimum(B, y, fit)
        assert np.abs(xhat - want).max() < 1e-12, (y, xhat)
        assert math.isclose(np.abs(y - xhat).sum(), fit.objective, rel_tol=1e-12)
    # an odd count: the median is the only optimum
    B = np.full((5, 1), 5 ** -0.5)
    y = np.array([1.0, 2.0, 7.0, -4.0, 2.5])
    assert np.abs(_nearest_optimum(B, y, lad_fit(B, y)) - 2.0).max() < 1e-12


def test_denoise_returns_the_nearest_optimum():
    # among the ℓ1 optima v (⟨v, f_j⟩ = 0 off the membership, ‖y − v‖₁ at
    # HiGHS's optimum), denoise returns the one nearest y in ℓ2: SLSQP on
    # (v, e) with |y − v| ≤ e and Σe ≤ the optimum is the oracle
    optimize = pytest.importorskip("scipy.optimize")
    bank = uniform_bank(30, 1)
    true_pairs = [(k, i) for i, ch in enumerate(bank.channels) if ch.q in (3, 5) for k in range(30)]
    cases = []
    for s in range(4):
        x = periodic_signal(30, (3, 5), seed=s)
        y = add_noise(x, GaussianNoiseModel(0.0), seed=10_000 + s)
        cases += [(y, true_pairs), (y, detect_support_set(y, bank, 0.45).pairs)]
    rng = np.random.default_rng(11)
    for b, membership, _ in _denoise_memberships():
        if b is bank or (b.n, b.ratio) == (30, 1):
            cases.append((rng.integers(-2, 3, size=30).astype(float), membership))
    eye = np.eye(30)
    faces = 0
    for y, membership in cases:
        keep = set(membership)
        rows = np.array([np.roll(trig_ramanujan(bank.qs[i], 30), k)
                         for k, i in all_pairs(bank) if (k, i) not in keep])
        _, sv, vh = np.linalg.svd(rows, full_matrices=False)
        C = vh[: int(np.sum(sv > 1e-10 * sv[0]))]
        c = np.concatenate([np.zeros(30), np.ones(30)])
        lifted = dict(A_ub=np.block([[eye, -eye], [-eye, -eye]]), b_ub=np.concatenate([y, -y]),
                      A_eq=np.hstack([C, np.zeros_like(C)]), b_eq=np.zeros(len(C)))
        ref = optimize.linprog(c, **lifted, bounds=[(None, None)] * 30 + [(0, None)] * 30,
                               method="highs")
        assert ref.status == 0
        xhat = denoise(y, membership, bank)
        assert math.isclose(np.abs(y - xhat).sum(), ref.fun, rel_tol=1e-9)
        near = optimize.minimize(
            lambda w: 0.5 * np.sum((y - w[:30]) ** 2), ref.x,
            jac=lambda w: np.concatenate([w[:30] - y, np.zeros(30)]), method="SLSQP",
            constraints=[optimize.LinearConstraint(lifted["A_eq"], 0.0, 0.0),
                         optimize.LinearConstraint(-lifted["A_ub"], -lifted["b_ub"], np.inf),
                         optimize.LinearConstraint(c[None], -np.inf, ref.fun * (1 + 1e-12))],
            options=dict(ftol=1e-15, maxiter=2000))
        assert near.status in (0, 8)  # 8: the line search stalls at rounding level
        assert np.abs(xhat - near.x[:30]).max() < 1e-7 * max(1.0, np.abs(y).max())
        faces += np.abs(ref.x[:30] - xhat).max() > 1e-6  # HiGHS stopped elsewhere on the face
    assert len(cases) >= 12 and faces >= 4


def test_denoise_gain_holds_its_oracle_bounds_over_200_draws():
    # criterion 10's protocol (Z_30, components {3, 5}, 0 dB, threshold
    # 0.45) over seeds 0..199 rather than its 20: the bounds hold for the
    # estimator, not for a lucky set of draws (notes/decisions.md entry 2)
    bank = uniform_bank(30, 1)
    P = dft_subspace_projector(3, 30) + dft_subspace_projector(5, 30)
    true_pairs = [(k, i) for i, ch in enumerate(bank.channels) if ch.q in (3, 5) for k in range(30)]
    g_l2, g_true, g_pipe = [], [], []
    for s in range(200):
        x = periodic_signal(30, (3, 5), seed=s)
        y = add_noise(x, GaussianNoiseModel(0.0), seed=10_000 + s)
        base = snr_db(x, y - x)
        g_pipe.append(snr_db(x, x - denoise(y, detect_support_set(y, bank, 0.45), bank)) - base)
        g_true.append(snr_db(x, x - denoise(y, true_pairs, bank)) - base)
        g_l2.append(snr_db(x, x - P @ y) - base)
    l2, true, pipe = (float(np.mean(g)) for g in (g_l2, g_true, g_pipe))
    assert l2 >= true >= l2 - 10.0 * math.log10(math.pi / 2), (l2, true)
    assert 0.0 < pipe <= true, (pipe, true)


def test_denoise_passes_clean_members_through(rng):
    # a signal already inside S_M is its own best ℓ1 approximation
    bank = uniform_bank(12, 1)
    i4 = bank.qs.index(4)
    pairs = [(k, i4) for k in range(12)]
    B = membership_null_basis(bank, pairs)
    y = B @ rng.standard_normal(B.shape[1])
    assert np.abs(denoise(y, pairs, bank) - y).max() < 1e-8


def test_denoise_removes_single_spikes():
    for inst in denoise_instances(3, seed=5):
        xh = denoise(inst.y, inst.membership, inst.bank)
        assert np.abs(xh - inst.x).max() < 1e-6
        assert inst.condition < inst.bound


def test_denoise_accepts_detected_membership():
    # end to end: detect on the clean signal, then denoise the corrupted one
    N = 12
    bank = uniform_bank(N, 1)
    x = 3.0 * np.roll(sparse_top_channel(N), 2)
    y = x.copy()
    y[7] += 1.5
    mem = detect_support_set(x, bank, 0.45)
    assert mem.channels == (12,)
    xh = denoise(y, mem, bank)
    assert np.abs(xh - x).max() < 1e-6


# ---------------------------------------------------------------------------
# the strict-inequality margin behind exact recovery


def test_l1_margin_over_invisible_perturbations(rng):
    # instances satisfying 2·#missing·#support < p(d/φ(N))²: every nonzero
    # perturbation h invisible to the retained coefficients strictly grows
    # the ℓ1 norm, which is exactly why the minimizer is unique.
    cases = []
    b1 = uniform_bank(6, 1)
    cases.append((b1, [(k, 3) for k in (1, 2, 4, 5)], 1))  # 2·4·1 = 8 < 9
    b2 = uniform_bank(6, 2)
    cases.append((b2, [(1, 3), (2, 3)], 2))  # 2·2·1 = 4 < 4.5
    total = 0
    for bank, missing, p in cases:
        d = 6 // p
        bound = p * (d / totient(6)) ** 2
        assert 2 * len(missing) * 1 < bound
        H = membership_null_basis(bank, missing)
        assert H.shape[1] == 1
        for _ in range(50):
            a = int(rng.integers(6))
            x = np.zeros(6)
            x[a] = float(rng.choice([-1.0, 1.0]) * (0.5 + rng.random()))
            coef = float(rng.standard_normal())
            while abs(coef) < 1e-3:
                coef = float(rng.standard_normal())
            h = H[:, 0] * coef * float(np.abs(x).max())
            assert np.abs(x - h).sum() > np.abs(x).sum() + 1e-12
            total += 1
    assert total == 100


# ---------------------------------------------------------------------------
# support detection


def test_detect_noiseless_single_channel():
    bank = uniform_bank(70, 1)
    mem = detect_support_set(ramanujan_sum(7, 70).astype(float), bank, 0.45)
    assert mem.channels == (7,)
    assert len(mem.pairs) == 70
    assert set(mem.pairs) == {(k, bank.qs.index(7)) for k in range(70)}


def test_detect_normalization_is_flat_for_white_noise():
    # all-channel expected energies agree after the ‖c_q‖² normalization,
    # so a pure two-component signal keeps exactly its two channels
    bank = uniform_bank(30, 1)
    for s in (1, 2, 7, 12):
        x = periodic_signal(30, (3, 5), seed=s)
        y = add_noise(x, GaussianNoiseModel(0.0), seed=10_000 + s)
        mem = detect_support_set(y, bank, 0.45)
        assert mem.channels == (3, 5), s


def test_detect_validation():
    bank = uniform_bank(12, 1)
    with pytest.raises(PreconditionError):
        detect_support_set(np.ones(12), bank, 0.0)
    with pytest.raises(PreconditionError):
        detect_support_set(np.ones(12), bank, 1.0)
    with pytest.raises(PreconditionError):
        detect_support_set(np.zeros(12), bank, 0.45)


def test_detect_refuses_a_threshold_that_is_not_a_real_number():
    # the string and None raised a raw TypeError from the comparison
    bank = uniform_bank(12, 1)
    for bad in ("0.5", None, math.nan, True, [0.5]):
        with pytest.raises(PreconditionError, match="threshold_factor"):
            detect_support_set(np.ones(12), bank, bad)
    assert detect_support_set(np.ones(12), bank, np.float64(0.5)) == \
        detect_support_set(np.ones(12), bank, 0.5)


# ---------------------------------------------------------------------------
# noise models


def test_snr_db_values():
    x = np.array([3.0, 4.0])
    assert snr_db(x, x) == 0.0
    assert snr_db(x, np.zeros(2)) == math.inf
    assert np.isclose(snr_db(x, 0.1 * x), 20.0, atol=1e-12)
    with pytest.raises(PreconditionError):
        snr_db(x, np.zeros(3))


def test_gaussian_noise_hits_target_exactly(rng):
    x = rng.standard_normal(40) * 3.0
    for target in (-5.0, 0.0, 12.5):
        y = add_noise(x, GaussianNoiseModel(target), seed=3)
        assert np.isclose(snr_db(x, y - x), target, atol=1e-9)
    assert np.array_equal(
        add_noise(x, GaussianNoiseModel(0.0), seed=3),
        add_noise(x, GaussianNoiseModel(0.0), seed=3),
    )
    assert not np.array_equal(
        add_noise(x, GaussianNoiseModel(0.0), seed=3),
        add_noise(x, GaussianNoiseModel(0.0), seed=4),
    )
    with pytest.raises(PreconditionError):
        add_noise(np.zeros(4), GaussianNoiseModel(0.0))


def test_add_noise_refuses_a_non_finite_level():
    # a NaN SNR once returned an all-NaN signal
    x = np.array([3.0, 4.0, -1.0])
    for bad in (math.nan, math.inf, -math.inf, True, "10", None):
        with pytest.raises(PreconditionError, match="SNR"):
            add_noise(x, GaussianNoiseModel(bad))
        with pytest.raises(PreconditionError, match="amplitude"):
            add_noise(x, SparseNoiseModel(support=(1,), amplitude=bad))
    assert np.array_equal(add_noise(x, GaussianNoiseModel(10), seed=2),
                          add_noise(x, GaussianNoiseModel(10.0), seed=2))


def test_add_noise_refuses_a_non_finite_vector():
    # a NaN in x or in the sparse values came back as NaN entries, an inf as inf
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="NaN or inf"):
            add_noise([1.0, bad], GaussianNoiseModel(10))
        with pytest.raises(PreconditionError, match="NaN or inf"):
            add_noise([1.0, 2.0], SparseNoiseModel(support=(0,), values=(bad,)))
        with pytest.raises(PreconditionError, match="NaN or inf"):
            add_noise([1.0, bad], SparseNoiseModel(support=(0,), values=(1.0,)))
    for x in ([1.0, 1j], ["a", "b"], [[1.0, 2.0]]):
        with pytest.raises(PreconditionError):
            add_noise(x, GaussianNoiseModel(10))
    assert add_noise([1, 2], SparseNoiseModel(support=(0,), values=(1,))).tolist() == [2.0, 2.0]


def test_snr_db_refuses_a_non_finite_vector():
    # a NaN anywhere in the signal or the error gave an SNR of NaN
    x = np.array([3.0, 4.0])
    for bad in (math.nan, math.inf, -math.inf):
        for signal, error in (([3.0, bad], x), (x, [0.1, bad]), ([bad, 4.0], np.zeros(2))):
            with pytest.raises(PreconditionError, match="NaN or inf"):
                snr_db(signal, error)
    assert np.isclose(snr_db([3, 4], [0.3, 0.4]), 20.0, atol=1e-12)


def test_sparse_noise_model():
    x = np.zeros(8)
    y = add_noise(x, SparseNoiseModel(support=(1, 5), values=(2.0, -1.0)))
    assert np.array_equal(y, np.array([0, 2.0, 0, 0, 0, -1.0, 0, 0]))
    seeded = add_noise(x, SparseNoiseModel(support=(2,), amplitude=3.0), seed=9)
    assert np.count_nonzero(seeded) == 1 and seeded[2] != 0
    with pytest.raises(PreconditionError):
        add_noise(x, SparseNoiseModel(support=(1, 1)))
    with pytest.raises(PreconditionError):
        add_noise(x, SparseNoiseModel(support=(9,)))
    with pytest.raises(PreconditionError):
        add_noise(x, SparseNoiseModel(support=(1,), values=(1.0, 2.0)))
    with pytest.raises(PreconditionError):
        add_noise(x, "white")


def test_recovery_instances_are_pinned_at_seed_zero():
    # the drawn missing pairs, and the retained pairs in all_pairs order
    got = [(inst.n, inst.p, inst.missing) for inst in recovery_instances(4, seed=0)]
    assert got == [(6, 1, ((1, 1),)), (12, 1, ((1, 0),)), (18, 1, ((14, 5),)),
                   (24, 1, ((8, 4),))]
    for inst in recovery_instances(4, seed=0):
        assert inst.retained == tuple(pr for pr in all_pairs(inst.bank) if pr not in inst.missing)


def test_instance_menus_respect_their_bounds():
    for inst in recovery_instances(9, seed=0):
        assert inst.condition < inst.bound
        assert len(inst.missing) >= 1
    for inst in denoise_instances(6, seed=0):
        assert inst.condition < inst.bound
        assert len(inst.noise_support) == 1


def test_add_noise_and_periodic_signal_refuse_a_seed_that_is_not_an_integer_at_least_0():
    # -1 raised a raw ValueError from default_rng, 1.5 and "0" a raw TypeError
    x = np.array([3.0, 4.0, -1.0])
    for bad in (-1, 1.5, "0", None, True, np.int64(-2)):
        with pytest.raises(PreconditionError, match="seed"):
            add_noise(x, GaussianNoiseModel(10), seed=bad)
        with pytest.raises(PreconditionError, match="seed"):
            add_noise(x, SparseNoiseModel(support=(1,)), seed=bad)
        with pytest.raises(PreconditionError, match="seed"):
            periodic_signal(30, (3, 5), seed=bad)
    assert np.array_equal(add_noise(x, GaussianNoiseModel(10), seed=np.int64(3)),
                          add_noise(x, GaussianNoiseModel(10), seed=3))
    assert np.array_equal(periodic_signal(30, (3, 5), seed=np.int64(3)),
                          periodic_signal(30, (3, 5), seed=3))


def test_sparse_noise_refuses_support_indices_that_are_not_integers():
    # 1.5 was truncated to sample 1 without a word, "a" raised a raw ValueError
    x = np.zeros(8)
    for bad in ((1.5,), ("a",), (True,), (None,), (2, 3.0)):
        with pytest.raises(PreconditionError, match="support"):
            add_noise(x, SparseNoiseModel(support=bad, values=(1.0,) * len(bad)))
    assert np.array_equal(add_noise(x, SparseNoiseModel(support=(np.int64(1),), values=(2.0,))),
                          add_noise(x, SparseNoiseModel(support=(1,), values=(2.0,))))


def test_periodic_signal_refuses_periods_that_are_not_integer_divisors():
    # int(q) read 2.5 as period 2, 3.0 and "3" as 3 and True as 1, without a word
    for bad in ((2.5,), (3, 5.0), ("3",), (True, 5), (7,), (0,)):
        with pytest.raises(PreconditionError, match="period"):
            periodic_signal(30, bad, seed=0)
    assert np.array_equal(periodic_signal(30, np.array([5, 3, 3]), seed=2),
                          periodic_signal(30, (3, 5), seed=2))


def test_periodic_signal_refuses_periods_that_are_not_iterable():
    # 5 raised a raw TypeError from the loop, and the string "35" acted as (3, 5)
    for bad in (5, None, 2.5, "35"):
        with pytest.raises(PreconditionError, match="list of divisors"):
            periodic_signal(30, bad, seed=0)


def test_sparse_noise_refuses_a_support_that_is_not_iterable():
    # support=5 raised a raw TypeError from list(model.support)
    for bad in (5, None, 1.5):
        with pytest.raises(PreconditionError, match="support"):
            add_noise(np.zeros(8), SparseNoiseModel(support=bad, values=(1.0,)))


def test_recovery_refuses_a_signal_of_the_wrong_length():
    bank = uniform_bank(30, 1)
    pairs = all_pairs(bank)
    for bad in (np.ones(29), np.ones(31)):
        with pytest.raises(PreconditionError, match="does not match bank N 30"):
            recover_missing(bad, pairs, bank)
        with pytest.raises(PreconditionError, match="does not match bank N 30"):
            detect_support_set(bad, bank, 0.45)
