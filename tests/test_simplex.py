"""Exact-arithmetic checks of the dense simplex core, its ℓ1 front ends and the
least-absolute-deviations fit."""

import numpy as np
import pytest

import rframes.recovery as recovery
import rframes.simplex as simplex
from conftest import vertex_enumeration_min
from rframes import (
    PreconditionError,
    SolverError,
    all_pairs,
    lad_fit,
    simplex_solve,
    uniform_bank,
)
from rframes.experiments import (
    periodic_signal, run_tables, sparse_top_channel, table1_rows, table2_rows,
)
from rframes.recovery import coefficient_rows
from rframes.simplex import l1_fit, lad_fit_unique, solve_l1_lp


def test_textbook_example():
    # min -x1 - 2 x2  s.t.  x1 + x2 + s = 4, x1 + 3 x2 + t = 6
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    res = simplex_solve(c, A, b)
    assert res.status == "optimal"
    # corners: (4,0) → −4, (0,2) → −4, (3,1) → −5
    assert np.isclose(res.objective, -5.0, atol=1e-9)
    assert np.allclose(res.x[:2], [3.0, 1.0], atol=1e-9)


def test_matches_vertex_enumeration_batch(rng):
    # independent route: enumerate every basic feasible point of random
    # feasible-by-construction programs and take the best one
    checked = 0
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 1, 9))
        A = rng.standard_normal((m, n))
        x0 = np.abs(rng.standard_normal(n))
        b = A @ x0
        c = rng.standard_normal(n)
        best = vertex_enumeration_min(c, A, b)
        if best is None:
            continue
        try:
            res = simplex_solve(c, A, b)
        except SolverError as exc:
            if "unbounded" in str(exc):
                continue  # enumeration found a vertex but the LP has a ray
            raise
        assert np.isclose(res.objective, best, atol=1e-9), (res.objective, best)
        checked += 1
    assert checked >= 20


def test_degenerate_vertices():
    # multiple bases describe the same optimal corner; anti-cycling must cope
    c = np.array([-1.0, -1.0, 0.0, 0.0, 0.0])
    A = np.array(
        [
            [1.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([1.0, 1.0, 2.0])  # the cap x1+x2<=2 is tight at the corner
    res = simplex_solve(c, A, b)
    assert np.isclose(res.objective, -2.0, atol=1e-9)


def test_redundant_rows_are_harmless(monkeypatch):
    # row 2 = 2 × row 1: the row reduction strips it before phase 1,
    # so the solve succeeds and no row is dropped
    A = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
    b = np.array([1.0, 2.0, 0.25])
    res = simplex_solve(np.array([1.0, 1.0]), A, b)
    assert np.isclose(res.objective, 1.0, atol=1e-9)
    assert res.dropped_rows == ()
    # seeded LPs with duplicated, scaled and summed rows, against HiGHS; every
    # artificial left basic after phase 1 pivots out on an entry ≥ 1/√(m·n),
    # m the rank of A (its rows are orthonormal after the row reduction)
    optimize = pytest.importorskip("scipy.optimize")
    outside, real_run, real_pivot = [True], simplex._run, simplex._pivot

    def run(*args):
        outside[0] = False
        try:
            return real_run(*args)
        finally:
            outside[0] = True

    def pivot(T, basis, row, col):
        if outside[0]:  # a drive-out pivot, between the two phases
            entries.append(abs(T[row, col]))
        real_pivot(T, basis, row, col)

    monkeypatch.setattr(simplex, "_run", run)
    monkeypatch.setattr(simplex, "_pivot", pivot)
    rng = np.random.default_rng(3)
    driven = 0
    for _ in range(60):
        m, n = int(rng.integers(2, 8)), int(rng.integers(3, 16))
        n = max(n, m + 1)
        A = rng.standard_normal((m, n))
        A = np.vstack([A, A[0], 2.5 * A[1], A[0] + A[1]])
        b = A @ (np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.2))
        c = rng.standard_normal(n) + 0.5
        ref = optimize.linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
        entries = []
        if ref.status == 3:
            with pytest.raises(SolverError, match="unbounded"):
                simplex_solve(c, A, b)
            continue
        assert ref.status == 0
        res = simplex_solve(c, A, b)
        assert np.isclose(res.objective, ref.fun, rtol=1e-9, atol=1e-9)
        assert res.dropped_rows == ()
        assert all(e >= 1.0 / np.sqrt(m * n) for e in entries), (m, n, entries)
        driven += bool(entries)
    assert driven >= 10


def test_infeasible_is_reported():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])  # parallel rows, different offsets
    with pytest.raises(SolverError, match="infeasible"):
        simplex_solve(np.zeros(2), A, b)
    # in-cone infeasibility (b in row space but needs x < 0)
    with pytest.raises(SolverError, match="infeasible"):
        simplex_solve(np.zeros(1), np.array([[1.0]]), np.array([-1.0]))


def test_unbounded_is_reported():
    # min -x1 with a free recession direction
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(SolverError, match="unbounded"):
        simplex_solve(np.array([-1.0, 0.0]), A, b)


def test_shape_validation():
    with pytest.raises(PreconditionError):
        simplex_solve(np.zeros(3), np.eye(2), np.zeros(2))


@pytest.mark.parametrize("where,value", [("c", np.nan), ("c", np.inf), ("b", np.nan),
                                         ("A", np.nan), ("A", -np.inf)])
def test_non_finite_input_is_refused(where, value):
    # refused before the row reduction: a NaN or inf would reach the
    # objective, or raise a raw LinAlgError from the SVD
    data = {"c": np.array([1.0, 2.0]), "A": np.array([[1.0, 1.0]]), "b": np.array([1.0])}
    data[where].flat[0] = value
    with pytest.raises(PreconditionError, match="non-finite"):
        simplex_solve(data["c"], data["A"], data["b"])


def test_result_reports_iterations():
    res = simplex_solve(
        np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    )
    assert res.iterations >= res.phase1_iterations >= 0
    assert np.isclose(res.objective, 1.0, atol=1e-12)


def test_right_hand_side_below_the_snap_level_is_zero_at_once():
    # b under 1e-11 is b = 0 on the tableau, where x = 0 is optimal for c ≥ 0:
    # the solve returns it before any pivot, with objective 0
    A = np.array([[1.0, -1.0, 2.0], [0.0, 1.0, 1.0]])
    b = np.array([3e-12, -1e-12])
    res = simplex_solve(np.array([1.0, 2.0, 0.0]), A, b)
    assert res.iterations == 0 and res.objective == 0.0
    assert np.array_equal(res.x, np.zeros(3)) and res.dropped_rows == ()
    # a negative cost still runs the simplex: min −x₁ is −(b₁ + b₂), at x₃ = 0
    res = simplex_solve(np.array([-1.0, 0.0, 0.0]), A, b)
    assert np.isclose(res.objective, -2e-12, rtol=1e-6, atol=0)


def test_l1_single_variable():
    res = solve_l1_lp(np.array([[1.0]]), np.array([3.0]))
    assert np.isclose(res.objective, 3.0, atol=1e-9)
    assert np.isclose(res.x[0], 3.0, atol=1e-9)
    res = solve_l1_lp(np.array([[1.0]]), np.array([-3.0]))
    assert np.isclose(res.objective, 3.0, atol=1e-9)
    assert np.isclose(res.x[0], -3.0, atol=1e-9)


def test_l1_vertex_solution():
    # min |v1| + |v2| with v1 + v2 = 1: any convex combination is optimal in
    # value, but the simplex lands on a vertex (a 1-sparse point)
    res = solve_l1_lp(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert np.isclose(res.objective, 1.0, atol=1e-9)
    assert np.isclose(np.abs(res.x).sum(), 1.0, atol=1e-9)
    assert np.min(np.abs(res.x)) < 1e-9


def test_l1_weights():
    # weight 3 on v1 pushes everything onto v2
    res = solve_l1_lp(
        np.array([[1.0, 1.0]]), np.array([1.0]), weights=np.array([3.0, 1.0])
    )
    assert np.isclose(res.objective, 1.0, atol=1e-9)
    assert np.allclose(res.x, [0.0, 1.0], atol=1e-9)
    with pytest.raises(PreconditionError):
        solve_l1_lp(np.array([[1.0, 1.0]]), np.array([1.0]), weights=np.array([-1.0, 1.0]))
    with pytest.raises(PreconditionError):
        solve_l1_lp(np.array([[1.0, 1.0]]), np.array([1.0]), weights=np.array([1.0]))


def test_l1_matches_vertex_enumeration(rng):
    for _ in range(20):
        A = rng.standard_normal((2, 5))
        b = A @ rng.standard_normal(5)
        res = solve_l1_lp(A, b)
        # the split formulation's exact LP, enumerated independently
        best = vertex_enumeration_min(
            np.ones(10), np.hstack([A, -A]), b
        )
        assert best is not None
        assert np.isclose(res.objective, best, atol=1e-9)
        assert np.allclose(A @ res.x, b, atol=1e-8)


def test_l1_fit_is_the_median():
    y = np.array([1.0, 2.0, 7.0, -4.0, 2.5])
    res = l1_fit(np.ones((5, 1)), y)
    assert np.isclose(res.x[0], np.median(y), atol=1e-9)
    assert np.isclose(res.objective, np.abs(y - np.median(y)).sum(), atol=1e-9)


def test_l1_fit_interpolates_when_possible(rng):
    B = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    z0 = rng.standard_normal(4)
    res = l1_fit(B, B @ z0)
    assert res.objective < 1e-8
    assert np.allclose(res.x, z0, atol=1e-6)


def test_l1_fit_shape_validation():
    with pytest.raises(PreconditionError):
        l1_fit(np.ones((3, 1)), np.ones(2))


def test_duality_gap_certificates(rng):
    # the solver self-certifies; spot-verify the gap by hand on random LPs
    for _ in range(10):
        A = rng.standard_normal((3, 7))
        b = A @ np.abs(rng.standard_normal(7))
        c = rng.standard_normal(7) + 2.0  # positive-ish costs keep it bounded
        try:
            res = simplex_solve(c, A, b)
        except SolverError as exc:
            assert "unbounded" in str(exc)
            continue
        assert np.allclose(A @ res.x, b, atol=1e-7)
        assert res.x.min() >= -1e-9


def test_no_pivot_under_a_nonnegative_cost_is_a_breakdown():
    # a pivot-noise column: reduced cost −5e-9 improves, but its only entry
    # is below the pivot tolerance; with cost ≥ 0 the LP cannot be unbounded
    T = np.array([[1.0, 5e-10, 1.0]])
    with pytest.raises(SolverError, match="numerical breakdown") as exc:
        simplex._run(T, [0], np.array([10.0, 0.0]), 2)
    assert "unbounded" not in str(exc.value)


def _ten_percent_drop_lp(N, draw):
    """The ℓ1 program over every retained coefficient row, b = R·x (not channel-split)."""
    bank = uniform_bank(N, 1)
    pairs = all_pairs(bank)
    gone = set(np.random.default_rng(draw).choice(
        len(pairs), size=len(pairs) // 10, replace=False).tolist())
    R = coefficient_rows(bank, [pr for j, pr in enumerate(pairs) if j not in gone])
    x = np.roll(sparse_top_channel(N), 3)
    return R, R @ x, x


def test_ten_percent_drop_lp_at_120_solves():
    R, b, x = _ten_percent_drop_lp(120, 0)
    res = solve_l1_lp(R, b)
    assert np.isclose(res.objective, 8.0, rtol=1e-9)
    assert np.abs(res.x - x).max() < 1e-9
    # Bland's rule must end at the next descent; a fallback that never ends takes 3,621 pivots
    assert res.iterations <= 1000


def test_ten_percent_drop_lp_at_150_is_never_called_unbounded():
    R, b, _ = _ten_percent_drop_lp(150, 0)
    try:
        res = solve_l1_lp(R, b)
    except SolverError as exc:
        assert "unbounded" not in str(exc)
    else:
        assert np.isclose(res.objective, 8.0, rtol=1e-9)


def _highs_lad(B, y):
    """min ‖y − Bz‖₁ by HiGHS: Bz + r⁺ − r⁻ = y, z free, r± ≥ 0."""
    optimize = pytest.importorskip("scipy.optimize")
    n, k = B.shape
    res = optimize.linprog(np.concatenate([np.zeros(k), np.ones(2 * n)]),
                           A_eq=np.hstack([B, np.eye(n), -np.eye(n)]), b_eq=y,
                           bounds=[(None, None)] * k + [(0, None)] * (2 * n), method="highs")
    assert res.status == 0
    return res.fun


def _assert_certified(res, B, y):
    # the certificate, rebuilt from the returned z and u against B and y
    r = y - B @ res.x
    u = res.dual
    assert np.abs(res.residual - r).max() <= 1e-12 * max(1.0, np.abs(y).max())
    assert np.isclose(res.objective, np.abs(r).sum(), rtol=1e-12, atol=1e-12)
    assert np.abs(u).max() <= 1.0 + 1e-9
    assert np.abs(B.T @ u).max() <= 1e-9 * max(1.0, np.abs(B).sum(axis=0).max())
    big = np.abs(r) > 1e-9 * max(1.0, np.abs(y).max())
    assert np.array_equal(u[big], np.sign(r[big]))
    assert abs(res.objective - y @ u) <= 1e-9 * max(1.0, res.objective)


def test_lad_fit_is_the_median():
    y = np.array([1.0, 2.0, 7.0, -4.0, 2.5])
    res = lad_fit(np.ones((5, 1)), y)
    assert np.isclose(res.x[0], np.median(y), atol=1e-12)
    assert np.isclose(res.objective, l1_fit(np.ones((5, 1)), y).objective, atol=1e-12)
    _assert_certified(res, np.ones((5, 1)), y)


def test_lad_fit_interpolates_when_possible(rng):
    B = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    z0 = rng.standard_normal(4)
    res = lad_fit(B, B @ z0)
    assert res.objective < 1e-12
    assert np.allclose(res.x, l1_fit(B, B @ z0).x, atol=1e-9)
    assert np.allclose(res.x, z0, atol=1e-12)
    # a tall consistent fit too: every residual vanishes
    B = rng.standard_normal((12, 4))
    res = lad_fit(B, B @ z0)
    assert res.objective < 1e-12 and np.allclose(res.x, z0, atol=1e-12)


def test_lad_fit_matches_l1_fit_on_seeded_fits(rng):
    for _ in range(40):
        n = int(rng.integers(1, 25))
        k = int(rng.integers(1, min(n, 6) + 1))
        B = rng.standard_normal((n, k))
        y = B @ rng.standard_normal(k) + (rng.random(n) < 0.3) * rng.standard_normal(n)
        res = lad_fit(B, y)
        assert np.isclose(res.objective, l1_fit(B, y).objective, rtol=1e-9, atol=1e-9)
        _assert_certified(res, B, y)


def _dependent_columns_fit():
    """A 5×3 fit whose column 2 is column 0 + column 1."""
    B = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0], [2.0, -1.0, 1.0],
                  [1.0, 3.0, 4.0]])
    return B, np.array([1.0, -2.0, 0.5, 3.0, 1.0])


def test_lad_fit_with_dependent_columns():
    # column 2 = column 0 + column 1: once two coordinates have entered, the
    # third one's release moves no residual, so it stays at 0
    B, y = _dependent_columns_fit()
    res = lad_fit(B, y)
    assert np.isclose(res.objective, l1_fit(B, y).objective, rtol=1e-12)
    assert np.sum(np.abs(res.x) < 1e-12) == 1
    _assert_certified(res, B, y)


def _gross_error_fit(n, k):
    """A seeded n×k fit: y = Bz plus gross errors on a fifth of its rows."""
    rng = np.random.default_rng(n + k)
    B = rng.standard_normal((n, k))
    y = B @ rng.standard_normal(k)
    y[rng.choice(n, n // 5, replace=False)] += 3.0 * rng.standard_normal(n // 5)
    return B, y


@pytest.mark.parametrize("n,k", [(30, 3), (70, 14), (210, 34), (462, 98)])
def test_lad_fit_matches_highs(n, k):
    B, y = _gross_error_fit(n, k)
    res = lad_fit(B, y)
    assert np.isclose(res.objective, _highs_lad(B, y), rtol=1e-9)
    _assert_certified(res, B, y)


def test_lad_fit_right_hand_side_below_the_snap_level_is_zero_at_once():
    B = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
    res = lad_fit(B, np.array([4e-12, -1e-12, 0.0]))
    assert res.iterations == 0 and res.objective == 0.0
    assert np.array_equal(res.x, np.zeros(2)) and np.array_equal(res.residual, np.zeros(3))


def test_lad_fit_shape_validation():
    with pytest.raises(PreconditionError):
        lad_fit(np.ones((3, 1)), np.ones(2))


@pytest.mark.parametrize("where,value", [("y", np.inf), ("y", np.nan), ("B", np.nan),
                                         ("B", np.inf)])
def test_lad_fit_refuses_non_finite_input(where, value):
    # refused before any step: an inf in y would reach the objective, and a
    # NaN in y or B would end in a "numerical breakdown" SolverError
    data = {"B": np.ones((3, 1)), "y": np.array([1.0, 2.0, 4.0])}
    data[where].flat[1] = value
    with pytest.raises(PreconditionError, match="non-finite"):
        lad_fit(data["B"], data["y"])


def _table1_row4_fit(monkeypatch):
    """The (B, y) that plain recovery fits on table-1 row 4 (reproduce tables, seed 0)."""
    bank = uniform_bank(70, 2)
    x = periodic_signal(70, (5, 7), seed=0)
    missing = {(int(k), int(i)) for k, i in table1_rows()[3]["missing"]}
    retained = [pr for pr in all_pairs(bank) if pr not in missing]
    seen, real = [], recovery.lad_fit

    def capture(B, y):
        seen.append((B, y))
        return real(B, y)

    monkeypatch.setattr(recovery, "lad_fit", capture)
    recovery.recover_missing(recovery.truncated_sum(x, retained, bank), retained, bank)
    (B, y), = seen
    return B, y


def test_lad_fit_on_the_degenerate_table1_program(monkeypatch):
    # table-1 row 4's fit: 14 null coordinates, and the optimum leaves 28
    # residuals at zero
    B, y = _table1_row4_fit(monkeypatch)
    res = lad_fit(B, y)
    assert B.shape == (70, 14)
    assert np.sum(np.abs(res.residual) <= 1e-12 * np.abs(y).max()) == 28
    assert np.isclose(res.objective, l1_fit(B, y).objective, rtol=1e-12)
    _assert_certified(res, B, y)


def _plateau_fit():
    """The seeded 14×7 integer fit of y = e₀ + e₁ with a cycling plateau."""
    rng = np.random.default_rng(91520)
    n, k = int(rng.integers(13, 60)), int(rng.integers(2, 12))
    B = rng.integers(-3, 4, size=(n, k)).astype(float)
    y = np.zeros(n)
    y[:2] = 1.0
    return B, y


def test_lad_fit_escapes_a_cycling_plateau_by_blands_rule():
    # a seeded integer fit, found by a seed search, on which the largest-|u|
    # long step alone revisits its degenerate bases until the iteration cap:
    # y = e₀ + e₁ leaves 12 of the 14 residuals at zero from the start
    B, y = _plateau_fit()
    n, k = B.shape
    res = lad_fit(B, y)
    assert (n, k) == (14, 7)
    assert np.isclose(res.objective, 2.0, rtol=1e-12)
    assert np.isclose(res.objective, l1_fit(B, y).objective, rtol=1e-12)
    assert res.iterations > 2 * n + 50  # the plateau outlasted the stall count
    _assert_certified(res, B, y)


def test_lad_fit_keeps_its_step_counts(monkeypatch):
    # (iterations, phase1_iterations) pin the path of pivots, not only the
    # optimum: a change to the step loop that keeps every decision keeps them
    fits = {(n, k): _gross_error_fit(n, k) for n, k in [(30, 3), (70, 14), (210, 34), (462, 98)]}
    fits["plateau"] = _plateau_fit()
    fits["dependent columns"] = _dependent_columns_fit()
    fits["table-1 row 4"] = _table1_row4_fit(monkeypatch)
    steps = {}
    for name, (B, y) in fits.items():
        res = lad_fit(B, y)
        steps[name] = (res.iterations, res.phase1_iterations)
    assert all(type(i) is int and type(i1) is int for i, i1 in steps.values())
    assert steps == {(30, 3): (5, 3), (70, 14): (38, 14), (210, 34): (108, 34),
                     (462, 98): (456, 98), "plateau": (84, 7), "dependent columns": (2, 2),
                     "table-1 row 4": (21, 14)}


# ---------------------------------------------------------------------------
# uniqueness of an ℓ1 fit


def _face_width(B, y):
    """Brute force: the widest range of a sample of B·z over the optimal face.

    HiGHS minimises and maximises each sample of the fitted signal subject
    to ‖y − Bz‖₁ staying within 1e-9 relative of its own optimum.
    """
    optimize = pytest.importorskip("scipy.optimize")
    n, k = B.shape
    A_eq = np.hstack([B, np.eye(n), -np.eye(n)])
    A_ub = np.concatenate([np.zeros(k), np.ones(2 * n)])[None]
    b_ub = [_highs_lad(B, y) * (1 + 1e-9) + 1e-12]
    bounds = [(None, None)] * k + [(0, None)] * (2 * n)
    width = 0.0
    for i in range(n):
        c = np.concatenate([B[i], np.zeros(2 * n)])
        lo, hi = (optimize.linprog(sign * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=y,
                                   bounds=bounds, method="highs") for sign in (1.0, -1.0))
        assert lo.status == 0 and hi.status == 0
        width = max(width, -hi.fun - lo.fun)
    return width


def test_lad_fit_unique_on_medians():
    ones = np.ones((5, 1))
    y = np.array([1.0, 2.0, 7.0, -4.0, 2.5])
    assert lad_fit_unique(ones, y, lad_fit(ones, y))
    # an even count: every point between the middle two is a median
    y = np.array([1.0, 2.0, 7.0, -4.0])
    assert not lad_fit_unique(ones[:4], y, lad_fit(ones[:4], y))
    # a point inside that face: its dual sign(r) is feasible and vacuously
    # strict, but no residual is zero, so rank(B_Z) = 0 < rank(B) decides
    r = y - 1.5
    inside = simplex.LpResult(x=np.array([1.5]), objective=float(np.abs(r).sum()),
                              iterations=0, phase1_iterations=0, dropped_rows=(),
                              residual=r, dual=np.sign(r))
    assert not lad_fit_unique(ones[:4], y, inside)
    # three residuals at zero against one unknown: a degenerate vertex whose
    # own dual is ±1 on two of them, where the margin LP finds u = 0
    y = np.array([0.0, 0.0, 0.0, 1.0, -1.0])
    fit = lad_fit(ones, y)
    assert np.sum(fit.residual == 0.0) == 3
    assert lad_fit_unique(ones, y, fit)
    # y = 0 is fitted without a step; the fitted signal 0 is the only one
    zero = np.zeros(3)
    assert lad_fit_unique(np.eye(3)[:, :2], zero, lad_fit(np.eye(3)[:, :2], zero))


def test_lad_fit_unique_guards_the_fit_shape():
    ones = np.ones((5, 1))
    y = np.array([1.0, 2.0, 7.0, -4.0, 2.5])
    fit = lad_fit(ones[:4], y[:4])
    with pytest.raises(PreconditionError):
        lad_fit_unique(ones, y, fit)


def test_least_distance():
    # the nearest point of a half-space {a·v ≥ 1} is a/‖a‖²
    a = np.array([[3.0, 4.0]])
    assert np.abs(simplex._least_distance(a, [1.0]) - a[0] / 25.0).max() < 1e-13
    # a box corner: v ≥ (1, 2) and v₁ ≤ 5
    G = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert np.abs(simplex._least_distance(G, [1.0, 2.0, -5.0]) - [1.0, 2.0]).max() < 1e-13
    # 0 is feasible: nothing moves
    assert not simplex._least_distance(G, [-1.0, 0.0, -5.0]).any()
    with pytest.raises(SolverError):
        simplex._least_distance(np.array([[1.0], [-1.0]]), [1.0, 1.0])


def test_lad_fit_unique_matches_the_face_width_on_seeded_fits():
    # ternary fits are degenerate often enough to be faces half of the time
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(60):
        n, k = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        B = rng.integers(-1, 2, size=(n, k)).astype(float)
        y = rng.integers(-2, 3, size=n).astype(float)
        unique = lad_fit_unique(B, y, lad_fit(B, y))
        width = _face_width(B, y)
        assert unique == (width < 1e-5) and not 1e-5 <= width < 1e-2, (n, k, width)
        seen.add(unique)
    assert seen == {True, False}


def test_lad_fit_unique_on_the_table2_denoisings():
    # only row 5's denoised signal is determined; the others are faces
    bank = uniform_bank(30, 1)
    verdicts = []
    for j, spec in enumerate(table2_rows()):
        x = periodic_signal(30, spec["components"], seed=1000 + j)
        y = recovery.add_noise(x, recovery.GaussianNoiseModel(spec["snr_in"]), seed=2000 + j)
        _, B, y, fit = recovery._denoise_fit(y, recovery.detect_support_set(y, bank, 0.45), bank)
        verdicts.append(lad_fit_unique(B, y, fit))
        width = _face_width(B, y)
        assert verdicts[-1] == (width < 1e-5) and not 1e-5 <= width < 1e-2, (j + 1, width)
    assert verdicts == [False] * 4 + [True] + [False] * 2


def test_lad_fit_unique_on_the_degenerate_table1_program(monkeypatch):
    # 28 residuals at zero against 14 unknowns: a degenerate vertex of a face
    B, y = _table1_row4_fit(monkeypatch)
    assert not lad_fit_unique(B, y, lad_fit(B, y))
    assert _face_width(B, y) > 1e-2


def _tableau_margin(B, y, fit):
    """The uniqueness margin as one simplex_solve: max t over (u_Z + 1 − t, 1 − t − u_Z, t) ≥ 0.

    The u with Bᵀu = 0 and u = sign(r) off Z must have |u_i| ≤ 1 − t on Z;
    the fit's own dual makes t = 0 feasible.
    """
    zero = np.abs(fit.residual) <= simplex._snap_level(y)
    BZ, m = B[zero], int(zero.sum())
    ones = np.ones(m)
    A = np.block([
        [BZ.T, np.zeros((B.shape[1], m)), (BZ.T @ ones)[:, None]],
        [np.eye(m), np.eye(m), 2.0 * ones[:, None]],
    ])
    b = np.concatenate([BZ.T @ ones - B[~zero].T @ np.sign(fit.residual[~zero]), 2.0 * ones])
    c = np.zeros(2 * m + 1)
    c[-1] = -1.0
    return -simplex_solve(c, A, b).objective


def _uniqueness_fits():
    """The 70 table-2 denoise fits of seeds 0–9, then 300 seeded ternary fits."""
    bank = uniform_bank(30, 1)
    for seed in range(10):
        for j, spec in enumerate(table2_rows()):
            x = periodic_signal(30, spec["components"], seed=seed + 1000 + j)
            y = recovery.add_noise(x, recovery.GaussianNoiseModel(spec["snr_in"]),
                                   seed=seed + 2000 + j)
            _, B, y, fit = recovery._denoise_fit(y, recovery.detect_support_set(y, bank, 0.45),
                                                  bank)
            yield B, y, fit
    rng = np.random.default_rng(2)  # the draws of the face-width test, continued
    for _ in range(300):
        n, k = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        B = rng.integers(-1, 2, size=(n, k)).astype(float)
        y = rng.integers(-2, 3, size=n).astype(float)
        yield B, y, lad_fit(B, y)


def test_lad_fit_unique_margin_matches_the_tableau_margin_lp(monkeypatch):
    margins = []
    real = simplex._fuchs_margin

    def spy(BZ, c):
        margins.append(real(BZ, c))
        return margins[-1]

    monkeypatch.setattr(simplex, "_fuchs_margin", spy)
    verdicts = []
    for B, y, fit in _uniqueness_fits():
        margins.clear()
        verdicts.append(lad_fit_unique(B, y, fit))
        assert len(margins) == 1  # every fit here passes the rank test
        want = _tableau_margin(B, y, fit)
        assert abs(margins[0] - want) <= 1e-12, (margins[0], want)
        assert verdicts[-1] == (want > 1e-9)
    assert len(verdicts) == 370 and sum(verdicts) == 181


def test_lad_fit_unique_margin_with_one_unknown():
    # k = 1: c⊥ has no basis, so the margin fit has no columns and takes no step
    B, y = np.array([[1.0], [2.0]]), np.array([1.0, 4.0])
    fit = lad_fit(B, y)  # the weighted median z = 2 leaves r = (−1, 0)
    assert fit.x.tolist() == [2.0] and fit.residual.tolist() == [-1.0, 0.0]
    # c = −b₀·sign(r₀) = 1, and 2u = 1 gives ‖u‖∞ = 1/2
    assert simplex._fuchs_margin(B[1:], np.array([1.0])) == 0.5
    assert lad_fit_unique(B, y, fit)
    empty = lad_fit(np.zeros((1, 0)), np.array([2.0]))
    assert empty.objective == 2.0 and empty.iterations == 0
    # equal weights: every z in [1, 4] is optimal, and the margin 1 − |−1| is 0
    B = np.ones((2, 1))
    fit = lad_fit(B, y)
    assert simplex._fuchs_margin(B[:1], np.array([-1.0])) == 0.0
    assert not lad_fit_unique(B, y, fit)


def test_run_tables_never_reaches_the_tableau(monkeypatch):
    def refuse(*args):
        raise AssertionError("the library called simplex_solve")

    monkeypatch.setattr(simplex, "simplex_solve", refuse)
    tables = run_tables(seed=0)
    assert [row["unique"] for row in tables["table2"]] == [False] * 4 + [True] + [False] * 2


def test_lad_fit_refuses_input_that_is_not_a_real_array():
    # "a" raised a raw ValueError from the float conversion, [[1j]] a TypeError,
    # and a 3-D B a ValueError from the shape unpacking
    for B, y in (("a", np.ones(30)), (np.ones((3, 1)), ["a", "b", "c"]),
                 ([[1.0], [2.0, 3.0]], np.ones(2)), ([[1j], [2.0]], np.ones(2))):
        with pytest.raises(PreconditionError, match="arrays of real numbers"):
            lad_fit(B, y)
    with pytest.raises(PreconditionError, match="not a matrix"):
        lad_fit(np.ones((3, 1, 1)), np.ones(3))
