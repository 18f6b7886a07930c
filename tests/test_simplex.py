"""Exact-arithmetic checks of the dense simplex core and its ℓ1 front ends."""

import numpy as np
import pytest

import rframes.simplex as simplex
from conftest import vertex_enumeration_min
from rframes import (
    PreconditionError,
    SolverError,
    all_pairs,
    l1_fit,
    simplex_solve,
    solve_l1_lp,
    uniform_bank,
)
from rframes.experiments import sparse_top_channel
from rframes.recovery import coefficient_rows


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


def test_redundant_rows_are_harmless():
    # row 2 = 2 × row 1: the row reduction strips it before phase 1,
    # so the solve succeeds and nothing reaches the drive-out fallback
    A = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
    b = np.array([1.0, 2.0, 0.25])
    res = simplex_solve(np.array([1.0, 1.0]), A, b)
    assert np.isclose(res.objective, 1.0, atol=1e-9)
    assert res.dropped_rows == ()


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
        simplex._run(T, [0], np.array([10.0, 0.0]), 2, 100)
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


def test_ten_percent_drop_lp_at_150_is_never_called_unbounded():
    R, b, _ = _ten_percent_drop_lp(150, 0)
    try:
        res = solve_l1_lp(R, b)
    except SolverError as exc:
        assert "unbounded" not in str(exc)
    else:
        assert np.isclose(res.objective, 8.0, rtol=1e-9)
