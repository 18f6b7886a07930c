"""Dense simplex solvers for the ℓ1 subproblems.

Standard form min cᵀx s.t. Ax = b, x ≥ 0, with Bland's anti-cycling rule.
The recovery problems are small (a few hundred variables), heavily degenerate
(coefficient constraint rows are far from independent), and need exact-ish
answers — so an SVD row reduction strips dependent rows before phase 1, the
final answer is re-solved from the optimal basis against the original data
rather than read off the accumulated tableau, and every solve self-certifies
with a primal/dual feasibility + gap check before returning.  :func:`lad_fit`
runs the least-absolute-deviations form min ‖y − Bz‖₁ on the N×k fit itself,
and :func:`lad_fit_unique` certifies whether its fitted signal is the only
optimum, with a margin that is itself one :func:`lad_fit`.  So every LP the
library solves runs on :func:`lad_fit`; the tableau :func:`simplex_solve` and
its front ends :func:`solve_l1_lp` and :func:`l1_fit` are the exported
general solver and the tests' oracles.  Both simplex loops follow one
pivoting discipline, :class:`_Pivots`.
:func:`_least_distance` (NNLS-based) projects onto a polyhedron.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import PreconditionError, SolverError

__all__ = ["LpResult", "simplex_solve", "solve_l1_lp", "l1_fit", "lad_fit", "lad_fit_unique"]

_PIVOT_TOL = 1e-9
_RC_TOL = 1e-9  # reduced-cost threshold for entering variables
_SNAP = 1e-11  # entries below this times max(1, ‖data‖∞) are exact zeros
_RANK_CUT = 1e-10  # singular values at or below this times σ_max do not count
_REFACTOR = 40  # rebuild the factorisation from the original data every this many pivots


def _snap_level(v) -> float:
    """The level 1e−11·max(1, ‖v‖∞) below which an entry scaled like v is an exact zero."""
    return _SNAP * max(1.0, float(np.abs(v).max(initial=0.0)))


def _rank(sv: np.ndarray, top: np.ndarray | None = None) -> int:
    """Numerical rank: the singular values sv above 1e−10·σ_max, σ_max taken from top if given."""
    return int(np.sum(sv > _RANK_CUT * float((sv if top is None else top).max(initial=0.0))))


def _require_finite(**arrays) -> None:
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise PreconditionError(f"{name} has a non-finite entry")


@dataclass(frozen=True)
class LpResult:
    """Certified optimum of min cᵀx s.t. Ax = b, x ≥ 0, or of an ℓ1 fit (x = z)."""

    x: np.ndarray
    objective: float
    iterations: int
    phase1_iterations: int
    dropped_rows: tuple[int, ...]  # always (): the SVD row reduction strips dependent rows
    status: str = "optimal"
    residual: np.ndarray | None = None  # y − B·z of a fit (lad_fit)
    dual: np.ndarray | None = None  # the fit's certifying dual u (lad_fit)


class _Pivots:
    """The pivoting discipline of both simplex loops, :func:`_run` and :func:`lad_fit`.

    Dantzig's choice (largest score) until 2·rows + 50 pivots pass without
    descent, then Bland's (lowest label) until the next descent, which keeps
    every degenerate plateau finite (Bland, Math. Oper. Res. 1977).  The
    loop's ``refactor`` rebuilds its tableau or inverse from the original
    data every _REFACTOR pivots and at the switch to Bland's rule, and once
    more before a no-pivot verdict, so that pivot noise cannot decide one.
    Step lengths within 1e−15 + 1e−12·t of the shortest t tie.  More than
    2000 + 50·size pivots is a SolverError.
    """

    def __init__(self, rows: int, size: int, objective: float, refactor) -> None:
        self.cap = 2000 + 50 * size
        self.patience = 2 * rows + 50
        self.refactor = refactor
        self.best = objective
        self.it = self.stall = 0
        self.bland = self.repriced = False

    def pick(self, cands: np.ndarray, score: np.ndarray, label: np.ndarray | None = None) -> int:
        """The candidate of largest score or, in Bland mode, of lowest label.

        score and label are indexed by candidate; without a label each
        candidate is its own, so the first of the sorted cands is lowest.
        """
        if not self.bland:
            return int(cands[score[cands].argmax()])
        return int(cands[0] if label is None else cands[label[cands].argmin()])

    @staticmethod
    def ties(t: np.ndarray, stop: float) -> np.ndarray:
        return np.abs(t - stop) <= 1e-15 + 1e-12 * stop

    def reprice(self) -> bool:
        """Before a no-pivot verdict: True after refactoring for one more pricing, then False."""
        if self.repriced:
            return False
        self.refactor()
        self.repriced = True
        return True

    def pivoted(self, objective) -> None:
        """Count a pivot, refactor on schedule, then test objective() for descent."""
        self.repriced = False
        self.it += 1
        if self.it > self.cap:
            raise SolverError(f"simplex exceeded {self.cap} pivots")
        if self.it % _REFACTOR == 0:
            self.refactor()
        obj = objective()
        if obj < self.best - 1e-12 * max(1.0, abs(self.best)):
            self.best, self.stall, self.bland = obj, 0, False
        else:
            self.stall += 1
            if self.stall == self.patience:
                self.bland = True
                self.refactor()


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.einsum("i,j->ij", f, T[row])  # np.outer's products, without its broadcast overhead
    basis[row] = col


def _run(T: np.ndarray, basis: list[int], cost: np.ndarray, ncols: int) -> int:
    """Simplex iterations on tableau T (constraint rows + RHS column) under :class:`_Pivots`.

    Entering variable: most negative reduced cost (Bland: lowest index);
    leaving row by minimum ratio, ties broken by largest pivot magnitude
    (Bland: smallest basic index).  RHS entries below the snap level are
    set to exact zero, so degenerate ratios compare as exact ties.  An
    improving column with no pivot row that persists after the re-price,
    under a cost ≥ 0, which bounds the objective below, is a numerical
    breakdown, never "unbounded".  Returns the pivot count.
    """
    m = T.shape[0]
    snapshot = T.copy()  # ground truth for refactorisation
    snap = _snap_level(snapshot[:, -1])

    def clean_rhs() -> None:
        rhs = T[:, -1]
        rhs[np.abs(rhs) < snap] = 0.0

    def refactor() -> None:
        try:
            T[:] = np.linalg.solve(snapshot[:, basis], snapshot)
        except np.linalg.LinAlgError:
            return  # keep the running tableau; the end-of-solve checks still guard
        clean_rhs()

    cn = cost[:ncols]
    cb = cost[basis]  # kept in step with basis at every pivot
    clean_rhs()
    piv = _Pivots(m, m + ncols, float(cb @ T[:, -1]), refactor)
    while True:
        reduced = cn - cb @ T[:, :ncols]
        eligible = np.flatnonzero(reduced < -_RC_TOL)
        if not eligible.size:
            return piv.it
        enter = piv.pick(eligible, -reduced)
        col = T[:, enter]
        rows = np.flatnonzero(col > _PIVOT_TOL)  # the ratio test's eligible rows
        ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
        rmin = float(ratios.min(initial=np.inf))
        if not np.isfinite(rmin):
            if piv.reprice():  # the column may be pivot noise: price it again
                continue
            if cn.min(initial=0.0) >= 0.0:
                raise SolverError(
                    "numerical breakdown: no pivot row for an improving column, "
                    "but the cost is bounded below"
                )
            raise SolverError("linear program is unbounded")
        ties = rows[piv.ties(ratios, rmin)]
        leave = piv.pick(ties, col, np.asarray(basis))
        _pivot(T, basis, leave, enter)
        cb[leave] = cost[enter]
        clean_rhs()
        piv.pivoted(lambda: float(cb @ T[:, -1]))


def simplex_solve(c, A, b) -> LpResult:
    """Minimize cᵀx subject to Ax = b, x ≥ 0.

    The constraint rows are first rotated to an orthonormal full-row-rank
    system (SVD row reduction — same feasible set, perfectly scaled rows, and
    an infeasibility certificate when b leaves the range of A).  Raises
    PreconditionError on mismatched shapes or a non-finite entry, and
    SolverError on infeasible or unbounded problems, and if the final basis
    fails the self-check: primal feasibility against the ORIGINAL system,
    dual feasibility, and a relative duality gap ≤ 1e−8.
    """
    A0 = np.atleast_2d(np.asarray(A, dtype=float))
    b0 = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    m0, n = A0.shape
    if b0.shape[0] != m0 or c.shape[0] != n:
        raise PreconditionError(
            f"shape mismatch: A is {m0}x{n}, b has {b0.shape[0]}, c has {c.shape[0]}"
        )
    _require_finite(c=c, A=A0, b=b0)
    bscale = max(1.0, float(np.abs(b0).max(initial=0.0)))
    if c.min(initial=0.0) >= 0.0 and float(np.abs(b0).max(initial=0.0)) < _snap_level(b0):
        # b sits below _run's RHS snap level, so the tableau would start at b = 0 and
        # walk its degenerate vertices to the iteration cap.  x = 0 is optimal under
        # c ≥ 0: primal feasible to that level, y = 0 dual feasible, gap 0.
        return LpResult(x=np.zeros(n), objective=0.0, iterations=0, phase1_iterations=0,
                        dropped_rows=())

    # row reduction: keep only the independent directions of the row space
    u, sv, vh = np.linalg.svd(A0, full_matrices=False)
    m = _rank(sv)
    A = vh[:m].copy()  # orthonormal rows spanning the row space
    b = (u[:, :m].T @ b0) / sv[:m]
    if float(np.abs(A0 @ (A.T @ b) - b0).max(initial=0.0)) > 1e-7 * bscale:
        raise SolverError(
            "linear program is infeasible: right-hand side leaves the row space"
        )
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial basis
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    it1 = _run(T, basis, cost1, n + m)
    resid = float(cost1[basis] @ T[:, -1])
    if resid > 1e-7 * max(1.0, float(np.abs(b).max(initial=0.0))):
        raise SolverError(f"linear program is infeasible (phase-1 residual {resid:.3g})")

    # drive the artificials left basic at level 0 out of the basis.  A's rows
    # are orthonormal, so row r of B⁻¹A has 2-norm ‖B⁻ᵀe_r‖ ≥ 1/‖B‖ ≥ 1/√m and
    # its largest entry is ≥ 1/√(m·n): every such row has a pivot.
    for r in range(m):
        if basis[r] >= n:
            _pivot(T, basis, r, int(np.argmax(np.abs(T[r, :n]))))

    # phase 2 on the original costs, artificial columns frozen out
    T2 = np.hstack([T[:, :n], T[:, -1:]])
    it2 = _run(T2, basis, c, n)

    x = np.zeros(n)
    if m:
        B = A[:, basis]
        try:
            xb = np.linalg.solve(B, b)
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("optimal basis is numerically singular") from exc
        x[basis] = xb
    else:
        y = np.zeros(0)

    obj = float(c @ x)
    xscale = max(1.0, float(np.abs(x).max(initial=0.0)))
    if float(np.abs(A0 @ x - b0).max(initial=0.0)) > 1e-7 * bscale or (
        x.min(initial=0.0) < -1e-7 * xscale
    ):
        raise SolverError("solution failed the primal feasibility self-check")
    rc_scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    if m and float((c - A.T @ y).min(initial=0.0)) < -1e-7 * rc_scale:
        raise SolverError("solution failed the dual feasibility self-check")
    gap = abs(obj - float(b @ y)) if m else abs(obj)
    if gap > 1e-8 * max(1.0, abs(obj)):
        raise SolverError(f"duality gap {gap:.3g} exceeds tolerance")
    x[np.abs(x) < 1e-13 * xscale] = 0.0
    return LpResult(
        x=x, objective=obj, iterations=it1 + it2, phase1_iterations=it1, dropped_rows=(),
    )


def solve_l1_lp(A, b, weights=None) -> LpResult:
    """Minimize Σ w_i |v_i| subject to Av = b (w ≥ 0, default all-ones).

    Solved in standard form through the split v = u − w with cost [w; w]; at
    an optimum at most one of (u_i, w_i) is active, so the objective equals
    the weighted ℓ1 norm.  The returned x is v itself.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[1]
    if weights is None:
        wvec = np.ones(n)
    else:
        wvec = np.asarray(weights, dtype=float).ravel()
        if wvec.shape[0] != n or wvec.min(initial=0.0) < 0:
            raise PreconditionError("weights must be nonnegative, one per variable")
    res = simplex_solve(
        np.concatenate([wvec, wvec]), np.hstack([A, -A]), b
    )
    v = res.x[:n] - res.x[n:]
    return LpResult(
        x=v, objective=res.objective, iterations=res.iterations,
        phase1_iterations=res.phase1_iterations, dropped_rows=res.dropped_rows,
    )


def l1_fit(B, y) -> LpResult:
    """Minimize ‖y − Bz‖₁ over z; returns z with the residual's ℓ1 norm as objective.

    The weighted case of :func:`solve_l1_lp`: v = (z, r) with [B  I]·v = y,
    weight 0 on z and 1 on the residual r, so a tableau solve on N rows.
    The library fits with :func:`lad_fit`; this form stays as its
    independent oracle.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    m, k = B.shape
    res = solve_l1_lp(np.hstack([B, np.eye(m)]), y, weights=np.r_[np.zeros(k), np.ones(m)])
    return replace(res, x=res.x[:k])


def lad_fit(B, y) -> LpResult:
    """Minimize ‖y − Bz‖₁ over free z: a least-absolute-deviations fit.

    A Barrodale–Roberts primal simplex (SIAM J. Numer. Anal. 1973) on the
    N×k fit itself, not on the N-row standard form of :func:`l1_fit`.  A
    vertex is a basis of k constraints, each either a row i held at
    residual 0 or, until it is released, a coordinate z_j held at 0; G is
    their k×k matrix and G⁻¹ is kept by rank-one updates, rebuilt from G
    every few steps.  Every row off the basis carries a sign s_i, the sign
    of its residual, and keeps it while that residual is zero, so that
    degenerate vertices are told apart.  v = G⁻ᵀB_Nᵀs_N prices the basis:
    releasing a coordinate descends at rate |v_j|, a row at |v_j| − 1.
    Stage 1 (``phase1_iterations``) releases every coordinate, the largest
    |v_j| first and even at rate 0, so that the fit ends on a vertex; a
    coordinate whose release moves no residual, a null direction of B,
    stays at 0.  Stage 2 releases the row of largest |v_j| > 1.  The step is
    an exact line search: the objective is convex and piecewise linear
    along the ray, with breakpoints t_i = r_i/w_i where the residuals
    r − t·w reach zero, and the step stops at their weighted median, so one
    step can pass several vertices.  The steps follow :class:`_Pivots`
    with rows = N: after 2N + 50 steps without descent the rule falls back
    to Bland's (lowest label in, nearest breakpoint with the lowest row
    index out), as in :func:`_run`.

    Between steps the loop keeps s with the basis rows at 0, so that
    B_Nᵀs_N is the one product Bᵀs, and w's breakpoint rows are those with
    s_i·w_i > 0; a flag per basis slot, 1 for a row, 0 for a coordinate
    still to release and inf for a stuck one, so that every rate is
    |v_j| − flag_j; and the list of coordinates stage 1 has still to release.

    The answer is re-solved from the final basis against the original B
    and y and certified: u = s off the basis and Gᵀ-solved on it must have
    |u| ≤ 1, Bᵀu = 0 and ‖y − Bz‖₁ − yᵀu ≤ 1e−8 relative (the LP dual
    max yᵀu s.t. Bᵀu = 0, |u| ≤ 1); SolverError otherwise.  A y below the
    snap level 1e−11·max(1, ‖y‖∞) is y = 0, fitted by z = 0 without a step.
    A non-finite entry of B or y is a PreconditionError.
    ``residual`` is y − Bz with the basis rows at exact zero; ``dual`` is u.

    Missing-coefficient recovery and ``denoise`` fit through here.  Where
    the optimum is a face, the fit returns one vertex of it (``denoise``
    then takes the face's point nearest y); :func:`lad_fit_unique` says
    whether the fitted signal is determined.
    """
    try:
        B = np.atleast_2d(np.asarray(B, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
    except (TypeError, ValueError):  # strings, ragged nesting, complex values
        raise PreconditionError("B and y must be arrays of real numbers") from None
    if B.ndim != 2:
        raise PreconditionError(f"B of shape {B.shape} is not a matrix")
    n, k = B.shape
    if y.shape[0] != n:
        raise PreconditionError(f"y has {y.shape[0]} entries, B has {n} rows")
    _require_finite(B=B, y=y)
    snap = _snap_level(y)
    if float(np.abs(y).max(initial=0.0)) < snap:
        zeros = np.zeros(n)
        return LpResult(x=np.zeros(k), objective=0.0, iterations=0, phase1_iterations=0,
                        dropped_rows=(), residual=zeros, dual=zeros)

    basis = np.arange(-k, 0)  # label −k + j: coordinate z_j held at 0; label i ≥ 0: row i
    on = np.zeros(n, dtype=bool)  # rows in the basis
    su = np.where(y < 0, -1.0, 1.0)  # s, with the basis rows at 0

    def system() -> tuple[np.ndarray, np.ndarray]:
        rows = basis >= 0
        G = np.zeros((k, k))
        G[rows] = B[basis[rows]]
        G[np.flatnonzero(~rows), basis[~rows] + k] = 1.0
        return G, np.where(rows, y[np.maximum(basis, 0)], 0.0)

    def settle(r: np.ndarray) -> np.ndarray:
        r[on] = 0.0
        r[np.abs(r) < snap] = 0.0
        nz = r != 0.0
        su[nz] = np.sign(r[nz])
        return r

    def refactor() -> None:
        nonlocal Ginv, r
        G, h = system()
        try:
            Ginv = np.linalg.inv(G)
        except np.linalg.LinAlgError:
            return  # keep the running inverse; the end-of-fit checks still guard
        r = settle(y - B @ (Ginv @ h))

    Ginv = np.eye(k)
    pending = list(range(k))  # stage 1: coordinates still to release
    flag = np.zeros(k)  # 1 where a row holds basis slot j, inf where z_j is stuck at 0
    r = settle(y.copy())
    it1 = 0
    piv = _Pivots(n, n + k, float(np.abs(r).sum()), refactor)
    while True:
        v = Ginv.T @ (B.T @ su)
        rate = np.abs(v) - flag  # descent rate of a release
        if pending:  # stage 1: every coordinate enters, even at rate 0
            j = pending[int(rate[pending].argmax())]
        else:
            eligible = (rate > _RC_TOL).nonzero()[0]
            if not eligible.size:
                break
            j = piv.pick(eligible, rate, basis)
        delta = 1.0 if v[j] > 0 else -1.0
        w = B @ (delta * Ginv[:, j])  # residuals move as r − t·w
        sw = su * w  # |w| on the rows that can stop the step
        cand = (sw > _PIVOT_TOL).nonzero()[0]
        wc = w[cand]
        t = np.maximum(r[cand] / wc, 0.0)
        if piv.bland:
            stop = float(t.min(initial=np.inf))
            passed = cand[:0]
        else:  # the slope −rate[j] rises by 2|w_i| at each breakpoint passed
            order = t.argsort(kind="stable")
            crossed = 2.0 * np.abs(wc[order]).cumsum() >= rate[j]
            at = int(crossed.argmax()) if crossed.size else 0
            stop = float(t[order[at]]) if crossed.size and crossed[at] else np.inf
            passed = cand[order[:at]]
        if stop == np.inf:  # no breakpoint ends the ray
            if basis[j] < 0 and rate[j] <= _RC_TOL:
                pending.remove(j)  # a null direction of B: z_j stays at 0
                flag[j] = np.inf
                continue
            if piv.reprice():  # the direction may be noise in G⁻¹: price it again
                continue
            raise SolverError(
                "numerical breakdown: no breakpoint ends a descent ray, "
                "but an ℓ1 fit is bounded below"
            )
        ties = cand[piv.ties(t, stop)]
        enter = piv.pick(ties, sw)
        if basis[j] >= 0:
            on[basis[j]] = False
            su[basis[j]] = -delta
        else:
            pending.remove(j)
            it1 += 1
        su[passed[passed != enter]] *= -1.0
        on[enter] = True
        su[enter] = 0.0
        row = B[enter] @ Ginv  # G's row j becomes B[enter]: a rank-one update of G⁻¹
        row[j] -= 1.0
        Ginv -= np.einsum("i,j->ij", Ginv[:, j], row / (row[j] + 1.0))  # np.outer's products
        basis[j] = enter
        flag[j] = 1.0
        r = settle(r - stop * w)
        piv.pivoted(lambda: float(np.abs(r).sum()))

    G, h = system()
    rows = basis >= 0
    try:
        z = np.linalg.solve(G, h)
        lam = np.linalg.solve(G.T, -(B.T @ su))
    except np.linalg.LinAlgError as exc:
        raise SolverError("optimal basis is numerically singular") from exc
    r = y - B @ z
    u = su.copy()
    u[basis[rows]] = lam[rows]
    obj = float(np.abs(r).sum())
    scale = max(1.0, float(np.abs(B).sum(axis=0).max(initial=0.0)))
    if float(np.abs(u).max(initial=0.0)) > 1.0 + 1e-7:
        raise SolverError("fit failed the dual feasibility self-check: |u| > 1")
    if float(np.abs(B.T @ u).max(initial=0.0)) > 1e-7 * scale:
        raise SolverError("fit failed the dual feasibility self-check: Bᵀu ≠ 0")
    gap = abs(obj - float(y @ u))
    if gap > 1e-8 * max(1.0, obj):
        raise SolverError(f"duality gap {gap:.3g} exceeds tolerance")
    r[on] = 0.0
    return LpResult(x=z, objective=obj, iterations=piv.it, phase1_iterations=it1,
                    dropped_rows=(), residual=r, dual=u)


def lad_fit_unique(B, y, fit: LpResult) -> bool:
    """Whether the fitted signal y − r of a :func:`lad_fit` optimum is the only one.

    min ‖y − B·z‖₁ is basis pursuit on the residual: min ‖r‖₁ over
    r ∈ y + range(B).  With Z the rows where r is zero (|r_i| at most the
    fit's snap level 1e−11·max(1, ‖y‖∞)), r is the unique minimiser, and so
    is y − r, iff (Fuchs, IEEE TIT 2004)

    * rank(B_Z) = rank(B): no nonzero B·w vanishes on Z, and
    * some u with Bᵀu = 0 and u = sign(r) off Z has |u_i| < 1 on all of Z.

    The second condition is a margin: with c = −B_Z̄ᵀ·sign(r_Z̄) it is
    1 − min{‖u‖∞ : B_Zᵀu = c} > 1e−9, which :func:`_fuchs_margin` computes
    as one :func:`lad_fit`.  rank(·) is the numerical rank at
    1e−10·σ_max(B).
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    r = np.asarray(fit.residual, dtype=float)
    if not y.shape == r.shape == (B.shape[0],):
        raise PreconditionError(
            f"B has {B.shape[0]} rows, y {y.shape[0]} entries and the fit's "
            f"residual {r.shape[0]}"
        )
    zero = np.abs(r) <= _snap_level(y)
    BZ = B[zero]
    m = BZ.shape[0]
    sv = np.linalg.svd(B, compute_uv=False)
    sv_z = np.linalg.svd(BZ, compute_uv=False) if m else sv[:0]
    if _rank(sv_z, top=sv) < _rank(sv):
        return False
    if not m:
        return True  # rank(B) = 0: the fitted signal is 0 for every z
    return _fuchs_margin(BZ, -B[~zero].T @ np.sign(r[~zero])) > 1e-9


def _fuchs_margin(BZ: np.ndarray, c: np.ndarray) -> float:
    """1 − min{‖u‖∞ : B_Zᵀu = c}, for a c that some u with ‖u‖∞ ≤ 1 meets.

    Norm duality gives min{‖u‖∞ : B_Zᵀu = c} = 1/min{‖B_Z·λ‖₁ : cᵀλ = 1}
    for c ≠ 0.  With λ = c/‖c‖² + P·ν, P an orthonormal basis of c⊥ (the
    last k − 1 right singular vectors of cᵀ), the minimum is the LAD fit of
    y = B_Z·c/‖c‖² by −B_Z·P over ν; at k = 1, P has no columns and the fit
    returns ‖y‖₁ without a step.  Some u with ‖u‖∞ ≤ 1 meets B_Zᵀu = c
    (in :func:`lad_fit_unique`, the certified fit's own dual), so the
    objective is at least 1, never 0.  c = 0 is met by u = 0: the margin
    is 1.
    """
    cc = float(c @ c)
    if cc == 0.0:
        return 1.0
    P = np.linalg.svd(c[None, :])[2][1:].T
    return 1.0 - 1.0 / lad_fit(-BZ @ P, BZ @ c / cc).objective


def _nnls(A, b) -> np.ndarray:
    """min ‖A·x − b‖₂ over x ≥ 0: Lawson & Hanson's active-set NNLS.

    The passive set P grows by the coordinate of largest gradient
    w = Aᵀ(b − Ax) while some w_j exceeds the tolerance; an unconstrained
    least-squares solve on P that turns a coordinate nonpositive is cut
    back along the segment to the last feasible x, dropping the coordinates
    that reach 0.  A coordinate that rounding keeps from entering is passed
    over until x moves.  SolverError after 3n + 50 additions.
    """
    m, n = A.shape
    scale = max(1.0, float(np.abs(A).sum(axis=0).max(initial=0.0)))
    tol = 10.0 * max(m, n) * np.finfo(float).eps * scale
    x = np.zeros(n)
    P = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 50):
        w = A.T @ (b - A @ x)
        grow = ~P & ~blocked & (w > tol)
        if not grow.any():
            return x
        j = int(np.argmax(np.where(grow, w, -np.inf)))
        P[j] = True
        zp = np.linalg.lstsq(A[:, P], b, rcond=None)[0]
        if zp[np.count_nonzero(P[:j])] <= tol:
            P[j] = False
            blocked[j] = True
            continue
        blocked[:] = False
        while not (zp > tol).all():
            xp = x[P]
            cut = zp <= tol
            alpha = float(np.min(xp[cut] / (xp[cut] - zp[cut])))
            x[P] = xp + alpha * (zp - xp)
            P &= x > tol
            x[~P] = 0.0
            zp = np.linalg.lstsq(A[:, P], b, rcond=None)[0]
        x[:] = 0.0
        x[P] = zp
    raise SolverError(f"NNLS exceeded {3 * n + 50} additions")


def _least_distance(G, h) -> np.ndarray:
    """min ‖v‖₂ subject to G·v ≥ h, for a feasible system.

    Lawson & Hanson's least-distance program (Solving Least Squares
    Problems, 1974, ch. 23): with ρ = E·λ − e the residual of the NNLS fit
    of e = (0, …, 0, 1) by E = [Gᵀ; hᵀ], λ ≥ 0, the answer is
    v = −ρ_{1..k}/ρ_{k+1}; ρ = 0 would mean G·v ≥ h has no solution.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    k = G.shape[1]
    E = np.vstack([G.T, np.asarray(h, dtype=float)[None, :]])
    e = np.zeros(k + 1)
    e[-1] = 1.0
    rho = E @ _nnls(E, e) - e
    if rho[-1] > -1e-12:
        raise SolverError("least-distance constraints G·v ≥ h are infeasible")
    return -rho[:-1] / rho[-1]
