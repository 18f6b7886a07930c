"""Dense two-phase simplex for the ℓ1 subproblems.

Standard form min cᵀx s.t. Ax = b, x ≥ 0, with Bland's anti-cycling rule.
The recovery problems are small (a few hundred variables), heavily degenerate
(coefficient constraint rows are far from independent), and need exact-ish
answers — so phase 1 drops redundant rows instead of failing, the final
answer is re-solved from the optimal basis against the original data rather
than read off the accumulated tableau, and every solve self-certifies with a
primal/dual feasibility + gap check before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SolverError

__all__ = ["LpResult", "simplex_solve", "solve_l1_lp", "l1_fit"]

_PIVOT_TOL = 1e-9
_RC_TOL = 1e-9  # reduced-cost threshold for entering variables


@dataclass(frozen=True)
class LpResult:
    """Certified optimum of min cᵀx s.t. Ax = b, x ≥ 0."""

    x: np.ndarray
    objective: float
    iterations: int
    phase1_iterations: int
    dropped_rows: tuple[int, ...]  # redundant constraint rows removed in phase 1
    status: str = "optimal"


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.einsum("i,j->ij", f, T[row])  # np.outer's products, without its broadcast overhead
    basis[row] = col


_REFACTOR = 40  # rebuild the tableau from its entry snapshot every this many pivots


def _run(T: np.ndarray, basis: list[int], cost: np.ndarray, ncols: int,
         max_iter: int) -> int:
    """Simplex iterations on tableau T (constraint rows + RHS column).

    Entering variable: most negative reduced cost, except while stalled on a
    degenerate plateau, where the rule switches to Bland's
    lowest-eligible-index choice; leaving row by minimum ratio, ties broken
    by largest pivot magnitude (stability) or, in Bland mode, by smallest
    basic index, which keeps every plateau escape finite.  Two habits keep
    the heavily degenerate recovery LPs honest: the tableau is periodically
    rebuilt from a snapshot of its entry state (accumulated pivot noise
    would otherwise turn zero-step plateau pivots into tiny fake steps of
    either sign), and RHS entries below noise level are snapped to exact
    zero so degenerate ratios compare as exact ties.  An improving column
    with no pivot row is priced again on a refactored tableau before any
    verdict; if it persists under a cost ≥ 0, which bounds the objective
    below, the verdict is a numerical breakdown, never "unbounded".
    """
    m = T.shape[0]
    snapshot = T.copy()  # ground truth for refactorisation
    bscale = max(1.0, float(np.abs(snapshot[:, -1]).max(initial=0.0)))
    snap = 1e-11 * bscale

    def clean_rhs() -> None:
        rhs = T[:, -1]
        rhs[np.abs(rhs) < snap] = 0.0

    def refactor() -> None:
        try:
            T[:] = np.linalg.solve(snapshot[:, basis], snapshot)
        except np.linalg.LinAlgError:
            return  # keep the running tableau; the end-of-solve checks still guard
        clean_rhs()

    it = 0
    stall = 0
    bland = False
    repriced = False
    last_obj = np.inf
    cn = cost[:ncols]
    cb = cost[basis]  # kept in step with basis at every pivot
    clean_rhs()
    while True:
        reduced = cn - cb @ T[:, :ncols]
        if bland:
            eligible = np.flatnonzero(reduced < -_RC_TOL)
            enter = int(eligible[0]) if eligible.size else -1
        else:
            j = int(np.argmin(reduced))
            enter = j if reduced[j] < -_RC_TOL else -1
        if enter < 0:
            return it
        col = T[:, enter]
        rows = np.flatnonzero(col > _PIVOT_TOL)  # the ratio test's eligible rows
        ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
        rmin = float(ratios.min(initial=np.inf))
        if not np.isfinite(rmin):
            if not repriced:  # the column may be pivot noise: rebuild, price again
                refactor()
                repriced = True
                continue
            if cn.min(initial=0.0) >= 0.0:
                raise SolverError(
                    "numerical breakdown: no pivot row for an improving column, "
                    "but the cost is bounded below"
                )
            raise SolverError("linear program is unbounded")
        repriced = False
        ties = rows[ratios <= rmin + 1e-15 + 1e-12 * rmin]
        if bland:
            leave = int(ties[int(np.argmin(np.asarray(basis)[ties]))])
        else:
            leave = int(ties[int(np.argmax(col[ties]))])
        _pivot(T, basis, leave, enter)
        cb[leave] = cost[enter]
        clean_rhs()
        it += 1
        if it > max_iter:
            raise SolverError(f"simplex exceeded {max_iter} iterations")
        if it % _REFACTOR == 0:
            refactor()
        obj = float(cb @ T[:, -1])
        if obj < last_obj - 1e-12 * max(1.0, abs(last_obj)):
            last_obj = obj
            stall = 0
            bland = False
        else:
            stall += 1
            if stall == 2 * m + 50:
                bland = True
                refactor()


def simplex_solve(c, A, b, max_iter: int | None = None) -> LpResult:
    """Minimize cᵀx subject to Ax = b, x ≥ 0.

    The constraint rows are first rotated to an orthonormal full-row-rank
    system (SVD row reduction — same feasible set, perfectly scaled rows, and
    an infeasibility certificate when b leaves the range of A).  Raises
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
    bscale = max(1.0, float(np.abs(b0).max(initial=0.0)))
    if c.min(initial=0.0) >= 0.0 and bscale * 1e-11 > float(np.abs(b0).max(initial=0.0)):
        # b sits below _run's RHS snap level, so the tableau would start at b = 0 and
        # walk its degenerate vertices to the iteration cap.  x = 0 is optimal under
        # c ≥ 0: primal feasible to that level, y = 0 dual feasible, gap 0.
        return LpResult(x=np.zeros(n), objective=0.0, iterations=0, phase1_iterations=0,
                        dropped_rows=())

    # row reduction: keep only the independent directions of the row space
    u, sv, vh = np.linalg.svd(A0, full_matrices=False)
    rank = int(np.sum(sv > 1e-10 * sv[0])) if sv.size and sv[0] > 0 else 0
    A = vh[:rank]  # orthonormal rows spanning the row space
    b = (u[:, :rank].T @ b0) / sv[:rank] if rank else np.zeros(0)
    if float(np.abs(A0 @ (A.T @ b) - b0).max(initial=0.0)) > 1e-7 * bscale:
        raise SolverError(
            "linear program is infeasible: right-hand side leaves the row space"
        )
    m = rank
    if max_iter is None:
        max_iter = 2000 + 50 * (m + n)

    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial basis
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    it1 = _run(T, basis, cost1, n + m, max_iter)
    resid = float(cost1[basis] @ T[:, -1])
    if resid > 1e-7 * max(1.0, float(np.abs(b).max(initial=0.0))):
        raise SolverError(f"linear program is infeasible (phase-1 residual {resid:.3g})")

    # drive surviving artificials out of the basis; rows that cannot pivot
    # on any original column are redundant and get dropped
    drop: list[int] = []
    for r in range(m):
        if basis[r] >= n:
            piv = int(np.argmax(np.abs(T[r, :n]))) if n else -1
            if piv < 0 or abs(T[r, piv]) <= 1e-7:
                drop.append(r)  # numerically zero row: redundant constraint
            else:
                _pivot(T, basis, r, piv)
    if drop:
        keep = [r for r in range(m) if r not in drop]
        T = T[keep]
        basis = [basis[r] for r in keep]
        A = A[keep]
        b = b[keep]
        m = len(keep)

    # phase 2 on the original costs, artificial columns frozen out
    T2 = np.hstack([T[:, :n], T[:, -1:]])
    it2 = _run(T2, basis, c, n, max_iter)

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
        x=x, objective=obj, iterations=it1 + it2, phase1_iterations=it1,
        dropped_rows=tuple(drop),
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

    Standard form via z = z⁺ − z⁻ and residual r = r⁺ − r⁻ with
    Bz + r = y and cost on the residual parts only.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    m, k = B.shape
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != m:
        raise PreconditionError(f"y has {y.shape[0]} entries, B has {m} rows")
    A = np.hstack([B, -B, np.eye(m), -np.eye(m)])
    c = np.concatenate([np.zeros(2 * k), np.ones(2 * m)])
    res = simplex_solve(c, A, y)
    z = res.x[:k] - res.x[k : 2 * k]
    return LpResult(
        x=z, objective=res.objective, iterations=res.iterations,
        phase1_iterations=res.phase1_iterations, dropped_rows=res.dropped_rows,
    )
