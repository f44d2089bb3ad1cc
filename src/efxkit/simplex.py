"""Dense two-phase simplex for the small LPs built in this package.

Minimizes c @ x subject to A @ x <= b and x >= 0 on a full tableau.
Rows with negative right-hand sides get phase-one artificial variables.
Entering columns follow Dantzig's rule for a bounded number of pivots and
then switch to Bland's rule, which rules out cycling; ratio-test ties
break toward the smallest basis index.  Meant for hundreds of rows and
columns, not for sparse or large models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
MAX_PIVOTS = 20000
# Dantzig pivots allowed per row and column of the model before Bland's rule.
DANTZIG_PIVOTS_PER_DIM = 2


@dataclass(frozen=True)
class SimplexResult:
    status: str  # optimal | infeasible | unbounded | numeric-failure
    x: np.ndarray | None
    objective: float | None
    pivots: int


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] = tableau[row] / tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    basis[row] = col


def _pivot_loop(
    tableau: np.ndarray,
    basis: np.ndarray,
    enter_cols: int,
    dantzig_budget: int,
    pivots: int,
) -> tuple[str, int]:
    """Run pivots until optimal; returns (status, total pivot count)."""
    while True:
        reduced = tableau[-1, :enter_cols]
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if candidates.size == 0:
            return "optimal", pivots
        if pivots < dantzig_budget:
            col = int(candidates[np.argmin(reduced[candidates])])
        else:
            col = int(candidates[0])  # Bland
        body = tableau[:-1, col]
        rows = np.flatnonzero(body > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", pivots
        ratios = tableau[:-1, -1][rows] / body[rows]
        ties = rows[ratios == ratios.min()]
        row = int(ties[np.argmin(basis[ties])])
        _pivot(tableau, basis, row, col)
        pivots += 1
        if pivots > MAX_PIVOTS:
            return "numeric-failure", pivots


def solve_standard(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> SimplexResult:
    """Solve min c @ x subject to a_ub @ x <= b_ub, x >= 0."""
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    n_rows, n_vars = a_ub.shape
    dantzig_budget = DANTZIG_PIVOTS_PER_DIM * (n_rows + n_vars)

    negative = b_ub < 0
    art_rows = np.flatnonzero(negative)
    n_art = art_rows.size
    n_slacks = n_rows
    n_cols = n_vars + n_slacks + n_art

    tableau = np.zeros((n_rows + 1, n_cols + 1))
    tableau[:n_rows, :n_vars] = np.where(negative[:, None], -a_ub, a_ub)
    tableau[:n_rows, n_vars : n_vars + n_slacks] = np.diag(np.where(negative, -1.0, 1.0))
    tableau[art_rows, n_vars + n_slacks + np.arange(n_art)] = 1.0
    tableau[:n_rows, -1] = np.where(negative, -b_ub, b_ub)

    basis = n_vars + np.arange(n_rows)
    basis[art_rows] = n_vars + n_slacks + np.arange(n_art)

    pivots = 0
    if n_art:
        tableau[-1, n_vars + n_slacks : n_vars + n_slacks + n_art] = 1.0
        for row in art_rows:
            tableau[-1] -= tableau[row]
        status, pivots = _pivot_loop(tableau, basis, n_vars + n_slacks, dantzig_budget, pivots)
        if status != "optimal":
            return SimplexResult("numeric-failure", None, None, pivots)
        if -tableau[-1, -1] > FEAS_TOL:
            return SimplexResult("infeasible", None, None, pivots)
        for row in range(n_rows):
            if basis[row] >= n_vars + n_slacks:
                usable = np.flatnonzero(np.abs(tableau[row, : n_vars + n_slacks]) > PIVOT_TOL)
                if usable.size:
                    _pivot(tableau, basis, row, int(usable[0]))
        keep = np.flatnonzero(basis < n_vars + n_slacks)
        # Rows still basic in an artificial are redundant at this point.
        tableau = np.vstack([tableau[keep], tableau[-1:]])
        tableau = np.delete(tableau, np.s_[n_vars + n_slacks : n_vars + n_slacks + n_art], axis=1)
        basis = basis[keep]
        n_rows = keep.size

    tableau[-1, :] = 0.0
    tableau[-1, :n_vars] = c
    for row, col in enumerate(basis):
        if tableau[-1, col] != 0.0:
            tableau[-1] -= tableau[-1, col] * tableau[row]
    status, pivots = _pivot_loop(tableau, basis, n_vars + n_slacks, dantzig_budget, pivots)
    if status != "optimal":
        return SimplexResult(status, None, None, pivots)

    x = np.zeros(n_vars + n_slacks)
    x[basis] = tableau[:-1, -1]
    x = x[:n_vars]
    return SimplexResult("optimal", x, float(c @ x), pivots)
