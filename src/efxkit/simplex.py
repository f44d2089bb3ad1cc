"""Dense two-phase simplex for the small LPs built in this package.

Minimizes c @ x subject to A @ x <= b and x >= 0 on a compact tableau, as in
the dictionary form: it stores the nonbasic columns and the right-hand side,
and ``nonbasic`` names each column's variable as ``basis`` names each row's.
Variables are the structural ones, one slack per row, then a phase-1
artificial per row with a negative right-hand side, which never enters.
Phase 1 never reads c, so ``phase_one(A, b)`` returns a feasible tableau
that any number of ``phase_two(c, start)`` calls copy and finish; the
descent in ``dc`` solves every step's LP, whose feasible region depends only
on the instance and the box, from one phase-1 start.  ``solve_standard`` is
the two phases in a row.  Entering variables follow Dantzig's rule for a
bounded number of pivots and then Bland's rule, which rules out cycling;
ties go to the smallest variable index, and ratio-test ties to the smallest
basis index, so each pivot and value is the full tableau's.  Meant for
hundreds of rows and columns, not for sparse or large models.
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


def _pivot(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, row: int, pos: int) -> None:
    # The leaving variable's unit column takes the entering one's place.
    column = tableau[:, pos].copy()
    tableau[:, pos] = 0.0
    tableau[row, pos] = 1.0
    tableau[row] /= column[row]
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    basis[row], nonbasic[pos] = nonbasic[pos], basis[row]


def _pivot_loop(
    tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, enter_vars: int, dantzig_budget: int, pivots: int
) -> tuple[str, int]:
    """Run pivots until optimal; returns (status, total pivot count)."""
    while True:
        reduced = tableau[-1, :-1]
        candidates = np.flatnonzero((reduced < -PIVOT_TOL) & (nonbasic < enter_vars))
        if candidates.size == 0:
            return "optimal", pivots
        if pivots < dantzig_budget:
            candidates = candidates[reduced[candidates] == reduced[candidates].min()]
        pos = int(candidates[np.argmin(nonbasic[candidates])])  # Bland, or Dantzig's ties
        body = tableau[:-1, pos]
        rows = np.flatnonzero(body > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", pivots
        ratios = tableau[:-1, -1][rows] / body[rows]
        ties = rows[ratios == ratios.min()]
        row = int(ties[np.argmin(basis[ties])])
        _pivot(tableau, basis, nonbasic, row, pos)
        pivots += 1
        if pivots > MAX_PIVOTS:
            return "numeric-failure", pivots


@dataclass(frozen=True)
class PhaseOne:
    """A read-only feasible compact tableau for ``(A, b)`` with the
    artificials driven out, or None for the arrays when ``status`` is not
    feasible; ``pivots`` counts the phase-1 pivots.  Column k of ``tableau``
    is variable ``nonbasic[k]``, row r has ``basis[r]`` basic, and the last
    column is the right-hand side."""

    status: str  # feasible | infeasible | numeric-failure
    tableau: np.ndarray | None
    basis: np.ndarray | None
    nonbasic: np.ndarray | None
    n_vars: int
    n_slacks: int
    dantzig_budget: int
    pivots: int


def phase_one(a_ub: np.ndarray, b_ub: np.ndarray) -> PhaseOne:
    """Find a feasible basis of a_ub @ x <= b_ub, x >= 0."""
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    if a_ub.ndim != 2:
        raise ValueError(f"a_ub must be 2-D, got shape {a_ub.shape}")
    if b_ub.size != a_ub.shape[0]:
        raise ValueError(f"b_ub has {b_ub.size} entries for the {a_ub.shape[0]} rows of a_ub")
    n_rows, n_vars = a_ub.shape
    dantzig_budget = DANTZIG_PIVOTS_PER_DIM * (n_rows + n_vars)

    negative = b_ub < 0
    art_rows = np.flatnonzero(negative)
    n_art = art_rows.size
    n_slacks = n_rows
    n_real = n_vars + n_slacks

    # Each row's slack starts basic, or its artificial where b < 0.
    nonbasic = np.concatenate([np.arange(n_vars), n_vars + art_rows])
    tableau = np.zeros((n_rows + 1, nonbasic.size + 1))
    tableau[:n_rows, :n_vars] = np.where(negative[:, None], -a_ub, a_ub)
    tableau[art_rows, n_vars + np.arange(n_art)] = -1.0
    tableau[:n_rows, -1] = np.where(negative, -b_ub, b_ub)

    basis = n_vars + np.arange(n_rows)
    basis[art_rows] = n_real + np.arange(n_art)

    pivots = 0
    if n_art:
        for row in art_rows:
            tableau[-1] -= tableau[row]
        status, pivots = _pivot_loop(tableau, basis, nonbasic, n_real, dantzig_budget, pivots)
        if status != "optimal":
            return PhaseOne("numeric-failure", None, None, None, n_vars, n_slacks, dantzig_budget, pivots)
        if -tableau[-1, -1] > FEAS_TOL:
            return PhaseOne("infeasible", None, None, None, n_vars, n_slacks, dantzig_budget, pivots)
        for row in np.flatnonzero(basis >= n_real):
            usable = np.flatnonzero((np.abs(tableau[row, :-1]) > PIVOT_TOL) & (nonbasic < n_real))
            if usable.size:
                _pivot(tableau, basis, nonbasic, row, int(usable[np.argmin(nonbasic[usable])]))
        keep = np.flatnonzero(basis < n_real)
        cols = np.flatnonzero(nonbasic < n_real)
        # Rows still basic in an artificial are redundant at this point.
        tableau = tableau[np.append(keep, n_rows)][:, np.append(cols, nonbasic.size)]
        basis, nonbasic = basis[keep], nonbasic[cols]

    for array in (tableau, basis, nonbasic):
        array.setflags(write=False)
    return PhaseOne("feasible", tableau, basis, nonbasic, n_vars, n_slacks, dantzig_budget, pivots)


def phase_two(c: np.ndarray, start: PhaseOne) -> SimplexResult:
    """Minimize c @ x from a phase-1 start, which is left as it was.

    The pivot count continues from phase 1's, as in one cold solve: the
    count decides when Dantzig's rule gives way to Bland's, and so which
    optimal vertex is returned.
    """
    c = np.asarray(c, dtype=float).ravel()
    if c.size != start.n_vars:
        raise ValueError(f"c has {c.size} entries for {start.n_vars} variables")
    if start.status != "feasible":
        return SimplexResult(start.status, None, None, start.pivots)
    n_vars, n_slacks = start.n_vars, start.n_slacks
    tableau, basis, nonbasic = start.tableau.copy(), start.basis.copy(), start.nonbasic.copy()
    cost = np.concatenate([c, np.zeros(n_slacks)])
    tableau[-1] = np.append(cost[nonbasic], 0.0)
    for row, var in enumerate(basis):
        if cost[var] != 0.0:
            tableau[-1] -= cost[var] * tableau[row]
    status, pivots = _pivot_loop(tableau, basis, nonbasic, n_vars + n_slacks, start.dantzig_budget, start.pivots)
    if status != "optimal":
        return SimplexResult(status, None, None, pivots)

    x = np.zeros(n_vars + n_slacks)
    x[basis] = tableau[:-1, -1]
    x = x[:n_vars]
    return SimplexResult("optimal", x, float(c @ x), pivots)


def solve_standard(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> SimplexResult:
    """Solve min c @ x subject to a_ub @ x <= b_ub, x >= 0."""
    return phase_two(c, phase_one(a_ub, b_ub))
