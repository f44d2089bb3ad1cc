"""Per-step reference for the difference-of-convex descent.

Each step builds the whole LP for its selection as sparse rows, densifies
it, and solves it from scratch with the two-phase simplex, phase 1
included.  This is the loop ``efxkit.dc.dca_solve`` ran before the rows
were built once as dense arrays, phase 1 was shared across steps and
starts, and a repeated selection reused its LP, kept verbatim (the sparse
``LPModel`` included) so that the shared descent and its row builder can
be compared with it byte for byte.  The pivot kernels ``_pivot`` and
``_pivot_loop`` are the full-tableau ones the package used before it
stored only the nonbasic columns, also kept verbatim, so the compact
simplex is compared with the full tableau too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from efxkit.dc import (
    DCA_MAX_ITERS,
    DCA_STEP_TOL,
    DESCENT_SLACK,
    RECHECK_TOL,
    DCAResult,
    InternalCheckError,
    LPSolution,
    greedy_allocation,
)
from efxkit.extension import box_radius, dc_objective, encode_allocation
from efxkit.instance import DEFAULT_EFX_TOL, Allocation, Instance, is_efx, total_mass
from efxkit.simplex import (
    DANTZIG_PIVOTS_PER_DIM,
    FEAS_TOL,
    MAX_PIVOTS,
    PIVOT_TOL,
    SimplexResult,
)


@dataclass(frozen=True)
class LPModel:
    """Sparse rows of the linearized subproblem plus box bounds.

    Variables are ordered: m*n scores, then one auxiliary per (item, pair),
    then the epigraph variable.  Row families: 1 epigraph rows coupling the
    scores to the max-term, 2 and 3 lower-bounding each auxiliary by the
    shifted scores of the pair's two agents, 4 by the bystander scores.
    """

    m: int
    n: int
    pairs: tuple
    rows: tuple  # (((var, coef), ...), rhs, family)
    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.m * self.n + self.m * len(self.pairs) + 1

    def y_var(self, item: int, agent: int) -> int:
        return item * self.n + agent

    def z_var(self, item: int, pair: int) -> int:
        return self.m * self.n + item * len(self.pairs) + pair

    @property
    def w_var(self) -> int:
        return self.m * self.n + self.m * len(self.pairs)


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


def build_lp(inst: Instance, selection: np.ndarray, m_const: float | None = None) -> LPModel:
    """Build the LP for one descent step.

    ``selection`` is the per-item agent index at which the subtracted term
    is linearized; the objective is the epigraph variable minus the sum of
    the selected scores.
    """
    m, n = inst.m, inst.n
    values = inst.values
    selection = np.asarray(selection, dtype=int)
    if selection.shape != (m,) or selection.min() < 0 or selection.max() >= n:
        raise ValueError("selection must pick one agent per item")
    if m_const is None:
        m_const = box_radius(inst)
    mass = total_mass(inst)
    vmax = float(values.max())
    pairs = tuple((i, j) for i in range(n) for j in range(n) if i != j)

    model_dims = LPModel(
        m=m, n=n, pairs=pairs, rows=(),
        lower=np.zeros(0), upper=np.zeros(0), objective=np.zeros(0),
    )
    rows = []
    for p, (i, j) in enumerate(pairs):
        for k in range(m):
            coeffs = [(model_dims.y_var(k, j), 1.0)]
            coeffs += [(model_dims.z_var(ell, p), 1.0) for ell in range(m) if ell != k]
            coeffs.append((model_dims.w_var, -1.0))
            rows.append((tuple(coeffs), 0.0, 1))
    for p, (i, j) in enumerate(pairs):
        for ell in range(m):
            z = model_dims.z_var(ell, p)
            rows.append((((model_dims.y_var(ell, i), 1.0), (z, -1.0)), float(values[ell, i]), 2))
            rows.append((((model_dims.y_var(ell, j), 1.0), (z, -1.0)), float(-values[ell, i]), 3))
            for r in range(n):
                if r != i and r != j:
                    rows.append((((model_dims.y_var(ell, r), 1.0), (z, -1.0)), 0.0, 4))

    n_y = m * n
    n_z = m * len(pairs)
    lower = np.concatenate([
        np.full(n_y, -m_const),
        np.full(n_z, -m_const - vmax),
        [-(m + 1) * m_const - mass],
    ])
    upper = np.concatenate([
        np.zeros(n_y),
        np.full(n_z, m_const + vmax),
        [(m + 1) * m_const + mass],
    ])
    objective = np.zeros(n_y + n_z + 1)
    objective[-1] = 1.0
    for ell in range(m):
        objective[model_dims.y_var(ell, int(selection[ell]))] -= 1.0

    return LPModel(
        m=m, n=n, pairs=pairs, rows=tuple(rows),
        lower=lower, upper=upper, objective=objective,
    )


def _dense_rows(model: LPModel) -> tuple[np.ndarray, np.ndarray]:
    a = np.zeros((len(model.rows), model.n_vars))
    b = np.empty(len(model.rows))
    for r, (coeffs, rhs, _family) in enumerate(model.rows):
        for var, coef in coeffs:
            a[r, var] = coef
        b[r] = rhs
    return a, b


def solve_lp(model: LPModel) -> LPSolution:
    """Solve the model with the embedded simplex and recheck the vertex.

    Variables are shifted by their lower bounds into standard form, with
    upper bounds appended as extra rows.  The returned point is verified
    against every original row and bound rather than trusting the solver
    status alone.
    """
    a_model, b_model = _dense_rows(model)
    span = model.upper - model.lower
    a_std = np.vstack([a_model, np.eye(model.n_vars)])
    b_std = np.concatenate([b_model - a_model @ model.lower, span])
    result = solve_standard(model.objective, a_std, b_std)
    if result.status != "optimal":
        return LPSolution(result.status, None, None, None, None, result.pivots)
    point = result.x + model.lower
    if (
        np.any(a_model @ point > b_model + RECHECK_TOL)
        or np.any(point < model.lower - RECHECK_TOL)
        or np.any(point > model.upper + RECHECK_TOL)
    ):
        return LPSolution("numeric-failure", None, None, None, None, result.pivots)
    n_y = model.m * model.n
    n_z = model.m * len(model.pairs)
    y = point[:n_y].reshape(model.m, model.n)
    z = point[n_y : n_y + n_z].reshape(model.m, len(model.pairs))
    w = float(point[-1])
    return LPSolution("optimal", y, z, w, float(model.objective @ point), result.pivots)


def dca_solve(
    inst: Instance,
    y0: np.ndarray | None = None,
    delta: float = DCA_STEP_TOL,
    max_iters: int = DCA_MAX_ITERS,
    efx_tol: float = DEFAULT_EFX_TOL,
) -> DCAResult:
    """Iterated linearize-and-solve descent from a score matrix.

    Starts at the encoding of the greedy allocation unless ``y0`` is given,
    linearizes the row-max term through each item's current argmax (ties to
    the smallest agent), solves the LP, and stops once the iterate moves by
    at most ``delta`` in the max norm.  LP objective values are checked to
    be non-increasing; the extracted allocation is the row argmax of the
    final scores and its EFX verdict is checked independently.
    """
    m_const = box_radius(inst)
    if y0 is None:
        y = encode_allocation(inst, greedy_allocation(inst))
    else:
        y = np.array(y0, dtype=float)
        if y.shape != (inst.m, inst.n):
            raise ValueError("y0 must be an items-by-agents matrix")
        if y.min() < -m_const or y.max() > 0.0:
            raise ValueError("y0 must lie in the score box")

    trace: list[dict] = []
    previous_objective = np.inf
    status = "max-iters"
    converged = False
    for t in range(max_iters):
        selection = np.argmax(y, axis=1)
        model = build_lp(inst, selection, m_const)
        sol = solve_lp(model)
        if sol.status != "optimal":
            status = "lp-failure"
            break
        if sol.objective > previous_objective + DESCENT_SLACK:
            raise InternalCheckError(
                f"descent violated at step {t}: {previous_objective} -> {sol.objective}"
            )
        previous_objective = sol.objective
        step = float(np.abs(sol.y - y).max())
        y = sol.y
        trace.append(
            {
                "iteration": t,
                "objective": float(sol.objective),
                "value": dc_objective(inst, y),
                "step": step,
            }
        )
        if step <= delta:
            status = "converged"
            converged = True
            break

    allocation = Allocation(np.argmax(y, axis=1))
    report = is_efx(inst, allocation, efx_tol)
    objective = trace[-1]["objective"] if trace else dc_objective(inst, y)
    return DCAResult(
        y=y,
        objective=float(objective),
        iterations=len(trace),
        converged=converged,
        status=status,
        trace=trace,
        allocation=allocation,
        efx=report.ok,
    )
