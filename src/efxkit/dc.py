"""Difference-of-convex descent on the existence objective.

The existence objective splits into two convex piecewise-linear terms: a
max-term over agent pairs and items, minus the sum of row maxima.  Each
descent step linearizes the subtracted term at the current scores through
one row-max selection per item, and the resulting convex subproblem is a
small LP: an epigraph variable for the max-term, one auxiliary variable
per item and agent pair for the shifted row maxima, and box bounds that
keep every iterate inside the region where encoded allocations live.
Only the objective depends on the current scores: the LP's feasible
region depends on the instance and the box alone.  So phase 1 of the
simplex runs once per instance and box (``lp_start``), every step and
every start runs phase 2 from that feasible tableau, and a step whose
selection repeats the previous one reuses its LP solution.
Successive LP optima are non-increasing, and any score matrix that reaches
a nonpositive objective extracts a verified EFX allocation by row argmax.
The objective and its two terms, ``convex_part`` and ``rowmax_sum``, live
in the extension module, whose ``_shifted_rowmax`` kernel builds the
shifted row maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import simplex
from .extension import dc_objective, default_box_bound, encode_allocation
from .instance import DEFAULT_EFX_TOL, Allocation, Instance, is_efx, total_mass

DCA_STEP_TOL = 1e-8
DCA_MAX_ITERS = 200
DESCENT_SLACK = 1e-9
RECHECK_TOL = 1e-8


class InternalCheckError(RuntimeError):
    """An invariant the solvers rely on failed at run time."""


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

    def with_selection(self, selection: np.ndarray) -> LPModel:
        """The same rows and bounds with the objective of ``selection``: the
        epigraph variable minus the selected score of every item."""
        selection = np.asarray(selection, dtype=int)
        if selection.shape != (self.m,) or selection.min() < 0 or selection.max() >= self.n:
            raise ValueError("selection must pick one agent per item")
        objective = np.zeros(self.n_vars)
        objective[-1] = 1.0
        for ell in range(self.m):
            objective[self.y_var(ell, int(selection[ell]))] -= 1.0
        return replace(self, objective=objective)


@dataclass(frozen=True)
class LPSolution:
    status: str
    y: np.ndarray | None
    z: np.ndarray | None
    w: float | None
    objective: float | None
    pivots: int


def build_lp(inst: Instance, selection: np.ndarray, m_const: float | None = None) -> LPModel:
    """Build the LP for one descent step.

    ``selection`` is the per-item agent index at which the subtracted term
    is linearized; the objective is the epigraph variable minus the sum of
    the selected scores.  The rows and bounds do not depend on it.
    """
    m, n = inst.m, inst.n
    values = inst.values
    if m_const is None:
        m_const = default_box_bound(inst)
    mass = total_mass(inst).total
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
    return LPModel(
        m=m, n=n, pairs=pairs, rows=tuple(rows),
        lower=lower, upper=upper, objective=np.zeros(0),
    ).with_selection(selection)


def _dense_rows(model: LPModel) -> tuple[np.ndarray, np.ndarray]:
    a = np.zeros((len(model.rows), model.n_vars))
    b = np.empty(len(model.rows))
    for r, (coeffs, rhs, _family) in enumerate(model.rows):
        for var, coef in coeffs:
            a[r, var] = coef
        b[r] = rhs
    return a, b


@dataclass(frozen=True)
class LPStart:
    """Phase 1 of a model's standard form, which any objective can finish;
    ``a_rows`` and ``b_rows`` are the dense rows that rechecks read."""

    model: LPModel
    a_rows: np.ndarray
    b_rows: np.ndarray
    phase_one: simplex.PhaseOne


def lp_start(model: LPModel) -> LPStart:
    """Shift the model into standard form and run phase 1 of the simplex.

    Variables are shifted by their lower bounds, with upper bounds appended
    as extra rows.  The objective is not read.
    """
    a_model, b_model = _dense_rows(model)
    span = model.upper - model.lower
    a_std = np.vstack([a_model, np.eye(model.n_vars)])
    b_std = np.concatenate([b_model - a_model @ model.lower, span])
    return LPStart(model, a_model, b_model, simplex.phase_one(a_std, b_std))


def _same_constraints(a: LPModel, b: LPModel) -> bool:
    return a.rows == b.rows and np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)


def solve_lp(model: LPModel, start: LPStart | None = None) -> LPSolution:
    """Solve the model with the embedded simplex and recheck the vertex.

    Only phase 2 runs when ``start`` (the ``lp_start`` of a model with the
    same rows and bounds) is given.  The pivot count includes phase 1's, as
    in one cold solve.  The returned point is verified against every
    original row and bound rather than trusting the solver status alone.
    """
    if start is None:
        start = lp_start(model)
    elif not _same_constraints(model, start.model):
        raise ValueError("the LP start was built for other rows or bounds")
    a_model, b_model = start.a_rows, start.b_rows
    result = simplex.phase_two(model.objective, start.phase_one)
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


def greedy_allocation(inst: Instance) -> Allocation:
    """Give each item to the agent valuing it most, ties to the smaller index."""
    return Allocation(np.argmax(inst.values, axis=1))


@dataclass
class DCAResult:
    y: np.ndarray
    objective: float
    iterations: int
    converged: bool
    status: str  # converged | max-iters | lp-failure
    trace: list = field(default_factory=list)
    allocation: Allocation | None = None
    efx: bool = False
    phase1_pivots: int = 0  # of the LP start; trace entries count their phase-2 lp_pivots


def dca_solve(
    inst: Instance,
    y0: np.ndarray | None = None,
    delta: float = DCA_STEP_TOL,
    max_iters: int = DCA_MAX_ITERS,
    m_const: float | None = None,
    efx_tol: float = DEFAULT_EFX_TOL,
    start: LPStart | None = None,
) -> DCAResult:
    """Iterated linearize-and-solve descent from a score matrix.

    Starts at the encoding of the greedy allocation unless ``y0`` is given,
    linearizes the row-max term through each item's current argmax (ties to
    the smallest agent), solves the LP, and stops once the iterate moves by
    at most ``delta`` in the max norm.  Every step runs phase 2 from one
    ``start``, the ``lp_start`` of ``build_lp(inst, ..., m_const)``, which
    descents on one instance and box may share; a repeated selection reuses
    the previous solution.  LP objective values are checked to be
    non-increasing; the extracted allocation is the row argmax of the final
    scores and its EFX verdict is checked independently.
    """
    if m_const is None:
        m_const = default_box_bound(inst)
    if y0 is None:
        y = encode_allocation(inst, greedy_allocation(inst), m_const)
    else:
        y = np.array(y0, dtype=float)
        if y.shape != (inst.m, inst.n):
            raise ValueError("y0 must be an items-by-agents matrix")
        if y.min() < -m_const or y.max() > 0.0:
            raise ValueError("y0 must lie in the score box")
    model = build_lp(inst, np.argmax(y, axis=1), m_const)
    if start is None:
        start = lp_start(model)
    elif not _same_constraints(model, start.model):
        raise ValueError("the LP start was built for another instance or box")

    trace: list[dict] = []
    previous_objective = np.inf
    status = "max-iters"
    converged = False
    solved = None  # (selection, LPSolution) of the last LP solved
    for t in range(max_iters):
        selection = np.argmax(y, axis=1)
        if solved is not None and np.array_equal(selection, solved[0]):
            sol, lp_pivots = solved[1], 0
        else:
            sol = solve_lp(start.model.with_selection(selection), start)
            solved = (selection, sol)
            lp_pivots = sol.pivots - start.phase_one.pivots
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
                "lp_pivots": lp_pivots,
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
        phase1_pivots=start.phase_one.pivots,
    )
