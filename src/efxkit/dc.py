"""Difference-of-convex descent on the existence objective.

The existence objective splits into two convex piecewise-linear terms: a
max-term over agent pairs and items, minus the sum of row maxima.  Each
descent step linearizes the subtracted term at the current scores through
one row-max selection per item, and the resulting convex subproblem is a
small LP: an epigraph variable for the max-term, one auxiliary variable
per item and agent pair for the shifted row maxima, and box bounds that
keep every iterate inside the score box [-M, 0] where encoded allocations
live, its radius that of ``extension.box_radius``, a function of the
instance.  Only the objective depends on the current scores: the LP's
feasible region depends on the instance alone.  So ``build_lp`` builds
the dense rows and bounds once per instance and runs phase 1 of
the simplex on them (``DescentLP``), every step of every start runs phase
2 from that feasible tableau with its own objective (``solve_lp``), and a
step whose selection repeats the previous one reuses its LP solution.
Successive LP optima are non-increasing, and any score matrix that reaches
a nonpositive objective extracts a verified EFX allocation by row argmax.
The objective and its two terms, ``convex_part`` and ``rowmax_sum``, live
in the extension module, whose ``_shifted_rows`` kernel builds the
shifted row maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .extension import _require_box, box_radius, dc_objective, encode_allocation, extract_allocation, greedy_allocation
from .instance import DEFAULT_EFX_TOL, Allocation, Instance, InternalCheckError, _ordered_pairs, is_efx, total_mass

DCA_STEP_TOL = 1e-8
DCA_MAX_ITERS = 200
DESCENT_SLACK = 1e-9
RECHECK_TOL = 1e-8


@dataclass(frozen=True)
class DescentLP:
    """The rows and box bounds of every descent step's LP on one instance,
    in the box of ``box_radius(inst)``, with phase 1 of the simplex run on them.

    Variables are ordered: m*n scores, then one auxiliary per (item, pair),
    then the epigraph variable.  Rows, ``a @ x <= b``, come in four
    families: 1 epigraph rows coupling the scores to the max-term, 2 and 3
    lower-bounding each auxiliary by the shifted scores of the pair's two
    agents, 4 by the bystander scores.  ``phase_one`` is worked out from the
    rows and bounds on construction, ``dataclasses.replace`` included; the
    arrays are read-only copies, so the two cannot drift apart.  Phase 1
    shifts every variable by its lower bound into standard form, with the
    upper bounds as extra rows.
    """

    inst: Instance
    a: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    phase_one: simplex.PhaseOne = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("a", "b", "lower", "upper"):
            array = np.array(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        a_std = np.vstack([self.a, np.eye(self.a.shape[1])])
        # No overflow check: box_radius keeps M <= 2**53, so b_std is finite for any m that fits in memory.
        b_std = np.concatenate([self.b - self.a @ self.lower, self.upper - self.lower])
        object.__setattr__(self, "phase_one", simplex.phase_one(a_std, b_std))


@dataclass(frozen=True)
class LPSolution:
    status: str
    y: np.ndarray | None
    z: np.ndarray | None
    w: float | None
    objective: float | None
    pivots: int


def build_lp(inst: Instance) -> DescentLP:
    """Build the descent LP's rows and bounds in the box of radius
    ``box_radius(inst)``, which the bounds hold and ``DescentLP`` does not
    store.

    Rows run over family 1 by (pair, item), pairs in the order of
    ``instance._ordered_pairs``, then over (pair, item) blocks of the other
    families: the pair's envious agent i (family 2), its
    envied agent j (family 3), then the bystanders in index order.
    """
    m, n = inst.m, inst.n
    radius = box_radius(inst)
    mass = total_mass(inst)
    vmax = float(inst.values.max())
    order = np.vstack(_ordered_pairs(n)[:2]).T
    n_pairs = len(order)
    n_y, n_z = m * n, m * n_pairs
    n_vars = n_y + n_z + 1
    # z[p, ell] is the auxiliary of item ell and pair p.
    z = n_y + np.arange(m) * n_pairs + np.arange(n_pairs)[:, None]

    # Family-1 row (p, k): item k's score for j, the auxiliaries of pair p
    # for every item but k, minus the epigraph variable.
    p, k = np.ogrid[:n_pairs, :m]
    epigraph = np.zeros((n_pairs, m, n_vars))
    epigraph[p[..., None], k[..., None], z[:, None, :]] = 1.0
    epigraph[p, k, z] = 0.0
    epigraph[p, k, k * n + order[:, 1:2]] = 1.0
    epigraph[..., -1] = -1.0

    p, ell, s = np.ogrid[:n_pairs, :m, :n]
    shifted = np.zeros((n_pairs, m, n, n_vars))
    shifted[p, ell, s, ell * n + order[:, None, :]] = 1.0
    shifted[p, ell, s, z[..., None]] = -1.0
    rhs = np.zeros((n_pairs, m, n))
    rhs[..., 0] = inst.values[:, order[:, 0]].T
    rhs[..., 1] = -rhs[..., 0]

    # The box is symmetric, apart from the scores being nonpositive.
    upper = np.concatenate([np.full(n_y, radius), np.full(n_z, radius + vmax), [(m + 1) * radius + mass]])
    lower = -upper
    upper[:n_y] = 0.0
    a = np.vstack([epigraph.reshape(-1, n_vars), shifted.reshape(-1, n_vars)])
    return DescentLP(inst, a, np.concatenate([np.zeros(n_pairs * m), rhs.ravel()]), lower, upper)


def _magnitude(lp: DescentLP) -> float:
    """The LP's largest bound, the magnitude its rounding-level checks scale with."""
    return max(np.abs(lp.lower).max(), np.abs(lp.upper).max())


def solve_lp(lp: DescentLP, selection: np.ndarray) -> LPSolution:
    """Solve one descent step's LP and recheck the vertex.

    ``selection`` is the per-item agent index at which the subtracted term
    is linearized; the objective is the epigraph variable minus the sum of
    the selected scores.  Only phase 2 runs, from ``lp.phase_one``; the
    pivot count includes phase 1's, as in one cold solve.  The returned
    point is verified against every row and bound rather than trusting the
    solver status alone, to ``RECHECK_TOL`` or 4096 ulps of the LP's
    largest bound, whichever is larger, so that scaled-up values pass.
    """
    m, n = lp.inst.m, lp.inst.n
    selection = np.asarray(selection, dtype=int)
    if selection.shape != (m,) or selection.min() < 0 or selection.max() >= n:
        raise ValueError("selection must pick one agent per item")
    objective = np.zeros(lp.a.shape[1])
    objective[-1] = 1.0
    objective[np.arange(m) * n + selection] -= 1.0
    result = simplex.phase_two(objective, lp.phase_one)
    if result.status != "optimal":
        return LPSolution(result.status, None, None, None, None, result.pivots)
    point = result.x + lp.lower
    tol = simplex._scaled_tol(RECHECK_TOL, _magnitude(lp))
    if np.any(lp.a @ point > lp.b + tol) or np.any(point < lp.lower - tol) or np.any(point > lp.upper + tol):
        return LPSolution("numeric-failure", None, None, None, None, result.pivots)
    y, z, w = point[: m * n].reshape(m, n), point[m * n : -1].reshape(m, -1), float(point[-1])
    return LPSolution("optimal", y, z, w, float(objective @ point), result.pivots)


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


def dca_solve(lp: DescentLP, y0: np.ndarray | None = None, efx_tol: float = DEFAULT_EFX_TOL) -> DCAResult:
    """Iterated linearize-and-solve descent from a score matrix.

    Works on ``lp.inst`` in the box of radius ``box_radius(lp.inst)``.
    Starts at the encoding of the greedy allocation unless ``y0`` is given,
    which must be an items-by-agents matrix inside that box; linearizes the
    row-max term through each item's current argmax (ties to the smallest
    agent), solves the LP from ``lp.phase_one``, which descents from many
    starts may share, and stops once the iterate moves by at most
    ``DCA_STEP_TOL`` in the max norm, or after ``DCA_MAX_ITERS`` steps; a
    repeated selection reuses the previous solution.  LP
    objective values are checked to be non-increasing, to ``DESCENT_SLACK``
    or 4096 ulps of the LP's largest bound, as ``solve_lp`` rechecks; the extracted
    allocation is the row argmax of the final scores and its EFX verdict is
    checked independently.
    """
    inst = lp.inst
    if y0 is None:
        y0 = encode_allocation(inst, greedy_allocation(inst))
    y = np.array(_require_box(inst, y0, box_radius(inst)))

    trace: list[dict] = []
    previous_objective = np.inf
    descent_slack = simplex._scaled_tol(DESCENT_SLACK, _magnitude(lp))
    status = "max-iters"
    solved = None  # (selection, LPSolution) of the last LP solved
    for t in range(DCA_MAX_ITERS):
        selection = np.argmax(y, axis=1)
        if solved is not None and np.array_equal(selection, solved[0]):
            sol, lp_pivots = solved[1], 0
        else:
            sol = solve_lp(lp, selection)
            solved = (selection, sol)
            lp_pivots = sol.pivots - lp.phase_one.pivots
        if sol.status != "optimal":
            status = "lp-failure"
            break
        if sol.objective > previous_objective + descent_slack:
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
        if step <= DCA_STEP_TOL:
            status = "converged"
            break

    allocation = extract_allocation(y)
    report = is_efx(inst, allocation, efx_tol)
    objective = trace[-1]["objective"] if trace else dc_objective(inst, y)
    return DCAResult(
        y=y,
        objective=float(objective),
        iterations=len(trace),
        converged=status == "converged",
        status=status,
        trace=trace,
        allocation=allocation,
        efx=report.ok,
    )
