"""Continuous relaxation of the EFX condition via Lovász extensions.

Each pairwise envy gap is a set function of the envied bundle whose Lovász
extension has a closed form needing only one sort per agent column.
Relaxing owner vectors to fractional points whose item rows lie on the
probability simplex gives a piecewise-linear objective that agrees with
the monotone worst envy gap at every integral point, where a value of one
or below certifies an EFX allocation.  The objective is not globally
convex (the reduced value loses submodularity at the empty set, and the
midpoint inequality genuinely fails inside the polytope), so the
minimizer keeps its best iterate rather than trusting descent to settle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Allocation, Instance

ROW_SUM_TOL = 1e-10
MONOTONE_THRESHOLD = 1.0
DEFAULT_STEP0 = 0.5


def lovasz_extension(setfn, x: np.ndarray) -> float:
    """Lovász extension of an arbitrary set function at a point.

    ``setfn`` maps an integer bitmask over ground set {0, .., d-1} to a
    value with setfn(0) = 0.  Coordinates are visited in decreasing order
    of x, ties broken by ascending index; prefix-set values are combined
    with their sorted-coordinate drops, which reproduces setfn exactly at
    0/1 indicator vectors.
    """
    x = np.asarray(x, dtype=float).ravel()
    order = np.argsort(-x, kind="stable")
    # Abel-summation form: weight each prefix value by the drop between
    # consecutive sorted coordinates.  At a 0/1 indicator all weights are
    # exactly 0 except a single 1, so the result is bit-identical to the
    # set function at that set.
    total = 0.0
    mask = 0
    for rank, idx in enumerate(order):
        mask |= 1 << int(idx)
        weight = x[idx] - (x[order[rank + 1]] if rank + 1 < order.size else 0.0)
        if weight != 0.0:
            total += weight * setfn(mask)
    return float(total)


def _reduced_value_coeffs(sorted_vals: np.ndarray) -> np.ndarray:
    """Per-rank coefficients of the reduced-value extension after sorting.

    Rank 0 contributes nothing; rank k >= 1 contributes its value plus the
    drop in the running minimum it causes, clipped at zero.
    """
    coeffs = np.zeros_like(sorted_vals)
    if sorted_vals.size > 1:
        prefix_min = np.minimum.accumulate(sorted_vals)[:-1]
        tail = sorted_vals[1:]
        # value plus clipped drop simplifies to an exact elementwise max
        coeffs[1:] = np.maximum(tail, prefix_min)
    return coeffs


def envy_gap_extension(inst: Instance, i: int, j: int, x: np.ndarray) -> float:
    """Closed-form Lovász extension of agent i's envy gap toward agent j.

    Sorts column j of x descending (ties by item index), applies the
    reduced-value coefficients there, and subtracts the linear own-column
    term.  Agrees with the generic extension of the underlying set function
    on the full item-agent ground set.
    """
    order = np.argsort(-x[:, j], kind="stable")
    coeffs = _reduced_value_coeffs(inst.values[order, i])
    reduced_part = float(coeffs @ x[order, j])
    return reduced_part - float(inst.values[:, i] @ x[:, i])


def monotone_envy_gap_extension(inst: Instance, i: int, j: int, x: np.ndarray) -> float:
    """Extension of the monotone envy gap: reduced part plus the linear
    value of all columns other than i.  Exceeds the raw extension by
    exactly one whenever rows of x sum to one."""
    order = np.argsort(-x[:, j], kind="stable")
    coeffs = _reduced_value_coeffs(inst.values[order, i])
    reduced_part = float(coeffs @ x[order, j])
    column = inst.values[:, i]
    others = float(column @ (x.sum(axis=1) - x[:, i]))
    return reduced_part + others


def relaxation_objective(inst: Instance, x: np.ndarray) -> float:
    """Worst monotone envy-gap extension over ordered agent pairs."""
    if not inst.normalized:
        raise ValueError("the relaxation objective requires a normalized instance")
    return max(
        monotone_envy_gap_extension(inst, i, j, x)
        for i in range(inst.n)
        for j in range(inst.n)
        if i != j
    )


def in_partition_polytope(x: np.ndarray, atol: float = ROW_SUM_TOL) -> bool:
    """True when x is entrywise in [0, 1] and every item row sums to one."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        return False
    if x.min(initial=0.0) < -atol or x.max(initial=0.0) > 1.0 + atol:
        return False
    return bool(np.all(np.abs(x.sum(axis=1) - 1.0) <= atol))


def uniform_point(inst: Instance) -> np.ndarray:
    """The fractional point that spreads every item evenly over agents."""
    return np.full((inst.m, inst.n), 1.0 / inst.n)


def project_rows_to_simplex(x: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of each row onto the probability simplex.

    Sort-and-shift: find the largest prefix of the descending sort whose
    shifted entries stay positive, subtract that prefix's threshold, and
    clip the rest at zero.
    """
    x = np.asarray(x, dtype=float)
    sorted_desc = -np.sort(-x, axis=1)
    cumsum = np.cumsum(sorted_desc, axis=1)
    ranks = np.arange(1, x.shape[1] + 1)
    positive = sorted_desc - (cumsum - 1.0) / ranks > 0.0
    rho = positive.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    tau = (cumsum[np.arange(x.shape[0]), rho] - 1.0) / (rho + 1)
    return np.maximum(x - tau[:, None], 0.0)


def _argmax_pair(inst: Instance, x: np.ndarray) -> tuple[float, int, int]:
    best = -np.inf
    best_pair = (0, 1)
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            value = monotone_envy_gap_extension(inst, i, j, x)
            if value > best:
                best = value
                best_pair = (i, j)
    return best, best_pair[0], best_pair[1]


def _subgradient(inst: Instance, x: np.ndarray, i: int, j: int) -> np.ndarray:
    """Subgradient of the (i, j) monotone extension under the current sort."""
    grad = np.tile(inst.values[:, i][:, None], (1, inst.n))
    grad[:, i] = 0.0
    order = np.argsort(-x[:, j], kind="stable")
    grad[order, j] += _reduced_value_coeffs(inst.values[order, i])
    return grad


def minimize_relaxation(
    inst: Instance,
    iters: int = 500,
    step0: float = DEFAULT_STEP0,
    return_trace: bool = False,
):
    """Projected subgradient descent on the relaxation objective.

    Starts from the uniform point, steps with step0 / sqrt(t) along the
    subgradient of the worst pair (ties to the lexicographically first
    pair), projects every iterate's rows back onto the simplex, and keeps
    the best iterate seen.  The loop is deterministic.
    Returns (best point, best value), plus the per-iterate value trace when
    ``return_trace`` is set.
    """
    x = uniform_point(inst)
    best_value, i, j = _argmax_pair(inst, x)
    best_x = x.copy()
    trace = [best_value]
    for t in range(1, iters + 1):
        grad = _subgradient(inst, x, i, j)
        x = project_rows_to_simplex(x - (step0 / np.sqrt(t)) * grad)
        value, i, j = _argmax_pair(inst, x)
        trace.append(value)
        if value < best_value:
            best_value = value
            best_x = x.copy()
    if return_trace:
        return best_x, float(best_value), trace
    return best_x, float(best_value)


@dataclass(frozen=True)
class ThresholdRounding:
    """Outcome of independent per-agent threshold rounding.

    The rounded sets may overlap or miss items; ``feasible`` records whether
    they happen to form an exact partition, in which case ``allocation``
    carries it.
    """

    sets: list  # per-agent lists of item indices
    thetas: np.ndarray
    multiply_assigned: list
    unassigned: list
    feasible: bool
    allocation: Allocation | None


def threshold_round(x: np.ndarray, seed: int) -> ThresholdRounding:
    """Round a fractional point by drawing one threshold per agent column.

    Thresholds are uniform on (0, 1], so integral points round back to the
    same partition for every seed.  Item k joins agent i's set when
    x[k, i] >= theta_i; the expected reduced value of each rounded column
    equals its Lovász extension at x.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    rng = np.random.default_rng(seed)
    thetas = 1.0 - rng.random(n)
    included = x >= thetas[None, :]
    counts = included.sum(axis=1)
    sets = [np.flatnonzero(included[:, i]).tolist() for i in range(n)]
    multiply = np.flatnonzero(counts > 1).tolist()
    unassigned = np.flatnonzero(counts == 0).tolist()
    feasible = not multiply and not unassigned
    allocation = Allocation(np.argmax(included, axis=1)) if feasible else None
    return ThresholdRounding(
        sets=sets,
        thetas=thetas,
        multiply_assigned=multiply,
        unassigned=unassigned,
        feasible=feasible,
        allocation=allocation,
    )
