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
Every pair's extension, the objective and the descent's worst-pair
subgradient are read from one kernel, ``_pair_extensions``, which sorts
each column once and builds all pairs' coefficients from that sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Allocation, Instance

ROW_SUM_TOL = 1e-10
MONOTONE_THRESHOLD = 1.0
DEFAULT_STEP0 = 0.5


def _pair_extensions(inst: Instance, x: np.ndarray, monotone: bool = False):
    """Envy-gap extension of every ordered agent pair at x.

    Sorts each column of x once, descending with ties by item index, and
    builds the reduced-value coefficients of every agent under every
    column's sort with one running minimum along the sorted item axis:
    rank 0 contributes nothing, rank k >= 1 its value plus the clipped drop
    it causes in the running minimum, which is exactly an elementwise max.
    Returns the column sorts ``order`` (m, n), the coefficients ``coeffs``
    (n, n, m) with ``coeffs[i, j]`` for agent i under column j's sort, and
    the (n, n) matrix whose entry (i, j) is the reduced part
    ``coeffs[i, j] @ x[order[:, j], j]`` minus i's own value or, with
    ``monotone``, plus the value of every column other than i.  The
    diagonal is computed like any other entry.
    """
    x = np.asarray(x, dtype=float)
    n = inst.n
    order = np.argsort(-x, axis=0, kind="stable")
    ranked = inst.values.T[:, order.T]
    # C-ordered, so each pair's coefficients are one contiguous row.
    coeffs = np.zeros(ranked.shape)
    coeffs[:, :, 1:] = np.maximum(
        ranked[:, :, 1:], np.minimum.accumulate(ranked, axis=2)[:, :, :-1]
    )
    # Stacked (..., 1, m) @ (..., m, 1) calls BLAS's dot per pair with the
    # operands' strides, as a lone dot does; BLAS sums unit-stride pairs in
    # another order than strided ones, so the sorted columns are contiguous
    # like the coefficients and the value columns stay strided views.
    sorted_x = x[order, np.arange(n)].T.copy()
    values = inst.values.T[:, None, :]
    if monotone:
        linear = np.matmul(values, (x.sum(axis=1) - x.T)[:, :, None])[:, 0]
    else:
        linear = -np.matmul(values, x.T[:, :, None])[:, 0]
    gaps = np.matmul(coeffs[:, :, None, :], sorted_x[None, :, :, None])[:, :, 0, 0] + linear
    return order, coeffs, gaps


def envy_gap_extension(inst: Instance, i: int, j: int, x: np.ndarray) -> float:
    """Closed-form Lovász extension of agent i's envy gap toward agent j.

    Sorts column j of x descending (ties by item index), applies the
    reduced-value coefficients there, and subtracts the linear own-column
    term.  Agrees with the generic extension of the underlying set function
    on the full item-agent ground set.
    """
    return float(_pair_extensions(inst, x)[2][i, j])


def monotone_envy_gap_extension(inst: Instance, i: int, j: int, x: np.ndarray) -> float:
    """Extension of the monotone envy gap: reduced part plus the linear
    value of all columns other than i.  Exceeds the raw extension by
    exactly one whenever rows of x sum to one."""
    return float(_pair_extensions(inst, x, monotone=True)[2][i, j])


def _worst_pair(inst: Instance, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Worst monotone extension over ordered pairs and its subgradient.

    Ties go to the first pair in i-major order.  The subgradient of the
    worst pair (i, j) is i's values on every column but i, plus the pair's
    coefficients along the kernel's sort of column j.
    """
    order, coeffs, gaps = _pair_extensions(inst, x, monotone=True)
    np.fill_diagonal(gaps, -np.inf)
    i, j = divmod(int(np.argmax(gaps)), inst.n)
    grad = inst.values[:, i, None] * (np.arange(inst.n) != i)
    grad[order[:, j], j] += coeffs[i, j]
    return float(gaps[i, j]), grad


def relaxation_objective(inst: Instance, x: np.ndarray) -> float:
    """Worst monotone envy-gap extension over ordered agent pairs."""
    if not inst.normalized:
        raise ValueError("the relaxation objective requires a normalized instance")
    return _worst_pair(inst, x)[0]


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
    m, n = x.shape
    sorted_desc = -np.sort(-x, axis=1)
    shifts = (np.cumsum(sorted_desc, axis=1) - 1.0) / np.arange(1, n + 1)
    positive = sorted_desc > shifts
    rho = n - 1 - np.argmax(positive[:, ::-1], axis=1)
    tau = shifts[np.arange(m), rho]
    return np.maximum(x - tau[:, None], 0.0)


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
    ``return_trace`` is set.  Raises ``ValueError`` unless step0 is positive and finite.
    """
    if not 0.0 < step0 < np.inf:
        raise ValueError(f"step0 must be positive and finite, got {step0!r}")
    x = uniform_point(inst)
    best_value, grad = _worst_pair(inst, x)
    best_x = x.copy()
    trace = [best_value]
    for t in range(1, iters + 1):
        x = project_rows_to_simplex(x - (step0 / np.sqrt(t)) * grad)
        value, grad = _worst_pair(inst, x)
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
