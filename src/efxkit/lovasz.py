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
subgradient are read from one builder, ``_relaxation``, which sorts each
column once, builds all pairs' coefficients from that sort into one
C-contiguous buffer so BLAS sums as in a lone dot, and is built once per
descent run.  The package has one descent, the generator ``descend``,
which yields the best iterate after every step and never ends: callers
stop it where they want.  The module returns fractional points only.
"""

from __future__ import annotations

import math

import numpy as np

from .extension import _require_box
from .instance import Instance

ROW_SUM_TOL = 1e-10
MONOTONE_THRESHOLD = 1.0


def _relaxation(inst: Instance):
    """The relaxation's arithmetic on ``inst``, built once: ``gaps(x, monotone)``
    and ``worst_pair(x)``.

    ``gaps`` sorts each column of x once, descending with ties by item index,
    and builds the reduced-value coefficients of every agent under every
    column's sort with one running minimum along the sorted item axis:
    rank 0 contributes nothing, rank k >= 1 its value plus the clipped drop
    it causes in the running minimum, which is exactly an elementwise max.
    It returns the column sorts ``order`` (m, n), the coefficients ``coeffs``
    (n, n, m) with ``coeffs[i, j]`` for agent i under column j's sort, and
    the (n, n) matrix whose entry (i, j) is the reduced part
    ``coeffs[i, j] @ x[order[:, j], j]`` minus i's own value or, with
    ``monotone``, plus the value of every column other than i.  The
    diagonal is computed like any other entry.  ``coeffs`` is one reused
    C-contiguous buffer whose rank-0 column stays zero.

    ``worst_pair`` returns the worst monotone gap over ordered pairs, ties to
    the first pair in i-major order, and its subgradient: i's values on every
    column but i, plus the pair's coefficients along column j's sort.
    """
    n = inst.n
    vt, values = inst.values.T.copy(), inst.values.T[:, None, :]
    cols = np.arange(n)
    diagonal = cols * (n + 1)
    base = inst.values.T[:, :, None] * (cols != cols[:, None, None])
    coeffs = np.zeros((n, n, inst.m))

    def gaps(x: np.ndarray, monotone: bool):
        order = (-x).argsort(axis=0, kind="stable")
        ranked = vt.take(order.T, axis=1)
        # Stacked (..., 1, m) @ (..., m, 1) calls BLAS's dot per pair with the
        # operands' strides, as a lone dot does, and BLAS sums unit-stride pairs
        # in another order than strided ones: the coefficients land in the C
        # buffer, the sorted columns are copied contiguous, the values strided.
        np.maximum(ranked[:, :, 1:], np.minimum.accumulate(ranked, axis=2)[:, :, :-1], out=coeffs[:, :, 1:])
        sorted_x = x[order, cols].T.copy()
        linear = np.matmul(values, (x.sum(axis=1) - x.T if monotone else x.T)[:, :, None])[:, 0]
        pairs = np.matmul(coeffs[:, :, None, :], sorted_x[None, :, :, None])[:, :, 0, 0]
        pairs += linear if monotone else -linear
        return order, coeffs, pairs

    def worst_pair(x: np.ndarray) -> tuple[float, np.ndarray]:
        order, _, pairs = gaps(x, True)
        pairs.put(diagonal, -np.inf)
        i, j = divmod(int(pairs.argmax()), n)
        grad = base[i].copy()
        grad[order[:, j], j] += coeffs[i, j]
        return float(pairs[i, j]), grad

    return gaps, worst_pair


def envy_gap_extension(inst: Instance, i: int, j: int, x: np.ndarray) -> float:
    """Closed-form Lovász extension of agent i's envy gap toward agent j.

    Sorts column j of x descending (ties by item index), applies the
    reduced-value coefficients there, and subtracts the linear own-column
    term.  Agrees with the generic extension of the underlying set function
    on the full item-agent ground set.
    """
    if not (0 <= i < inst.n and 0 <= j < inst.n):
        raise ValueError(f"agents ({i}, {j}) must lie in 0..{inst.n - 1}")
    return float(_relaxation(inst)[0](_require_box(inst, x, None), False)[2][i, j])


def monotone_envy_gap_extension(inst: Instance, i: int, j: int, x: np.ndarray) -> float:
    """Extension of the monotone envy gap: reduced part plus the linear
    value of all columns other than i.  Exceeds the raw extension by
    exactly one whenever rows of x sum to one."""
    if not (0 <= i < inst.n and 0 <= j < inst.n):
        raise ValueError(f"agents ({i}, {j}) must lie in 0..{inst.n - 1}")
    return float(_relaxation(inst)[0](_require_box(inst, x, None), True)[2][i, j])


def relaxation_objective(inst: Instance, x: np.ndarray) -> float:
    """Worst monotone envy-gap extension over ordered agent pairs."""
    if not inst.normalized:
        raise ValueError("the relaxation objective requires a normalized instance")
    return _relaxation(inst)[1](_require_box(inst, x, None))[0]


def in_partition_polytope(x: np.ndarray) -> bool:
    """True when x is entrywise in [0, 1 + ROW_SUM_TOL] and every item row sums to one within ``ROW_SUM_TOL``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        return False
    if x.min(initial=0.0) < 0.0 or x.max(initial=0.0) > 1.0 + ROW_SUM_TOL:
        return False
    return bool(np.all(np.abs(x.sum(axis=1) - 1.0) <= ROW_SUM_TOL))


def uniform_point(inst: Instance) -> np.ndarray:
    """The fractional point that spreads every item evenly over agents."""
    return np.full((inst.m, inst.n), 1.0 / inst.n)


def _project_rows(y: np.ndarray, rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Project each row of ``y`` onto the simplex in place, given ``arange(m)`` and ``arange(1, n + 1)``."""
    sorted_desc = -np.sort(-y, axis=1)
    shifts = (sorted_desc.cumsum(axis=1) - 1.0) / ranks
    rho = ranks.size - 1 - (sorted_desc > shifts)[:, ::-1].argmax(axis=1)
    y -= shifts[rows, rho][:, None]
    return np.maximum(y, 0.0, out=y)


def project_rows_to_simplex(x: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of each row onto the probability simplex.

    Sort-and-shift: find the largest prefix of the descending sort whose
    shifted entries stay positive, subtract that prefix's threshold, and
    clip the rest at zero.  Returns a new array and leaves x unchanged.
    """
    x = np.array(x, dtype=float)
    m, n = x.shape
    return _project_rows(x, np.arange(m), np.arange(1, n + 1))


def descend(inst: Instance, step0: float):
    """The package's one Lovász descent: projected subgradient descent from
    the uniform point, without end, which callers stop where they want.

    Yields ``(step, value, best_x, best_value)`` after step 0 and after every
    step: the current iterate's value and the best iterate so far, so step 0
    yields the uniform point with its objective as both values.  Step t
    moves along the subgradient of the worst pair (ties to the
    lexicographically first pair) by step0 / sqrt(t) and projects the rows
    back onto the simplex in place in the subgradient's buffer, so a yielded
    point is never written again.  ``_relaxation`` is built once.  The first
    ``next`` raises ``ValueError`` on an instance that is not normalized or
    a step0 that is not positive and finite.
    """
    if not inst.normalized:
        raise ValueError("the relaxation objective requires a normalized instance")
    if not 0.0 < step0 < np.inf:
        raise ValueError(f"step0 must be positive and finite, got {step0!r}")
    _, worst_pair = _relaxation(inst)
    rows, ranks = np.arange(inst.m), np.arange(1, inst.n + 1)
    best_x = x = uniform_point(inst)
    best_value, grad = worst_pair(x)
    value, step = best_value, 0
    while True:
        yield step, value, best_x, best_value
        step += 1
        grad *= -(step0 / math.sqrt(step))
        grad += x  # x - s * grad bit for bit
        x = _project_rows(grad, rows, ranks)
        value, grad = worst_pair(x)
        if value < best_value:
            best_value, best_x = value, x
