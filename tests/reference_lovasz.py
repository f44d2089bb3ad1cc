"""Per-pair reference for the Lovász envy extensions and the rounding bound.

Each ordered agent pair (i, j) sorts column j of the fractional point on
its own and dots the pair's reduced-value coefficients with the sorted
column; the descent picks its worst pair with a strict ``>`` loop, sorts
again for the subgradient and projects one row at a time, from its own
uniform point.  ``rounding_bound`` runs one log-sum-exp per
pair.  The kernels in ``efxkit.lovasz`` and ``efxkit.extension`` are
checked for exact float equality against these loops.  ``threshold_round``
is per-agent threshold rounding, whose expectation ties the closed-form
extension to the set functions it extends.
"""

import numpy as np
from scipy.special import logsumexp


def project_rows_to_simplex(x: np.ndarray) -> np.ndarray:
    """Sort-and-shift projection of each row onto the simplex, one row at a time.

    The threshold is that of the last rank whose sorted entry stays above its
    running shift (cumulative sum minus one, over the rank count).
    """
    out = np.empty_like(x)
    for k, row in enumerate(x):
        running, threshold = 0.0, 0.0
        for rank, entry in enumerate(np.sort(row)[::-1], start=1):
            running += entry
            shift = (running - 1.0) / rank
            if entry > shift:
                threshold = shift
        out[k] = np.maximum(row - threshold, 0.0)
    return out


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


def envy_gap_extension(inst, i: int, j: int, x: np.ndarray) -> float:
    order = np.argsort(-x[:, j], kind="stable")
    coeffs = _reduced_value_coeffs(inst.values[order, i])
    reduced_part = float(coeffs @ x[order, j])
    return reduced_part - float(inst.values[:, i] @ x[:, i])


def monotone_envy_gap_extension(inst, i: int, j: int, x: np.ndarray) -> float:
    order = np.argsort(-x[:, j], kind="stable")
    coeffs = _reduced_value_coeffs(inst.values[order, i])
    reduced_part = float(coeffs @ x[order, j])
    column = inst.values[:, i]
    others = float(column @ (x.sum(axis=1) - x[:, i]))
    return reduced_part + others


def relaxation_objective(inst, x: np.ndarray) -> float:
    if not inst.normalized:
        raise ValueError("the relaxation objective requires a normalized instance")
    return max(
        monotone_envy_gap_extension(inst, i, j, x)
        for i in range(inst.n)
        for j in range(inst.n)
        if i != j
    )


def _argmax_pair(inst, x: np.ndarray) -> tuple[float, int, int]:
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


def _subgradient(inst, x: np.ndarray, i: int, j: int) -> np.ndarray:
    """Subgradient of the (i, j) monotone extension under the current sort."""
    grad = np.tile(inst.values[:, i][:, None], (1, inst.n))
    grad[:, i] = 0.0
    order = np.argsort(-x[:, j], kind="stable")
    grad[order, j] += _reduced_value_coeffs(inst.values[order, i])
    return grad


def minimize_relaxation(inst, iters: int = 500, step0: float = 0.5):
    """Projected subgradient descent; returns (best point, best value, trace)."""
    x = np.full((inst.m, inst.n), 1.0 / inst.n)
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
    return best_x, float(best_value), trace


def rounding_bound(inst, x: np.ndarray, lam: float) -> float:
    if lam <= 0:
        raise ValueError("temperature must be positive")
    x = np.asarray(x, dtype=float)
    values = inst.values
    m, n = x.shape
    summands = []
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
        for i in range(n):
            v = values[:, i]
            for j in range(n):
                if i == j:
                    continue
                rest = 1.0 - x[:, i] - x[:, j]
                log_rest = np.where(rest > 0.0, np.log(np.maximum(rest, 1e-300)), -np.inf)
                stacked = np.stack(
                    [log_rest, log_x[:, i] - lam * v, log_x[:, j] + lam * v]
                )
                factor_logs = logsumexp(stacked, axis=0)
                total = factor_logs.sum()
                summands.append(log_x[:, j] + (total - factor_logs))
    return float(logsumexp(np.concatenate(summands)) / lam)


def threshold_round(x: np.ndarray, seed: int) -> list[list[int]]:
    """Each agent's rounded set of item indices under one threshold per agent column.

    Thresholds are uniform on (0, 1], so integral points round back to the
    same partition for every seed.  Item k joins agent i's set when
    x[k, i] >= theta_i, so the sets may overlap or miss items; the expected
    reduced value of each rounded column equals its Lovász extension at x.
    """
    x = np.asarray(x, dtype=float)
    thetas = 1.0 - np.random.default_rng(seed).random(x.shape[1])
    return [np.flatnonzero(x[:, i] >= theta).tolist() for i, theta in enumerate(thetas)]
