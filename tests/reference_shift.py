"""Per-pair reference for the shifted row maxima behind the score kernels.

Each ordered agent pair (i, j) copies the score matrix once and rescans
the columns outside {i, j}, which costs O(m n^3) in Python loops but reads
straight off the definition.  ``transfer_gain``, ``convex_part`` and
``dc_objective`` are checked for exact float equality against these loops.
"""

import numpy as np


def _pair_shift_max(values: np.ndarray, y: np.ndarray, i: int, j: int) -> np.ndarray:
    """Per-item row maximum after shifting agent i's value onto column j.

    Column i drops by the item's value for i, column j gains it, and the
    remaining columns stand; the result is the row max of that shift.
    """
    v = values[:, i]
    shifted = np.maximum(y[:, i] - v, y[:, j] + v)
    if y.shape[1] > 2:
        masked = y.copy()
        masked[:, i] = -np.inf
        masked[:, j] = -np.inf
        shifted = np.maximum(shifted, masked.max(axis=1))
    return shifted


def transfer_gain(inst, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    values = inst.values
    h = y.max(axis=1)
    gain = np.full((inst.m, inst.n), -np.inf)
    for j in range(inst.n):
        for i in range(inst.n):
            if i == j:
                continue
            delta = _pair_shift_max(values, y, i, j) - h
            np.maximum(gain[:, j], delta.sum() - delta, out=gain[:, j])
    return gain


def convex_part(inst, y: np.ndarray) -> float:
    y = np.asarray(y, dtype=float)
    values = inst.values
    best = -np.inf
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            shifted = _pair_shift_max(values, y, i, j)
            total = shifted.sum()
            best = max(best, float((y[:, j] + (total - shifted)).max()))
    return best


def dc_objective(inst, y: np.ndarray) -> float:
    y = np.asarray(y, dtype=float)
    values = inst.values
    h = y.max(axis=1)
    best = -np.inf
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            shifted = _pair_shift_max(values, y, i, j)
            total = shifted.sum()
            candidate = (y[:, j] + (total - shifted)).max()
            best = max(best, candidate)
    return float(best - h.sum())
