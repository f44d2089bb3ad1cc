"""Smoothed certificates: a continuous bound on rounded envy and its limit.

Rounding a fractional point row by row (each item picks an owner from its
row's distribution) gives a random allocation whose expected worst envy is
bounded by a smooth log-sum-exp expression in the point and a temperature.
Reparameterizing the point through a row-wise softmax sends the bound, as
the temperature grows, to a piecewise-linear objective over unconstrained
score matrices: a difference of two convex max-terms whose infimum is
nonpositive exactly when an EFX allocation exists.  Integral allocations
embed as score matrices with zeros at owner coordinates and a large
negative constant elsewhere, where the objective reproduces the exact EFX
slack.  That score box lives here: ``box_radius``, ``_require_box``, and
the encoding, greedy start and row-argmax extraction.  Every public score
readout, here and in the fixed-point module, takes its scores through
``_require_box``, which always checks their shape.  The objective's
max-term and the fixed-point transfer gain are both read from one kernel,
``_shifted_rows``, which builds every agent pair's shifted row maxima at
once from the scores as agents-by-items rows, with one gather of whole
agent rows per call and the pair's columns and bystanders folded as
whole blocks; ``rounding_bound`` evaluates every pair's three-term
log-sum-exp factors in one stacked pass.
"""

from __future__ import annotations

import numpy as np

from .instance import Allocation, Instance, _ordered_pairs, _validate_allocation, total_mass


def rowwise_round_many(x: np.ndarray, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` independent row-wise roundings as a (count, m) owner array.

    Inverse-CDF sampling with u in [0, 1); integral rows always return
    their unit coordinate regardless of the draw.  The ``lovasz`` command
    rounds the relaxation's point with it and scores the draws in one
    ``oracle.batch_efx_slack`` call.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    cdf = np.cumsum(x, axis=1)
    u = np.random.default_rng(seed).random((count, m))
    owners = (u[:, :, None] >= cdf[None, :, :]).sum(axis=2)
    return np.minimum(owners, n - 1)


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """log(sum(exp(a))) over ``axis`` (all axes when None), reduced axes dropped.

    Follows the real-float steps of scipy 1.17's ``logsumexp`` in the same
    order, so results match it bit for bit: the maxima are split out of the
    shifted sum, and any non-finite result falls back to the direct formula.
    """
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis, keepdims=True)
        at_top = a == top
        count = at_top.sum(axis, keepdims=True, dtype=float)
        rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis, keepdims=True)
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + top
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis, keepdims=True)))
    return np.squeeze(out, axis)


def rounding_bound(inst: Instance, x: np.ndarray, lam: float) -> float:
    """Log-sum-exp upper bound on expected worst envy under row-wise rounding.

    Evaluated entirely in log space: each item contributes a three-term
    log-sum-exp per ordered agent pair (terms with zero coefficient drop
    out), so the bound stays finite and accurate for temperatures into the
    thousands.  At integral points it reproduces the exact log-mean-exp of
    the envy gaps, hence is at most log(n * m) / lam on EFX allocations.
    """
    if lam <= 0:
        raise ValueError("temperature must be positive")
    x = _require_box(inst, x, None)
    # Ordered pairs as (pairs, m) rows of item data.
    i, j = _ordered_pairs(x.shape[1])[0]
    xt = x.T
    v = inst.values.T[i]
    rest = 1.0 - xt[i] - xt[j]
    with np.errstate(divide="ignore"):
        log_x = np.log(xt)
        log_rest = np.where(rest > 0.0, np.log(np.maximum(rest, 1e-300)), -np.inf)
    stacked = np.stack([log_rest, log_x[i] - lam * v, log_x[j] + lam * v])
    factor_logs = _logsumexp(stacked, axis=0)
    total = factor_logs.sum(axis=1, keepdims=True)
    return float(_logsumexp(log_x[j] + (total - factor_logs)) / lam)


def softmax_map(y: np.ndarray, lam: float) -> np.ndarray:
    """Row-wise softmax at temperature lam, with rows renormalized.

    After the usual max-shifted exponentials are normalized, the largest
    coordinate absorbs the row's remaining rounding defect, which makes
    row sums bit-exactly 1.0 for almost every input and never worse than
    one ulp off (the final pairwise summation order does its own rounding,
    so absolute exactness cannot be forced for every row).  The nudge
    moves the top coordinate by at most an ulp and cannot break
    nonnegativity; coordinates whose exponentials underflow come out as
    exact zeros rather than tiny positives.
    """
    if lam <= 0:
        raise ValueError("temperature must be positive")
    y = np.asarray(y, dtype=float)
    z = lam * (y - y.max(axis=1, keepdims=True))
    e = np.exp(z)
    x = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(x.shape[0])
    top = x.argmax(axis=1)
    for _ in range(4):
        defect = 1.0 - x.sum(axis=1)
        if not defect.any():
            break
        x[rows, top] += defect
    return x


def _pair_gather(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair constants of ``inst``: for ``_shifted_rows``, an (n, pairs)
    gather index whose column p lists pair p's agents i and j and then its
    bystanders, and a (2, pairs, m) shift whose row p holds agent i's value
    of every item, negated in its first block; and ``_ordered_pairs``'s
    (n - 1, n) rival-fold index, which the transfer gain folds over."""
    pairs, bystanders, rivals = _ordered_pairs(inst.n)
    v = inst.values.T[pairs[0]]
    return np.concatenate((pairs, bystanders)), np.array((-v, v)), rivals


def _shifted_rows(yt: np.ndarray, index: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per-item row maxima after moving a rival's value between columns.

    ``yt`` holds the scores as (..., n, m) agents-by-items rows, and
    ``index`` and ``shift`` are ``_pair_gather``'s.  Returns a (..., pairs,
    m) array, pairs in the order of ``instance._ordered_pairs``, whose row
    p holds each item's row maximum once column i has dropped by the item's
    value for agent i and column j has gained it.  With three or more
    agents each row maximum also covers the bystanders, the n - 2 columns
    outside {i, j}, rescanned for every pair.  Every matrix of a stack gets
    the same arithmetic as on its own.  A C-contiguous ``yt`` gives the
    same floats faster: every gather copies whole agent rows.
    """
    # Row-major (..., n, pairs, m) copies, so per-pair sums reduce along
    # contiguous rows: each pair's columns i and j, shifted (adding -v is
    # subtracting v, bit for bit), then its bystanders, folded as whole
    # (pairs, m) blocks in that order.
    cols = yt.take(index, axis=-2)
    cols[..., :2, :, :] += shift
    return cols.max(axis=-3)


def convex_part(inst: Instance, y: np.ndarray) -> float:
    """The max-term of the objective: worst over pairs and items of the
    item's envied-column score plus the other items' shifted row maxima."""
    y = _require_box(inst, y, None)
    index, shift, _ = _pair_gather(inst)
    shifted = _shifted_rows(y.T, index, shift)
    total = shifted.sum(axis=1, keepdims=True)
    return float((y.T[index[1]] + (total - shifted)).max())


def rowmax_sum(y: np.ndarray) -> float:
    """The subtracted convex term: sum of per-item row maxima."""
    return float(np.asarray(y, dtype=float).max(axis=1).sum())


def dc_objective(inst: Instance, y: np.ndarray) -> float:
    """Piecewise-linear existence objective over score matrices.

    Difference of two convex terms, ``convex_part`` minus ``rowmax_sum``:
    the worst, over agent pairs and items, of the item's column-j score
    plus the shifted row maxima of all other items, minus the plain sum of
    row maxima.  Row-wise constant shifts cancel, and its infimum is <= 0
    exactly when an EFX allocation exists.
    """
    return convex_part(inst, y) - rowmax_sum(y)


def box_radius(inst: Instance) -> float:
    """Radius M of the score box [-M, 0]^(m x n) of the DC and fixed-point solvers.

    Encodings are faithful only when M is finite and strictly above twice
    the total mass.  Returns one more than twice the mass, which obeys that
    rule or raises ``ValueError``; it breaks the rule only by overflowing
    the float range or by rounding back to twice the mass.
    """
    with np.errstate(over="ignore"):
        twice = 2.0 * total_mass(inst)
    radius = twice + 1.0
    if twice < radius < np.inf:
        return radius
    raise ValueError(
        f"the box radius, twice the total mass ({twice!r}) plus one, overflows the float range"
        " or does not exceed twice the mass; rescale the values"
    )


def _require_box(inst: Instance, y: np.ndarray, m_const: float | None, stacked: bool = False) -> np.ndarray:
    """``y`` as a float items-by-agents matrix, or a (..., m, n) stack of
    them when ``stacked``, in the box [-m_const, 0] unless ``m_const`` is
    None.  Every public score readout takes its scores, and ``rounding_bound``
    and the Lovász readouts their point, through here: the shape is always
    checked, the box only for the boxed maps and starts (a NaN score lies
    in no box)."""
    y = np.asarray(y, dtype=float)
    if (y.shape[-2:] if stacked else y.shape) != (inst.m, inst.n):
        raise ValueError(f"scores must be an items-by-agents matrix of shape {(inst.m, inst.n)}, got {y.shape}")
    if m_const is not None:
        if not (np.maximum.reduce(y, None, initial=-np.inf) <= 0.0 and np.minimum.reduce(y, None, initial=0.0) >= -m_const):
            raise ValueError("scores must lie in the box [-M, 0]")
    return y


def encode_allocation(inst: Instance, alloc: Allocation) -> np.ndarray:
    """Score matrix of an allocation: zero at owner coordinates, -M elsewhere.

    M is ``box_radius(inst)``, strictly above twice the total mass, so
    that the objective at the encoding equals the allocation's exact EFX
    slack.  Owners outside 0..n-1, or not one per item, raise
    ``InstanceFormatError``.
    """
    _validate_allocation(inst, alloc.owner[None, :])
    y = np.full((inst.m, inst.n), -box_radius(inst))
    y[np.arange(inst.m), alloc.owner] = 0.0
    return y


def greedy_allocation(inst: Instance) -> Allocation:
    """Give each item to the agent valuing it most, ties to the smaller index."""
    return extract_allocation(inst.values)


def extract_allocation(y: np.ndarray) -> Allocation:
    """Row argmax extraction, ties to the smallest agent index."""
    return Allocation(np.argmax(np.asarray(y, dtype=float), axis=1))
