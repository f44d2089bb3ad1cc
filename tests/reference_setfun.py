"""Per-definition reference set functions behind the EFX constraints.

The reduced value of a bundle (its total minus its cheapest item) is the
quantity an envious agent compares against their own bundle.  The reduced
value is submodular and lets the whole EFX condition be phrased as a fixed
number of pairwise envy gaps, one per ordered agent pair.  These loops and
the generic ``lovasz_extension`` of an arbitrary set function read straight
off the definitions; the package's kernels are checked against them.
"""

from __future__ import annotations

import numpy as np

from efxkit.instance import Allocation, Instance


def bundle_value(inst: Instance, agent: int, items) -> float:
    """Agent's additive value for a set of item indices."""
    idx = np.asarray(list(items), dtype=int)
    if idx.size == 0:
        return 0.0
    return float(inst.values[idx, agent].sum())


def reduced_value(inst: Instance, agent: int, items) -> float:
    """Bundle value with the agent's cheapest item of the bundle removed.

    Empty bundles reduce to zero, which keeps every constraint against an
    empty bundle trivially satisfied.
    """
    idx = np.asarray(list(items), dtype=int)
    if idx.size == 0:
        return 0.0
    vals = inst.values[idx, agent]
    return float(vals.sum() - vals.min())


def envy_gap(inst: Instance, i: int, j: int, alloc: Allocation) -> float:
    """Agent i's envy toward agent j: reduced value of j's bundle minus
    the value of i's own bundle.  Nonpositive for every pair iff EFX."""
    own, envied = (np.flatnonzero(alloc.owner == agent) for agent in (i, j))
    return reduced_value(inst, i, envied) - bundle_value(inst, i, own)


def monotone_envy_gap(inst: Instance, i: int, j: int, alloc: Allocation) -> float:
    """Monotone form of the envy gap for normalized instances.

    Replaces the subtracted own-bundle value with the value of everything
    held by the other agents, which shifts each gap up by exactly one on
    partitions and makes the objective monotone in each bundle.
    """
    if not inst.normalized:
        raise ValueError("monotone envy gap requires a normalized instance")
    others = sum(
        bundle_value(inst, i, np.flatnonzero(alloc.owner == ell)) for ell in range(inst.n) if ell != i
    )
    return reduced_value(inst, i, np.flatnonzero(alloc.owner == j)) + others


def max_envy_gap(inst: Instance, alloc: Allocation, monotone: bool | None = None) -> float:
    """Worst envy gap over ordered pairs; EFX iff <= 0 (raw form) or <= 1
    (monotone form).  ``monotone=None`` picks the monotone form exactly
    when the instance is normalized."""
    if monotone is None:
        monotone = inst.normalized
    gap = monotone_envy_gap if monotone else envy_gap
    return max(
        gap(inst, i, j, alloc) for i in range(inst.n) for j in range(inst.n) if i != j
    )


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
