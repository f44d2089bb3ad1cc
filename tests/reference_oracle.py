"""Per-pair reference for the exhaustive oracle's scan.

Every owner vector is decoded in full and each ordered agent pair (i, j)
masks all m items for its bundle sums and minima, which costs O(n^2 m)
per allocation but reads straight off the definition.  The split-table
scan in ``efxkit.oracle`` is checked against these loops: verdicts,
counts and witness order exactly, slack and objective values to 1e-12.
``min_max_envy``, the exact minimum of the monotone worst envy gap, is
kept verbatim from before the package read that minimum off its one
scan as ``OracleResult.min_slack``; its result type is the package's
earlier four-field ``OracleResult``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from efxkit.instance import DEFAULT_EFX_TOL, Allocation, Instance
from efxkit.oracle import SCAN_GUARD, WITNESS_CAP, OracleGuardError

_CHUNK = 1 << 15


@dataclass(frozen=True)
class OracleResult:
    exists: bool
    witnesses: list  # first EFX allocations found, capped
    witness_count: int  # exact total over the whole scan
    allocations_scanned: int


def _pair_gaps(inst: Instance, owners: np.ndarray, monotone: bool = False):
    """Envy gap of every ordered agent pair for each owner row.

    Yields ``(i, j, gaps)`` for i != j in row-major pair order, where
    ``gaps`` holds, per owner row, agent i's reduced value for agent j's
    bundle (the masked bundle sum minus the masked bundle minimum, zero
    for an empty bundle) minus i's own bundle value, or, with
    ``monotone``, plus the value of everything i does not hold.  Positive
    gaps in the plain form are EFX violations.  Pairs are yielded one at
    a time so a scan keeps only (rows, m) arrays alive.
    """
    n = inst.n
    masks = [owners == j for j in range(n)]
    for i in range(n):
        column = inst.values[:, i]
        if monotone:
            base = np.where(~masks[i], column, 0.0).sum(axis=1)
        else:
            base = -np.where(masks[i], column, 0.0).sum(axis=1)
        for j in range(n):
            if i == j:
                continue
            sums = np.where(masks[j], column, 0.0).sum(axis=1)
            mins = np.where(masks[j], column, np.inf).min(axis=1)
            reduced = np.where(np.isinf(mins), 0.0, sums - mins)
            yield i, j, reduced + base


def _decode_owners(codes: np.ndarray, m: int, n: int) -> np.ndarray:
    """Mixed-radix decode of scan indices into (len(codes), m) owner rows."""
    owners = np.empty((codes.size, m), dtype=int)
    rest = codes.copy()
    for k in range(m - 1, -1, -1):
        owners[:, k] = rest % n
        rest //= n
    return owners


def _worst_gap(inst: Instance, owners: np.ndarray, monotone: bool = False) -> np.ndarray:
    """Largest pair gap for each owner row."""
    return functools.reduce(np.maximum, (gap for _, _, gap in _pair_gaps(inst, owners, monotone)))


def batch_efx_slack(inst: Instance, owners: np.ndarray) -> np.ndarray:
    """Worst EFX slack for each owner row, vectorized over allocations."""
    return _worst_gap(inst, np.asarray(owners, dtype=int))


def _scan(inst: Instance, guard: int, monotone: bool = False):
    """Every owner vector in scan order, chunk by chunk, as (owner rows,
    worst pair gap per row); raises before scanning past the guard."""
    size = inst.n**inst.m
    if size > guard:
        raise OracleGuardError(
            f"scan of {inst.n}^{inst.m} = {size} owner vectors exceeds the guard of {guard}"
        )
    for start in range(0, size, _CHUNK):
        owners = _decode_owners(np.arange(start, min(start + _CHUNK, size)), inst.m, inst.n)
        yield owners, _worst_gap(inst, owners, monotone)


def enumerate_efx(
    inst: Instance,
    cap: int = WITNESS_CAP,
    tol: float = DEFAULT_EFX_TOL,
    guard: int = SCAN_GUARD,
) -> OracleResult:
    """Scan every allocation; report existence, witnesses, and exact counts.

    The witness list is truncated at ``cap`` but ``witness_count`` is always
    the exact number of EFX allocations over the full scan.
    """
    witnesses: list[Allocation] = []
    count = 0
    for owners, slack in _scan(inst, guard):
        hits = np.flatnonzero(slack <= tol)
        count += hits.size
        for row in hits:
            if len(witnesses) >= cap:
                break
            witnesses.append(Allocation(owners[row]))
    return OracleResult(
        exists=count > 0,
        witnesses=witnesses,
        witness_count=count,
        allocations_scanned=inst.n**inst.m,
    )


def min_max_envy(inst: Instance, guard: int = SCAN_GUARD) -> tuple[float, Allocation]:
    """Exact minimum of the monotone worst envy gap over all allocations.

    The minimum is at most one exactly when an EFX allocation exists.  Ties
    go to the earliest owner vector in scan order.
    """
    if not inst.normalized:
        raise ValueError("the monotone envy objective requires a normalized instance")
    best_value = np.inf
    best_owner: np.ndarray | None = None
    for owners, objective in _scan(inst, guard, monotone=True):
        pick = int(np.argmin(objective))
        if objective[pick] < best_value:
            best_value = float(objective[pick])
            best_owner = owners[pick].copy()
    assert best_owner is not None
    return best_value, Allocation(best_owner)
