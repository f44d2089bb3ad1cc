"""Exhaustive ground truth for desk-scale instances.

Scans every owner vector in a fixed mixed-radix order (item 0 is the most
significant digit) and applies the EFX check to each.  The scan is chunked
and vectorized over allocations but stays single-threaded, so results and
witness order are deterministic.  A guard caps the search at 10^7 owner
vectors; nothing in this package concludes "no EFX allocation exists"
except this scan, run within the guard.  Both the EFX slack and the
monotone envy objective of each chunk are read from ``instance._pair_gaps``,
the kernel behind ``is_efx``, so the scan and the single-allocation check
agree bit for bit by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .instance import DEFAULT_EFX_TOL, Allocation, Instance, _pair_gaps

SCAN_GUARD = 10**7
WITNESS_CAP = 64
_CHUNK = 1 << 15


class OracleGuardError(ValueError):
    """Raised when the owner-vector space exceeds the scan guard."""


@dataclass(frozen=True)
class OracleResult:
    exists: bool
    witnesses: list  # first EFX allocations found, capped
    witness_count: int  # exact total over the whole scan
    allocations_scanned: int


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
