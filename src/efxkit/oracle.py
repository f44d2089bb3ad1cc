"""Exhaustive ground truth for desk-scale instances.

Scans every owner vector in a fixed mixed-radix order (item 0 is the most
significant digit) and applies the EFX check to each.  The items split at
``m // 2`` into a prefix (the most significant digits) and a suffix; the
pair tables of every suffix row are built once (per block when n is so
large that they would not fit), and each block of prefix rows is combined
with them by broadcast, O(n^2) per allocation with no per-allocation
decode.  The scan stays single-threaded and prefix-major,
so results and witness order are deterministic.  A guard caps the search
at 10^7 owner vectors; nothing in this package concludes "no EFX
allocation exists" except this scan, run within the guard.  The EFX
slack is read from ``instance._envy_gaps``, the kernel behind ``is_efx``,
so the scan and the single-allocation check agree bit for bit by
construction.  The smallest worst-pair slack over the scan is the exact
integral minimum of the existence objective: an EFX allocation exists
exactly when it is nonpositive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import DEFAULT_EFX_TOL, Allocation, Instance, _envy_gaps, _half_tables, _halves, _split

SCAN_GUARD = 10**7
WITNESS_CAP = 64
_BLOCK = 1 << 15  # pair entries per combined block
_TABLE_CAP = 1 << 20  # pair entries of suffix tables kept for the whole scan


class OracleGuardError(ValueError):
    """Raised when the owner-vector space exceeds the scan guard."""


@dataclass(frozen=True)
class OracleResult:
    exists: bool
    witnesses: list  # first EFX allocations found, capped
    witness_count: int  # exact total over the whole scan
    allocations_scanned: int
    min_slack: float  # smallest worst-pair EFX slack over the whole scan


def _decode_owners(codes: np.ndarray, m: int, n: int) -> np.ndarray:
    """Mixed-radix decode of scan indices into (len(codes), m) owner rows."""
    owners = np.empty((codes.size, m), dtype=int)
    rest = codes.copy()
    for k in range(m - 1, -1, -1):
        owners[:, k] = rest % n
        rest //= n
    return owners


def _worst_gap(gaps: np.ndarray) -> np.ndarray:
    """Largest pair gap of each allocation."""
    return gaps.max(axis=(0, 1))


def batch_efx_slack(inst: Instance, owners: np.ndarray) -> np.ndarray:
    """Worst EFX slack for each owner row, vectorized over allocations."""
    return _worst_gap(_envy_gaps(*_halves(inst, np.asarray(owners, dtype=int))))


def _scan(inst: Instance, guard: int):
    """Every owner vector in scan order, block by block, as (prefix owner
    rows, suffix owner rows, worst pair gap of each prefix row with each
    suffix row); raises before scanning past the guard.

    A block pairs consecutive prefix rows with consecutive suffix rows and
    holds about ``_BLOCK`` pair entries; it spans several prefix rows only
    when it spans every suffix row, so row-major order within a block is
    the scan order.  The suffix tables are built once when they hold at
    most ``_TABLE_CAP`` entries, and per block otherwise.
    """
    m, n = inst.m, inst.n
    size = n**m
    if size > guard:
        raise OracleGuardError(
            f"scan of {n}^{m} = {size} owner vectors exceeds the guard of {guard}"
        )
    p = _split(m)
    prefix_values, suffix_values = inst.values[:p], inst.values[p:]
    pairs = n * (n - 1)
    suffix_size = n ** (m - p)
    suffix_step = min(suffix_size, max(1, _BLOCK // pairs))
    prefix_step = max(1, _BLOCK // (suffix_size * pairs))
    suffix_owners = _decode_owners(np.arange(suffix_size), m - p, n)
    cached = None
    if suffix_size * pairs <= _TABLE_CAP:
        cached = _half_tables(suffix_values, suffix_owners)
    for start in range(0, n**p, prefix_step):
        owners = _decode_owners(np.arange(start, min(start + prefix_step, n**p)), p, n)
        prefix = [table[..., None] for table in _half_tables(prefix_values, owners)]
        for cut in range(0, suffix_size, suffix_step):
            rows = suffix_owners[cut : cut + suffix_step]
            if cached is None:
                tables = _half_tables(suffix_values, rows)
            else:
                tables = [table[..., cut : cut + suffix_step] for table in cached]
            suffix = [table[..., None, :] for table in tables]
            yield owners, rows, _worst_gap(_envy_gaps(prefix, suffix))


def enumerate_efx(
    inst: Instance,
    cap: int = WITNESS_CAP,
    tol: float = DEFAULT_EFX_TOL,
    guard: int = SCAN_GUARD,
) -> OracleResult:
    """Scan every allocation; report existence, witnesses, exact counts
    and the smallest worst-pair slack.

    The witness list is truncated at ``cap`` but ``witness_count`` is always
    the exact number of EFX allocations over the full scan.
    """
    witnesses: list[Allocation] = []
    count = 0
    min_slack = np.inf
    for prefix, suffix, slack in _scan(inst, guard):
        min_slack = min(min_slack, slack.min())
        a, b = np.nonzero(slack <= tol)
        count += a.size
        keep = max(0, cap - len(witnesses))
        witnesses.extend(map(Allocation, np.hstack([prefix[a[:keep]], suffix[b[:keep]]])))
    return OracleResult(
        exists=count > 0,
        witnesses=witnesses,
        witness_count=count,
        allocations_scanned=inst.n**inst.m,
        min_slack=float(min_slack),
    )
