"""Exhaustive ground truth for desk-scale instances.

Scans every owner vector in a fixed mixed-radix order (item 0 is the most
significant digit), which is the row-major order of ``np.indices``, and
applies the EFX check to each.  The items split at ``m // 2`` into a
prefix (the most significant digits) and a suffix, a meet-in-the-middle
split: both halves' owner rows are read off ``np.indices`` and their pair
tables built once (per block when n is so large that they would not fit),
and each block of prefix rows is combined with suffix rows by broadcast,
O(n^2) per allocation.  A block of several prefix rows reads suffix
tables copied once per scan to its prefix-row count, so only the prefix
side broadcasts: numpy runs an elementwise op broadcast on both sides
markedly slower than one with a side materialized.  Each allocation's
worst gap folds the rivals before adding the envious agent's base term
and skips the clamp of an empty bundle's reduced value at zero, which the
worst gap never needs; both are exact (see ``instance._worst_gap``).
Once the witness list is full the scan only counts.  The scan stays
single-threaded and prefix-major, so results and witness order are
deterministic.  A guard caps the search at 10^7 owner vectors; nothing in
this package concludes "no EFX allocation exists" except this scan, run
within the guard.  The EFX slack is read from ``instance._reduced_values``,
the kernel behind ``is_efx``, so the scan and the single-allocation check
agree bit for bit by construction.  The smallest worst-pair slack over the
scan is the exact integral minimum of the existence objective: an EFX
allocation exists exactly when it is nonpositive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import DEFAULT_EFX_TOL, Allocation, Instance, _half_tables, _halves, _split, _worst_gap

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


def batch_efx_slack(inst: Instance, owners: np.ndarray) -> np.ndarray:
    """Worst EFX slack for each owner row, vectorized over allocations; rejects rows that are not allocations."""
    return _worst_gap(*_halves(inst, np.asarray(owners, dtype=int)))


def _scan(inst: Instance):
    """Every owner vector in scan order, block by block, as (prefix owner
    rows, suffix owner rows, worst pair gap of each prefix row with each
    suffix row); raises before scanning past ``SCAN_GUARD``.

    A block pairs consecutive prefix rows with consecutive suffix rows and
    holds about ``_BLOCK`` pair entries; it spans several prefix rows only
    when it spans every suffix row, so row-major order within a block is
    the scan order.  Both halves' owner rows are built once.  Their
    tables are built once too when the suffix tables hold at most
    ``_TABLE_CAP`` entries (the prefix half is never the larger), and per
    block otherwise.
    """
    m, n = inst.m, inst.n
    size = n**m
    if size > SCAN_GUARD:
        raise OracleGuardError(
            f"scan of {n}^{m} = {size} owner vectors exceeds the guard of {SCAN_GUARD}"
        )
    p = _split(m)
    pairs = n * (n - 1)
    suffix_size = n ** (m - p)
    suffix_step = min(suffix_size, max(1, _BLOCK // pairs))
    prefix_step = max(1, _BLOCK // (suffix_size * pairs))
    values = inst.values[:p], inst.values[p:]
    # reshape(k, -1) would fail on an empty prefix (k = 0).
    owners = [np.indices((n,) * k).reshape(k, n**k).T for k in (p, m - p)]
    cached = None
    if suffix_size * pairs <= _TABLE_CAP:
        cached = [_half_tables(*half) for half in zip(values, owners)]

    def tables(half: int, rows: slice):
        if cached is None:
            return _half_tables(values[half], owners[half][rows])
        return [table[..., rows] for table in cached[half]]

    # A block of several prefix rows spans every suffix row.  Its suffix
    # tables are materialized, at most about _BLOCK entries each, because
    # numpy runs an op broadcast on both sides markedly slower.
    tiled = None
    height = min(prefix_step, n**p)
    if cached is not None and height > 1:
        tiled = [np.repeat(table[..., None, :], height, axis=-2) for table in cached[1]]

    for start in range(0, n**p, prefix_step):
        rows = slice(start, start + prefix_step)
        prefix = [table[..., None] for table in tables(0, rows)]
        for cut in range(0, suffix_size, suffix_step):
            cols = slice(cut, cut + suffix_step)
            if tiled is None:
                suffix = [table[..., None, :] for table in tables(1, cols)]
            else:
                suffix = [table[..., : prefix[0].shape[-2], :] for table in tiled]
            yield owners[0][rows], owners[1][cols], _worst_gap(prefix, suffix)


def enumerate_efx(inst: Instance, cap: int = WITNESS_CAP, tol: float = DEFAULT_EFX_TOL) -> OracleResult:
    """Scan every allocation; report existence, witnesses, exact counts
    and the smallest worst-pair slack.

    The witness list is truncated at ``cap`` but ``witness_count`` is always
    the exact number of EFX allocations over the full scan.  An instance
    with more than ``SCAN_GUARD`` owner vectors raises ``OracleGuardError``.
    """
    witnesses: list[Allocation] = []
    count = 0
    min_slack = np.inf
    for prefix, suffix, slack in _scan(inst):
        min_slack = min(min_slack, slack.min())
        if len(witnesses) >= cap:
            count += int(np.count_nonzero(slack <= tol))
            continue
        a, b = np.nonzero(slack <= tol)
        count += a.size
        keep = cap - len(witnesses)
        witnesses.extend(map(Allocation, np.hstack([prefix[a[:keep]], suffix[b[:keep]]])))
    return OracleResult(
        exists=count > 0,
        witnesses=witnesses,
        witness_count=count,
        allocations_scanned=inst.n**inst.m,
        min_slack=float(min_slack),
    )
