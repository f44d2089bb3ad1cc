"""Problem instances, allocations, and the EFX check.

An instance is an m x n matrix of nonnegative item values: entry (k, i) is
agent i's value for item k, and every agent values a bundle by the sum of
its item values.  An allocation assigns each item to exactly one agent.
The allocation is EFX (envy-free up to any good) when no agent would prefer
another agent's bundle even after removing that bundle's cheapest item
from the comparison.  Every EFX slack in the package (``efx_slack``,
``is_efx`` and the oracle's batched scan and monotone objective) is read
from one kernel, ``_envy_gaps``, which yields the envy gap of each
ordered agent pair.  It combines two half tables: the items split at
``m // 2`` into a prefix and a suffix, bundle sums add across the halves
and bundle minima take the smaller, so one allocation costs O(n^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLUMN_SUM_TOL = 1e-12
DEFAULT_EFX_TOL = 1e-9


class InstanceFormatError(ValueError):
    """Raised when an instance or allocation document is malformed."""


class ZeroColumnError(ValueError):
    """Raised when normalization meets an agent whose values are all zero."""

    def __init__(self, agents):
        self.agents = list(agents)
        super().__init__(f"cannot normalize: agents {self.agents} value every item at zero")


@dataclass(frozen=True)
class Instance:
    """A valuation matrix with shape (items, agents).

    ``normalized`` records that every column sums to one; it is verified at
    construction time so downstream code can trust the flag.
    """

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values = np.array(values, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise InstanceFormatError("values must be a 2-D matrix of item rows")
        m, n = values.shape
        if m < 1:
            raise InstanceFormatError("need at least one item")
        if n < 2:
            raise InstanceFormatError("need at least two agents")
        if not np.all(np.isfinite(values)):
            raise InstanceFormatError("values must be finite")
        if np.any(values < 0):
            k, i = np.argwhere(values < 0)[0]
            raise InstanceFormatError(f"values[{k}][{i}] is negative")
        with np.errstate(over="ignore"):
            sums = values.sum(axis=0)
        if not np.all(np.isfinite(sums)):
            bad = int(np.flatnonzero(~np.isfinite(sums))[0])
            raise InstanceFormatError(f"column {bad} sums to {float(sums[bad])}, beyond the float range")
        if self.normalized:
            if np.any(np.abs(sums - 1.0) > COLUMN_SUM_TOL):
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise InstanceFormatError(
                    f"normalized flag set but column {bad} sums to {sums[bad]!r}"
                )

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Allocation:
    """Owner vector: ``owner[k]`` is the 0-based agent holding item k."""

    owner: np.ndarray

    def __post_init__(self):
        owner = np.asarray(self.owner, dtype=int)
        owner = np.array(owner, copy=True)
        owner.setflags(write=False)
        object.__setattr__(self, "owner", owner)
        if owner.ndim != 1:
            raise InstanceFormatError("owner must be a flat item -> agent vector")

    def bundle(self, agent: int) -> np.ndarray:
        """Indices of the items held by ``agent``."""
        return np.flatnonzero(self.owner == agent)


@dataclass(frozen=True)
class TotalMass:
    """Per-agent value totals and their grand total."""

    per_agent: np.ndarray
    total: float


@dataclass(frozen=True)
class EfxReport:
    """Outcome of the EFX check with one entry per violated ordered pair."""

    ok: bool
    violations: list  # (envious agent, envied agent, positive slack)
    slack: float

    def __bool__(self) -> bool:
        return self.ok


def make_instance(values, normalized: bool = False) -> Instance:
    return Instance(np.asarray(values, dtype=float), normalized=normalized)


def load_instance(source) -> Instance:
    """Build an Instance from a document.

    ``source`` may be a parsed dict, a path to a JSON file, or a JSON string.
    The document must carry exactly the keys ``m``, ``n`` and ``values``,
    with ``values`` a row-major list of m item rows of n entries each.
    """
    doc = _read_document(source, "instance")
    for key in ("m", "n", "values"):
        if key not in doc:
            raise InstanceFormatError(f"instance document is missing the {key!r} key")
    m, n = doc["m"], doc["n"]
    if not isinstance(m, int) or not isinstance(n, int):
        raise InstanceFormatError("m and n must be integers")
    rows = doc["values"]
    if not isinstance(rows, list) or len(rows) != m:
        raise InstanceFormatError(f"values has {len(rows) if isinstance(rows, list) else 'no'} rows, expected m={m}")
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InstanceFormatError(f"values[{k}] is not a row of n={n} entries")
        for i, entry in enumerate(row):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise InstanceFormatError(f"values[{k}][{i}] is not a number")
            if entry < 0:
                raise InstanceFormatError(f"values[{k}][{i}] is negative")
    return Instance(np.asarray(rows, dtype=float))


def instance_to_doc(inst: Instance) -> dict:
    return {"m": inst.m, "n": inst.n, "values": [list(map(float, row)) for row in inst.values]}


def load_allocation(source, inst: Instance) -> Allocation:
    """Read an allocation document ``{"owner": [...]}`` with 1-based agents."""
    doc = _read_document(source, "allocation")
    if "owner" not in doc:
        raise InstanceFormatError("allocation document is missing the 'owner' key")
    owner = doc["owner"]
    if not isinstance(owner, list) or len(owner) != inst.m:
        raise InstanceFormatError(f"owner must list exactly m={inst.m} entries")
    for k, agent in enumerate(owner):
        if not isinstance(agent, int) or isinstance(agent, bool):
            raise InstanceFormatError(f"owner[{k}] is not an integer")
        if not 1 <= agent <= inst.n:
            raise InstanceFormatError(f"owner[{k}]={agent} is outside 1..{inst.n}")
    return Allocation(np.asarray(owner, dtype=int) - 1)


def allocation_to_doc(alloc: Allocation) -> dict:
    return {"owner": [int(a) + 1 for a in alloc.owner]}


def _read_document(source, kind: str) -> dict:
    if isinstance(source, dict):
        return source
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise InstanceFormatError(f"cannot read {kind} file {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"{kind} file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InstanceFormatError(f"{kind} document must be a JSON object")
        return doc
    raise InstanceFormatError(f"unsupported {kind} source {type(source).__name__}")


def total_mass(inst: Instance) -> TotalMass:
    per_agent = inst.values.sum(axis=0)
    return TotalMass(per_agent=per_agent, total=float(per_agent.sum()))


def normalize(inst: Instance) -> Instance:
    """Rescale every agent's column to sum to one.

    Rescaling an agent's values by a positive constant never changes which
    allocations are EFX, so normalized instances are interchangeable with
    their raw originals for every check in this package.
    """
    sums = inst.values.sum(axis=0)
    zero = np.flatnonzero(sums == 0.0)
    if zero.size:
        raise ZeroColumnError(zero.tolist())
    return Instance(inst.values / sums, normalized=True)


def _validate_allocation(inst: Instance, alloc: Allocation) -> None:
    if alloc.owner.shape != (inst.m,):
        raise InstanceFormatError(f"allocation covers {alloc.owner.shape[0]} items, expected m={inst.m}")
    if alloc.owner.size and (alloc.owner.min() < 0 or alloc.owner.max() >= inst.n):
        raise InstanceFormatError("allocation assigns an item to an agent outside 0..n-1")


def _split(m: int) -> int:
    """Number of prefix items; the split depends on m alone."""
    return m // 2


def _half_tables(values: np.ndarray, owners: np.ndarray, monotone: bool = False):
    """Pair tables of one half of the items for each owner row.

    ``values`` holds the half's item rows and ``owners`` the matching
    (rows, items) owner columns.  Returns ``(sums, mins, base)``: agent
    i's sum and minimum over the items agent j holds in this half, shaped
    (n, n - 1, rows) with j running over the agents other than i in order
    (minimum ``inf`` where j holds none), and agent i's base term, shaped
    (n, rows): minus its own holdings or, with ``monotone``, plus what it
    does not hold.  Items are summed one after another in item order.
    """
    agents = np.arange(values.shape[1])
    others = agents[1:] - (agents[1:] <= agents[:, None])
    items = owners.T[:, None, :]
    held = items[:, None] == others[None, :, :, None]
    column = values[:, :, None, None]
    sums = np.where(held, column, 0.0).sum(axis=0)
    mins = np.where(held, column, np.inf).min(axis=0, initial=np.inf)
    own = items == agents[None, :, None]
    if monotone:
        base = np.where(own, 0.0, values[:, :, None]).sum(axis=0)
    else:
        base = -np.where(own, values[:, :, None], 0.0).sum(axis=0)
    return sums, mins, base


def _halves(inst: Instance, owners: np.ndarray, monotone: bool = False):
    """Prefix and suffix tables of each owner row."""
    p = _split(inst.m)
    return (
        _half_tables(inst.values[:p], owners[:, :p], monotone),
        _half_tables(inst.values[p:], owners[:, p:], monotone),
    )


def _envy_gaps(prefix, suffix) -> np.ndarray:
    """Envy gap of every ordered agent pair, from a prefix and a suffix table.

    The two tables broadcast against each other along their trailing
    allocation axes.  An allocation's bundle sums are the prefix sums plus
    the suffix sums and its bundle minima the smaller of the two, so agent
    i's reduced value for j's bundle is their difference (zero for an
    empty bundle).  The gap adds i's base term; gaps are shaped
    (n, n - 1, ...) in row-major pair order, and positive gaps in the
    plain form are EFX violations.  Every EFX slack and monotone objective
    in the package is read from here.
    """
    gaps = prefix[0] + suffix[0]
    gaps -= np.minimum(prefix[1], suffix[1])
    np.maximum(gaps, 0.0, out=gaps)  # reduced values, zero for empty bundles
    gaps += (prefix[2] + suffix[2])[:, None]
    return gaps


def efx_slack(inst: Instance, alloc: Allocation) -> float:
    """Largest EFX constraint violation over ordered agent pairs.

    Nonpositive slack certifies the allocation is EFX; the sign is the
    quantity every solver in this package tries to drive below zero.
    """
    return is_efx(inst, alloc).slack


def is_efx(inst: Instance, alloc: Allocation, tol: float = DEFAULT_EFX_TOL) -> EfxReport:
    """Check every ordered pair's EFX constraint, allowing ``tol`` slack."""
    _validate_allocation(inst, alloc)
    pair_gaps = _envy_gaps(*_halves(inst, alloc.owner[None, :]))[:, :, 0]
    gaps = [
        (i, j, float(pair_gaps[i, j - (j > i)])) for i in range(inst.n) for j in range(inst.n) if i != j
    ]
    violations = [gap for gap in gaps if gap[2] > tol]
    return EfxReport(ok=not violations, violations=violations, slack=max(gap[2] for gap in gaps))


def generate_instance(m: int, n: int, dist: str, seed: int, kmax: int = 10) -> Instance:
    """Draw a random instance: ``uniform01``, ``integer`` (1..kmax), or
    ``identical`` (all agents share one uniform column)."""
    if m < 1 or n < 2:
        raise InstanceFormatError("generation needs m >= 1 items and n >= 2 agents")
    rng = np.random.default_rng(seed)
    if dist == "uniform01":
        values = rng.random((m, n))
    elif dist == "integer":
        if kmax < 1:
            raise InstanceFormatError("integer distribution needs kmax >= 1")
        values = rng.integers(1, kmax + 1, size=(m, n)).astype(float)
    elif dist == "identical":
        column = rng.random(m)
        values = np.tile(column[:, None], (1, n))
    else:
        raise InstanceFormatError(f"unknown distribution {dist!r}")
    return Instance(values)
