"""Problem instances, allocations, and the EFX check.

An instance is an m x n matrix of nonnegative item values: entry (k, i) is
agent i's value for item k, and every agent values a bundle by the sum of
its item values.  An allocation assigns each item to exactly one agent.
The allocation is EFX (envy-free up to any good) when no agent would prefer
another agent's bundle even after removing that bundle's cheapest item
from the comparison.  Every EFX slack in the package (``is_efx`` and the
oracle's batched scan and its exact minimum slack) is read from one
kernel, ``_reduced_values``, which yields agent i's reduced value for
agent j's bundle.  It combines two half tables: the items split at
``m // 2`` into a prefix and a suffix, bundle sums add across the halves
and bundle minima take the smaller, so one allocation costs O(n^2).
``_envy_gaps`` clamps an empty bundle's -inf at zero and adds each agent's
base term (minus its own bundle value) to every pair for ``is_efx``;
``_worst_gap``, the scan's readout, folds the rivals first, unclamped, and
adds the base term once per agent.  Both are exact: rounding a sum is
monotone, and the clamp only lifts a pair whose rival holds nothing, to
at most +0.0, which that rival's own gap already reaches.
The order of the ordered pairs has one home, ``_ordered_pairs``: i-major,
j ascending.  Every pair loop of the package reads it, so it fixes the
order of ``is_efx``'s violations, the rows of the descent LP and the
summation order of the smoothed bound.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLUMN_SUM_TOL = 1e-12
DEFAULT_EFX_TOL = 1e-9


class InstanceFormatError(ValueError):
    """Raised when an instance or allocation document is malformed."""


class InternalCheckError(RuntimeError):
    """An invariant the solvers rely on failed at run time."""


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
        values = np.array(self.values, dtype=float, order="C")  # the solvers' sums follow the layout
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
        owner = np.array(self.owner, dtype=int)
        owner.setflags(write=False)
        object.__setattr__(self, "owner", owner)
        if owner.ndim != 1:
            raise InstanceFormatError("owner must be a flat item -> agent vector")


@dataclass(frozen=True)
class EfxReport:
    """Outcome of the EFX check with one entry per violated ordered pair."""

    ok: bool
    violations: list  # (envious agent, envied agent, positive slack)
    slack: float

    def __bool__(self) -> bool:
        return self.ok


def load_instance(source) -> Instance:
    """Build an Instance from a document.

    ``source`` may be a parsed dict or the path to a JSON file.
    The document must carry the keys ``m``, ``n`` and ``values``, with
    ``values`` a row-major list of m item rows of n entries each.  Other
    keys are ignored, so a ``gen`` document, with its ``schema_version``
    and ``config``, loads as it is.
    """
    doc = _read_document(source, "instance")
    for key in ("m", "n", "values"):
        if key not in doc:
            raise InstanceFormatError(f"instance document is missing the {key!r} key")
    m, n = doc["m"], doc["n"]
    if any(not isinstance(size, int) or isinstance(size, bool) for size in (m, n)):
        raise InstanceFormatError("m and n must be integers")
    return Instance(_read_matrix(doc["values"], m, n, "values"))


def _read_matrix(rows, m: int, n: int, key: str) -> np.ndarray:
    """The (m, n) float matrix a document lists as ``rows`` under ``key``.

    Every entry must be a JSON number, not a bool, that is finite as a
    float; errors name the first entry that is not.
    """
    if not isinstance(rows, list) or len(rows) != m:
        raise InstanceFormatError(f"{key} has {len(rows) if isinstance(rows, list) else 'no'} rows, expected m={m}")
    # Every row is measured before the allocation, which a huge n would fail.
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InstanceFormatError(f"{key}[{k}] is not a row of n={n} entries")
    matrix = np.empty((m, n))
    for k, row in enumerate(rows):
        for i, entry in enumerate(row):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise InstanceFormatError(f"{key}[{k}][{i}] is not a number")
            try:
                value = float(entry)
            except OverflowError:
                raise InstanceFormatError(f"{key}[{k}][{i}] is beyond the float range") from None
            if not math.isfinite(value):
                raise InstanceFormatError(f"{key}[{k}][{i}] is not a finite number")
            matrix[k, i] = value
    return matrix


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
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InstanceFormatError(f"cannot read {kind} file {path}: {exc}") from exc
        # json.loads recurses per nesting level; past the int digit limit it raises ValueError.
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InstanceFormatError(f"cannot parse {kind} file {path} as JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InstanceFormatError(f"{kind} document must be a JSON object")
        return doc
    raise InstanceFormatError(f"unsupported {kind} source {type(source).__name__}")


def total_mass(inst: Instance) -> float:
    """Sum of every agent's total value: the column sums, then their sum."""
    return float(inst.values.sum(axis=0).sum())


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


def _validate_allocation(inst: Instance, owners: np.ndarray) -> None:
    if owners.ndim != 2 or owners.shape[1] != inst.m:
        raise InstanceFormatError(f"owner rows have shape {owners.shape}, expected (allocations, m={inst.m})")
    if owners.size and (owners.min() < 0 or owners.max() >= inst.n):
        raise InstanceFormatError("allocation assigns an item to an agent outside 0..n-1")


@functools.cache
def _ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays for the n(n - 1) ordered agent pairs (i, j),
    i-major with j ascending: a (2, pairs) array of rows ``i`` and ``j``; an
    (n - 2, pairs) array whose column p lists pair p's bystanders, the
    agents outside {i, j}, ascending; and an (n - 1, n) array whose column
    j lists the pairs with that j, rivals ascending."""
    i, j = np.divmod(np.arange(n * n), n)
    keep = i != j
    pairs = np.stack((i[keep], j[keep]))
    outside = (np.arange(n) != pairs[0][:, None]) & (np.arange(n) != pairs[1][:, None])
    bystanders = np.nonzero(outside)[1].reshape(n * (n - 1), n - 2).T.copy()
    rivals = np.argsort(pairs[1], kind="stable").reshape(n, n - 1).T.copy()
    pairs.flags.writeable = bystanders.flags.writeable = rivals.flags.writeable = False
    return pairs, bystanders, rivals


def _split(m: int) -> int:
    """Number of prefix items; the split depends on m alone."""
    return m // 2


def _half_tables(values: np.ndarray, owners: np.ndarray):
    """Pair tables of one half of the items for each owner row.

    ``values`` holds the half's item rows and ``owners`` the matching
    (rows, items) owner columns.  Returns ``(sums, mins, base)``: agent
    i's sum and minimum over the items agent j holds in this half, shaped
    (n, n - 1, rows) in pair order, j running over the agents other than i
    (minimum ``inf`` where j holds none), and agent i's base term, shaped
    (n, rows): minus its own holdings.  Items are summed one after another
    in item order.
    """
    n = values.shape[1]
    agents = np.arange(n)
    others = _ordered_pairs(n)[0][1].reshape(n, n - 1)
    items = owners.T[:, None, :]
    held = items[:, None] == others[None, :, :, None]
    column = values[:, :, None, None]
    sums = np.where(held, column, 0.0).sum(axis=0)
    mins = np.where(held, column, np.inf).min(axis=0, initial=np.inf)
    base = -np.where(items == agents[None, :, None], values[:, :, None], 0.0).sum(axis=0)
    return sums, mins, base


def _halves(inst: Instance, owners: np.ndarray):
    """Prefix and suffix tables of each owner row, checked by ``_validate_allocation``."""
    _validate_allocation(inst, owners)
    p = _split(inst.m)
    return _half_tables(inst.values[:p], owners[:, :p]), _half_tables(inst.values[p:], owners[:, p:])


def _reduced_values(prefix, suffix) -> np.ndarray:
    """Agent i's reduced value for agent j's bundle, from a prefix and a
    suffix table: the bundle sum less its minimum, -inf for an empty bundle.

    The two tables broadcast against each other along their trailing
    allocation axes.  An allocation's bundle sums are the prefix sums plus
    the suffix sums and its bundle minima the smaller of the two.  Values
    are shaped (n, n - 1, ...) in row-major pair order.
    """
    values = prefix[0] + suffix[0]
    values -= np.minimum(prefix[1], suffix[1])
    return values


def _envy_gaps(prefix, suffix) -> np.ndarray:
    """Envy gap of every ordered agent pair, from a prefix and a suffix table:
    agent i's reduced value for j's bundle, zero for an empty bundle, minus
    i's own bundle value, shaped (n, n - 1, ...) in row-major pair order.
    Positive gaps are EFX violations.
    """
    gaps = np.maximum(_reduced_values(prefix, suffix), 0.0)
    gaps += (prefix[2] + suffix[2])[:, None]
    return gaps


def _worst_gap(prefix, suffix) -> np.ndarray:
    """Largest envy gap of each allocation, ``_envy_gaps(...).max(axis=(0, 1))``
    bit for bit.

    The rivals are folded before i's base term is added.  That is exact:
    fl(x + b) is monotone in x, so it commutes with the max over j.  No
    reduced value is -0.0, so no two equal zeros differ in sign: a
    difference is -0.0 only for -0.0 less 0.0, and a bundle sum is -0.0
    only when every item is in the bundle at -0.0, when its minimum is
    -0.0 as well.  The clamp at zero is skipped: it only lifts a pair whose
    rival j holds nothing, from -inf to at most +0.0, and j's own gap
    against an agent holding an item (m >= 1) is already at least +0.0.
    """
    worst = _reduced_values(prefix, suffix).max(axis=1)
    worst += prefix[2] + suffix[2]
    return worst.max(axis=0)


def is_efx(inst: Instance, alloc: Allocation, tol: float = DEFAULT_EFX_TOL) -> EfxReport:
    """Check every ordered pair's EFX constraint, allowing ``tol`` slack."""
    pair_gaps = _envy_gaps(*_halves(inst, alloc.owner[None, :])).ravel().tolist()
    violations = [gap for gap in zip(*_ordered_pairs(inst.n)[0].tolist(), pair_gaps) if gap[2] > tol]
    return EfxReport(ok=not violations, violations=violations, slack=max(pair_gaps))


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
