"""Workload definitions, seeded input documents and output checks.

A workload is a fixed mix of instance shapes.  One *round* holds one fresh
instance of every shape, and a *verdict* is the CLI work done for one
instance.  Runs execute whole rounds, so every run samples the shapes in
the same proportions and a run-level median or rate compares across seeds.
Inputs come only from the benchmark seed: the program receives the
generated documents and nothing else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from efxkit.instance import DEFAULT_EFX_TOL, Allocation, Instance, is_efx

# Rounds of input documents written per second of run, over the nominal
# pace; a run that finishes them all starts over from the first round.
POOL_HEADROOM = 3
WARMUP_SHAPE = (4, 2, "uniform01")
INTEGER_KMAX = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: tuple  # (m, n, distribution) per instance of a round
    round_s: float  # nominal seconds per round; sizes the traced pass and the input pool
    commands: Callable  # (instance path, y path, cli seed) -> list of argv


def _oracle(inst, y, seed):
    return [["oracle", "--instance", inst]]


def _dca(inst, y, seed):
    return [["dca", "--starts", "4", "--seed", str(seed), "--instance", inst]]


def _fixedpoint(inst, y, seed):
    return [["fixedpoint", "--starts", "8", "--seed", str(seed), "--instance", inst]]


def _compare(inst, y, seed):
    return [
        ["compare", "--seed", str(seed), "--instance", inst],
        ["extension", "eval", "--instance", inst, "--y", y],
    ]


# Shapes within a workload are chosen so that verdict times overlap or are
# fixed by the shape alone: a median over a mix of shapes whose times do not
# overlap falls between two shapes' extremes and jumps from run to run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle_scan",
            "exhaustive scan at the guard's desk-scale edge, bypassing LP and score kernels; ties and identical columns vary witness density",
            ((12, 3, "uniform01"), (11, 3, "integer"), (9, 4, "uniform01"), (8, 4, "identical")),
            2.3,
            _oracle,
        ),
        Workload(
            "dca_descent",
            "isolates the dense simplex under DCA on 144-row LPs; integer ties make degenerate LPs so pivot counts vary",
            ((6, 3, "uniform01"), (6, 3, "integer")),
            1.0,
            _dca,
        ),
        Workload(
            "picard_hunt",
            "score-matrix kernels under Picard iteration to convergence, where transfer_gain dominates",
            ((10, 5, "uniform01"),),
            0.75,
            _fixedpoint,
        ),
        Workload(
            "compare_pipeline",
            "every layer as many small calls where per-call cost dominates; only path to lovasz and rounding_bound",
            ((6, 2, "uniform01"), (5, 3, "identical"), (4, 3, "uniform01"), (5, 3, "integer")),
            1.7,
            _compare,
        ),
    )
}


def draw_values(rng: np.random.Generator, m: int, n: int, dist: str) -> np.ndarray:
    """Valuation matrix drawn by the benchmark itself, not by the program."""
    if dist == "uniform01":
        return rng.random((m, n))
    if dist == "integer":
        return rng.integers(1, INTEGER_KMAX + 1, size=(m, n)).astype(float)
    if dist == "identical":
        return np.tile(rng.random(m)[:, None], (1, n))
    raise ValueError(f"unknown distribution {dist!r}")


@dataclass(frozen=True)
class Verdict:
    """CLI work for one instance: its shape, values and argv lists."""

    shape: tuple
    values: np.ndarray
    invocations: list


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _instance_docs(values: np.ndarray, rng: np.random.Generator, stem: Path) -> tuple[str, str]:
    m, n = values.shape
    inst = _write(stem.with_suffix(".json"), {"m": m, "n": n, "values": values.tolist()})
    box = 2.0 * float(values.sum()) + 1.0
    y = _write(stem.with_suffix(".y.json"), {"y": rng.uniform(-box, 0.0, size=(m, n)).tolist()})
    return inst, y


def prepare(workload: Workload, seed: int, seconds: int, directory: Path) -> tuple[list, list]:
    """Write the run's input documents; return (warm-up verdicts, rounds).

    Every document and every CLI seed is drawn from ``seed`` alone, so the
    same seed always yields the same inputs; a longer run only appends
    rounds.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])

    def verdict(shape, stem):
        values = draw_values(rng, *shape)
        inst, y = _instance_docs(values, rng, directory / stem)
        cli_seed = int(rng.integers(0, 2**31 - 1))
        return Verdict(shape, values, workload.commands(inst, y, cli_seed))

    warmup = [verdict(WARMUP_SHAPE, "warmup")]
    rounds = [
        [verdict(shape, f"r{r:02d}-{c}") for c, shape in enumerate(workload.shapes)]
        for r in range(math.ceil(POOL_HEADROOM * seconds / workload.round_s))
    ]
    return warmup, rounds


class CheckFailure(Exception):
    pass


def _strict_json(text: str) -> dict:
    def reject(constant):
        raise CheckFailure(f"document holds non-JSON constant {constant}")

    try:
        doc = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"document is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckFailure("document is not a JSON object")
    return doc


def _efx_guaranteed(values: np.ndarray) -> bool:
    """EFX exists for n <= 3 additive agents (Chaudhury, Garg & Mehlhorn,
    EC 2020) and for identical valuations (Plaut & Roughgarden, SIAM J.
    Discrete Math 2020)."""
    return values.shape[1] <= 3 or bool(np.all(values == values[:, :1]))


def _recheck(inst: Instance, owner: list, tol: float) -> bool:
    return is_efx(inst, Allocation(np.asarray(owner, dtype=int) - 1), tol).ok


def check(verdict: Verdict, outputs: list) -> tuple[list, int, int]:
    """Check the outputs of one verdict.

    ``outputs`` holds (exit code, stdout text) per invocation.  Returns the
    failure messages, one per failed invocation, and the counts behind
    ``efx_found_rate``: (attempts, attempts with an EFX allocation that an
    independent ``is_efx`` recheck confirms).
    """
    inst = Instance(verdict.values)
    failures = []
    tries = found = 0
    for argv, (code, text) in zip(verdict.invocations, outputs):
        try:
            if code != 0:
                raise CheckFailure(f"exit code {code}")
            doc = _strict_json(text)
            t, f = _check_document(argv[0], doc, inst, verdict.values)
            tries += t
            found += f
        except (CheckFailure, KeyError, TypeError, ValueError) as exc:
            failures.append(f"{' '.join(argv)}: {exc}")
    return failures, tries, found


def _check_document(command: str, doc: dict, inst: Instance, values: np.ndarray) -> tuple[int, int]:
    if command == "oracle":
        witnesses = doc["witnesses"]
        tol = doc["config"]["tol"]
        if doc["witness_count"] < len(witnesses):
            raise CheckFailure(f"witness_count {doc['witness_count']} < {len(witnesses)} listed")
        if doc["exists"] != (doc["witness_count"] > 0):
            raise CheckFailure("exists disagrees with witness_count")
        if doc["allocations_scanned"] != inst.n**inst.m:
            raise CheckFailure(f"scanned {doc['allocations_scanned']} of {inst.n**inst.m} allocations")
        if not doc["exists"] and _efx_guaranteed(values):
            raise CheckFailure("no EFX verdict where EFX is known to exist")
        for owner in witnesses:
            if not _recheck(inst, owner, tol):
                raise CheckFailure(f"witness {owner} fails the EFX recheck")
        return 1, int(doc["exists"])
    if command in ("dca", "fixedpoint"):
        confirmed = _recheck(inst, doc["owner"], DEFAULT_EFX_TOL)
        if doc["efx"] != confirmed:
            raise CheckFailure(f"document says efx={doc['efx']}, recheck says {confirmed}")
        return 1, int(confirmed)
    if command == "compare":
        bad = [f for f in doc["findings"] if f["flag"] in ("disagreement", "method-error")]
        if bad:
            raise CheckFailure(f"findings {bad}")
        if not doc["oracle_exists"] and _efx_guaranteed(values):
            raise CheckFailure("oracle row says no EFX where EFX is known to exist")
        solvers = doc["rows"][1:]
        return len(solvers), sum(bool(row["found_efx"]) for row in solvers)
    if command == "extension":
        if not isinstance(doc["f"], float) or len(doc["g"]) != len(doc["bound"]):
            raise CheckFailure("extension document lacks f or a g per temperature")
        return 0, 0
    raise CheckFailure(f"no check for command {command!r}")
