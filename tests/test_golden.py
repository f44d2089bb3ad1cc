"""CLI documents against golden copies, byte for byte.

The instances under ``tests/golden`` come from ``efxkit gen``; beside each
lie three small input documents made from it by ``_inputs``: an allocation
giving every item to the agent who values it least (so ``check`` lists
violations of several pairs), a fractional point and a score matrix.  Each
golden document is the standard output of one invocation on them, run from
that directory, with ``compare``'s ``wall_time_s`` dropped from every row.
A change that is meant to alter documents rewrites them with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from efxkit import cli
from efxkit.instance import load_instance

GOLDEN = Path(__file__).parent / "golden"
# (items, agents, distribution) of each gen instance, all drawn with seed 1.
INSTANCES = {"10x5": (10, 5, "uniform01"), "6x3": (6, 3, "integer"), "6x2": (6, 2, "uniform01"), "5x3": (5, 3, "uniform01")}
INVOCATIONS = {
    **{
        f"fixedpoint-{map_name}-{shape}.json": ["fixedpoint", "--instance", f"gen-{shape}.json", "--map", map_name]
        for shape in ("10x5", "6x3", "6x2")
        for map_name in ("T", "Tprime", "Ttilde")
    },
    "compare-5x3.json": ["compare", "--instance", "gen-5x3.json"],
    **{
        f"dca-{shape}.json": ["dca", "--instance", f"gen-{shape}.json", "--starts", "4", "--seed", "3"]
        for shape in ("6x3", "6x2", "5x3")
    },
    "oracle-6x3.json": ["oracle", "--instance", "gen-6x3.json"],
    **{
        f"{name}-{shape}.json": [*argv, "--instance", f"gen-{shape}.json", *inputs]
        for shape in INSTANCES
        for name, argv, inputs in (
            ("check", ["check"], ["--allocation", f"alloc-{shape}.json"]),
            ("lovasz", ["lovasz"], []),
            ("extension-x", ["extension", "eval"], ["--x", f"x-{shape}.json"]),
            ("extension-y", ["extension", "eval"], ["--y", f"y-{shape}.json"]),
            ("oracle-all", ["oracle", "--all"], []),
        )
    },
}


def _document(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    text = out.getvalue()
    if argv[0] == "compare":
        doc = json.loads(text)
        for row in doc["rows"]:
            del row["wall_time_s"]
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return text


def _inputs(shape: str) -> dict[str, dict]:
    """The allocation, fractional point and score documents of one instance:
    each item goes to the agent valuing it least; rows of x alternate
    between the item's values rescaled to sum to one and a unit row, so
    some entries are zero; y holds quarter steps in [-1.5, 0] with ties."""
    values = load_instance(f"gen-{shape}.json").values
    m, n = values.shape
    x = [list(row / row.sum()) if k % 2 == 0 else [float(i == k % n) for i in range(n)] for k, row in enumerate(values)]
    return {
        f"alloc-{shape}.json": {"owner": [int(i) + 1 for i in values.argmin(axis=1)]},
        f"x-{shape}.json": {"x": [[float(e) for e in row] for row in x]},
        f"y-{shape}.json": {"y": [[-((k * n + i) % 7) / 4 for i in range(n)] for k in range(m)]},
    }


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_document_matches_its_golden_copy(monkeypatch, name):
    monkeypatch.chdir(GOLDEN)
    assert _document(INVOCATIONS[name]) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)
    for shape, (m, n, dist) in INSTANCES.items():
        argv = ["gen", "--m", str(m), "--n", str(n), "--dist", dist, "--seed", "1", "--output", f"gen-{shape}.json"]
        assert cli.main(argv) == 0
        for name, doc in _inputs(shape).items():
            Path(name).write_text(json.dumps(doc, indent=2) + "\n")
    for name, argv in INVOCATIONS.items():
        Path(name).write_text(_document(argv))
    print(f"wrote {len(INSTANCES)} instances and {len(INVOCATIONS)} documents to {GOLDEN}", file=sys.stderr)
