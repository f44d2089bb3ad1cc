"""The benchmark's own test: deterministic counts repeat exactly.

Two traced runs with the same seed must report identical values for every
count the program derives from its inputs alone.  Run with

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("oracle_scan", "dca_descent", "picard_hunt", "compare_pipeline")
DETERMINISTIC = (
    "oracle.allocations_scanned",
    "oracle.witness_count",
    "simplex.pivots",
    "dc.steps",
    "fixedpoint.picard_iters",
    "fixedpoint.transfer_gain_calls",
)


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = traced_metrics(workload, 7)
    second = traced_metrics(workload, 7)
    for name in DETERMINISTIC:
        assert first[name]["unit"] == "count"
        assert isinstance(first[name]["value"], int), name
        assert first[name]["value"] == second[name]["value"], name
    assert any(first[name]["value"] > 0 for name in DETERMINISTIC)
