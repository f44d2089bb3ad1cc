#!/usr/bin/env python3
"""Kernel timings at the fixed sizes whose baselines ROADMAP.md lists.

    python3 bench/anchors.py

Times the oracle scan, one DCA step's LP, the score-matrix kernels and
Picard iteration on seeded uniform01 instances, single-threaded, and prints
one JSON object.  Each timing is the median CPU seconds of ``REPEATS``
calls, as in ``run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import statistics
import sys
import time

from run import environment, import_program

REPEATS = 5


def median_seconds(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        began = time.process_time()
        result = fn()
        samples.append(time.process_time() - began)
    return statistics.median(samples), result


def main() -> int:
    import_program()
    import numpy as np

    from efxkit import dc, extension, fixedpoint, oracle
    from workloads import draw_values
    from efxkit.instance import Instance

    def instance(m, n, seed=0):
        return Instance(draw_values(np.random.default_rng(seed), m, n, "uniform01"))

    out = {"environment": environment(0)}
    for m, n in ((12, 3), (9, 4)):
        inst = instance(m, n)
        seconds, result = median_seconds(lambda: oracle.enumerate_efx(inst), 3)
        out[f"oracle.enumerate_efx ({m},{n})"] = {
            "s": seconds, "allocations_per_s": result.allocations_scanned / seconds,
        }
    for m, n in ((6, 3), (8, 4)):
        inst = instance(m, n)
        model = dc.build_lp(inst, np.argmax(inst.values, axis=1))
        seconds, sol = median_seconds(lambda: dc.solve_lp(model), 3 if n < 4 else 1)
        out[f"dc.solve_lp ({m},{n})"] = {
            "s": seconds, "pivots": sol.pivots, "rows": len(model.rows), "vars": model.n_vars,
        }
    for m, n in ((6, 3), (50, 10)):
        inst = instance(m, n)
        y = -np.random.default_rng(1).uniform(0.0, extension.default_box_bound(inst), (m, n))
        x = extension.softmax_map(y, 10.0)
        for name, fn in (
            ("fixedpoint.transfer_gain", lambda: fixedpoint.transfer_gain(inst, y)),
            ("extension.dc_objective", lambda: extension.dc_objective(inst, y)),
            ("extension.rounding_bound", lambda: extension.rounding_bound(inst, x, 10.0)),
        ):
            out[f"{name} ({m},{n})"] = {"s": median_seconds(fn)[0]}
    inst = instance(50, 10)
    seconds, report = median_seconds(
        lambda: fixedpoint.picard_iterate(inst, max_iters=100, tol=0.0), 1
    )
    out["fixedpoint.picard_iterate (50,10)"] = {"s_per_1000_iters": seconds * 1000 / report.iterations}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
