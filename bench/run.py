#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the efxkit CLI.

    python3 bench/run.py --workload oracle_scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                    # every workload, untraced and traced

Each workload runs in a fresh single-threaded process that drives
``efxkit.cli.main(argv)`` in-process on instance documents generated from
``--seed``, closed-loop, one invocation at a time.  ``--trace 0`` times
whole rounds for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` runs a fixed number of rounds, each untraced and then traced,
and reports the per-layer metrics.  Every CLI output is checked outside the
timed region.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Details, the environment and the spans go under ``bench/out/``.

Times are CPU seconds of the measuring process (``time.process_time``;
set-up uses the probe processes' CPU).  On a shared virtual machine wall
time also counts the time other guests steal from the CPU, which made
identical work take up to twice as long from one run to the next.  For
this single-threaded, CPU-bound loop the two agree on a quiet machine, and
the wall-clock figures are printed beside them with their ratio.  CPU time
still follows the host's speed, so verdict times are calibrated against a
fixed kernel timed around every verdict (see ``calibrated``).
"""

import os

# Pin BLAS and OpenMP pools before numpy loads, so every run is one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
# Calibrated times are CPU seconds at the host speed where one
# calibration_kernel call takes this long, about its time on the 2-core
# virtual machine that set the baseline in BASELINE.md.
REFERENCE_S = 0.028
P90_MIN_SAMPLES = 100
NO_WAIT_NOTE = "layers are single-threaded and queue nothing, so there is no wait-time metric"


def import_program():
    """Import efxkit from this checkout's ``src`` or exit non-zero."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import efxkit.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import efxkit from {ROOT / 'src'}: {exc}")
    if not Path(efxkit.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: efxkit was imported from {efxkit.cli.__file__}, not from {ROOT / 'src'}")
    return efxkit.cli


def invoke(cli, argv: list) -> tuple[int, str]:
    """Run one CLI invocation in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=err)
            code = 1
    return code, (out.getvalue() + err.getvalue()) if code else out.getvalue()


def calibration_kernel(values) -> float:
    """Fixed work that calls no efxkit code, about 28 ms of CPU.

    Three parts of about 9 ms each mirror the kinds of work the workloads
    isolate: small-array numpy calls in Python loops plus a sort-based
    simplex projection (score-matrix kernels, Picard, Lovasz descent), a
    vectorised scan over a block of decoded allocations (oracle), and dense
    simplex pivots on a 145 x 345 tableau (LP).
    """
    import numpy as np

    acc = 0.0
    m, n = values.shape
    y = -values.copy()
    columns = np.arange(n)
    for _ in range(18):
        h = y.max(axis=1)
        gain = np.full((m, n), -np.inf)
        for j in range(n):
            for i in range(n):
                if i != j:
                    moved = np.where(columns == j, y[:, i:i + 1] + values[:, [i]] - values[:, [j]], y)
                    delta = moved.max(axis=1) - h
                    np.maximum(gain[:, j], delta.sum() - delta, out=gain[:, j])
        u = -np.sort(-y, axis=1)
        css = np.cumsum(u, axis=1) - 1.0
        rank = (u - css / (columns + 1) > 0).sum(axis=1)
        theta = css[np.arange(m), rank - 1] / rank
        y = np.maximum(y - theta[:, None], 0.0) - 0.5 * values
        acc += float(gain.max())

    items, agents = 8, 3
    codes = np.arange(agents**items)
    owners = (codes[:, None] // agents ** np.arange(items)[::-1]) % agents
    worst = np.full(codes.size, -np.inf)
    for i in range(agents):
        column = values[:items, i]
        mine = np.where(owners == i, column, 0.0).sum(axis=1)
        for j in range(agents):
            if i != j:
                mask = owners == j
                sums = np.where(mask, column, 0.0).sum(axis=1)
                mins = np.where(mask, column, np.inf).min(axis=1)
                np.maximum(worst, np.where(np.isinf(mins), 0.0, sums - mins) - mine, out=worst)
    acc += float(np.count_nonzero(worst <= 0))

    width = 345
    tableau = np.outer(np.resize(values.ravel(), 145), np.resize(values.ravel()[::-1], width))
    tableau += np.eye(145, width)
    for pivot in range(50):
        col = int(np.argmin(tableau[-1, :-1] - np.arange(width - 1) * 1e-3 * (pivot % 7)))
        body = tableau[:-1, col]
        rows = np.flatnonzero(body > 1e-9)
        row = int(rows[np.argmin(tableau[rows, -1] / body[rows])]) if rows.size else pivot
        tableau[row] /= tableau[row, col] + 1.0
        column = tableau[:, col].copy()
        column[row] = 0.0
        tableau -= 1e-3 * np.outer(column, tableau[row])
        acc += float(tableau[row, -1])
    return acc


def calibration_timer():
    """A function that runs ``calibration_kernel`` once and returns its CPU
    seconds; the first, untimed run is the kernel's warm-up."""
    import numpy as np

    values = np.random.default_rng(0).random((10, 5))
    calibration_kernel(values)

    def timed() -> float:
        began = time.process_time()
        calibration_kernel(values)
        return time.process_time() - began

    return timed


def run_rounds(cli, rounds: list, *, seconds=None, count=None, tracer=None, calibrate=False) -> dict:
    """Closed loop over whole rounds.

    Runs ``count`` rounds, or as many as fit in ``seconds`` of wall time
    judged by the mean round so far (at least one).  Returns per-verdict
    CPU and wall seconds, the outputs, and the loop's CPU and wall seconds.
    With ``calibrate``, ``calibration_kernel`` is also timed before the first
    verdict and after every verdict, outside the verdicts' own times.
    """
    cpu_times, wall_times, results, ref_times = [], [], [], []
    reference = calibration_timer() if calibrate else None
    if reference:
        ref_times.append(reference())
    start_cpu, start_wall = time.process_time(), time.perf_counter()
    done = 0
    while True:
        if count is not None:
            if done >= count:
                break
        elif done and (time.perf_counter() - start_wall) * (done + 1) / done > seconds:
            break
        for verdict in rounds[done % len(rounds)]:
            outputs = []
            began_cpu, began_wall = time.process_time(), time.perf_counter()
            for argv in verdict.invocations:
                if tracer is not None:
                    tracer.invocation += 1
                outputs.append(invoke(cli, argv))
            cpu_times.append(time.process_time() - began_cpu)
            wall_times.append(time.perf_counter() - began_wall)
            results.append((verdict, outputs))
            if reference:
                ref_times.append(reference())
        done += 1
    return {
        "times": cpu_times,
        "wall_times": wall_times,
        "results": results,
        "cpu": time.process_time() - start_cpu,
        "wall": time.perf_counter() - start_wall,
        "rounds": done,
        "ref_times": ref_times,
    }


def check_all(workloads, results: list) -> dict:
    attempted = failed = tries = found = 0
    messages = []
    for verdict, outputs in results:
        failures, t, f = workloads.check(verdict, outputs)
        attempted += len(outputs)
        failed += len(failures)
        tries += t
        found += f
        messages += failures
    return {"attempted": attempted, "failed": failed, "efx_tries": tries, "efx_found": found, "messages": messages}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def setup_seconds(args) -> tuple[list, list, list]:
    """Set-up of fresh processes that only import, generate inputs and warm
    up, exactly as a measured run does before timing.

    Returns each probe's CPU seconds, its calibration kernel's CPU seconds
    (the median of three runs right after set-up) and its wall seconds.
    """
    cpu, kernel, wall = [], [], []
    for _ in range(SETUP_PROBES):
        began_wall = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        wall.append(time.perf_counter() - began_wall)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        cpu.append(probe["setup_cpu_s"])
        kernel.append(probe["kernel_s"])
    return cpu, kernel, wall


def interquartile_mean(values: list) -> float:
    """Mean of the middle half of ``values`` (all of them below four)."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def per_shape_rates(times: list, shapes: list) -> tuple[float, float, dict]:
    """(instances_per_s, verdict_s.p50, times by shape) of one run.

    Host contention slows stretches of a run, and a capped Picard start or
    a degenerate LP makes single verdicts several times slower than their
    shape's typical one.  Both figures therefore come from robust per-shape
    statistics: ``instances_per_s`` is one round's verdicts over the sum of
    each shape's interquartile-mean verdict time, and ``verdict_s.p50`` is
    the geometric mean over shapes of each shape's median verdict time, so
    it does not jump between the time clusters of different shapes.
    """
    by_shape = {}
    for shape, seconds in zip(shapes, times):
        by_shape.setdefault("x".join(map(str, shape)), []).append(seconds)
    rate = len(by_shape) / sum(interquartile_mean(ts) for ts in by_shape.values())
    p50 = math.exp(statistics.fmean(math.log(statistics.median(ts)) for ts in by_shape.values()))
    return rate, p50, by_shape


def calibrated(times: list, ref_times: list) -> list:
    """Each verdict's CPU seconds at the reference speed.

    ``ref_times[i]`` and ``ref_times[i + 1]`` time the calibration kernel
    just before and just after verdict ``i``.  The host's CPU speed changes
    within seconds, and the kernel's time follows it: a verdict time is
    scaled by ``REFERENCE_S`` over the mean of the two.
    """
    return [t * 2 * REFERENCE_S / (ref_times[i] + ref_times[i + 1]) for i, t in enumerate(times)]


def measure_untraced(cli, workloads, args, rounds) -> tuple[dict, dict]:
    setup_cpu, setup_kernel, setup_wall = setup_seconds(args)
    setup = [cpu * REFERENCE_S / kernel for cpu, kernel in zip(setup_cpu, setup_kernel)]
    run = run_rounds(cli, rounds, seconds=args.seconds, calibrate=True)
    checks = check_all(workloads, run["results"])
    raw = run["times"]
    times = calibrated(raw, run["ref_times"])
    n = len(times)
    shapes = [verdict.shape for verdict, _outputs in run["results"]]
    rate, p50, by_shape = per_shape_rates(times, shapes)
    raw_rate, raw_p50, _ = per_shape_rates(raw, shapes)
    wall_rate, wall_p50, _ = per_shape_rates(run["wall_times"], shapes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "instances_per_s": (rate, "1/s"),
        "verdict_s.p50": (p50, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "samples": n,
        "rounds": run["rounds"],
        "verdict_s_by_shape": by_shape,
        "setup_cpu_s": setup_cpu,
        "setup_kernel_s": setup_kernel,
        "raw_verdict_times": raw,
        "ref_times": run["ref_times"],
        "raw": {
            "instances_per_s": raw_rate,
            "verdict_s.p50": raw_p50,
            "setup_s": statistics.median(setup_cpu),
            "reference_s.median": statistics.median(run["ref_times"]),
        },
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "instances_per_s": wall_rate,
            "verdict_s.p50": wall_p50,
            "wall_per_cpu": run["wall"] / run["cpu"],
        },
        "efx_found_rate": checks["efx_found"] / checks["efx_tries"] if checks["efx_tries"] else None,
        "efx_found": [checks["efx_found"], checks["efx_tries"]],
        "failure_rate": checks["failed"] / checks["attempted"],
        "verdict_s.p90": statistics.quantiles(times, n=10)[-1] if n >= P90_MIN_SAMPLES else None,
    }
    return metrics, {**checks, **extra}


def measure_traced(cli, workloads, args, rounds, workload) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics

    count = max(1, round(args.seconds / (2 * workload.round_s)))
    tracer = Tracer()
    plain_cpu = traced_cpu = 0.0
    results = []
    # Each round runs untraced and then traced, so drift in machine speed
    # falls on both sides of trace.overhead_ratio alike.
    for index in range(count):
        one = [rounds[index % len(rounds)]]
        plain = run_rounds(cli, one, count=1)
        tracer.install()
        try:
            traced = run_rounds(cli, one, count=1, tracer=tracer)
        finally:
            tracer.remove()
        plain_cpu += plain["cpu"]
        traced_cpu += traced["cpu"]
        results += plain["results"] + traced["results"]
    checks = check_all(workloads, results)
    inclusive, _own = tracer.times()
    cli_wall = inclusive["cli.main"]
    metrics = layer_metrics(tracer, cli_wall)
    metrics["trace.cli_wall_s"] = (cli_wall, "s")
    metrics["trace.overhead_ratio"] = (plain_cpu / traced_cpu, "ratio")
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    extra = {"rounds": count, "samples": len(results) // 2, "absent": tracer.absent}
    return metrics, {**checks, **extra}


def report(args, metrics: dict, info: dict, env: dict) -> None:
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} | "
        f"nproc {env['nproc']} python {env['python']} numpy {env['numpy']} scipy {env['scipy']}"
    )
    print(f"  closed loop, 1 client, {info['rounds']} rounds, {info['samples']} verdicts")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if args.trace:
        if info["absent"]:
            print(f"  absent: {', '.join(info['absent'])}")
        print(f"  {NO_WAIT_NOTE}")
    else:
        p90 = info["verdict_s.p90"]
        print("  verdict_s.p90".ljust(42) + (
            f" {p90:.6g} s" if p90 is not None
            else f" omitted: {info['samples']} verdicts < {P90_MIN_SAMPLES}"
        ))
        raw = info["raw"]
        print(
            f"  uncalibrated: {raw['instances_per_s']:.6g} 1/s, p50 {raw['verdict_s.p50']:.6g} s, "
            f"setup {raw['setup_s']:.6g} s; "
            f"calibration kernel median {raw['reference_s.median']:.6g} s (reference {REFERENCE_S} s)"
        )
        wall = info["wall"]
        print(
            f"  wall clock: {wall['instances_per_s']:.6g} 1/s, p50 {wall['verdict_s.p50']:.6g} s, "
            f"setup {wall['setup_s']:.6g} s; wall/CPU {wall['wall_per_cpu']:.4g}"
        )
        rate = info["efx_found_rate"]
        found, tries = info["efx_found"]
        print("  efx_found_rate".ljust(42) + (f" {rate:.6g} ratio ({found} of {tries})" if tries else " no attempts"))
    print("  failure_rate".ljust(42) + f" {info['failed'] / info['attempted']:.6g} ratio "
          f"({info['failed']} failed of {info['attempted']} invocations)")
    for message in info["messages"]:
        print(f"  FAILED {message}", file=sys.stderr)


def run_one(args) -> int:
    cli = import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    warmup, rounds = workloads.prepare(
        workload, args.seed, args.seconds, OUT / f"inputs-{args.workload}-seed{args.seed}"
    )
    run_rounds(cli, [warmup], count=1)
    if args.setup_only:
        setup_cpu = time.process_time()
        timed = calibration_timer()
        kernel = statistics.median(timed() for _ in range(3))
        print(json.dumps({"setup_cpu_s": setup_cpu, "kernel_s": kernel}))
        return 0
    env = environment(args.seed)
    if args.trace:
        metrics, info = measure_traced(cli, workloads, args, rounds, workload)
    else:
        metrics, info = measure_untraced(cli, workloads, args, rounds)
    report(args, metrics, info, env)
    correct = info["failed"] == 0
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "metrics": metrics, "info": info}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced and then traced."""
    import_program()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            status = status or proc.returncode
    print("all workloads correct" if status == 0 else "some workload failed its checks")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None, help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
