"""Command line front end.

Subcommands
    gen         draw a random instance document
    check       verify an allocation document against an instance
    oracle      exhaustive EFX scan with witnesses
    lovasz      relaxation descent plus one threshold rounding
    extension   evaluate the smooth bound and the existence objective
    dca         LP-based descent on the existence objective
    fixedpoint  damped Picard iteration of a clamp map
    compare     run oracle and solvers side by side, optionally to CSV

Exit codes: 0 ran to completion, 1 usage error, 2 input error, 3 internal
check failure.  Documents are JSON with sorted keys; agents and items are
1-based in documents while the library API is 0-based.  Every output
carries the schema version and the fully resolved configuration, and
reruns with an identical configuration reproduce the output byte for byte
(compare's wall-time fields aside).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import dc, extension, fixedpoint, lovasz, oracle
from .instance import (
    DEFAULT_EFX_TOL,
    Allocation,
    Instance,
    InstanceFormatError,
    ZeroColumnError,
    allocation_to_doc,
    generate_instance,
    instance_to_doc,
    is_efx,
    load_allocation,
    load_instance,
    normalize,
)

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _emit(doc: dict, output: str | None) -> None:
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise dc.InternalCheckError(f"document holds a non-finite number: {exc}") from exc
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _document(config: dict, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": config, **payload}


def _owners_doc(alloc: Allocation) -> list[int]:
    return [int(a) + 1 for a in alloc.owner]


def _matrix_doc(x: np.ndarray) -> list[list[float]]:
    return [[float(entry) for entry in row] for row in np.asarray(x, dtype=float)]


def _load_matrix(path: str, key: str, inst: Instance) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {key} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{key} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or key not in doc:
        raise InstanceFormatError(f"{key} document must be an object with a {key!r} key")
    matrix = np.asarray(doc[key], dtype=float)
    if matrix.shape != (inst.m, inst.n):
        raise InstanceFormatError(
            f"{key} matrix has shape {matrix.shape}, expected ({inst.m}, {inst.n})"
        )
    if not np.all(np.isfinite(matrix)):
        k, j = np.argwhere(~np.isfinite(matrix))[0]
        raise InstanceFormatError(f"{key}[{k}][{j}] is not a finite number")
    return matrix


def _prefiltered_normalized(inst: Instance) -> tuple[Instance, list[int]]:
    """Drop agents who value every item at zero, then normalize.

    Such agents are never envious and receive nothing, so removing them
    keeps the EFX question unchanged; the removal is recorded in the
    certificate.
    """
    sums = inst.values.sum(axis=0)
    removed = [int(a) + 1 for a in np.flatnonzero(sums == 0.0)]
    if removed:
        keep = np.flatnonzero(sums > 0.0)
        if keep.size < 2:
            raise InstanceFormatError(
                "fewer than two agents with positive total value remain after the zero-column pre-filter"
            )
        inst = Instance(inst.values[:, keep])
    return normalize(inst), removed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_lambdas(text: str) -> list[float]:
    try:
        lams = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InstanceFormatError(f"bad temperature list {text!r}") from exc
    if not lams or any(l <= 0 for l in lams):
        raise InstanceFormatError("temperatures must be positive")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise InstanceFormatError("temperatures must be strictly increasing")
    return lams


def cmd_gen(args) -> int:
    inst = generate_instance(args.m, args.n, args.dist, args.seed, args.kmax)
    config = {
        "command": "gen",
        "m": args.m,
        "n": args.n,
        "dist": args.dist,
        "seed": args.seed,
        "kmax": args.kmax,
    }
    _emit(_document(config, instance_to_doc(inst)), args.output)
    return 0


def cmd_check(args) -> int:
    inst = load_instance(args.instance)
    alloc = load_allocation(args.allocation, inst)
    report = is_efx(inst, alloc, args.tol)
    config = {
        "command": "check",
        "instance": args.instance,
        "allocation": args.allocation,
        "tol": args.tol,
    }
    payload = {
        "efx": report.ok,
        "slack": report.slack,
        "violations": [
            {"envious": i + 1, "envied": j + 1, "slack": s} for i, j, s in report.violations
        ],
    }
    _emit(_document(config, payload), args.output)
    return 0


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    cap = inst.n**inst.m if args.all else args.cap
    result = oracle.enumerate_efx(inst, cap=cap, tol=args.tol)
    config = {
        "command": "oracle",
        "instance": args.instance,
        "cap": cap,
        "all": args.all,
        "tol": args.tol,
    }
    payload = {
        "exists": result.exists,
        "witness_count": result.witness_count,
        "allocations_scanned": result.allocations_scanned,
        "witnesses": [_owners_doc(w) for w in result.witnesses],
    }
    _emit(_document(config, payload), args.output)
    return 0


def cmd_lovasz(args) -> int:
    raw = load_instance(args.instance)
    inst, removed = _prefiltered_normalized(raw)
    x, objective = lovasz.minimize_relaxation(inst, iters=args.iters, step0=args.step0)
    rounding = lovasz.threshold_round(x, args.seed)
    rounded_efx = bool(
        rounding.feasible and is_efx(inst, rounding.allocation, DEFAULT_EFX_TOL).ok
    )
    config = {
        "command": "lovasz",
        "instance": args.instance,
        "iters": args.iters,
        "step0": args.step0,
        "seed": args.seed,
    }
    payload = {
        "form": "monotone",
        "threshold": 1.0,
        "objective": objective,
        "x": _matrix_doc(x),
        "iterations": args.iters,
        "removed_agents": removed,
        "rounding": {
            "sets": [[k + 1 for k in items] for items in rounding.sets],
            "thetas": [float(t) for t in rounding.thetas],
            "multiply_assigned": [k + 1 for k in rounding.multiply_assigned],
            "unassigned": [k + 1 for k in rounding.unassigned],
            "feasible": rounding.feasible,
            "owner": _owners_doc(rounding.allocation) if rounding.feasible else None,
            "efx": rounded_efx,
        },
        "verdict": "efx-found" if rounded_efx else "inconclusive",
    }
    _emit(_document(config, payload), args.output)
    return 0


def cmd_extension(args) -> int:
    inst = load_instance(args.instance)
    lams = _parse_lambdas(args.lambdas)
    if (args.y is None) == (args.x is None):
        raise InstanceFormatError("provide exactly one of --y or --x")
    bound = [float(np.log(inst.n * inst.m) / lam) for lam in lams]
    if args.y is not None:
        y = _load_matrix(args.y, "y", inst)
        f_value = extension.dc_objective(inst, y)
        g_values = [
            extension.rounding_bound(inst, extension.softmax_map(y, lam), lam) for lam in lams
        ]
    else:
        x = _load_matrix(args.x, "x", inst)
        if not lovasz.in_partition_polytope(x):
            raise InstanceFormatError("x rows must be distributions over agents")
        f_value = None
        g_values = [extension.rounding_bound(inst, x, lam) for lam in lams]
    config = {
        "command": "extension eval",
        "instance": args.instance,
        "y": args.y,
        "x": args.x,
        "lambdas": lams,
    }
    payload = {"f": f_value, "g": g_values, "bound": bound}
    _emit(_document(config, payload), args.output)
    return 0


def _dca_runs(inst: Instance, starts: int, seed: int, delta: float, max_iters: int, m_const):
    box = m_const if m_const is not None else extension.default_box_bound(inst)
    children = np.random.SeedSequence(seed).spawn(starts - 1)
    runs = []
    for start in range(starts):
        if start == 0:
            y0 = None
        else:
            rng = np.random.default_rng(children[start - 1])
            y0 = rng.uniform(-box, 0.0, size=(inst.m, inst.n))
        runs.append(dc.dca_solve(inst, y0=y0, delta=delta, max_iters=max_iters, m_const=m_const))
    return runs


def cmd_dca(args) -> int:
    inst = load_instance(args.instance)
    runs = _dca_runs(inst, args.starts, args.seed, args.delta, args.max_iters, args.m_const)
    best_index = min(range(len(runs)), key=lambda i: (not runs[i].efx, runs[i].objective))
    best = runs[best_index]
    config = {
        "command": "dca",
        "instance": args.instance,
        "delta": args.delta,
        "max_iters": args.max_iters,
        "starts": args.starts,
        "seed": args.seed,
        "m_const": args.m_const,
    }
    payload = {
        "objective": best.objective,
        "iterations": best.iterations,
        "status": best.status,
        "owner": _owners_doc(best.allocation),
        "efx": best.efx,
        "selected_start": best_index,
        "trace": best.trace,
        "starts": [
            {
                "start": i,
                "objective": run.objective,
                "iterations": run.iterations,
                "status": run.status,
                "efx": run.efx,
            }
            for i, run in enumerate(runs)
        ],
    }
    _emit(_document(config, payload), args.output)
    return 0


def _stuck_rows_doc(rows: list[dict]) -> list[dict]:
    doc = []
    for row in rows:
        entries = []
        for entry in row["entries"]:
            converted = {"agent": entry["agent"] + 1, "skipped": entry["skipped"]}
            if not entry["skipped"]:
                converted["residual"] = entry["residual"]
            entries.append(converted)
        doc.append(
            {
                "item": row["item"] + 1,
                "rowmax": row["rowmax"],
                "rowmax_abs": row["rowmax_abs"],
                "log_mass_bound": row["log_mass_bound"],
                "within_log_bound": row["within_log_bound"],
                "entries": entries,
            }
        )
    return doc


def _fixedpoint_runs(inst: Instance, args) -> list[fixedpoint.FixedPointReport]:
    box = args.m_const if args.m_const is not None else extension.default_box_bound(inst)
    children = np.random.SeedSequence(args.seed).spawn(args.starts)
    runs = []
    for start in range(args.starts):
        rng = np.random.default_rng(children[start])
        y0 = rng.uniform(-box, 0.0, size=(inst.m, inst.n))
        runs.append(
            fixedpoint.picard_iterate(
                inst,
                map_name=args.map,
                y0=y0,
                alpha=args.alpha,
                tol=args.tol,
                max_iters=args.max_iters,
                m_const=args.m_const,
            )
        )
    return runs


def cmd_fixedpoint(args) -> int:
    inst = load_instance(args.instance)
    runs = _fixedpoint_runs(inst, args)
    best_index = min(
        range(len(runs)),
        key=lambda i: (not runs[i].efx, not runs[i].converged, runs[i].constraint_slack),
    )
    best = runs[best_index]
    config = {
        "command": "fixedpoint",
        "instance": args.instance,
        "map": args.map,
        "alpha": args.alpha,
        "tol": args.tol,
        "max_iters": args.max_iters,
        "starts": args.starts,
        "seed": args.seed,
        "m_const": args.m_const,
    }
    payload = {
        "map": args.map,
        "converged": best.converged,
        "iterations": best.iterations,
        "residual": best.residual,
        "constraint_slack": best.constraint_slack,
        "violations": [
            {"item": k + 1, "agent": j + 1, "slack": s} for k, j, s in best.violations
        ],
        "owner": _owners_doc(best.allocation),
        "efx": best.efx,
        "stuck_rows": _stuck_rows_doc(best.stuck_rows),
        "selected_start": best_index,
        "starts": [
            {
                "start": i,
                "converged": run.converged,
                "iterations": run.iterations,
                "residual": run.residual,
                "constraint_slack": run.constraint_slack,
                "efx": run.efx,
                "stuck_row_count": len(run.stuck_rows),
            }
            for i, run in enumerate(runs)
        ],
    }
    _emit(_document(config, payload), args.output)
    return 0


def _compare_row(method: str, runner) -> dict:
    """Run one method, recording failures instead of aborting the harness."""
    start_time = time.perf_counter()
    try:
        found_efx, objective, iterations = runner()
        error = None
    except (dc.InternalCheckError, fixedpoint.SelfMapViolation, ValueError) as exc:
        found_efx, objective, iterations = False, None, 0
        error = str(exc)
    return {
        "method": method,
        "found_efx": found_efx,
        "objective": objective,
        "iterations": iterations,
        "wall_time_s": time.perf_counter() - start_time,
        "error": error,
    }


def cmd_compare(args) -> int:
    raw = load_instance(args.instance)
    inst, removed = _prefiltered_normalized(raw)

    def run_oracle():
        result = oracle.enumerate_efx(inst, tol=args.tol)
        best_envy, _ = oracle.min_max_envy(inst)
        return result.exists, best_envy - 1.0, result.allocations_scanned

    def run_lovasz():
        x, objective = lovasz.minimize_relaxation(inst, iters=500, step0=0.5)
        rounding = lovasz.threshold_round(x, args.seed)
        found = bool(rounding.feasible and is_efx(inst, rounding.allocation, args.tol).ok)
        return found, objective, 500

    def run_dca():
        result = dc.dca_solve(inst)
        return result.efx, result.objective, result.iterations

    def run_fixedpoint():
        fp_args = argparse.Namespace(
            map="Ttilde", alpha=0.5, tol=1e-8, max_iters=1000, starts=8, seed=args.seed, m_const=None
        )
        runs = _fixedpoint_runs(inst, fp_args)
        best = min(runs, key=lambda r: (not r.efx, not r.converged, r.constraint_slack))
        return best.efx, best.constraint_slack, best.iterations

    rows = [
        _compare_row("oracle", run_oracle),
        _compare_row("lovasz", run_lovasz),
        _compare_row("dca", run_dca),
        _compare_row("fixedpoint-Ttilde", run_fixedpoint),
    ]

    oracle_exists = rows[0]["found_efx"]
    findings = []
    for row in rows[1:]:
        flag = None
        if row["error"] is not None:
            flag = "method-error"
        elif oracle_exists and not row["found_efx"]:
            flag = "stationary-miss"
        elif not oracle_exists and row["found_efx"]:
            flag = "disagreement"
        row["flag"] = flag
        if flag:
            findings.append({"method": row["method"], "flag": flag})
    rows[0]["flag"] = None

    config = {
        "command": "compare",
        "instance": args.instance,
        "seed": args.seed,
        "tol": args.tol,
        "csv": args.csv,
    }
    payload = {
        "oracle_exists": oracle_exists,
        "removed_agents": removed,
        "rows": rows,
        "findings": findings,
    }
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(
                handle,
                fieldnames=[
                    "method",
                    "found_efx",
                    "objective",
                    "iterations",
                    "wall_time_s",
                    "flag",
                    "error",
                ],
            )
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    _emit(_document(config, payload), args.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="efxkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="draw a random instance document")
    p.add_argument("--m", type=int, required=True, help="number of items")
    p.add_argument("--n", type=int, required=True, help="number of agents")
    p.add_argument("--dist", choices=["uniform01", "integer", "identical"], default="uniform01")
    p.add_argument("--kmax", type=int, default=10, help="largest value for the integer distribution")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="verify an allocation document")
    p.add_argument("--instance", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_EFX_TOL)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="exhaustive EFX scan")
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=int, default=oracle.WITNESS_CAP)
    p.add_argument("--all", action="store_true", help="keep every witness instead of capping")
    p.add_argument("--tol", type=float, default=DEFAULT_EFX_TOL)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("lovasz", help="relaxation descent plus threshold rounding")
    p.add_argument("--instance", required=True)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--step0", type=float, default=lovasz.DEFAULT_STEP0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_lovasz)

    p = sub.add_parser("extension", help="evaluate the smooth bound")
    ext_sub = p.add_subparsers(dest="mode", required=True)
    q = ext_sub.add_parser("eval", help="bound and objective at a point")
    q.add_argument("--instance", required=True)
    q.add_argument("--y", default=None, help="score document {'y': [[..]]}")
    q.add_argument("--x", default=None, help="fractional document {'x': [[..]]}")
    q.add_argument("--lambdas", default="1,10,100,1000")
    q.add_argument("--output", default=None)
    q.set_defaults(func=cmd_extension)

    p = sub.add_parser("dca", help="LP-based descent on the existence objective")
    p.add_argument("--instance", required=True)
    p.add_argument("--delta", type=float, default=dc.DCA_STEP_TOL)
    p.add_argument("--max-iters", type=int, default=dc.DCA_MAX_ITERS)
    p.add_argument("--starts", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m-const", type=float, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_dca)

    p = sub.add_parser("fixedpoint", help="damped Picard iteration of a clamp map")
    p.add_argument("--instance", required=True)
    p.add_argument("--map", choices=sorted(fixedpoint.MAPS), default="Ttilde")
    p.add_argument("--alpha", type=float, default=fixedpoint.DEFAULT_ALPHA)
    p.add_argument("--tol", type=float, default=fixedpoint.RESIDUAL_TOL)
    p.add_argument("--max-iters", type=int, default=fixedpoint.DEFAULT_MAX_ITERS)
    p.add_argument("--starts", type=_positive_int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m-const", type=float, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fixedpoint)

    p = sub.add_parser("compare", help="run oracle and solvers side by side")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_EFX_TOL)
    p.add_argument("--csv", default=None, help="also write the rows as a CSV table")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, ZeroColumnError, oracle.OracleGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (dc.InternalCheckError, fixedpoint.SelfMapViolation) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
