"""Command line front end.

Subcommands
    gen         draw a random instance document
    check       verify an allocation document against an instance
    oracle      exhaustive EFX scan with witnesses
    lovasz      relaxation descent, rounding its point at checkpoints
    extension   evaluate the smooth bound and the existence objective
    dca         LP-based descent on the existence objective
    fixedpoint  damped Picard iteration of a clamp map
    compare     run oracle and solvers side by side, optionally to CSV

compare's solver rows run the HUNTERS table: the lovasz, dca and fixedpoint
commands' document builders, at the commands' defaults and with compare's
--tol as their EFX tolerance.
They run on the prefiltered, normalized instance, so the dca and
fixedpoint rows can find EFX where those commands, which read the raw
values, do not (ROADMAP item N).

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
import functools
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
    InternalCheckError,
    _read_document,
    _read_matrix,
    allocation_to_doc,
    generate_instance,
    instance_to_doc,
    is_efx,
    load_allocation,
    load_instance,
    normalize,
)

SCHEMA_VERSION = 1
EXTENSION_LAMBDAS = (1.0, 10.0, 100.0, 1000.0)
# Command defaults that compare's solver rows read too.
DCA_STARTS = 1
FIXEDPOINT_STARTS = 8
FIXEDPOINT_MAP = "Ttilde"
# The lovasz command's anytime runner: its step budget, step0, draws per
# rounding and rounding ladder.
ANYTIME_BUDGET = 2000
ANYTIME_STEP0 = 1.0
LOVASZ_DRAWS = 64
CHECKPOINTS = (0, 25, 50, 100, 200)
CHECKPOINT_STRIDE = 400


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _emit(args, payload: dict, **resolved) -> None:
    """Write the schema version, the fully resolved configuration (every
    parsed option, with ``resolved`` overriding the values a command works
    out itself) and the payload as one document."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "output", "mode")}
    doc = {"schema_version": SCHEMA_VERSION, "config": {**config, **resolved}, **payload}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InternalCheckError(f"document holds a non-finite number: {exc}") from exc
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_matrix(path: str, key: str, inst: Instance) -> np.ndarray:
    doc = _read_document(path, key)
    if key not in doc:
        raise InstanceFormatError(f"{key} document must be an object with a {key!r} key")
    return _read_matrix(doc[key], inst.m, inst.n, key)


def _prefiltered_normalized(inst: Instance) -> tuple[Instance, list[int], list[int]]:
    """Drop agents who value every item at zero, then normalize; also
    return the kept agents' 0-based indices and the documents'
    ``removed_agents``, the dropped agents' 1-based numbers.

    Such agents are never envious and receive nothing, so removing them
    keeps the EFX question unchanged; the removal is recorded in the
    certificate.
    """
    keep = np.flatnonzero(inst.values.sum(axis=0) > 0.0).tolist()
    if len(keep) < 2:
        raise InstanceFormatError("fewer than two agents with positive total value remain after the zero-column pre-filter")
    return normalize(Instance(inst.values.take(keep, axis=1))), keep, [a + 1 for a in range(inst.n) if a not in keep]


def _bounded(cast, ok, expected: str):
    """An option type that casts the text with ``cast`` and rejects values
    failing ``ok`` as not ``expected``; text ``cast`` cannot read is an
    "invalid int value" or "invalid float value"."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    parse.__name__ = cast.__name__
    return parse


_positive_int = _bounded(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _bounded(int, lambda v: v >= 0, "a nonnegative integer")
_agent_count = _bounded(int, lambda v: v >= 2, "an integer of at least 2")
_kmax = _bounded(int, lambda v: 1 <= v <= np.iinfo(np.int64).max, "a positive integer of at most 2**63 - 1")
_finite_float = _bounded(float, np.isfinite, "a finite number")


def _parse_lambdas(text: str) -> list[float]:
    try:
        lams = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InstanceFormatError(f"bad temperature list {text!r}") from exc
    if not lams:
        raise InstanceFormatError(f"temperature list {text!r} holds no temperature")
    if not all(0 < l < np.inf for l in lams):
        raise InstanceFormatError("temperatures must be positive and finite")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise InstanceFormatError("temperatures must be strictly increasing")
    return lams


def cmd_gen(args) -> int:
    inst = generate_instance(args.m, args.n, args.dist, args.seed, args.kmax)
    _emit(args, instance_to_doc(inst))
    return 0


def cmd_check(args) -> int:
    inst = load_instance(args.instance)
    alloc = load_allocation(args.allocation, inst)
    report = is_efx(inst, alloc, args.tol)
    payload = {
        "efx": report.ok,
        "slack": report.slack,
        "violations": [
            {"envious": i + 1, "envied": j + 1, "slack": s} for i, j, s in report.violations
        ],
    }
    _emit(args, payload)
    return 0


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    cap = inst.n**inst.m if args.all else (oracle.WITNESS_CAP if args.cap is None else args.cap)
    result = oracle.enumerate_efx(inst, cap=cap, tol=args.tol)
    payload = {
        "exists": result.exists,
        "witness_count": result.witness_count,
        "allocations_scanned": result.allocations_scanned,
        # 1-based rows in one conversion: allocation_to_doc per witness costs 8x as much at m = 12.
        "witnesses": (np.array([w.owner for w in result.witnesses], dtype=int).reshape(-1, inst.m) + 1).tolist(),
    }
    _emit(args, payload, cap=cap)
    return 0


def _round_draws(inst: Instance, x: np.ndarray, seed: int, tol: float) -> dict:
    """``LOVASZ_DRAWS`` seeded row-wise roundings of x scored in one batch:
    the document's ``rounding`` block, whose pick is the first draw with the
    smallest slack, rechecked with ``tol``."""
    owners = extension.rowwise_round_many(x, seed, LOVASZ_DRAWS)
    slacks = oracle.batch_efx_slack(inst, owners)
    pick = int(slacks.argmin())
    allocation = Allocation(owners[pick])
    report = is_efx(inst, allocation, tol)
    return {
        "draws": LOVASZ_DRAWS,
        "pick": pick,
        "slack": report.slack,
        "efx_draws": int((slacks <= tol).sum()),
        "owner": allocation_to_doc(allocation)["owner"],
        "efx": report.ok,
    }


def _lovasz_doc(inst: Instance, seed: int, tol: float) -> dict:
    """The lovasz document's payload, owners numbering ``inst``'s agents:
    anytime descent from ``ANYTIME_STEP0`` whose best iterate so far is
    rounded by ``_round_draws``, with the same ``seed`` each time, at
    ``CHECKPOINTS``, every ``CHECKPOINT_STRIDE`` steps and ``ANYTIME_BUDGET``,
    stopping at the first rechecked EFX draw or at the budget.  The step is
    tested, so no ladder is built, however large the budget."""
    rounds = 0
    for step, _, x, objective in lovasz.descend(inst, ANYTIME_STEP0):
        if step in CHECKPOINTS or step % CHECKPOINT_STRIDE == 0 or step == ANYTIME_BUDGET:
            rounding = _round_draws(inst, x, seed, tol)
            rounds += 1
            if rounding["efx"] or step == ANYTIME_BUDGET:
                break
    return {
        "iterations": step,
        "stopped_at": step if rounding["efx"] else None,
        "checkpoints": rounds,
        "form": "monotone",
        "threshold": lovasz.MONOTONE_THRESHOLD,
        "objective": objective,
        "x": x.tolist(),
        "rounding": rounding,
        "verdict": "efx-found" if rounding["efx"] else "inconclusive",
    }


def cmd_lovasz(args) -> int:
    inst, keep, removed = _prefiltered_normalized(load_instance(args.instance))
    payload = _lovasz_doc(inst, args.seed, DEFAULT_EFX_TOL)
    # The draws number the kept agents; the document numbers the loaded ones.
    payload["rounding"]["owner"] = [keep[a - 1] + 1 for a in payload["rounding"]["owner"]]
    _emit(args, {**payload, "removed_agents": removed}, iters=ANYTIME_BUDGET, step0=ANYTIME_STEP0)
    return 0


def cmd_extension(args) -> int:
    inst = load_instance(args.instance)
    lams = _parse_lambdas(args.lambdas)
    if (args.y is None) == (args.x is None):
        raise InstanceFormatError("provide exactly one of --y or --x")
    f_value = None
    if args.y is not None:
        y = _load_matrix(args.y, "y", inst)
        try:
            with np.errstate(over="raise"):
                f_value = extension.dc_objective(inst, y)
        except FloatingPointError:
            raise InstanceFormatError("--y: the scores take the existence objective beyond the float range") from None
    else:
        x = _load_matrix(args.x, "x", inst)
        if not lovasz.in_partition_polytope(x):
            raise InstanceFormatError("x rows must be distributions over agents")
    with np.errstate(over="ignore", invalid="ignore"):
        bound = [float(np.log(inst.n * inst.m) / lam) for lam in lams]
        points = [x] * len(lams) if args.y is None else [extension.softmax_map(y, lam) for lam in lams]
        g_values = [extension.rounding_bound(inst, point, lam) for point, lam in zip(points, lams)]
    for lam, b, g in zip(lams, bound, g_values):
        if not np.isfinite([b, g]).all():
            raise InstanceFormatError(f"--lambdas: temperature {lam!r} takes the evaluation beyond the float range")
    payload = {"f": f_value, "g": g_values, "bound": bound}
    _emit(args, payload, command="extension eval", lambdas=lams)
    return 0


def _random_starts(inst: Instance, seed: int, count: int, box: float) -> list[np.ndarray]:
    """``count`` seeded uniform score matrices in the box [-box, 0]; start
    k is drawn from child k of the seed, whatever ``count`` is."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(child).uniform(-box, 0.0, size=(inst.m, inst.n)) for child in children]


def _multistart(runs: list, rank, summary) -> tuple:
    """The best of ``runs`` by ``rank`` (the first on ties) and the core of
    its document: the best run's ``summary``, its index as
    ``selected_start`` and every start's summary as ``starts``."""
    best_index = min(range(len(runs)), key=lambda i: rank(runs[i]))
    core = {
        **summary(runs[best_index]),
        "selected_start": best_index,
        "starts": [{"start": i, **summary(run)} for i, run in enumerate(runs)],
    }
    return runs[best_index], core


def _dca_doc(inst: Instance, starts: int, seed: int, efx_tol: float) -> dict:
    """The dca document's payload: DCA runs at ``dca_solve``'s defaults but
    ``efx_tol`` from the greedy encoding (start 0) and ``starts - 1`` random
    starts in the default box of ``extension.box_radius``, best first by EFX
    extraction, then the smaller objective.  Every start's LPs share one
    ``build_lp``'s rows and bounds, so phase 1 runs once; each start reports
    its phase-2 pivots summed over its steps."""
    lp = dc.build_lp(inst)
    best, core = _multistart(
        [dc.dca_solve(lp, y0=y0, efx_tol=efx_tol) for y0 in [None, *_random_starts(inst, seed, starts - 1, lp.m_const)]],
        lambda run: (not run.efx, run.objective),
        lambda run: {
            "objective": run.objective,
            "iterations": run.iterations,
            "status": run.status,
            "efx": run.efx,
            "lp_phase1_pivots": lp.phase_one.pivots,
            "lp_phase2_pivots": sum(entry["lp_pivots"] for entry in run.trace),
        },
    )
    return {**core, "owner": allocation_to_doc(best.allocation)["owner"], "trace": best.trace}


def cmd_dca(args) -> int:
    inst = load_instance(args.instance)
    payload = _dca_doc(inst, args.starts, args.seed, DEFAULT_EFX_TOL)
    _emit(args, payload, delta=dc.DCA_STEP_TOL, max_iters=dc.DCA_MAX_ITERS)
    return 0


def _stuck_rows_doc(rows: list[dict]) -> list[dict]:
    """Stuck-row diagnostics renumbered 1-based."""
    return [
        {
            **row,
            "item": row["item"] + 1,
            "entries": [{**entry, "agent": entry["agent"] + 1} for entry in row["entries"]],
        }
        for row in rows
    ]


def _fixedpoint_doc(inst: Instance, starts: int, seed: int, map_name: str, efx_tol: float) -> dict:
    """The fixedpoint document's payload: Picard runs of ``map_name`` at
    ``picard_iterate_many``'s defaults but ``efx_tol`` from every random
    start in the default box of ``extension.box_radius``, stepped as one
    stack, best first by EFX extraction, then convergence, then the smaller
    constraint slack."""
    box = extension.box_radius(inst)
    best, core = _multistart(
        fixedpoint.picard_iterate_many(
            inst, _random_starts(inst, seed, starts, box), map_name=map_name, m_const=box, efx_tol=efx_tol
        ),
        lambda run: (not run.efx, not run.converged, run.constraint_slack),
        lambda run: {
            "converged": run.converged,
            "iterations": run.iterations,
            "residual": run.residual,
            "constraint_slack": run.constraint_slack,
            "efx": run.efx,
            "stuck_row_count": len(run.stuck_rows),
        },
    )
    del core["stuck_row_count"]  # the top level lists the stuck rows themselves
    return {
        **core,
        "map": map_name,
        "violations": [{"item": k + 1, "agent": j + 1, "slack": s} for k, j, s in best.violations],
        "owner": allocation_to_doc(best.allocation)["owner"],
        "stuck_rows": _stuck_rows_doc(best.stuck_rows),
    }


def cmd_fixedpoint(args) -> int:
    inst = load_instance(args.instance)
    payload = _fixedpoint_doc(inst, args.starts, args.seed, args.map, DEFAULT_EFX_TOL)
    # config.tol is the residual tolerance here, not an EFX one.
    _emit(args, payload, alpha=fixedpoint.DEFAULT_ALPHA, tol=fixedpoint.RESIDUAL_TOL, max_iters=fixedpoint.DEFAULT_MAX_ITERS)
    return 0


# compare's solver rows in row order: the method; its command's builder at
# the command defaults, called as (inst, seed, EFX tolerance), which reads
# the defaults when it runs; and the EFX verdict and objective of its payload.
HUNTERS = (
    ("lovasz", _lovasz_doc, lambda doc: (doc["rounding"]["efx"], doc["objective"])),
    ("dca",
     lambda inst, seed, tol: _dca_doc(inst, DCA_STARTS, seed, tol),
     lambda doc: (doc["efx"], doc["objective"])),
    (f"fixedpoint-{FIXEDPOINT_MAP}",
     lambda inst, seed, tol: _fixedpoint_doc(inst, FIXEDPOINT_STARTS, seed, FIXEDPOINT_MAP, tol),
     lambda doc: (doc["efx"], doc["constraint_slack"])),
)


def _compare_row(method: str, runner) -> dict:
    """Run one method, recording failures instead of aborting the harness."""
    start_time = time.perf_counter()
    row = {"method": method, "found_efx": False, "objective": None, "iterations": 0}
    error = None
    try:
        row["found_efx"], row["objective"], row["iterations"] = runner()
    except (InternalCheckError, ValueError) as exc:
        error = str(exc)
    return {**row, "wall_time_s": time.perf_counter() - start_time, "flag": None, "error": error}


def cmd_compare(args) -> int:
    inst, _, removed = _prefiltered_normalized(load_instance(args.instance))

    def run_oracle():
        result = oracle.enumerate_efx(inst, cap=0, tol=args.tol)
        return result.exists, result.min_slack, result.allocations_scanned

    def run_hunter(build, read):
        doc = build(inst, args.seed, args.tol)
        return *read(doc), doc["iterations"]

    rows = [_compare_row("oracle", run_oracle)]
    rows += [_compare_row(method, functools.partial(run_hunter, build, read)) for method, build, read in HUNTERS]

    # An oracle that could not run (say, past its scan guard) gives no
    # verdict, so the solver rows are not judged against one.
    oracle_exists = rows[0]["found_efx"] if rows[0]["error"] is None else None
    for row in rows:
        if row["error"] is not None:
            row["flag"] = "method-error"
        elif row is not rows[0] and oracle_exists is not None and row["found_efx"] != oracle_exists:
            row["flag"] = "disagreement" if row["found_efx"] else "stationary-miss"

    payload = {
        "oracle_exists": oracle_exists,
        "removed_agents": removed,
        "rows": rows,
        "findings": [{"method": row["method"], "flag": row["flag"]} for row in rows if row["flag"]],
    }
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    _emit(args, payload)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: parsing keeps no state in it."""
    parser = _Parser(prog="efxkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(*flags, **kwargs) -> argparse.ArgumentParser:
        """An option that several commands take, declared once as a parent parser."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **kwargs)
        return parent

    instance = shared("--instance", required=True)
    seed = shared("--seed", type=_nonnegative_int, default=0)
    efx_tol = shared("--tol", type=_finite_float, default=DEFAULT_EFX_TOL, help=(
        "EFX tolerance, an absolute amount: an envy gap above it is a violation "
        "(in the loaded values for check and oracle, in the rescaled instance for compare)"))
    output = shared("--output", default=None)

    p = sub.add_parser("gen", help="draw a random instance document", parents=[seed, output])
    p.add_argument("--m", type=_positive_int, required=True, help="number of items")
    p.add_argument("--n", type=_agent_count, required=True, help="number of agents, at least 2")
    p.add_argument("--dist", choices=["uniform01", "integer", "identical"], default="uniform01")
    p.add_argument("--kmax", type=_kmax, default=10, help="largest value for the integer distribution")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="verify an allocation document", parents=[instance, efx_tol, output])
    p.add_argument("--allocation", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="exhaustive EFX scan", parents=[instance, efx_tol, output])
    keep = p.add_mutually_exclusive_group()
    # Default None: argparse lets --cap pass beside --all when its value is the default object.
    keep.add_argument("--cap", type=_nonnegative_int, help=f"witnesses to keep ({oracle.WITNESS_CAP} if unset); 0 counts only")
    keep.add_argument("--all", action="store_true", help="keep every witness instead of capping")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("lovasz", help="relaxation descent plus row-wise rounding", parents=[instance, seed, output])
    p.set_defaults(func=cmd_lovasz)

    p = sub.add_parser("extension", help="evaluate the smooth bound")
    ext_sub = p.add_subparsers(dest="mode", required=True)
    q = ext_sub.add_parser("eval", help="bound and objective at a point", parents=[instance, output])
    q.add_argument("--y", default=None, help="score document {'y': [[..]]}")
    q.add_argument("--x", default=None, help="fractional document {'x': [[..]]}")
    q.add_argument("--lambdas", default=",".join(map(repr, EXTENSION_LAMBDAS)))
    q.set_defaults(func=cmd_extension)

    p = sub.add_parser("dca", help="LP-based descent on the existence objective", parents=[instance, seed, output])
    p.add_argument("--starts", type=_positive_int, default=DCA_STARTS)
    p.set_defaults(func=cmd_dca)

    p = sub.add_parser("fixedpoint", help="damped Picard iteration of a clamp map", parents=[instance, seed, output])
    p.add_argument("--map", choices=sorted(fixedpoint.MAPS), default=FIXEDPOINT_MAP)
    p.add_argument("--starts", type=_positive_int, default=FIXEDPOINT_STARTS)
    p.set_defaults(func=cmd_fixedpoint)

    p = sub.add_parser("compare", help="run oracle and solvers side by side", parents=[instance, seed, efx_tol, output])
    p.add_argument("--csv", default=None, help="also write the rows as a CSV table")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Covers InstanceFormatError, ZeroColumnError, OracleGuardError and
        # output paths that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
