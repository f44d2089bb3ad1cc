"""Spans and counts around the public functions of each efxkit module.

The tracer wraps functions from outside the program: for every wrapped
function it rebinds each efxkit namespace that holds the original object,
because ``from``-imports copy the binding (``is_efx`` lives in ``cli``,
``dc`` and ``fixedpoint``; ``dc_objective`` in ``dc`` and ``extension``).
A span is (name, start, end, parent span, invocation id) in process CPU
seconds; spans stay in memory until ``write_spans``.  Counts are read from return values at the
same boundary.  A function that no longer exists is reported as absent,
so the same benchmark runs on later versions of the program.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layer (module) -> public functions wrapped in that module.  ``setfun`` is
# on no CLI path, so it has no entry.
LAYERS = {
    "cli": ("main",),
    "instance": ("load_instance", "is_efx"),
    "oracle": ("enumerate_efx", "min_max_envy"),
    "lovasz": ("minimize_relaxation", "threshold_round"),
    "dc": ("dca_solve", "build_lp", "solve_lp"),
    "simplex": ("solve_standard",),
    "extension": ("dc_objective", "rounding_bound", "softmax_map"),
    "fixedpoint": ("picard_iterate", "transfer_gain", "verify_constraints", "stuck_row_diagnostics"),
}


class Tracer:
    """Installs wrappers, records spans and counts, and removes them."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.absent: list[str] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._patched: list = []
        self._wrappers: list = []
        self._lp_shape: dict = {}

    def install(self) -> None:
        """Rebind every wrapped name; wrappers are built on the first call."""
        if not self._wrappers:
            for layer, names in LAYERS.items():
                try:
                    module = importlib.import_module(f"efxkit.{layer}")
                except ImportError:
                    self.absent.extend(f"{layer}.{name}" for name in names)
                    continue
                for name in names:
                    original = getattr(module, name, None)
                    if original is None:
                        self.absent.append(f"{layer}.{name}")
                    else:
                        self._wrappers.append((original, self._wrap(f"{layer}.{name}", original)))
        for original, wrapper in self._wrappers:
            self._rebind(original, wrapper)

    def remove(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "efxkit" and not modname.startswith("efxkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _wrap(self, name: str, fn):
        spans, stack, record = self.spans, self._stack, self._record
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
                spans[index] = (name, start, end, parent, self.invocation)
            try:
                record(name, result, signature, args, kwargs)
            except (AttributeError, KeyError, TypeError, ValueError):
                if f"{name} counts" not in self.absent:
                    self.absent.append(f"{name} counts")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, name, result, signature, args, kwargs) -> None:
        counts = self.counts
        counts[f"calls:{name}"] += 1
        if name == "oracle.enumerate_efx":
            counts["allocations_scanned"] += result.allocations_scanned
            counts["witness_count"] += result.witness_count
        elif name == "dc.solve_lp":
            counts["lp_solves"] += 1
            counts["pivots"] += result.pivots
            counts["lp_failures"] += result.status != "optimal"
        elif name == "dc.build_lp":
            rows, nonzeros = self._lp_size(result)
            counts["lp_rows"] += rows
            counts["lp_nonzeros"] += nonzeros
        elif name == "dc.dca_solve":
            counts["dca_runs"] += 1
            counts["dca_efx"] += bool(result.efx)
        elif name == "fixedpoint.picard_iterate":
            counts["picard_starts"] += 1
            counts["picard_iters"] += result.iterations
            counts["picard_converged"] += bool(result.converged)
        elif name == "lovasz.minimize_relaxation":
            counts["lovasz_iters"] += signature.bind(*args, **kwargs).arguments.get(
                "iters", signature.parameters["iters"].default
            )
        elif name == "lovasz.threshold_round":
            counts["rounding_feasible"] += bool(result.feasible)

    def _lp_size(self, model) -> tuple[int, int]:
        """Rows and nonzeros of a model; fixed by (m, n), so cached."""
        key = (model.m, model.n)
        if key not in self._lp_shape:
            self._lp_shape[key] = (
                len(model.rows),
                sum(len(coeffs) for coeffs, _rhs, _family in model.rows),
            )
        return self._lp_shape[key]

    def times(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap in this single-threaded
        program, so their durations add.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _inv in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for index, (name, start, end, _parent, _inv) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[index]
        return inclusive, own

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("name\tstart\tend\tparent\tinvocation\n")
            for name, start, end, parent, inv in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{inv}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cli_wall_s: float) -> dict:
    """Per-layer metric values (name -> (value, unit)) from one traced pass.

    ``cli_wall_s`` is the summed duration of the traced CLI invocations;
    ``<layer>.self_share`` divides each layer's self time by it.  A layer
    that ran no calls reads 0; an absent function also reads 0 and is
    listed in ``tracer.absent``.
    """
    inc, own = tracer.times()
    c = tracer.counts
    calls = lambda name: c[f"calls:{name}"]
    layer_self = defaultdict(float)
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0]] += seconds
    lp_builds = calls("dc.build_lp")
    tg_s = inc["fixedpoint.transfer_gain"]
    tg_calls = calls("fixedpoint.transfer_gain")
    picard_s = inc["fixedpoint.picard_iterate"]
    metrics = {
        "oracle.enumerate_s": (inc["oracle.enumerate_efx"], "s"),
        "oracle.allocations_scanned": (c["allocations_scanned"], "count"),
        "oracle.allocations_per_s": (_ratio(c["allocations_scanned"], inc["oracle.enumerate_efx"]), "1/s"),
        "oracle.min_max_envy_s": (inc["oracle.min_max_envy"], "s"),
        "oracle.witness_count": (c["witness_count"], "count"),
        "simplex.solve_s": (inc["simplex.solve_standard"], "s"),
        "simplex.solves": (calls("simplex.solve_standard"), "count"),
        "simplex.pivots": (c["pivots"], "count"),
        "simplex.pivots_per_solve": (_ratio(c["pivots"], c["lp_solves"]), "count"),
        "simplex.us_per_pivot": (1e6 * _ratio(inc["simplex.solve_standard"], c["pivots"]), "us"),
        "dc.dca_self_s": (own["dc.dca_solve"], "s"),
        "dc.steps": (c["lp_solves"], "count"),
        "dc.build_lp_s": (inc["dc.build_lp"], "s"),
        "dc.solve_lp_self_s": (own["dc.solve_lp"], "s"),
        "dc.lp_rows": (_ratio(c["lp_rows"], lp_builds), "count"),
        "dc.lp_nonzeros": (_ratio(c["lp_nonzeros"], lp_builds), "count"),
        "dc.lp_failure_ratio": (_ratio(c["lp_failures"], c["lp_solves"]), "ratio"),
        "dc.efx_ratio": (_ratio(c["dca_efx"], c["dca_runs"]), "ratio"),
        "fixedpoint.transfer_gain_s": (tg_s, "s"),
        "fixedpoint.transfer_gain_calls": (tg_calls, "count"),
        "fixedpoint.transfer_gain_us_per_call": (1e6 * _ratio(tg_s, tg_calls), "us"),
        "fixedpoint.picard_self_s": (own["fixedpoint.picard_iterate"], "s"),
        "fixedpoint.picard_iters": (c["picard_iters"], "count"),
        "fixedpoint.picard_iters_per_s": (_ratio(c["picard_iters"], picard_s), "1/s"),
        "fixedpoint.converged_ratio": (_ratio(c["picard_converged"], c["picard_starts"]), "ratio"),
        "fixedpoint.diagnostics_s": (
            inc["fixedpoint.verify_constraints"] + inc["fixedpoint.stuck_row_diagnostics"],
            "s",
        ),
        "lovasz.minimize_s": (inc["lovasz.minimize_relaxation"], "s"),
        "lovasz.iters": (c["lovasz_iters"], "count"),
        "lovasz.rounding_feasible_ratio": (
            _ratio(c["rounding_feasible"], calls("lovasz.threshold_round")),
            "ratio",
        ),
        "extension.dc_objective_s": (inc["extension.dc_objective"], "s"),
        "extension.dc_objective_calls": (calls("extension.dc_objective"), "count"),
        "extension.rounding_bound_s": (inc["extension.rounding_bound"], "s"),
        "extension.rounding_bound_calls": (calls("extension.rounding_bound"), "count"),
        "extension.softmax_map_s": (inc["extension.softmax_map"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "cli.calls": (calls("cli.main"), "count"),
        "instance.load_s": (inc["instance.load_instance"], "s"),
        "instance.is_efx_s": (inc["instance.is_efx"], "s"),
        "instance.is_efx_calls": (calls("instance.is_efx"), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (_ratio(layer_self[layer], cli_wall_s), "ratio")
    return metrics
