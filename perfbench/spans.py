"""Outside-in layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: each layer's public
function is wrapped where its caller looks it up (the package imports
these functions by name, so patching the defining module alone would
miss the calls). A span is the tuple

    (id, parent_id, layer, name, start_ns, end_ns, info)

kept in memory and written out when the command ends. The parent is
the top of a thread-local stack. The sweep pool runs `evaluate` on
worker threads whose stack is empty, so the parent there is the root
span of the command, `cli.main`.

Self time of a span is its duration minus the part of it covered by
its children. Spans on different threads overlap in wall time, so a
layer's self time is taken from a partition of the command's wall
time: every instant covered by k self intervals (one per busy thread)
gives 1/k of itself to each. Layer self times then add up to the root
span's duration, and whatever the child process measured outside the
root span is reported as trace.unattributed_s.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict

# where each caller looks the layer functions up: (module, name, layer, span)
PATCHES = (
    ("ewjn.cli", "evaluate", "spectral", "evaluate"),
    ("ewjn.relaxation", "evaluate", "spectral", "evaluate"),
    ("ewjn.bulk", "chi_E_quasistatic_nonlocal", "spectral", "chi"),
    ("ewjn.cli", "thermal_factor", "relaxation", "thermal_factor"),
    ("ewjn.cli", "compute_t1", "relaxation", "t1"),
    ("ewjn.cli", "bulk_imD_coincident", "bulk", "ladder"),
    ("ewjn.cli", "surface_limit_imD", "bulk", "surface"),
    ("ewjn.spectral", "nonlocal_rp_quasistatic", "fresnel", "rp"),
    ("ewjn.spectral", "nonlocal_rs_quasistatic", "fresnel", "rs"),
    ("ewjn.spectral", "local_reflection", "fresnel", "local"),
    ("ewjn.fresnel", "epsilon_l", "materials", "eps"),
    ("ewjn.fresnel", "epsilon_t", "materials", "eps"),
    ("ewjn.bulk", "epsilon_l", "materials", "eps"),
    ("ewjn.bulk", "epsilon_t", "materials", "eps"),
    ("ewjn.quadrature", "integrate_finite", "quadrature", "finite"),
    ("ewjn.spectral", "integrate_finite", "quadrature", "finite"),
    ("ewjn.bulk", "integrate_finite", "quadrature", "finite"),
    ("ewjn.spectral", "integrate_semi_infinite_decaying", "quadrature", "semi"),
    ("ewjn.fresnel", "integrate_semi_infinite_decaying", "quadrature", "semi"),
)

LAYERS = ("cli", "spectral", "relaxation", "bulk", "fresnel", "quadrature", "materials")
MODELS = ("local-quasistatic", "nonlocal-quasistatic", "local-retarded")
FIELDS = ("E", "B")

# the end-to-end metric each per-layer metric should move ("none": the
# metric reports the cost of tracing, not of the program)
MOVES = {
    "materials.eps_calls": "wall_s",
    "materials.eps_nodes": "wall_s",
    "materials.eps_ns_per_node": "wall_s",
    "materials.self_s": "wall_s",
    "quadrature.integrals": "wall_s",
    "quadrature.panels": "wall_s",
    "quadrature.panels_per_integral": "wall_s",
    "quadrature.nodes_per_call": "wall_s",
    "quadrature.tail_windows": "wall_s",
    "quadrature.budget_hits": "ok_frac",
    "quadrature.self_s": "wall_s",
    "fresnel.rp_calls": "wall_s",
    "fresnel.rs_calls": "wall_s",
    "fresnel.inner_per_eval": "wall_s",
    "fresnel.inner_us_p50": "wall_s",
    "fresnel.local_calls": "wall_s",
    "fresnel.self_s": "wall_s",
    "spectral.evals": "wall_s",
    "spectral.unique_frac": "wall_s",
    "spectral.self_s": "wall_s",
    **{f"spectral.eval_ms_{q}.{model}.{field}": "wall_s"
       for model in MODELS for field in FIELDS for q in ("p50", "p90")},
    "bulk.ladder_s": "wall_s",
    "bulk.surface_s": "wall_s",
    "relaxation.calls": "wall_s",
    "relaxation.self_s": "wall_s",
    "cli.cmd_s": "wall_s",
    "cli.cells": "wall_s",
    "cli.self_s": "wall_s",
    "cli.span_overlap": "wall_s",
    "trace.wall_s": "none",
    "trace.overhead_frac": "none",
    "trace.unattributed_s": "none",
}

_RATIOS = ("panels_per_integral", "nodes_per_call", "inner_per_eval", "span_overlap")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    stem = metric.split(".")[1]
    if stem.startswith("eval_ms"):
        return "ms"
    for suffix, unit in (("_ns_per_node", "ns"), ("_us_p50", "us"),
                         ("_s", "s"), ("_frac", "fraction")):
        if stem.endswith(suffix):
            return unit
    return "ratio" if stem in _RATIOS else "count"


class _NeverRaised(Exception):
    pass


class Tracer:
    """Records spans around the patched layer functions of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = (0, "cli", "main")
        self._quad_error = _NeverRaised

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def install(self) -> list:
        """Patch every target in PATCHES; returns the ones not found."""
        from ewjn.errors import QuadratureError

        self._quad_error = QuadratureError
        missing = []
        for module_name, attr, layer, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, layer, name))
        return missing

    def run_root(self, fn, *args):
        """Run fn as the command's root span, cli.main."""
        sid = next(self._ids)
        self._root = (sid, "cli", "main")
        stack = self._stack()
        stack.append(self._root)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, 0, "cli", "main", t0, t1, None))

    def wrap(self, fn, layer: str, name: str):
        """fn wrapped in a span (layer, name), with per-kind counters."""
        prepare = {"finite": self._prepare_finite, "semi": self._prepare_semi}.get(name)
        info = _INFO.get(name)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns
        quad_error = self._quad_error

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            span_name = name
            if prepare is not None:
                args, span_name = prepare(args, kwargs, stack)
            stack.append((sid, layer, span_name))
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except quad_error as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                extra = None
                if info is not None:
                    extra = info(args, kwargs, result)
                elif prepare is not None:
                    extra = _count_budget_hit(error)
                spans.append((sid, parent[0], layer, span_name, t0, t1, extra))

        return wrapper

    def _prepare_semi(self, args, kwargs, stack):
        tail = kwargs.get("tail", args[4] if len(args) > 4 else "exp")
        return args, f"semi-{tail}"

    def _prepare_finite(self, args, kwargs, stack):
        # the integrand's own arithmetic belongs to the layer that set the
        # integral up, the nearest ancestor outside the engine
        owner = next((entry[1] for entry in reversed(stack)
                      if entry[1] != "quadrature"), "cli")
        name = "window" if stack and stack[-1][2] == "semi-exp" else "finite"
        if args:
            args = (self.wrap(args[0], owner, "integrand"),) + tuple(args[1:])
        else:
            kwargs["f"] = self.wrap(kwargs["f"], owner, "integrand")
        return args, name


def _count_budget_hit(error) -> int:
    """1 for the innermost span a QuadratureError left, else 0."""
    if error is None or getattr(error, "_perfbench_seen", False):
        return 0
    error._perfbench_seen = True
    return 1


def _nodes(args, kwargs, result):
    import numpy

    return int(numpy.size(args[0]))


def _eps_nodes(args, kwargs, result):
    import numpy

    return int(numpy.size(args[1] if len(args) > 1 else kwargs["k"]))


def _evaluate_info(args, kwargs, result):
    field = args[1] if len(args) > 1 else kwargs.get("field_kind")
    z = args[2] if len(args) > 2 else kwargs.get("z")
    omega = args[3] if len(args) > 3 else kwargs.get("omega")
    model = str(result.model) if result is not None else "failed"
    return [field, model, float(z), float(omega)]


_INFO = {"integrand": _nodes, "eps": _eps_nodes, "evaluate": _evaluate_info}


# ----------------------------------------------------------- arithmetic


def self_pieces(spans):
    """Yield (span_id, layer, start, end) for each self interval.

    A span's self intervals are its own interval minus the union of its
    children's intervals, clipped to it.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[4], s[5]))
    for s in spans:
        sid, layer, lo, hi = s[0], s[2], s[4], s[5]
        cursor = lo
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= cursor:
                continue
            if a > cursor:
                yield sid, layer, cursor, a
            cursor = b
        if cursor < hi:
            yield sid, layer, cursor, hi


def span_self_ns(spans) -> dict:
    """Self time of every span, in ns: duration minus child coverage."""
    out = {s[0]: 0 for s in spans}
    for sid, _, a, b in self_pieces(spans):
        out[sid] += b - a
    return out


def layer_self_seconds(spans) -> dict:
    """Wall time of one process partitioned among layers, in seconds.

    An instant covered by the self intervals of k spans (one per busy
    thread) is shared equally among them, so the values add up to the
    union of all spans, which is the root span's duration.
    """
    events = []
    for _, layer, a, b in self_pieces(spans):
        events.append((a, 1, layer))
        events.append((b, -1, layer))
    events.sort(key=lambda e: e[0])
    acc = defaultdict(float)
    active = defaultdict(int)
    busy = 0
    prev = None
    for t, step, layer in events:
        if busy and t > prev:
            width = t - prev
            for name, count in active.items():
                if count:
                    acc[name] += width * count / busy
        active[layer] += step
        busy += step
        prev = t
    return {layer: ns / 1e9 for layer, ns in acc.items()}


def _percentile(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def summarize(records, cells: int, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    records: one dict per command with "spans" and "cmd_s" (the command
    time the child measured around the root span).
    """
    self_s = defaultdict(float)
    count = defaultdict(int)  # spans per name
    calls = defaultdict(int)  # spans per layer
    total = defaultdict(float)
    durations = defaultdict(list)
    points = []
    root_ns = 0
    for rec in records:
        spans = rec["spans"]
        for layer, seconds in layer_self_seconds(spans).items():
            self_s[layer] += seconds
        for sid, parent, layer, name, t0, t1, info in spans:
            dt = t1 - t0
            count[name] += 1
            calls[layer] += 1
            if name == "main":
                root_ns += dt
            elif name == "eps":
                total["eps_ns"] += dt
                total["eps_nodes"] += info
            elif name == "integrand":
                total["nodes"] += info
            elif name in ("finite", "window") or name.startswith("semi"):
                total["budget_hits"] += info or 0
            elif name in ("rp", "rs"):
                durations["inner"].append(dt / 1e3)
            elif name == "evaluate":
                field, model = info[0], info[1]
                durations[f"{model}.{field}"].append(dt / 1e6)
                total["evaluate_ns"] += dt
                points.append(tuple(info))
            elif name in ("ladder", "surface"):
                total[name] += dt / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    integrals = count["finite"] + count["window"]
    wall = sum(rec["cmd_s"] for rec in records)
    m = {
        "materials.eps_calls": count["eps"],
        "materials.eps_nodes": int(total["eps_nodes"]),
        "materials.eps_ns_per_node": ratio(total["eps_ns"], total["eps_nodes"]),
        "quadrature.integrals": integrals,
        "quadrature.panels": count["integrand"],
        "quadrature.panels_per_integral": ratio(count["integrand"], integrals),
        "quadrature.nodes_per_call": ratio(total["nodes"], count["integrand"]),
        "quadrature.tail_windows": count["window"],
        "quadrature.budget_hits": int(total["budget_hits"]),
        "fresnel.rp_calls": count["rp"],
        "fresnel.rs_calls": count["rs"],
        "fresnel.inner_per_eval": ratio(count["rp"] + count["rs"], count["evaluate"]),
        "fresnel.inner_us_p50": _percentile(durations["inner"], 0.5),
        "fresnel.local_calls": count["local"],
        "spectral.evals": count["evaluate"],
        "spectral.unique_frac": ratio(len(set(points)), len(points)),
        "bulk.ladder_s": total["ladder"],
        "bulk.surface_s": total["surface"],
        "relaxation.calls": calls["relaxation"],
        "cli.cmd_s": root_ns / 1e9,
        "cli.cells": cells,
        "cli.span_overlap": ratio(total["evaluate_ns"], root_ns),
        "trace.wall_s": wall,
        "trace.overhead_frac": ratio(wall, untraced_wall_s) - 1.0 if untraced_wall_s else 0.0,
        "trace.unattributed_s": wall - sum(self_s.values()),
    }
    for layer in LAYERS:
        if f"{layer}.self_s" in MOVES:
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for model in MODELS:
        for field in FIELDS:
            values = durations[f"{model}.{field}"]
            m[f"spectral.eval_ms_p50.{model}.{field}"] = _percentile(values, 0.5)
            m[f"spectral.eval_ms_p90.{model}.{field}"] = _percentile(values, 0.9)
    return m
