"""Traced runs: spans and call aggregates at the boundaries between layers.

The tracer wraps library functions at the names their caller looks them up
under, and restores them afterwards; the library itself is never edited.

- The benchmark's own calls go through the ``lib`` namespace of
  ``workloads.library``, whose entries are replaced by wrappers.
- The CLI reaches the harness through ``curvesys.harness.run_all``; the
  harness reaches every other layer through the names it imports
  (``curvesys.harness.multiply``, ``curvesys.harness.torus_grid_scene``, ...)
  and through the ``curvesys.corpus`` module.
- ``scenes_isomorphic`` reaches ``canonical_form`` through
  ``curvesys.scene.canonical_form``.

Every call of a span-level function (thousands per run at most) gets one span
record, kept in memory and written out at the end.  Torus functions, called
millions of times by the algebra suites, get one count-and-total aggregate
per (parent span, function) instead, so memory stays bounded.  A span's self
time is its duration minus the time of the traced calls made inside it,
which includes the wrapper cost of those calls.

The cost of tracing is estimated as spans times the cost of one span
wrapper plus aggregated calls times the cost of one aggregate wrapper, both
calibrated in-process on a function that does nothing (see
:func:`wrapper_cost_ns`).  The difference between a traced and an untraced
pass is smaller than a pass's own run-to-run noise on most workloads, so it
is shown beside the estimate but not reported as the metric.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

# Span names of the scene functions reported one by one.
SCENE_FUNCTIONS = (
    "validate",
    "find_bigons",
    "corner_alternation_ok",
    "check_region_condition",
    "resolve",
    "components",
    "trivial_components",
    "crossing_count",
)
SUITES = (
    "product_laws",
    "convexity",
    "twist_dynamics",
    "twist_bounds",
    "twist_coords",
    "resolution_oracle",
)

CORPUS_ATTRS = ("bigon_scene", "trivial_component_scene", "genus2_filling_pair", "dt_decompositions")

# (name, unit, better) of every per-layer metric, in the order printed.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("cli.self_s", "s", "lower"),
    ("harness.cases", "count", "higher"),
    ("harness.self_s", "s", "lower"),
    ("harness.report_bytes", "bytes", "lower"),
    *((f"harness.{s}_s", "s", "lower") for s in SUITES),
    ("torus.calls", "count", "lower"),
    ("torus.self_s", "s", "lower"),
    ("torus.ns_per_call", "ns", "lower"),
    ("torus.str_calls", "calls/case", "lower"),
    ("dtcoords.calls", "count", "lower"),
    ("dtcoords.self_s", "s", "lower"),
    ("grids.calls", "count", "lower"),
    ("grids.self_s", "s", "lower"),
    ("grids.us_per_crossing", "us", "lower"),
    *(
        (f"scene.{fn}.{m}", unit, "lower")
        for fn in SCENE_FUNCTIONS
        for m, unit in (("calls", "count"), ("self_s", "s"), ("us_per_crossing", "us"))
    ),
    ("scene.scenes_isomorphic.calls", "count", "lower"),
    ("scene.scenes_isomorphic.self_s", "s", "lower"),
    ("scene.canonical_form.ms.c99", "ms", "lower"),
    ("scene.canonical_form.ms.c409", "ms", "lower"),
    ("sceneio.load_s", "s", "lower"),
    ("sceneio.dump_s", "s", "lower"),
    ("sceneio.bytes_in", "bytes", "lower"),
    ("sceneio.bytes_out", "bytes", "lower"),
    ("corpus.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def harness_attrs(harness) -> List[str]:
    """The harness's entry points and the functions it imports from the
    other curvesys layers, read from the module itself."""
    own = harness.__name__
    return [
        attr
        for attr, obj in vars(harness).items()
        if inspect.isfunction(obj)
        and (
            attr == "run_all"
            or attr.startswith("suite_")
            or (obj.__module__.startswith("curvesys.") and obj.__module__ != own)
        )
    ]


def _crossings(args, result) -> int:
    """Crossings of the scene argument: E/2, which resolve leaves unchanged."""
    return len(args[0].edges) // 2


def _size_of(name: str) -> Optional[Callable]:
    layer = name.split(".")[0]
    if name == "sceneio.load":
        return lambda args, result: len(args[0])
    if name == "sceneio.dump":
        return lambda args, result: len(result)
    if layer == "grids":
        return lambda args, result: len(result.edges) // 2
    if layer == "scene":
        return _crossings
    if name.startswith("harness.suite_"):
        return lambda args, result: result
    return None


def _span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def wrapper_cost_ns(calls: int = 20000, repeats: int = 5) -> Tuple[float, float]:
    """(span, aggregate) wrapper cost in ns per call, each called inside a
    parent span as in a traced pass; the fastest of ``repeats`` loops."""

    def noop(x):
        return x

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for i in range(calls):
                fn(i)
            best = min(best, time.perf_counter_ns() - t0)
        return best / calls

    tracer = Tracer()
    costs = []
    for wrap in (tracer.span, tracer.aggregate):
        parent = tracer.span("calibrate.loop", per_call)
        costs.append(parent(wrap("calibrate.noop", noop)) - parent(noop))
    return costs[0], costs[1]


class Tracer:
    """Spans and aggregates of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # [name, parent index or -1, start ns, end ns, child ns, size]
        self.spans: List[list] = []
        # (parent span name, function name) -> [calls, total ns]
        self.aggregates: Dict[Tuple[str, str], List[int]] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, size = self.spans, self._stack, time.perf_counter_ns, _size_of(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][4] += rec[3] - rec[2]
            if size is not None:
                rec[5] = size(args, result)
            return result

        return traced

    def aggregate(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, aggs = self.spans, self._stack, time.perf_counter_ns, self.aggregates

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if stack:
                    parent = spans[stack[-1]]
                    parent[4] += dt
                    key = (parent[0], name)
                else:
                    key = ("-", name)
                entry = aggs.get(key)
                if entry is None:
                    aggs[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return traced

    def _wrap(self, owner, attr: str, name: Optional[str] = None) -> None:
        fn = getattr(owner, attr)
        name = name or _span_name(fn)
        wrapper = self.aggregate(name, fn) if name.startswith("torus.") else self.span(name, fn)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self, lib) -> None:
        """Wrap the benchmark's namespace and the library's internal call sites."""
        from curvesys import corpus, harness, scene
        from curvesys.torus import TorusClass

        names = {"cli_main": "cli.main", "load_text": "sceneio.load", "dump_text": "sceneio.dump"}
        for attr in vars(lib):
            self._wrap(lib, attr, names.get(attr))
        for attr in harness_attrs(harness):
            self._wrap(harness, attr)
        for attr in CORPUS_ATTRS:
            self._wrap(corpus, attr)
        self._wrap(scene, "canonical_form")
        self._wrap(TorusClass, "__str__", "torus.__str__")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- reporting -------------------------------------------------------

    def metrics(self, span_ns: float, aggregate_ns: float) -> Dict[str, float]:
        """Per-layer figures; ``span_ns`` and ``aggregate_ns`` are the wrapper
        costs that ``trace.overhead_s`` multiplies by the calls traced."""
        from curvesys.harness import report_to_dict

        self_ns: Dict[str, int] = {}
        dur_ns: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        size: Dict[str, int] = {}
        reports = []
        canon: Dict[int, List[int]] = {}
        for name, _, start, end, child, sz in self.spans:
            dur = end - start
            self_ns[name] = self_ns.get(name, 0) + dur - child
            dur_ns[name] = dur_ns.get(name, 0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name.startswith("harness.suite_"):
                reports.append(sz)
            elif sz is not None:
                size[name] = size.get(name, 0) + sz
            if name == "scene.canonical_form":
                canon.setdefault(sz, []).append(dur)
        for (_, name), (n, total) in self.aggregates.items():
            self_ns[name] = self_ns.get(name, 0) + total
            calls[name] = calls.get(name, 0) + n

        def layer(prefix: str, table: Dict[str, int]) -> int:
            return sum(v for k, v in table.items() if k.startswith(prefix + "."))

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return num * scale / den if den else 0.0

        cases = sum(r.cases for r in reports if r is not None)
        # millis is excluded so that the byte count repeats between runs.
        report_bytes = sum(
            len(json.dumps(report_to_dict([dataclasses.replace(r, millis=0)])))
            for r in reports
            if r is not None
        )
        out = {
            "cli.self_s": self_ns.get("cli.main", 0) / 1e9,
            "harness.cases": cases,
            "harness.self_s": layer("harness", self_ns) / 1e9,
            "harness.report_bytes": report_bytes,
        }
        for s in SUITES:
            out[f"harness.{s}_s"] = dur_ns.get(f"harness.suite_{s}", 0) / 1e9
        torus_calls = layer("torus", calls)
        out["torus.calls"] = torus_calls
        out["torus.self_s"] = layer("torus", self_ns) / 1e9
        out["torus.ns_per_call"] = per(layer("torus", self_ns), torus_calls)
        out["torus.str_calls"] = per(calls.get("torus.__str__", 0), cases)
        out["dtcoords.calls"] = layer("dtcoords", calls)
        out["dtcoords.self_s"] = layer("dtcoords", self_ns) / 1e9
        out["grids.calls"] = layer("grids", calls)
        out["grids.self_s"] = layer("grids", self_ns) / 1e9
        out["grids.us_per_crossing"] = per(layer("grids", self_ns), layer("grids", size), 1e-3)
        for fn in SCENE_FUNCTIONS + ("scenes_isomorphic",):
            name = f"scene.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
            if fn in SCENE_FUNCTIONS:
                out[f"{name}.us_per_crossing"] = per(self_ns.get(name, 0), size.get(name, 0), 1e-3)
        for n in (99, 409):
            durs = canon.get(n, [])
            out[f"scene.canonical_form.ms.c{n}"] = per(sum(durs), len(durs), 1e-6)
        out["sceneio.load_s"] = dur_ns.get("sceneio.load", 0) / 1e9
        out["sceneio.dump_s"] = dur_ns.get("sceneio.dump", 0) / 1e9
        out["sceneio.bytes_in"] = size.get("sceneio.load", 0)
        out["sceneio.bytes_out"] = size.get("sceneio.dump", 0)
        out["corpus.self_s"] = layer("corpus", self_ns) / 1e9
        out["trace.spans"] = len(self.spans)
        aggregated = sum(n for n, _ in self.aggregates.values())
        out["trace.overhead_s"] = (len(self.spans) * span_ns + aggregated * aggregate_ns) / 1e9
        return out

    def dump(self, path) -> None:
        spans = [
            [name, parent, start, end, end - start - child, getattr(sz, "cases", sz)]
            for name, parent, start, end, child, sz in self.spans
        ]
        aggs = [[parent, name, n, total] for (parent, name), (n, total) in sorted(self.aggregates.items())]
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["name", "parent", "start_ns", "end_ns", "self_ns", "size"],
                    "spans": spans,
                    "aggregate_fields": ["parent", "name", "calls", "total_ns"],
                    "aggregates": aggs,
                },
                fh,
            )
