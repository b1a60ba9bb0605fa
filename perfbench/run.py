#!/usr/bin/env python3
"""Benchmark of the curvesys library, one workload per invocation.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify_algebra, verify_oracle, scene_pipeline, scene_iso (see
README.md beside this file).  The library is imported from ``src/`` of the
checkout; without it the run exits 2 and prints no result.

With ``--trace 0`` the run sets up the seeded inputs at least three times
(``setup_s`` is their median plus the median import time), then repeats
whole passes over them for about ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it alternates
untraced and traced rounds of set-up plus one pass and reports the per-layer
metrics of the last traced round and the tracing overhead (traced calls times
the calibrated cost of a wrapper; the median traced minus untraced pass is
printed beside it); the spans go to ``.bench_build/perfbench/``.
Either way it then regenerates the shipped grid corpus in memory and compares
it byte for byte.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
IMPORT_REPEATS = 7

# (name, unit) of the end-to-end metrics, in the order printed.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import curvesys, curvesys.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def _another(elapsed: float, done: int, seconds: float) -> bool:
    """Whether one more pass ends nearer the deadline than stopping now.

    Runs are made of whole passes over the same inputs, so they end at the
    pass boundary nearest to ``seconds``.
    """
    return elapsed + elapsed / done / 2 <= seconds


def percentile(samples, q: float) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def golden_grids(lib) -> tuple:
    """(files checked, mismatches) for corpus/grids regenerated in memory."""
    from curvesys.corpus import grid_corpus_parameters
    from curvesys.sceneio import scene_to_dict

    shipped = {p.name for p in (ROOT / "corpus" / "grids").glob("*.json")}
    mismatched = 0
    names = set()
    for p, q, r, s in grid_corpus_parameters():
        name = f"grid_{p}_{q}_{r}_{s}.json"
        names.add(name)
        text = json.dumps(scene_to_dict(lib.torus_grid_scene(p, q, r, s)), indent=None) + "\n"
        path = ROOT / "corpus" / "grids" / name
        if name not in shipped or path.read_bytes() != text.encode():
            mismatched += 1
    mismatched += len(shipped - names)
    return len(names | shipped), mismatched


def measure(wl, lib, seed: int, seconds: float, tally):
    """Set-up and whole passes for about ``seconds``; the end-to-end metrics."""
    imp = import_seconds()
    gen = []
    # At least SETUP_REPEATS set-ups; cheap ones repeat for SETUP_SECONDS.
    while len(gen) < SETUP_REPEATS or (sum(gen) < SETUP_SECONDS and len(gen) < 5 * SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.generate(lib, seed)
        gen.append(time.perf_counter() - t0)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(lib, inputs, tally))
        if not _another(time.perf_counter() - start, len(passes), seconds):
            break
    # Medians over passes, so that a burst of load from outside the process
    # moves the figures less than it would move a total.  The latency
    # percentiles are taken per pass: pooled over a run, the 90th percentile
    # of scene_iso falls at the top edge of a cluster of equal-size pairs and
    # reads the slowest of them.
    rate = statistics.median(p.ops / p.wall for p in passes)
    values = {
        "setup_s": imp + statistics.median(gen),
        "ops_per_s": rate,
        "op_ms_p50": statistics.median(statistics.median(p.samples) for p in passes) * 1e3,
        "op_ms_p90": statistics.median(percentile(p.samples, 0.9) for p in passes) * 1e3,
    }
    human = {
        f"{wl.unit}_per_s": (rate, "1/s"),
        "passes": (len(passes), "count"),
        "samples": (sum(len(p.samples) for p in passes), "count"),
        "import_s": (imp, "s"),
    }
    return values, human


def traced(wl, lib, seed: int, seconds: float, tally, trace_path: Path):
    """Alternate untraced and traced rounds (set-up plus one pass) for about
    ``seconds``; the per-layer metrics come from the last traced round, so
    counts do not depend on how many rounds fit.  The tracer is installed
    before set-up, so grid building shows under ``grids``, but the walls
    compared are those of the passes alone."""
    from tracing import Tracer, wrapper_cost_ns

    untraced, traced_walls = [], []
    start = time.perf_counter()
    while True:
        untraced.append(wl.run_pass(lib, wl.generate(lib, seed), tally).wall)
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced_walls.append(wl.run_pass(lib, wl.generate(lib, seed), tally).wall)
        finally:
            tracer.uninstall()
        if not _another(time.perf_counter() - start, len(untraced), seconds):
            break
    span_ns, aggregate_ns = wrapper_cost_ns()
    values = tracer.metrics(span_ns, aggregate_ns)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)
    untraced_s = statistics.median(untraced)
    human = {
        "rounds": (len(untraced), "count"),
        "untraced_pass_s": (untraced_s, "s"),
        "traced_pass_s": (statistics.median(traced_walls), "s"),
        "traced_minus_untraced_s": (statistics.median(traced_walls) - untraced_s, "s"),
        "untraced_pass_range_s": (max(untraced) - min(untraced), "s"),
        "span_wrapper_ns": (span_ns, "ns"),
        "aggregate_wrapper_ns": (aggregate_ns, "ns"),
        "trace_file": (str(trace_path.relative_to(ROOT)), ""),
    }
    return values, human


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curvesys" / "__init__.py").is_file():
        _fail(f"no curvesys sources under {SRC}; run from a source checkout")
    if not (ROOT / "corpus" / "grids").is_dir():
        _fail(f"no grid corpus under {ROOT / 'corpus'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import curvesys
    from workloads import WORKLOADS, Tally, library

    if not Path(curvesys.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported curvesys from {curvesys.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    lib = library()
    tally = Tally()

    if args.trace:
        trace_path = ROOT / ".bench_build" / "perfbench" / f"trace-{wl.name}-seed{args.seed}.json"
        from tracing import PER_LAYER

        values, human = traced(wl, lib, args.seed, args.seconds, tally, trace_path)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, human = measure(wl, lib, args.seed, args.seconds, tally)
        units = dict(END_TO_END)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked, mismatched = golden_grids(lib)
    attempted = tally.attempted + checked
    failed = tally.failed + mismatched

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in human.items():
        print(f"  {name:34s} {value} {unit}")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]} {unit}")
    print(f"  {'failure_ratio':34s} {tally.failure_ratio} ({tally.failed}/{tally.attempted})")
    print(f"  {'golden_grids':34s} {checked - mismatched}/{checked} byte-identical")
    for note in tally.notes:
        print(f"  failed: {note}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
