"""Self-tests of the benchmark: its gates bite and its contract holds.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import PER_LAYER, Tracer, harness_attrs  # noqa: E402


@pytest.fixture
def lib():
    return wl.library()


def _ratio(run_pass, lib, inputs) -> float:
    tally = wl.Tally()
    run_pass(lib, inputs, tally)
    return tally.failure_ratio


def test_pipeline_gates_catch_the_mirrored_convention(lib):
    cases = wl.pipeline_inputs(lib, seed=3)
    assert _ratio(wl.pipeline_pass, lib, cases) == 0
    lib.resolve = functools.partial(lib.resolve, convention="before")
    assert _ratio(wl.pipeline_pass, lib, cases) > 0


def test_verify_gates_catch_the_mirrored_convention(lib, monkeypatch):
    from curvesys import harness

    argv = ["verify", "--suite", "resolution_oracle", "--bound", "2"]
    clean = wl.Tally()
    done = wl.verify_pass(lib, wl.VerifyInputs(argv, {}), clean)
    inputs = wl.VerifyInputs(argv, {"resolution_oracle": (done.ops, done.ops)})
    assert clean.failed == 0 and done.ops > 0
    mirrored = functools.partial(harness.suite_resolution_oracle, convention="before")
    monkeypatch.setattr(harness, "suite_resolution_oracle", mirrored)
    assert _ratio(wl.verify_pass, lib, inputs) > 0


def test_verify_gate_catches_a_suite_that_checks_less(lib):
    argv = ["verify", "--suite", "product_laws", "--bound", "1"]
    tally = wl.Tally()
    done = wl.verify_pass(lib, wl.VerifyInputs(argv, {}), tally)
    assert tally.failed == 0
    expected = {"product_laws": (done.ops + 1, done.ops + 1)}
    assert _ratio(wl.verify_pass, lib, wl.VerifyInputs(argv, expected)) > 0


def test_iso_gate_catches_wrong_answers(lib):
    inputs = wl.iso_inputs(lib, seed=5)
    truths = [p.truth for p in inputs.pairs]
    assert truths.count(True) == truths.count(False) > 0
    assert [p.truth for p in inputs.large] == [True, False]
    assert _ratio(wl.iso_pass, lib, inputs) == 0
    # The second pass carries the false large pair.
    lib.scenes_isomorphic = lambda a, b: True
    assert _ratio(wl.iso_pass, lib, inputs) == (truths.count(False) + 1) / (len(truths) + 1)


def test_grid_vectors_hit_the_crossing_target():
    import random

    rng = random.Random(1)
    for c in (1, 2, 20, 99, 409, 2000):
        for _ in range(20):
            (p, q), (r, s) = wl.grid_vectors(rng, c)
            assert abs(p * s - q * r) == c


def test_traced_counts_repeat_for_a_seed(lib):
    def counts():
        tracer = Tracer()
        tracer.install(lib)
        try:
            cases = wl.pipeline_inputs(lib, seed=4)
            wl.pipeline_pass(lib, cases, wl.Tally())
        finally:
            tracer.uninstall()
        m = tracer.metrics(1.0, 1.0)
        counted = {k: v for k, v in m.items() if k.endswith((".calls", "bytes_in", "bytes_out", ".spans"))}
        return cases, counted

    cases, first = counts()
    assert first["grids.calls"] == len(cases)
    assert first["scene.resolve.calls"] == 2 * len(cases)
    # Set-up serialises without the traced entry points.
    assert first["sceneio.bytes_in"] == sum(len(c.text) for c in cases)
    assert first["torus.calls"] == 0
    assert counts()[1] == first


def test_harness_calls_to_other_layers_are_all_traced():
    from curvesys import harness

    attrs = harness_attrs(harness)
    assert {"run_all", "suite_resolution_oracle", "multiply", "torus_grid_scene", "dt_dehn_twist"} <= set(attrs)
    assert "TorusClass" not in attrs and "SuiteReport" not in attrs


def test_overhead_estimate_counts_every_traced_call(lib):
    tracer = Tracer()
    tracer.install(lib)
    try:
        wl.verify_pass(lib, wl.VerifyInputs(["verify", "--suite", "product_laws", "--bound", "1"], {}), wl.Tally())
    finally:
        tracer.uninstall()
    aggregated = sum(n for n, _ in tracer.aggregates.values())
    assert aggregated > 0
    assert tracer.metrics(1e9, 0.0)["trace.overhead_s"] == len(tracer.spans)
    assert tracer.metrics(0.0, 1e9)["trace.overhead_s"] == aggregated


def test_tracer_restores_every_wrapped_name(lib):
    from curvesys import harness, scene
    from curvesys.torus import TorusClass

    before = (harness.multiply, scene.canonical_form, TorusClass.__str__, lib.resolve)
    tracer = Tracer()
    tracer.install(lib)
    tracer.uninstall()
    assert (harness.multiply, scene.canonical_form, TorusClass.__str__, lib.resolve) == before


def test_benchmark_json_lists_the_printed_metrics():
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scene_iso", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
