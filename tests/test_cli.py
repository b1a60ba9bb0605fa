"""Command line interface."""

import json
import multiprocessing
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import curvesys
from curvesys import cli, harness, scene
from curvesys.cli import main
from curvesys.corpus import bigon_scene, dt_decompositions
from curvesys.dtcoords import DTCoords, save_dt
from curvesys.grids import torus_grid_scene
from curvesys.sceneio import save_scene


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    save_scene(torus_grid_scene(1, 0, 0, 1), path)
    return str(path)


@pytest.fixture
def g2_files(tmp_path):
    d, x = dt_decompositions()["genus2_closed"]
    p1 = tmp_path / "g2.json"
    p2 = tmp_path / "g2_twisted.json"
    save_dt(d, x, p1)
    save_dt(d, DTCoords(x.m, (x.t[0] + 2, x.t[1], x.t[2]), x.b), p2)
    return str(p1), str(p2)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_torus_mul(capsys):
    code, out = run(capsys, "torus", "mul", "1,0", "0,1")
    assert code == 0 and out.strip() == "(1,1)"
    code, out = run(capsys, "torus", "mul", "0,1", "1,0")
    assert out.strip() == "(1,-1)"


def test_torus_int(capsys):
    code, out = run(capsys, "torus", "int", "2,0", "0,3")
    assert code == 0 and out.strip() == "6"


def test_torus_twist(capsys):
    code, out = run(capsys, "torus", "twist", "--along", "1,0", "--on", "0,1")
    assert code == 0 and out.strip() == "(1,1)"
    code, out = run(capsys, "torus", "twist", "--along", "1,0", "--on", "0,1", "--neg")
    assert out.strip() == "(1,-1)"


def test_torus_twist_rejects_multicurve(capsys):
    code = main(["torus", "twist", "--along", "2,0", "--on", "0,1"])
    assert code == 2


def test_torus_profile_csv(capsys):
    code, out = run(
        capsys,
        "torus",
        "profile",
        "--alpha",
        "1,0",
        "--beta",
        "0,1",
        "--gamma",
        "1,2",
        "--range=-2..2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[1:] == ["-2,5", "-1,3", "0,1", "1,1", "2,3"]


def test_torus_synopsis_lines_run_as_written(capsys):
    """Every ``curvesys torus`` line of the synopsis in ``cli.__doc__`` exits
    0, so a value that argparse would read as a flag cannot creep back in."""
    lines = [
        line.split("curvesys ", 1)[1].replace("[--neg]", "")
        for line in cli.__doc__.splitlines()
        if line.strip().startswith("curvesys torus ")
    ]
    assert len(lines) == 4
    for line in lines:
        assert run(capsys, *shlex.split(line))[0] == 0, line


def test_torus_negative_first_coordinates(capsys):
    """The spellings README gives for a class whose first coordinate is
    negative; classes are unoriented, so -1,0 gives what 1,0 gives."""
    assert run(capsys, "torus", "mul", "--", "-1,0", "0,1") == (0, "(1,1)\n")
    assert run(capsys, "torus", "twist", "--along=-1,0", "--on", "0,1") == (0, "(1,1)\n")


def test_scene_validate(capsys, grid_file):
    code, out = run(capsys, "scene", "validate", grid_file)
    assert code == 0
    assert "genus=1" in out and "cellular: True" in out


def test_scene_validate_noncellular_exits_1(capsys, grid_file, tmp_path):
    resolved = tmp_path / "resolved.json"
    run(capsys, "scene", "resolve", grid_file, "--from", "a", "--to", "b",
        "--out", str(resolved))
    code, out = run(capsys, "scene", "validate", str(resolved))
    assert code == 1 and "cellular: False" in out


def test_scene_faces(capsys, grid_file):
    code, out = run(capsys, "scene", "faces", grid_file)
    assert code == 0 and "degree 4" in out


def test_scene_census(capsys, grid_file):
    code, out = run(capsys, "scene", "census", grid_file)
    assert code == 0
    assert "class=(1,0)" in out and "class=(0,1)" in out


def test_scene_resolve_roundtrip(capsys, grid_file, tmp_path):
    out_path = tmp_path / "resolved.json"
    code, _ = run(
        capsys, "scene", "resolve", grid_file, "--from", "a", "--to", "b", "--out", str(out_path)
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert [c["id"] for c in data["curves"]] == ["a*b"]
    code, out = run(capsys, "scene", "census", str(out_path))
    assert "class=(1,1)" in out


def test_scene_bigons(capsys, tmp_path):
    path = tmp_path / "bigon.json"
    save_scene(bigon_scene(), path)
    code, out = run(capsys, "scene", "bigons", str(path), "--from", "a", "--to", "b")
    assert code == 0 and out.startswith("2 bigon(s)")
    code = main(["scene", "resolve", str(path), "--from", "a", "--to", "b"])
    assert code == 2  # bigons present


def test_scene_missing_flags(capsys, grid_file):
    assert main(["scene", "resolve", grid_file]) == 2


def test_scene_unknown_curve(capsys, grid_file):
    assert main(["scene", "resolve", grid_file, "--from", "a", "--to", "zzz"]) == 2


def test_scene_unknown_curve_message_is_not_quoted(capsys):
    path = str(Path(__file__).resolve().parent.parent / "corpus" / "curated" / "bigon_torus.json")
    assert main(["scene", "bigons", path, "--from", "a", "--to", "zz"]) == 2
    assert capsys.readouterr().err == "error: scene 'bigon-control' has no curve 'zz'\n"


def test_corpus_writes_the_corpus(capsys, tmp_path):
    assert main(["corpus", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == f"wrote 758 files under {tmp_path / 'out'}\n"
    assert len(list((tmp_path / "out" / "grids").iterdir())) == 752


def test_corpus_out_under_a_file_exits_2(capsys, tmp_path):
    """An output directory that cannot be made prints one error line, exits
    2 and writes nothing."""
    (tmp_path / "file").write_text("")
    assert main(["corpus", str(tmp_path / "file" / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error:") and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_python_m_curvesys_corpus_is_the_corpus_command(tmp_path):
    (tmp_path / "file").write_text("")
    env = dict(os.environ, PYTHONPATH=str(Path(curvesys.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "curvesys.corpus", str(tmp_path / "file" / "out")],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("i/o error:") and "Traceback" not in done.stderr
    assert done.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def _write_scene(path, vertices, edges, curves):
    data = {
        "name": path.stem,
        "vertices": [{"id": i, "halfedges_ccw": c} for i, c in enumerate(vertices)],
        "edges": [{"id": i, "half": h, "curve": c} for i, (h, c) in enumerate(edges)],
        "curves": [{"id": c} for c in curves],
    }
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "op", [["faces"], ["census"], ["bigons", "--from", "a", "--to", "b"],
           ["resolve", "--from", "a", "--to", "b"], ["validate"]]
)
def test_scene_ops_check_structure_first(capsys, tmp_path, op):
    theta = _write_scene(  # two degree-3 vertices
        tmp_path / "theta.json",
        [[0, 1, 2], [3, 5, 4]],
        [([0, 3], "a"), ([1, 4], "a"), ([2, 5], "b")],
        ["a", "b"],
    )
    path = _write_scene(  # degree-1 ends
        tmp_path / "path.json",
        [[0], [1, 2], [3]],
        [([0, 1], "a"), ([2, 3], "a")],
        ["a", "b"],
    )
    dangling = _write_scene(  # half-edge 1 on no edge, 2 in no vertex
        tmp_path / "dangling.json", [[0, 1]], [([0, 2], "a")], ["a", "b"]
    )
    for file in (theta, path, dangling):
        assert main(["scene", op[0], file, *op[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("marker", [[1], [1, 0, 5]])
def test_scene_bad_marker_exits_2(capsys, tmp_path, marker):
    path = tmp_path / "bad.json"
    save_scene(torus_grid_scene(1, 0, 0, 1), path)
    data = json.loads(path.read_text())
    data["edges"][0]["marker"] = marker
    path.write_text(json.dumps(data))
    assert main(["scene", "validate", str(path)]) == 2
    assert "marker" in capsys.readouterr().err


def test_scene_missing_file(capsys):
    assert main(["scene", "validate", "/no/such/file.json"]) == 2


def test_dt_validate(capsys, g2_files):
    code, out = run(capsys, "dt", "validate", g2_files[0])
    assert code == 0 and "genus 2" in out


def test_dt_twist(capsys, g2_files):
    code, out = run(capsys, "dt", "twist", g2_files[0], "--k", "2,0,0")
    assert code == 0
    assert json.loads(out)["t"] == [5, 0, 1]
    code = main(["dt", "twist", g2_files[0], "--k", "0,1,0"])
    assert code == 2  # twisting a missed curve


def test_dt_solve(capsys, g2_files):
    code, out = run(capsys, "dt", "solve", g2_files[1], g2_files[0])
    assert code == 0 and out.strip() == "2,0,0"


def test_dt_twist_without_k_exits_2(capsys, g2_files):
    assert main(["dt", "twist", g2_files[0]]) == 2
    assert capsys.readouterr().err == "dt twist needs --k\n"


def test_dt_twist_with_a_non_integer_k_exits_2(capsys, g2_files):
    with pytest.raises(SystemExit) as info:
        main(["dt", "twist", g2_files[0], "--k", "1,x"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --k: expected comma-separated integers, got '1,x'\n")


def test_dt_solve_without_a_second_file_exits_2(capsys, g2_files):
    assert main(["dt", "solve", g2_files[0]]) == 2
    assert capsys.readouterr().err == "dt solve needs a second file\n"


def test_verify_prints_the_first_witnesses_of_a_failed_suite(capsys, monkeypatch):
    # One extra trivial component on every resolved scene: each routed case
    # fails, and the verify output lists the first five witnesses.
    def extra_trivial(resolved):
        return [*scene.trivial_components(resolved), types.SimpleNamespace(curve="x")]

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(harness, "trivial_components", extra_trivial)
    code, out = run(capsys, "verify", "--suite", "resolution_oracle", "--bound", "1")
    lines = out.splitlines()
    assert code == 1
    assert lines[0].endswith("109 FAILURE(S)") and lines[-1] == "total: 109 failure(s)"
    routes = [(p, q, *pair) for p, q in ((1, 0), (1, -1), (0, 1)) for pair in ("ab", "ba")]
    assert lines[1:6] == [
        f"    no-trivial-components: {{'p': {p}, 'q': {q}, 'r': 1, 's': 1, 'from': '{frm}', "
        f"'to': '{to}'}} -> 1 trivial vs none"
        for p, q, frm, to in routes[:5]
    ]


def test_verify_ok(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out = run(
        capsys,
        "verify",
        "--suite",
        "twist_coords",
        "--trials",
        "25",
        "--seed",
        "11",
        "--out",
        str(report),
    )
    assert code == 0 and "0 failure(s)" in out
    doc = json.loads(report.read_text())
    assert doc["total_failures"] == 0
    assert doc["suites"][0]["suite"] == "twist_coords"


def test_witness_reproducible_via_cli(capsys, grid_file, tmp_path):
    """The resolution oracle's claim for a witness re-runs from the CLI:
    the resolved census class equals the torus product."""
    code, mul_out = run(capsys, "torus", "mul", "1,0", "0,1")
    assert code == 0
    out_path = tmp_path / "resolved.json"
    run(capsys, "scene", "resolve", grid_file, "--from", "a", "--to", "b", "--out", str(out_path))
    code, census_out = run(capsys, "scene", "census", str(out_path))
    assert f"class={mul_out.strip()}" in census_out


def test_verify_bad_bound(capsys):
    assert main(["verify", "--bound", "0"]) == 2


def test_verify_bad_range_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--range", "3"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --range: expected 'a..b', got '3'\n")


def test_verify_bad_parameter_in_a_worker_exits_2(capsys, monkeypatch):
    # Two suites and two CPUs: twist_coords raises in its worker.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    code = main(["verify", "--suite", "product_laws", "--suite", "twist_coords", "--trials", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: trials must be an integer >= 1, got 0\n"


def test_verify_dead_worker_exits_2(capsys, monkeypatch, tmp_path):
    # Two suites and two CPUs: the twist_bounds worker dies without a report.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "suite_twist_bounds", lambda *args: os._exit(9))
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "twist_bounds", "--suite", "twist_coords", "--trials", "5"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a suite worker process died") and "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def test_verify_dead_oracle_slice_worker_exits_2(capsys, monkeypatch, tmp_path):
    # One suite and two CPUs: resolution_oracle runs in two slices, and the
    # worker of the last one dies without a report.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def die(rep):
        assert os.getpid() != parent, "the last slice ran in-process"
        os._exit(9)

    monkeypatch.setattr(harness, "_check_oracle_controls", die)
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "resolution_oracle", "--bound", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a suite worker process died") and "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def test_verify_oracle_bad_bound_exits_2_before_any_worker(capsys, monkeypatch):
    def no_fork():
        raise AssertionError("a worker was started")

    argv = ["verify", "--suite", "resolution_oracle", "--bound", "0"]
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert main(argv) == 2
    in_process = capsys.readouterr()
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(argv) == 2
    assert capsys.readouterr() == in_process
    assert in_process.err == "error: bound must be an integer >= 1, got 0\n"


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_verify_failed_run_leaves_out_as_it_was(capsys, monkeypatch, tmp_path, cpus, existed):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    out = tmp_path / "report.json"
    if existed:
        out.write_bytes(b"old report\n")
    argv = ["verify", "--suite", "twist_coords", "--suite", "product_laws", "--bound", "1"]
    assert main(argv + ["--trials", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert [f.name for f in tmp_path.iterdir()] == (["report.json"] if existed else [])
    if existed:
        assert out.read_bytes() == b"old report\n"


def _without_millis(path) -> str:
    doc = json.loads(Path(path).read_text())
    for suite in doc["suites"]:
        suite.pop("millis")
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_verify_report_matches_a_run_pinned_to_one_cpu(capsys, tmp_path):
    argv = ["verify", "--bound", "2", "--range=-3..3", "--gamma-bound", "3", "--m-max", "2"]
    argv += ["--trials", "60"]
    assert main(argv + ["--out", str(tmp_path / "workers.json")]) == 0
    # The child pins only itself, to one CPU it may use, and so runs in-process.
    pinned = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from curvesys.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(curvesys.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", pinned, *argv, "--out", str(tmp_path / "serial.json")],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert _without_millis(tmp_path / "workers.json") == _without_millis(tmp_path / "serial.json")


def test_verify_bad_out_path(capsys):
    code = main(
        ["verify", "--suite", "twist_coords", "--trials", "5", "--out", "/no/dir/x.json"]
    )
    assert code == 2


def test_verify_bad_out_path_fails_before_any_suite(capsys, tmp_path):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error:") and not out.parent.exists()


def test_verify_bad_out_path_names_the_path_given(capsys, tmp_path):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", "--suite", "twist_coords", "--trials", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"i/o error: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_verify_out_directory_fails_before_any_suite(capsys, tmp_path):
    assert main(["verify", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("i/o error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "content",
    [
        b'{"name": "cut", "vertices": [{"id": 0, "half',
        b'{"name": "\xff\xfe"}',
        b"[" * 200_000 + b"]" * 200_000,
    ],
    ids=["truncated", "not-utf8", "deeply-nested"],
)
@pytest.mark.parametrize("command", ["scene", "dt"])
def test_unreadable_files_exit_2(capsys, tmp_path, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([command, "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_empty_scene_validate_exits_1(capsys, tmp_path):
    path = _write_scene(tmp_path / "empty.json", [], [], [])
    code, out = run(capsys, "scene", "validate", path)
    assert code == 1
    assert "connected: False  cellular: False" in out
    assert "Traceback" not in capsys.readouterr().err


def test_torus_profile_empty_range_exits_2(capsys):
    argv = ["torus", "profile", "--alpha", "1,0", "--beta", "0,1", "--gamma", "1,2"]
    assert main([*argv, "--range", "3..1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "empty range" in err and "Traceback" not in err
