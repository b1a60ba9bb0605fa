"""The input boundary under fuzzing: JSON-shaped garbage and grammar-aware
mutations of the shipped corpus files go through the scene and coordinate
loaders and the command line.

Each input must raise a ``CurveSysError``, exit 2, or give a structurally
valid scene (or valid coordinates).  A traceback fails, and so does exit 1
from anything but ``scene validate`` on a scene that is not cellular.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from curvesys.cli import main
from curvesys.dtcoords import dt_from_dict, validate_coords, validate_decomposition
from curvesys.errors import CurveSysError
from curvesys.scene import validate
from curvesys.sceneio import scene_from_dict

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SCENE_FILES = sorted((CORPUS / "curated").glob("*.json")) + [
    CORPUS / "grids" / "grid_0_1_1_0.json",
    CORPUS / "grids" / "grid_2_1_3_2.json",
]
DT_FILES = sorted((CORPUS / "dt").glob("*.json"))

# Field names of both formats, so that garbage objects reach past the first lookup.
_KEYS = ("name", "vertices", "edges", "curves", "id", "halfedges_ccw", "half", "curve",
         "marker", "pants", "gluing", "m", "t", "b")

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
    | st.sampled_from(["a", "b", "P.0", "Q.1", "P"])
)
_json = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), kids, max_size=5),
    max_leaves=25,
)


def _containers(node, path=()):
    """Every list and object in a parsed file, with its path."""
    if isinstance(node, (list, dict)):
        yield path, node
        items = enumerate(node) if isinstance(node, list) else node.items()
        for key, child in items:
            yield from _containers(child, path + (key,))


@st.composite
def _mutated(draw, files):
    """A corpus file with one to three grammar-aware mutations: drop,
    duplicate or swap entries of a list or object, or give an entry a value
    of another type."""
    data = copy.deepcopy(json.loads(draw(st.sampled_from(files)).read_text()))
    for _ in range(draw(st.integers(1, 3))):
        spots = [(p, c) for p, c in _containers(data) if c]
        if not spots:
            break
        _, node = draw(st.sampled_from(spots))
        keys = list(range(len(node))) if isinstance(node, list) else list(node)
        key = draw(st.sampled_from(keys))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "retype"]))
        if op == "drop":
            del node[key]
        elif op == "duplicate" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), copy.deepcopy(node[key]))
        elif op == "duplicate":  # an object: copy one value under another key
            node[draw(st.sampled_from(keys))] = copy.deepcopy(node[key])
        elif op == "swap":
            other = draw(st.sampled_from(keys))
            node[key], node[other] = node[other], node[key]
        else:
            old = type(node[key])
            node[key] = draw(_json.filter(lambda v: type(v) is not old))
    return data


def _load_scene_or_error(data):
    try:
        scene = scene_from_dict(data)
        validate(scene)
    except CurveSysError:
        pass


def _load_dt_or_error(data):
    try:
        d, x = dt_from_dict(data)
        validate_decomposition(d)
        validate_coords(d, x)
    except CurveSysError:
        pass


_SCENE_COMMANDS = (
    ["validate"],
    ["faces"],
    ["census"],
    ["resolve", "--from", "a", "--to", "b"],
    ["bigons", "--from", "a", "--to", "b"],
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_scene_cli(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(data))
        for op in _SCENE_COMMANDS:
            code, out, err = _run(["scene", op[0], str(path), *op[1:]])
            if code == 1:
                assert op == ["validate"] and "cellular: False" in out, (op, out, err)
            else:
                assert code in (0, 2), (op, code, err)
            if code == 2:
                assert err.startswith("error:"), (op, err)


def _check_dt_cli(data, other):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dt.json"
        path.write_text(json.dumps(data))
        for argv in (
            ["dt", "validate", str(path)],
            ["dt", "twist", str(path), "--k", "1,0,0"],
            ["dt", "solve", str(path), str(other)],
            ["dt", "solve", str(other), str(path)],
        ):
            code, _, err = _run(argv)
            assert code in (0, 2), (argv, code, err)
            if code == 2:
                assert err.startswith("error:") or "needs" in err or "different" in err, err


_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(_json)
def test_loaders_take_json_garbage(data):
    _load_scene_or_error(data)
    _load_dt_or_error(data)


@_FUZZ
@given(_mutated(SCENE_FILES))
def test_scene_loader_takes_mutated_corpus_files(data):
    _load_scene_or_error(data)


@_FUZZ
@given(_mutated(DT_FILES))
def test_dt_loader_takes_mutated_corpus_files(data):
    _load_dt_or_error(data)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_mutated(SCENE_FILES), _json))
def test_scene_commands_take_mutated_files(data):
    _check_scene_cli(data)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_mutated(DT_FILES), _json), st.sampled_from(DT_FILES))
def test_dt_commands_take_mutated_files(data, other):
    _check_dt_cli(data, other)


def _exit_code(argv):
    """The exit status of ``main``, counting argparse's usage exit."""
    try:
        return _run(argv)[0]
    except SystemExit as exc:
        return exc.code


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(max_size=64) | st.builds(lambda b: b'{"vertices": [' + b, st.binary(max_size=32)))
def test_commands_take_arbitrary_bytes(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bytes.json"
        path.write_bytes(content)
        for command in ("scene", "dt"):
            assert _exit_code([command, "validate", str(path)]) == 2


_vectors = st.from_regex(r"\A-?[0-9]{1,2},-?[0-9]{1,2}\Z") | st.text(max_size=5)
_ranges = st.from_regex(r"\A-?[0-9]{1,2}\.\.-?[0-9]{1,2}\Z") | st.text(max_size=5)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_vectors, _vectors, _vectors, _ranges)
def test_torus_commands_take_arbitrary_arguments(a, b, c, n_range):
    for argv in (
        ["torus", "mul", a, b],
        ["torus", "int", a, b],
        ["torus", "twist", "--along", a, "--on", b],
        ["torus", "profile", "--alpha", a, "--beta", b, "--gamma", c, "--range", n_range],
    ):
        assert _exit_code(argv) in (0, 2), argv


@pytest.mark.parametrize("path", SCENE_FILES + DT_FILES, ids=lambda p: p.name)
def test_unmutated_corpus_files_pass_every_command(path):
    data = json.loads(path.read_text())
    if path.parent.name == "dt":
        dt_from_dict(data)
        _check_dt_cli(data, path)
    else:
        validate(scene_from_dict(data))
        _check_scene_cli(data)
