"""Scene file format round trips."""

import json
from pathlib import Path

import pytest

from curvesys.cli import main
from curvesys.corpus import (
    bigon_scene,
    genus2_filling_pair,
    grid_corpus_parameters,
    trivial_component_scene,
    write_corpus,
)
from curvesys.errors import InvalidClass, InvalidScene
from curvesys.grids import torus_grid_scene
from curvesys.sceneio import load_scene, save_scene, scene_from_dict, scene_to_dict
from curvesys.scene import Edge, Vertex, scenes_isomorphic, validate


@pytest.mark.parametrize(
    "scene",
    [
        torus_grid_scene(1, 0, 0, 1),
        torus_grid_scene(3, -2, 1, 4),
        torus_grid_scene(2, 0, 0, 3),
        genus2_filling_pair(),
        bigon_scene(),
        trivial_component_scene(),
    ],
    ids=lambda s: s.name,
)
def test_round_trip(tmp_path, scene):
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert scene_to_dict(back) == scene_to_dict(scene)
    assert scenes_isomorphic(scene, back)
    assert back.curves == scene.curves
    assert validate(back) == validate(scene)


def test_field_names_fixed(tmp_path):
    path = tmp_path / "scene.json"
    save_scene(torus_grid_scene(1, 0, 0, 1), path)
    data = json.loads(path.read_text())
    assert set(data) == {"name", "vertices", "edges", "curves"}
    assert set(data["vertices"][0]) == {"id", "halfedges_ccw"}
    assert set(data["edges"][0]) == {"id", "half", "curve", "marker"}
    assert set(data["curves"][0]) == {"id"}


def test_marker_optional():
    d = scene_to_dict(genus2_filling_pair())
    assert all("marker" not in e for e in d["edges"])
    assert scenes_isomorphic(scene_from_dict(d), genus2_filling_pair())


def test_malformed_file_rejected():
    with pytest.raises(InvalidScene):
        scene_from_dict({"vertices": [], "edges": []})
    with pytest.raises(InvalidScene):
        scene_from_dict({"name": "x", "vertices": [{"id": "??"}], "edges": [], "curves": []})


@pytest.mark.parametrize("table, what", [("vertices", "vertex"), ("edges", "edge")])
def test_duplicate_ids_rejected(table, what):
    d = scene_to_dict(torus_grid_scene(1, 0, 0, 2))
    d[table][1]["id"] = d[table][0]["id"]
    with pytest.raises(InvalidScene, match=f"^duplicate {what} ids$"):
        scene_from_dict(d)


@pytest.mark.parametrize("marker", [[1], [1, 0, 5], [], 7])
def test_marker_needs_exactly_two_entries(marker):
    d = scene_to_dict(torus_grid_scene(1, 0, 0, 1))
    d["edges"][0]["marker"] = marker
    with pytest.raises(InvalidScene):
        scene_from_dict(d)


@pytest.mark.parametrize(
    "path, value",
    [
        (("edges", 0, "marker"), [1.5, 0]),
        (("edges", 0, "marker"), ["3", 0]),
        (("edges", 0, "marker"), [True, 0]),
        (("vertices", 0, "id"), "0"),
        (("vertices", 0, "halfedges_ccw", 0), 0.0),
        (("edges", 0, "half", 0), 0.0),
        (("edges", 1, "id"), True),
    ],
    ids=[
        "marker-float",
        "marker-str",
        "marker-bool",
        "vertex-id-str",
        "cycle-float",
        "half-float",
        "edge-id-bool",
    ],
)
def test_loader_takes_plain_ints_only(tmp_path, capsys, path, value):
    """Floats, numeric strings and bools are rejected, never coerced, both by
    the loader and at the command line (exit 2)."""
    d = scene_to_dict(torus_grid_scene(1, 0, 0, 1))
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(InvalidScene, match="integers"):
        scene_from_dict(d)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(d))
    assert main(["scene", "validate", str(file)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _set(path, value):
    def corrupt(d):
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return d

    return corrupt


def _relabel_curve(new):
    def corrupt(d):
        for e in d["edges"]:
            e["curve"] = new if e["curve"] == "a" else e["curve"]
        d["curves"][0]["id"] = new
        return d

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: {**d, "vertices": {}, "edges": {}, "curves": {}},
        _set(("vertices",), {}),
        _set(("edges",), {}),
        _set(("name",), 5),
        _set(("name",), ["a"]),
        _set(("curves", 0, "id"), 5),
        _set(("edges", 0, "curve"), ["a"]),
        _relabel_curve(["a"]),
        _relabel_curve(5),
    ],
    ids=[
        "tables-as-objects",
        "vertices-as-object",
        "edges-as-object",
        "name-int",
        "name-list",
        "curve-id-int",
        "edge-curve-list",
        "curve-relabelled-list",
        "curve-relabelled-int",
    ],
)
def test_loader_takes_lists_and_strings_only(tmp_path, capsys, corrupt):
    """Tables that are not lists and names or curve labels that are not
    strings are rejected, never coerced with str(), both by the loader and at
    the command line (exit 2)."""
    d = corrupt(scene_to_dict(torus_grid_scene(1, 0, 0, 1)))
    with pytest.raises(InvalidScene, match="must be"):
        scene_from_dict(d)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(d))
    assert main(["scene", "validate", str(file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_shipped_corpus_matches_fresh_builds(tmp_path):
    """The constructors are deterministic: regenerating the whole corpus
    reproduces every shipped file byte for byte, and no file more or less."""
    shipped_root = Path(__file__).resolve().parent.parent / "corpus"
    if not shipped_root.is_dir():
        pytest.skip("corpus not generated")
    n = write_corpus(tmp_path)
    shipped = sorted(p.relative_to(shipped_root) for p in shipped_root.rglob("*.json"))
    fresh = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json"))
    assert fresh == shipped
    assert n == len(shipped) == 758
    for rel in shipped:
        assert (tmp_path / rel).read_bytes() == (shipped_root / rel).read_bytes(), rel


@pytest.mark.parametrize("bound", [0, True, 1.5])
def test_grid_corpus_parameters_reject_a_bad_bound(bound):
    with pytest.raises(InvalidClass):
        grid_corpus_parameters(bound)


def test_load_save_and_resolve_build_no_records(tmp_path, monkeypatch):
    """The loader, the writer and ``scene resolve --out`` work on the checked
    index and make no Vertex or Edge record."""
    made = []
    for cls in (Vertex, Edge):

        def counted(self, *args, _init=cls.__init__, **kwargs):
            made.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    for name in ("grids/grid_2_1_3_2.json", "curated/genus2_filling_pair.json"):
        scene = load_scene(corpus / name)
        save_scene(scene, tmp_path / "saved.json")
        assert (tmp_path / "saved.json").read_text() == (corpus / name).read_text()
        out = tmp_path / "resolved.json"
        assert main(["scene", "resolve", str(corpus / name), "--from", "a", "--to", "b",
                     "--out", str(out)]) == 0
        save_scene(load_scene(out), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == out.read_text()
    assert made == []
    assert Vertex(0, (0, 1)) and made  # the counter counts


def test_loader_raises_structural_errors_at_load():
    """A file that is not a rotation system fails at load, before any
    operation, with the error its first operation used to raise."""
    d = scene_to_dict(torus_grid_scene(1, 0, 0, 1))
    d["vertices"][0]["halfedges_ccw"] = d["vertices"][0]["halfedges_ccw"][:3]
    with pytest.raises(InvalidScene, match="degree 3"):
        scene_from_dict(d)
