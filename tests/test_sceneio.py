"""Scene file format round trips."""

import json
from pathlib import Path

import pytest

from curvesys.corpus import bigon_scene, genus2_filling_pair, trivial_component_scene
from curvesys.errors import InvalidScene
from curvesys.grids import torus_grid_scene
from curvesys.sceneio import load_scene, save_scene, scene_from_dict, scene_to_dict
from curvesys.scene import scenes_isomorphic, validate


@pytest.mark.parametrize(
    "scene",
    [
        torus_grid_scene(1, 0, 0, 1),
        torus_grid_scene(3, -2, 1, 4),
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
    validate(back, require_cellular=False)


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


@pytest.mark.parametrize("marker", [[1], [1, 0, 5], [], 7])
def test_marker_needs_exactly_two_entries(marker):
    d = scene_to_dict(torus_grid_scene(1, 0, 0, 1))
    d["edges"][0]["marker"] = marker
    with pytest.raises(InvalidScene):
        scene_from_dict(d)


def test_shipped_corpus_matches_fresh_builds():
    """The grid constructor is deterministic: rebuilding a corpus scene from
    its parameters reproduces the shipped file exactly."""
    corpus_dir = Path(__file__).resolve().parent.parent / "corpus" / "grids"
    if not corpus_dir.is_dir():
        pytest.skip("corpus not generated")
    for pqrs in [(1, 0, 1, 1), (1, -2, 3, 4), (0, 1, 4, -3)]:
        name = "grid_{}_{}_{}_{}.json".format(*pqrs)
        shipped = load_scene(corpus_dir / name)
        fresh = torus_grid_scene(*pqrs)
        assert scene_to_dict(shipped) == scene_to_dict(fresh), name
