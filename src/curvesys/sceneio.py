"""Scene file format: JSON with fixed field names.

A scene file is a single object::

    {
      "name": "...",
      "vertices": [{"id": 0, "halfedges_ccw": [0, 2, 1, 3]}, ...],
      "edges":    [{"id": 0, "half": [0, 1], "curve": "a", "marker": [1, 0]}, ...],
      "curves":   [{"id": "a"}, ...]
    }

``marker`` is optional per edge.  The three tables must be JSON lists, ids,
half-edges and marker entries plain JSON integers, and the name, curve ids and
edge curve labels JSON strings; anything else is rejected.  The loader hands
the tables as columns to the scene's checked constructor (only outside
callers pass records, to ``Scene(...)``), so a file that is not a valid
rotation system raises its SceneError at load (the command line exits 2); the
writer reads the index's columns with the reader that builds records, and
neither builds one.  load(save(s)) has records and curves equal to s's, ids
verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .errors import InvalidScene
from .scene import Scene, _checked_scene, _columns

__all__ = ["scene_to_dict", "scene_from_dict", "save_scene", "load_scene"]


def scene_to_dict(scene: Scene) -> Dict[str, Any]:
    vid, cycles, eid, halves, curve, marker = _columns(scene._index)
    edges = []
    for i, (a, b), c, m in zip(eid, halves, curve, marker):
        rec: Dict[str, Any] = {"id": i, "half": [a, b], "curve": c}
        if m is not None:
            rec["marker"] = [*m]
        edges.append(rec)
    return {
        "name": scene.name,
        "vertices": [{"id": v, "halfedges_ccw": [*c]} for v, c in zip(vid, cycles)],
        "edges": edges,
        "curves": [{"id": c} for c in scene.curves],
    }


def scene_from_dict(data: Dict[str, Any]) -> Scene:
    """Scene of a parsed scene file, checked as it is built.  Ids, half-edges
    and marker entries must be plain ints (floats, strings and bools raise
    InvalidScene), the name and curve labels strings, and the tables lists;
    the scene's checked constructor holds every check but the name's and the
    tables'."""
    try:
        vs, es, cs = data["vertices"], data["edges"], data["curves"]
        if {type(vs), type(es), type(cs)} != {list}:
            raise ValueError("vertices, edges and curves must be lists")
        vid = [v["id"] for v in vs]
        cycles = [v["halfedges_ccw"] for v in vs]
        eid = [e["id"] for e in es]
        halves = [e["half"] for e in es]
        curve = [e["curve"] for e in es]
        marker = [e.get("marker") for e in es]
        curves = [c["id"] for c in cs]
        name = data.get("name", "scene")
        if type(name) is not str:
            raise ValueError(f"the scene name must be a string, got {name!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScene(f"malformed scene file: {exc}") from exc
    return _checked_scene(name, vid, cycles, eid, halves, curve, marker, curves)


def save_scene(scene: Scene, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=None) + "\n")


def load_scene(path: Union[str, Path]) -> Scene:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; too deep nesting
        raise InvalidScene(f"unreadable scene file: {exc}") from exc
    return scene_from_dict(data)
