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
edge curve labels JSON strings; anything else is rejected.  load(save(s)) is
isomorphic to s (in fact it preserves all ids verbatim).  Expected component counts are
constructor-side metadata and are not serialized.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .errors import InvalidScene
from .scene import Curve, Edge, Scene, Vertex

__all__ = ["scene_to_dict", "scene_from_dict", "save_scene", "load_scene"]

_INT = {int}  # the only accepted type for ids and markers; bool is not int


def scene_to_dict(scene: Scene) -> Dict[str, Any]:
    edges = []
    for e in scene.edges:
        rec: Dict[str, Any] = {"id": e.id, "half": list(e.half), "curve": e.curve}
        if e.marker is not None:
            rec["marker"] = list(e.marker)
        edges.append(rec)
    return {
        "name": scene.name,
        "vertices": [{"id": v.id, "halfedges_ccw": list(v.cycle)} for v in scene.vertices],
        "edges": edges,
        "curves": [{"id": c.id} for c in scene.curves],
    }


def scene_from_dict(data: Dict[str, Any]) -> Scene:
    """Scene of a parsed scene file.  Ids, half-edges and marker entries must
    be plain ints (floats, strings and bools raise InvalidScene), the name and
    curve labels strings, and the tables lists."""
    try:
        if {type(data[k]) for k in ("vertices", "edges", "curves")} != {list}:
            raise ValueError("vertices, edges and curves must be lists")
        vertices = []
        for v in data["vertices"]:
            cycle = tuple(v["halfedges_ccw"])
            if not _INT.issuperset(map(type, (v["id"], *cycle))):
                raise ValueError(f"vertex ids and half-edges must be integers, got {v!r}")
            vertices.append(Vertex(v["id"], cycle))
        edges = []
        for e in data["edges"]:
            h1, h2 = e["half"]
            marker = e.get("marker")
            ints = (e["id"], h1, h2)
            if marker is not None:
                if len(marker) != 2:
                    raise ValueError(f"edge marker must have 2 entries, got {marker!r}")
                marker = (marker[0], marker[1])
                ints += marker
            if not _INT.issuperset(map(type, ints)):
                raise ValueError(f"edge ids, halves and markers must be integers, got {e!r}")
            if type(e["curve"]) is not str:
                raise ValueError(f"edge curve labels must be strings, got {e!r}")
            edges.append(Edge(e["id"], (h1, h2), e["curve"], marker))
        curves = [Curve(c["id"]) for c in data["curves"]]
        name = data.get("name", "scene")
        if not {str}.issuperset(map(type, (name, *(c.id for c in curves)))):
            ids = [c.id for c in curves]
            raise ValueError(f"the name and curve ids must be strings, got {name!r}, {ids!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScene(f"malformed scene file: {exc}") from exc
    return Scene(name=name, vertices=vertices, edges=edges, curves=curves)


def save_scene(scene: Scene, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=None) + "\n")


def load_scene(path: Union[str, Path]) -> Scene:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; too deep nesting
        raise InvalidScene(f"unreadable scene file: {exc}") from exc
    return scene_from_dict(data)
