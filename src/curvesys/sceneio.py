"""Scene file format: JSON with fixed field names.

A scene file is a single object::

    {
      "name": "...",
      "vertices": [{"id": 0, "halfedges_ccw": [0, 2, 1, 3]}, ...],
      "edges":    [{"id": 0, "half": [0, 1], "curve": "a", "marker": [1, 0]}, ...],
      "curves":   [{"id": "a"}, ...]
    }

``marker`` is optional per edge.  load(save(s)) is isomorphic to s (in fact it
preserves all ids verbatim).  Expected component counts are constructor-side
metadata and are not serialized.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .errors import InvalidScene
from .scene import Curve, Edge, Scene, Vertex

__all__ = ["scene_to_dict", "scene_from_dict", "save_scene", "load_scene"]


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
    try:
        vertices = [
            Vertex(int(v["id"]), tuple(int(h) for h in v["halfedges_ccw"]))
            for v in data["vertices"]
        ]
        edges = []
        for e in data["edges"]:
            h1, h2 = e["half"]
            marker = e.get("marker")
            if marker is not None:
                if len(marker) != 2:
                    raise ValueError(f"edge marker must have 2 entries, got {marker!r}")
                marker = (int(marker[0]), int(marker[1]))
            edges.append(Edge(int(e["id"]), (int(h1), int(h2)), str(e["curve"]), marker))
        curves = [Curve(str(c["id"])) for c in data["curves"]]
        name = str(data.get("name", "scene"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScene(f"malformed scene file: {exc}") from exc
    return Scene(name=name, vertices=vertices, edges=edges, curves=curves)


def save_scene(scene: Scene, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=None) + "\n")


def load_scene(path: Union[str, Path]) -> Scene:
    return scene_from_dict(json.loads(Path(path).read_text()))
