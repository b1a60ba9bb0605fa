"""Curve systems on oriented surfaces: resolution products, scenes, twists.

The package has four layers:

- ``curvesys.torus``: exact arithmetic on torus classes (vectors up to sign).
- ``curvesys.scene`` / ``curvesys.grids`` / ``curvesys.sceneio``: combinatorial
  multicurve configurations as rotation systems, crossing resolution, and the
  scene file format.
- ``curvesys.dtcoords``: pants decompositions and twist coordinates.
- ``curvesys.harness``: executable verification suites over all of the above,
  also exposed through the ``curvesys`` command line tool.
"""

from .torus import (
    TorusClass,
    convexity_profile,
    dehn_twist,
    enumerate_classes,
    enumerate_primitive_classes,
    intersection,
    multiply,
    normalize,
    power,
    signed_power_multiply,
)
from .scene import (
    ComponentCensus,
    Edge,
    Face,
    Scene,
    SceneDiagnostics,
    Vertex,
    check_region_condition,
    components,
    corner_alternation_ok,
    crossing_count,
    find_bigons,
    parallel_copies,
    resolve,
    scenes_isomorphic,
    trace_faces,
    trivial_components,
    validate,
)
from .grids import torus_grid_scene, torus_lines_scene
from .sceneio import load_scene, save_scene, scene_from_dict, scene_to_dict

__version__ = "0.1.0"

__all__ = [
    "TorusClass",
    "convexity_profile",
    "dehn_twist",
    "enumerate_classes",
    "enumerate_primitive_classes",
    "intersection",
    "multiply",
    "normalize",
    "power",
    "signed_power_multiply",
    "ComponentCensus",
    "Edge",
    "Face",
    "Scene",
    "SceneDiagnostics",
    "Vertex",
    "check_region_condition",
    "components",
    "corner_alternation_ok",
    "crossing_count",
    "find_bigons",
    "parallel_copies",
    "resolve",
    "scenes_isomorphic",
    "trace_faces",
    "trivial_components",
    "validate",
    "torus_grid_scene",
    "torus_lines_scene",
    "load_scene",
    "save_scene",
    "scene_from_dict",
    "scene_to_dict",
]
