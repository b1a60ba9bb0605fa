"""Combinatorial multicurve configurations on closed oriented surfaces.

A Scene is a rotation system: each vertex lists its incident half-edges in
counterclockwise order (four at a transverse crossing, two at a plain point on
a curve), each edge pairs two half-edges and belongs to a named curve, and
edges may carry integer homology markers (torus scenes).  Faces are the orbits
of the tracing permutation h -> ccw-next of partner(h); a connected rotation
system encodes a cellular embedding in the closed oriented surface of genus
(2 - V + E - F) / 2.

Validation has two levels.  Structural validity (half-edge bookkeeping,
alternating crossings, curve closure) is what every operation relies on.
Cellularity is stricter: the scene must be connected, and a scene carrying
homology markers must encode genus 1, since markers declare a torus
configuration.  Resolving all crossings of a pair of curves usually leaves a
disjoint union of circles, which no longer embeds cellularly; such scenes stay
structurally valid and support the census/triviality operations, but
``validate`` flags them as ``NonCellular`` unless asked not to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import (
    BigonPresent,
    ComponentHasCrossings,
    DanglingHalfEdge,
    InvalidClass,
    InvalidCount,
    InvalidScene,
    MissingMarkers,
    NonAlternatingCrossing,
    NonCellular,
    NonOrientableOrCorrupt,
    SelfCrossingCurve,
    UnknownCurve,
)
from .torus import TorusClass, normalize

__all__ = [
    "Vertex",
    "Edge",
    "Curve",
    "Scene",
    "Face",
    "Component",
    "ComponentCensus",
    "SceneDiagnostics",
    "validate",
    "trace_faces",
    "euler_genus",
    "find_bigons",
    "check_region_condition",
    "resolve",
    "components",
    "trivial_components",
    "parallel_copies",
    "crossing_count",
    "torus_class_of_component",
    "corner_alternation_ok",
    "scenes_isomorphic",
    "canonical_form",
]

Marker = Tuple[int, int]


@dataclass(frozen=True)
class Vertex:
    id: int
    cycle: Tuple[int, ...]  # incident half-edge ids, counterclockwise


@dataclass(frozen=True)
class Edge:
    id: int
    half: Tuple[int, int]
    curve: str
    marker: Optional[Marker] = None


@dataclass(frozen=True)
class Curve:
    id: str
    expected_components: Optional[int] = None


class Scene:
    """An immutable rotation system with curve-labelled edges.

    The constructor indexes half-edges but performs no validation; call
    :func:`validate` to check invariants and obtain diagnostics.
    """

    __slots__ = (
        "name",
        "vertices",
        "edges",
        "curves",
        "_vertex_slot",
        "_edge_of_half",
        "_vertex_by_id",
        "_edge_by_id",
        "_curve_by_id",
        "_half_problems",
    )

    def __init__(
        self,
        name: str,
        vertices: Iterable[Vertex],
        edges: Iterable[Edge],
        curves: Iterable[Curve],
    ) -> None:
        self.name = name
        self.vertices: Tuple[Vertex, ...] = tuple(vertices)
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self.curves: Tuple[Curve, ...] = tuple(curves)

        self._vertex_slot: Dict[int, Tuple[Vertex, int]] = {}
        self._edge_of_half: Dict[int, Edge] = {}
        self._half_problems: List[str] = []
        for v in self.vertices:
            for i, h in enumerate(v.cycle):
                if h in self._vertex_slot:
                    self._half_problems.append(f"half-edge {h} sits in two vertex cycles")
                else:
                    self._vertex_slot[h] = (v, i)
        for e in self.edges:
            for h in e.half:
                if h in self._edge_of_half:
                    self._half_problems.append(f"half-edge {h} belongs to two edges")
                else:
                    self._edge_of_half[h] = e
        self._vertex_by_id = {v.id: v for v in self.vertices}
        self._edge_by_id = {e.id: e for e in self.edges}
        self._curve_by_id = {c.id: c for c in self.curves}

    # -- basic accessors -------------------------------------------------

    def vertex_of(self, half: int) -> Vertex:
        try:
            return self._vertex_slot[half][0]
        except KeyError:
            raise DanglingHalfEdge(f"half-edge {half} is in no vertex cycle") from None

    def slot_of(self, half: int) -> int:
        return self._vertex_slot[half][1]

    def edge_of(self, half: int) -> Edge:
        try:
            return self._edge_of_half[half]
        except KeyError:
            raise DanglingHalfEdge(f"half-edge {half} is on no edge") from None

    def curve_of(self, half: int) -> str:
        return self.edge_of(half).curve

    def partner(self, half: int) -> int:
        e = self.edge_of(half)
        return e.half[1] if e.half[0] == half else e.half[0]

    def ccw_next(self, half: int) -> int:
        v, i = self._vertex_slot[half]
        return v.cycle[(i + 1) % len(v.cycle)]

    def face_next(self, half: int) -> int:
        """Successor in the face-tracing permutation."""
        return self.ccw_next(self.partner(half))

    def strand_continue(self, half: int) -> int:
        """Continue a curve strand through the vertex at which ``half`` ends."""
        v, i = self._vertex_slot[half]
        d = len(v.cycle)
        return v.cycle[(i + 2) % d] if d == 4 else v.cycle[1 - i]

    def half_edges(self) -> List[int]:
        return sorted(self._vertex_slot)

    def curve_ids(self) -> List[str]:
        return [c.id for c in self.curves]

    def has_curve(self, curve_id: str) -> bool:
        return curve_id in self._curve_by_id

    def require_curve(self, curve_id: str) -> Curve:
        try:
            return self._curve_by_id[curve_id]
        except KeyError:
            raise UnknownCurve(f"scene {self.name!r} has no curve {curve_id!r}") from None

    def edges_of_curve(self, curve_id: str) -> List[Edge]:
        return [e for e in self.edges if e.curve == curve_id]

    def has_markers(self) -> bool:
        return bool(self.edges) and all(e.marker is not None for e in self.edges)

    def max_ids(self) -> Tuple[int, int, int]:
        """(max vertex id, max edge id, max half-edge id), -1 when empty."""
        mv = max((v.id for v in self.vertices), default=-1)
        me = max((e.id for e in self.edges), default=-1)
        mh = max(self._vertex_slot, default=-1)
        return mv, me, mh

    def __repr__(self) -> str:
        return (
            f"Scene({self.name!r}, V={len(self.vertices)}, "
            f"E={len(self.edges)}, curves={[c.id for c in self.curves]})"
        )


@dataclass(frozen=True)
class Face:
    """One orbit of the face-tracing permutation, with curve-labelled sides."""

    sides: Tuple[Tuple[int, str], ...]  # (half-edge id, curve id)

    @property
    def degree(self) -> int:
        return len(self.sides)

    def side_curves(self) -> Tuple[str, ...]:
        return tuple(c for _, c in self.sides)

    def side_edges(self, scene: Scene) -> Tuple[int, ...]:
        return tuple(scene.edge_of(h).id for h, _ in self.sides)


@dataclass(frozen=True)
class Component:
    """A closed strand of one curve: its edges in traversal order."""

    curve: str
    edges: Tuple[int, ...]
    vertices: Tuple[int, ...]
    marker_sum: Optional[Marker]

    def homology(self) -> Optional[TorusClass]:
        if self.marker_sum is None or self.marker_sum == (0, 0):
            return None
        return normalize(*self.marker_sum)


@dataclass(frozen=True)
class ComponentCensus:
    components: Tuple[Component, ...]

    def of_curve(self, curve_id: str) -> List[Component]:
        return [c for c in self.components if c.curve == curve_id]

    def class_multiset(self, curve_id: Optional[str] = None) -> Dict[TorusClass, int]:
        """How many components of each (nonzero) class, optionally per curve."""
        out: Dict[TorusClass, int] = {}
        for comp in self.components:
            if curve_id is not None and comp.curve != curve_id:
                continue
            cls = comp.homology()
            if cls is not None:
                out[cls] = out.get(cls, 0) + 1
        return out


@dataclass(frozen=True)
class SceneDiagnostics:
    v: int
    e: int
    f: int
    chi: int
    genus: Optional[int]  # None when the scene is disconnected
    connected: bool
    cellular: bool
    has_markers: bool
    face_degrees: Tuple[int, ...]
    components_per_curve: Dict[str, int] = field(hash=False, default_factory=dict)


# ======================================================================
# Validation
# ======================================================================


def validate(scene: Scene, require_cellular: bool = True) -> SceneDiagnostics:
    """Check scene invariants; raise a specific error on the first violation.

    With ``require_cellular=False`` only structural invariants are enforced,
    which is the right level for post-resolution scenes and for configurations
    that deliberately contain components of several graph components.
    """
    _check_structure(scene)

    census = components(scene)
    per_curve: Dict[str, int] = {c.id: 0 for c in scene.curves}
    for comp in census.components:
        per_curve[comp.curve] += 1
    for c in scene.curves:
        if c.expected_components is not None and per_curve[c.id] != c.expected_components:
            raise InvalidScene(
                f"curve {c.id!r} has {per_curve[c.id]} components, "
                f"expected {c.expected_components}"
            )

    faces = trace_faces(scene)
    v, e, f = len(scene.vertices), len(scene.edges), len(faces)
    chi = v - e + f
    connected = _is_connected(scene)
    genus: Optional[int] = None
    if connected:
        if chi % 2 != 0 or chi > 2:
            raise NonOrientableOrCorrupt(f"connected scene with chi = {chi}")
        genus = (2 - chi) // 2
    has_markers = scene.has_markers()
    cellular = connected and (genus == 1 if has_markers else True)

    if require_cellular and not cellular:
        if not connected:
            raise NonCellular(
                f"scene {scene.name!r} is disconnected; complement regions "
                "are not all disks"
            )
        raise NonCellular(
            f"scene {scene.name!r} carries torus markers but encodes genus {genus}"
        )

    return SceneDiagnostics(
        v=v,
        e=e,
        f=f,
        chi=chi,
        genus=genus,
        connected=connected,
        cellular=cellular,
        has_markers=has_markers,
        face_degrees=tuple(sorted(face.degree for face in faces)),
        components_per_curve=per_curve,
    )


def _check_structure(scene: Scene) -> None:
    if len({v.id for v in scene.vertices}) != len(scene.vertices):
        raise InvalidScene("duplicate vertex ids")
    if len({e.id for e in scene.edges}) != len(scene.edges):
        raise InvalidScene("duplicate edge ids")
    if len({c.id for c in scene.curves}) != len(scene.curves):
        raise InvalidScene("duplicate curve ids")
    if scene._half_problems:
        raise DanglingHalfEdge(scene._half_problems[0])

    in_vertices = set(scene._vertex_slot)
    in_edges = set(scene._edge_of_half)
    for h in in_vertices - in_edges:
        raise DanglingHalfEdge(f"half-edge {h} is in a vertex cycle but on no edge")
    for h in in_edges - in_vertices:
        raise DanglingHalfEdge(f"half-edge {h} is on an edge but in no vertex cycle")
    for h in in_vertices:
        if not isinstance(h, int):
            raise InvalidScene(f"half-edge ids must be integers, got {h!r}")

    known_curves = {c.id for c in scene.curves}
    for e in scene.edges:
        if e.half[0] == e.half[1]:
            raise InvalidScene(f"edge {e.id} repeats one half-edge")
        if e.curve not in known_curves:
            raise InvalidScene(f"edge {e.id} references unknown curve {e.curve!r}")
        if e.marker is not None:
            p, q = e.marker
            if not isinstance(p, int) or not isinstance(q, int):
                raise InvalidScene(f"edge {e.id} has a non-integer marker {e.marker!r}")

    for v in scene.vertices:
        d = len(v.cycle)
        if d not in (2, 4):
            raise InvalidScene(f"vertex {v.id} has degree {d}, expected 2 or 4")
        labels = [scene.curve_of(h) for h in v.cycle]
        if d == 2:
            if labels[0] != labels[1]:
                raise InvalidScene(
                    f"plain vertex {v.id} joins different curves {labels[0]!r}, {labels[1]!r}"
                )
        else:
            if not (labels[0] == labels[2] and labels[1] == labels[3] and labels[0] != labels[1]):
                raise NonAlternatingCrossing(
                    f"vertex {v.id} has curve pattern {labels}, expected A,B,A,B"
                )


def _is_connected(scene: Scene) -> bool:
    halves = scene._vertex_slot
    return not halves or len(_orbit(scene, next(iter(halves)))) == len(halves)


def _orbit(scene: Scene, start: int) -> List[int]:
    """The half-edges of start's graph component, i.e. its orbit under
    <ccw_next, partner>, in breadth-first order from start."""
    slot = scene._vertex_slot
    edge_of_half = scene._edge_of_half
    seen = {start}
    out = [start]
    try:
        for h in out:
            v, i = slot[h]
            a, b = edge_of_half[h].half
            for x in (v.cycle[(i + 1) % len(v.cycle)], b if a == h else a):
                if x not in seen:
                    seen.add(x)
                    out.append(x)
    except KeyError as exc:
        raise DanglingHalfEdge(
            f"half-edge {exc.args[0]} is not in both a vertex cycle and an edge"
        ) from None
    return out


# ======================================================================
# Faces and the Euler count
# ======================================================================


def trace_faces(scene: Scene) -> List[Face]:
    """Orbits of the face-tracing permutation, each started at its smallest
    unused half-edge id.  On a disconnected scene these are the faces of the
    per-component surfaces, not of any common ambient surface."""
    faces: List[Face] = []
    seen: Set[int] = set()
    for start in scene.half_edges():
        if start in seen:
            continue
        sides: List[Tuple[int, str]] = []
        h = start
        while True:
            seen.add(h)
            sides.append((h, scene.curve_of(h)))
            h = scene.face_next(h)
            if h == start:
                break
        faces.append(Face(tuple(sides)))
    return faces


def euler_genus(scene: Scene) -> Tuple[int, int]:
    """(chi, genus) of the closed surface the rotation system encodes.

    A scene that carries homology markers declares itself a torus
    configuration; if its rotation system encodes any other genus the
    configuration cannot be cellular on the torus (e.g. after a resolution
    whose complement contains an annulus), and reporting the collapsed genus
    would be a lie, so this raises NonCellular instead.
    """
    _check_structure(scene)
    if not _is_connected(scene):
        raise NonCellular(f"scene {scene.name!r} is disconnected; genus is undefined")
    f = len(trace_faces(scene))
    chi = len(scene.vertices) - len(scene.edges) + f
    if chi % 2 != 0 or chi > 2:
        raise NonOrientableOrCorrupt(f"chi = {chi} is not the Euler number of a closed surface")
    if scene.has_markers() and chi != 0:
        raise NonCellular(
            f"scene {scene.name!r} declares a torus via markers but its "
            f"rotation system encodes chi = {chi}; not cellular on the torus"
        )
    return chi, (2 - chi) // 2


# ======================================================================
# Bigons and region conditions
# ======================================================================


def find_bigons(scene: Scene, curve_a: str, curve_b: str) -> List[Face]:
    """Degree-2 faces with one side on each of the two curves.

    An empty answer on a two-curve scene certifies that the curves cross
    minimally within their isotopy classes.  Face degree counts half-edge
    sides, so the certificate applies to scenes whose queried curves meet
    only at crossings; a plain 2-valent vertex on a face boundary raises the
    face's degree past 2 even if the face is a geometric bigon.
    """
    scene.require_curve(curve_a)
    scene.require_curve(curve_b)
    want = {curve_a, curve_b}
    return [
        face
        for face in trace_faces(scene)
        if face.degree == 2 and set(face.side_curves()) == want
    ]


def check_region_condition(scene: Scene, c1: str, c2: str, c3: str) -> bool:
    """True iff no complementary region is a triangle with one side on each
    of the three curves.

    The companion quadrilateral condition involves a boundary arc and is
    vacuous on the closed scenes this engine models.  The three curves must be
    pairwise bigon-free (checked; BigonPresent otherwise).
    """
    for cid in (c1, c2, c3):
        scene.require_curve(cid)
    triple = [c1, c2, c3]
    for i in range(3):
        for j in range(i + 1, 3):
            if triple[i] != triple[j] and find_bigons(scene, triple[i], triple[j]):
                raise BigonPresent(
                    f"curves {triple[i]!r} and {triple[j]!r} bound a bigon; "
                    "region condition needs minimal position"
                )
    want = {c1, c2, c3}
    for face in trace_faces(scene):
        if face.degree == 3 and set(face.side_curves()) == want:
            return False
    return True


# ======================================================================
# Components and homology
# ======================================================================


def components(scene: Scene) -> ComponentCensus:
    """Partition every curve's edges into closed strands.

    Traversal starts at the smallest unvisited edge id, walking from that
    edge's first half-edge; markers are summed with signs matching the
    traversal direction.
    """
    visited: Set[int] = set()
    comps: List[Component] = []
    for e0 in sorted(scene.edges, key=lambda e: e.id):
        if e0.id in visited:
            continue
        edges: List[int] = []
        verts: List[int] = []
        total: Optional[List[int]] = [0, 0]
        edge = e0
        entry = e0.half[0]
        while True:
            visited.add(edge.id)
            edges.append(edge.id)
            if edge.marker is None:
                total = None
            elif total is not None:
                sign = 1 if entry == edge.half[0] else -1
                total[0] += sign * edge.marker[0]
                total[1] += sign * edge.marker[1]
            exit_half = edge.half[1] if entry == edge.half[0] else edge.half[0]
            verts.append(scene.vertex_of(exit_half).id)
            entry = scene.strand_continue(exit_half)
            edge = scene.edge_of(entry)
            if edge.id == e0.id and entry == e0.half[0]:
                break
        comps.append(
            Component(
                curve=e0.curve,
                edges=tuple(edges),
                vertices=tuple(verts),
                marker_sum=None if total is None else (total[0], total[1]),
            )
        )
    return ComponentCensus(tuple(comps))


def crossing_count(scene: Scene, curve_a: str, curve_b: str) -> int:
    """Number of 4-valent vertices where the two curves cross."""
    scene.require_curve(curve_a)
    scene.require_curve(curve_b)
    if curve_a == curve_b:
        return 0
    want = {curve_a, curve_b}
    n = 0
    for v in scene.vertices:
        if len(v.cycle) == 4 and {scene.curve_of(h) for h in v.cycle} == want:
            n += 1
    return n


def torus_class_of_component(scene: Scene, comp: Component) -> TorusClass:
    """Homology class of one component, from its signed marker sum."""
    if comp.marker_sum is None:
        raise MissingMarkers(
            f"component of curve {comp.curve!r} has edges without homology markers"
        )
    if comp.marker_sum == (0, 0):
        raise InvalidClass(
            f"component of curve {comp.curve!r} is null-homologous; it has no class"
        )
    return normalize(*comp.marker_sum)


def _component_is_crossing_free(scene: Scene, comp: Component) -> bool:
    return all(len(scene._vertex_by_id[v].cycle) == 2 for v in comp.vertices)


def trivial_components(
    scene: Scene, curves: Optional[Sequence[str]] = None
) -> List[Component]:
    """Crossing-free components that bound a disk.

    On marker-carrying (torus) scenes a component is trivial exactly when its
    signed marker sum vanishes.  Without markers the detector falls back to the
    face criterion: some face's boundary consists of the component's edges,
    each traversed once; that is exact for an innermost circle.  When
    ``curves`` is None all crossing-free components are examined; naming a
    curve whose components still cross something raises ComponentHasCrossings.
    """
    census = components(scene)
    if curves is not None:
        for cid in curves:
            scene.require_curve(cid)
    faces = None
    out: List[Component] = []
    for comp in census.components:
        free = _component_is_crossing_free(scene, comp)
        if curves is None:
            if not free:
                continue
        else:
            if comp.curve not in curves:
                continue
            if not free:
                raise ComponentHasCrossings(
                    f"component of curve {comp.curve!r} passes through a crossing"
                )
        if comp.marker_sum is not None:
            if comp.marker_sum == (0, 0):
                out.append(comp)
            continue
        if faces is None:
            faces = trace_faces(scene)
        edge_multiset = sorted(comp.edges)
        for face in faces:
            if sorted(face.side_edges(scene)) == edge_multiset:
                out.append(comp)
                break
    return out


# ======================================================================
# Resolution (crossing smoothing)
# ======================================================================

_CONVENTIONS = ("after", "before")


def resolve(
    scene: Scene,
    from_curve: str,
    to_curve: str,
    *,
    convention: str = "after",
) -> Scene:
    """Smooth every crossing between the two curves, merging them into one
    fresh curve.

    At a crossing with counterclockwise cycle (..., t, f, ...), the default
    ``after`` convention joins each half-edge of the 'to' curve with the
    half-edge of the 'from' curve immediately following it counterclockwise.
    This choice is pinned by the oracle resolve(grid (1,0)x(0,1), a->b) =
    class (1,1); the mirror-image ``before`` convention exists only so the
    verification harness can prove the oracle detects a flipped convention.

    Input must be bigon-free for the pair (BigonPresent otherwise).  If the
    curves are disjoint the scene is returned with the two curves relabelled
    as one system.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")
    scene.require_curve(from_curve)
    scene.require_curve(to_curve)
    if from_curve == to_curve:
        raise InvalidScene("resolve needs two distinct curve ids")
    if find_bigons(scene, from_curve, to_curve):
        raise BigonPresent(
            f"curves {from_curve!r}, {to_curve!r} bound a bigon; resolve needs minimal position"
        )

    merged = _fresh_curve_id(scene, f"{from_curve}*{to_curve}")
    pair = {from_curve, to_curve}
    step = 1 if convention == "after" else -1

    next_vid = scene.max_ids()[0] + 1
    new_vertices: List[Vertex] = []
    for v in scene.vertices:
        if len(v.cycle) == 4 and {scene.curve_of(h) for h in v.cycle} == pair:
            for i, h in enumerate(v.cycle):
                if scene.curve_of(h) == to_curve:
                    mate = v.cycle[(i + step) % 4]
                    new_vertices.append(Vertex(next_vid, (h, mate)))
                    next_vid += 1
        else:
            new_vertices.append(v)

    new_edges = [
        Edge(e.id, e.half, merged if e.curve in pair else e.curve, e.marker)
        for e in scene.edges
    ]
    new_curves = [c for c in scene.curves if c.id not in pair]
    new_curves.append(Curve(merged, None))
    return Scene(
        name=f"resolve({scene.name},{from_curve}->{to_curve})",
        vertices=new_vertices,
        edges=new_edges,
        curves=new_curves,
    )


def _fresh_curve_id(scene: Scene, base: str) -> str:
    if not scene.has_curve(base):
        return base
    n = 2
    while scene.has_curve(f"{base}{n}"):
        n += 1
    return f"{base}{n}"


def corner_alternation_ok(
    scene: Scene, from_curve: str, to_curve: str, *, convention: str = "after"
) -> bool:
    """Check that around every face, corners at (from,to)-crossings would be
    opened and closed alternately by the resolution.

    A corner of a face is the vertex quadrant between two consecutive sides;
    smoothing a crossing closes the two quadrants cut off by the new strands
    and opens the other two.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")
    scene.require_curve(from_curve)
    scene.require_curve(to_curve)
    pair = {from_curve, to_curve}
    for face in trace_faces(scene):
        states: List[bool] = []
        for h, _ in face.sides:
            p = scene.partner(h)
            v = scene.vertex_of(p)
            if len(v.cycle) != 4 or {scene.curve_of(x) for x in v.cycle} != pair:
                continue
            # Quadrant between p and ccw-next(p); it is closed iff that pair
            # is joined into a strand by the smoothing.
            if convention == "after":
                closed = scene.curve_of(p) == to_curve
            else:
                closed = scene.curve_of(scene.ccw_next(p)) == to_curve
            states.append(closed)
        if len(states) >= 2:
            for i in range(len(states)):
                if states[i] == states[(i + 1) % len(states)]:
                    return False
    return True


# ======================================================================
# Parallel copies
# ======================================================================


def parallel_copies(scene: Scene, curve_id: str, n: int) -> Scene:
    """Replace a single embedded loop by n parallel copies in an annular
    neighborhood.

    Every edge of the loop becomes n edges carrying the same marker, and every
    crossing with another curve becomes n consecutive crossings joined by
    short marker-zero connector edges, so each copy is again a closed loop of
    the original class and crossing counts with every other curve multiply
    by n.
    """
    if not isinstance(n, int) or n <= 0:
        raise InvalidCount(f"number of copies must be a positive integer, got {n!r}")
    scene.require_curve(curve_id)
    comps = components(scene).of_curve(curve_id)
    if len(comps) != 1:
        raise SelfCrossingCurve(
            f"curve {curve_id!r} has {len(comps)} components; "
            "parallel_copies needs a single embedded loop"
        )
    if n == 1:
        return scene

    # Walk the loop, recording each step's (edge, travel-oriented halves).
    comp = comps[0]
    first_edge = scene._edge_by_id[comp.edges[0]]
    steps: List[Tuple[Edge, int, int]] = []  # (edge, half at start, half at end)
    edge, entry = first_edge, first_edge.half[0]
    while True:
        exit_half = edge.half[1] if entry == edge.half[0] else edge.half[0]
        steps.append((edge, entry, exit_half))
        entry = scene.strand_continue(exit_half)
        edge = scene.edge_of(entry)
        if edge.id == first_edge.id and entry == first_edge.half[0]:
            break

    next_vid, next_eid, next_hid = (x + 1 for x in scene.max_ids())

    def fresh_half() -> int:
        nonlocal next_hid
        next_hid += 1
        return next_hid - 1

    m = len(steps)
    # Travel-oriented markers per step, copied onto every copy of that edge.
    def travel_marker(edge: Edge, entry: int) -> Optional[Marker]:
        if edge.marker is None:
            return None
        return edge.marker if entry == edge.half[0] else (-edge.marker[0], -edge.marker[1])

    copy_half_start = [[fresh_half() for _ in range(n)] for _ in range(m)]
    copy_half_end = [[fresh_half() for _ in range(n)] for _ in range(m)]

    removed_vertices = {scene.vertex_of(exit_half).id for _, _, exit_half in steps}
    removed_edges = {e.id for e, _, _ in steps}

    new_vertices: List[Vertex] = [v for v in scene.vertices if v.id not in removed_vertices]
    new_edges: List[Edge] = [e for e in scene.edges if e.id not in removed_edges]

    for i in range(m):
        edge_i, entry_i, _ = steps[i]
        marker_i = travel_marker(edge_i, entry_i)
        for j in range(n):
            new_edges.append(
                Edge(next_eid, (copy_half_start[i][j], copy_half_end[i][j]), curve_id, marker_i)
            )
            next_eid += 1

    # Rebuild each visited vertex.  Step i ends at the vertex between step i
    # and step i+1; copies are indexed 0 (right of travel) .. n-1 (left).
    extra_vertices: List[Vertex] = []
    for i in range(m):
        _, _, exit_half = steps[i]
        v = scene.vertex_of(exit_half)
        j_in = i
        j_out = (i + 1) % m
        if len(v.cycle) == 2:
            for j in range(n):
                extra_vertices.append(
                    Vertex(next_vid, (copy_half_end[j_in][j], copy_half_start[j_out][j]))
                )
                next_vid += 1
            continue
        # Crossing with another curve: cycle reads (out, left, in, right)
        # counterclockwise starting at the outgoing copy-curve half-edge.
        q = scene.slot_of(scene.strand_continue(exit_half))
        c_left = v.cycle[(q + 1) % 4]
        c_right = v.cycle[(q + 3) % 4]
        other_curve = scene.curve_of(c_left)
        # Connector edges between consecutive copies, crossing right-to-left.
        conn_left: List[Optional[int]] = [None] * n
        conn_right: List[Optional[int]] = [None] * n
        conn_right[0] = c_right
        conn_left[n - 1] = c_left
        for j in range(1, n):
            h_a, h_b = fresh_half(), fresh_half()
            new_edges.append(Edge(next_eid, (h_a, h_b), other_curve, _zero_like(scene)))
            next_eid += 1
            conn_left[j - 1] = h_a
            conn_right[j] = h_b
        for j in range(n):
            cycle = (
                copy_half_start[j_out][j],
                conn_left[j],
                copy_half_end[j_in][j],
                conn_right[j],
            )
            extra_vertices.append(Vertex(next_vid, cycle))  # type: ignore[arg-type]
            next_vid += 1

    new_vertices.extend(extra_vertices)
    new_curves = []
    for c in scene.curves:
        if c.id == curve_id and c.expected_components is not None:
            new_curves.append(Curve(c.id, c.expected_components * n))
        else:
            new_curves.append(c)
    return Scene(
        name=f"copies({scene.name},{curve_id}x{n})",
        vertices=new_vertices,
        edges=new_edges,
        curves=new_curves,
    )


def _zero_like(scene: Scene) -> Optional[Marker]:
    return (0, 0) if scene.has_markers() else None


# ======================================================================
# Isomorphism of labelled rotation systems
# ======================================================================


def canonical_form(scene: Scene, match_curves: bool = True):
    """A hashable canonical encoding, equal exactly for isomorphic scenes.

    Each graph component is encoded by a breadth-first relabelling of its
    half-edges from a root; the lexicographically smallest encoding over the
    candidate roots wins, and the component encodings are sorted.  Curve
    labels are kept literally when ``match_curves`` is true and canonicalized
    by first visit otherwise.  Markers participate, oriented by the traversal.

    Three devices keep the search close to linear in practice, and none lets
    ids leak into the result:

    * Root classes.  Every half-edge gets an isomorphism-invariant class
      (vertex degree, face length, oriented marker, and the curve id when
      ``match_curves``); roots come only from the class that is smallest by
      (size, class).  That choice is itself invariant.
    * Early abandon.  Each encoding is compared row by row with the best so
      far while the search builds it, and dropped at the first larger row.
    * Automorphism pruning.  An encoding equal to the best maps one
      breadth-first order onto the other, which is an automorphism; its
      cycles are merged into orbits, and a root whose orbit already holds a
      tried root is skipped, since it would give the same encoding (McKay and
      Piperno, "Practical graph isomorphism, II", 2014).
    """
    seen: Set[int] = set()
    comps: List[Tuple] = []
    for h0 in scene._vertex_slot:
        if h0 not in seen:
            orbit = _orbit(scene, h0)
            seen.update(orbit)
            comps.append(_component_form(scene, orbit, match_curves))
    return tuple(sorted(comps))


def _component_form(scene: Scene, halves: List[int], match_curves: bool) -> Tuple:
    """Canonical encoding of one graph component given its half-edges."""
    n = len(halves)
    index = {h: i for i, h in enumerate(halves)}
    nxt: List[int] = []  # ccw_next, as positions in ``halves``
    par: List[int] = []  # partner
    deg: List[int] = []
    curve: List[str] = []
    mark: List[Tuple[int, int, int]] = []  # marker oriented along the half-edge
    for h in halves:
        v, i = scene._vertex_slot[h]
        d = len(v.cycle)
        nxt.append(index[v.cycle[(i + 1) % d]])
        deg.append(d)
        e = scene._edge_of_half[h]
        forward = e.half[0] == h
        par.append(index[e.half[1] if forward else e.half[0]])
        curve.append(e.curve)
        if e.marker is None:
            mark.append((0, 0, 0))
        elif forward:
            mark.append((1, e.marker[0], e.marker[1]))
        else:
            mark.append((1, -e.marker[0], -e.marker[1]))

    face_len = [0] * n
    for i in range(n):
        if not face_len[i]:
            face = [i]
            j = nxt[par[i]]
            while j != i:
                face.append(j)
                j = nxt[par[j]]
            for j in face:
                face_len[j] = len(face)

    classes: Dict[Tuple, List[int]] = {}
    for i in range(n):
        key = (deg[i], face_len[i], mark[i]) + ((curve[i],) if match_curves else ())
        classes.setdefault(key, []).append(i)
    roots = min(classes.items(), key=lambda kv: (len(kv[1]), kv[0]))[1]

    orbit_of = list(range(n))  # union-find over automorphism orbits
    tried = [False] * n  # per union-find root: the orbit holds a tried root

    def find(x: int) -> int:
        while orbit_of[x] != x:
            orbit_of[x] = orbit_of[orbit_of[x]]
            x = orbit_of[x]
        return x

    best: Optional[List[Tuple]] = None
    best_queue: List[int] = []
    for root in roots:
        r = find(root)
        if tried[r]:
            continue
        tried[r] = True
        found = _encode_rows(root, nxt, par, curve, mark, match_curves, best)
        if found is None:
            continue
        rows, queue, tie = found
        if not tie:
            best, best_queue = rows, queue
            continue
        for x, y in zip(best_queue, queue):
            x, y = find(x), find(y)
            if x != y:
                orbit_of[y] = x
                tried[x] = tried[x] or tried[y]
    return tuple(best)


def _encode_rows(
    root: int,
    nxt: List[int],
    par: List[int],
    curve: List[str],
    mark: List[Tuple[int, int, int]],
    match_curves: bool,
    best: Optional[List[Tuple]],
):
    """Breadth-first encoding from ``root``, one row per visited half-edge:
    (position of ccw_next, position of partner, curve token, oriented marker).

    Returns None as soon as a row makes the encoding larger than ``best``;
    otherwise (rows, visiting order, whether the rows equal ``best``).
    """
    order = [-1] * len(nxt)
    order[root] = 0
    queue = [root]
    rows: List[Tuple] = []
    token: Dict[str, int] = {}
    tie = best is not None
    for h in queue:
        a = nxt[h]
        if order[a] < 0:
            order[a] = len(queue)
            queue.append(a)
        b = par[h]
        if order[b] < 0:
            order[b] = len(queue)
            queue.append(b)
        c = curve[h] if match_curves else token.setdefault(curve[h], len(token))
        row = (order[a], order[b], c, mark[h])
        if tie:
            other = best[len(rows)]
            if row != other:
                if row > other:
                    return None
                tie = False
        rows.append(row)
    return rows, queue, tie


def scenes_isomorphic(a: Scene, b: Scene, match_curves: bool = True) -> bool:
    """Isomorphism of labelled rotation systems (markers included)."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False
    return canonical_form(a, match_curves) == canonical_form(b, match_curves)
