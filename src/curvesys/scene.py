"""Combinatorial multicurve configurations on closed oriented surfaces.

A Scene is a rotation system: each vertex lists its incident half-edges in
counterclockwise order (four at a transverse crossing, two at a plain point on
a curve), each edge pairs two half-edges and belongs to a named curve, and
edges may carry integer homology markers (torus scenes).  As a combinatorial
map it is two permutations of the half-edges, sigma (ccw-next around the
vertex) and alpha (the partner on the same edge).  Faces are the orbits of
h -> sigma(alpha(h)), graph components are the orbits of <sigma, alpha>, and a
connected rotation system encodes a cellular embedding in the closed oriented
surface of genus (2 - V + E - F) / 2.

Every operation checks structure first, once per scene: the first one to
touch a scene builds its half-edge index (sigma, alpha, edge and vertex
degree of each half-edge) and, in the same pass, checks integer vertex and
edge ids, half-edge bookkeeping, vertex degrees 2 or 4, alternating crossings
and curve ids, raising a SceneError on the first violation.  No operation
runs on a scene that failed the check.  A resolved scene is not checked again:
``resolve`` derives its index from the input's checked one (sharing alpha) by
a local rewrite that keeps every structural invariant.  Faces, strand
components and graph-component orbits are derived from the index at most once
per scene and kept on it.

Cellularity is stricter, and only ``validate`` demands it: the scene must be
connected (one graph component, so not empty), and a scene carrying homology
markers must encode genus 1, since markers declare a torus configuration.
Resolving all crossings of a pair of curves usually leaves a disjoint union of
circles, which no longer embeds cellularly; such scenes stay structurally
valid and support the census/triviality operations, but ``validate`` flags
them as ``NonCellular`` unless asked not to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import (
    BigonPresent,
    ComponentHasCrossings,
    DanglingHalfEdge,
    InvalidCount,
    InvalidScene,
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
    "find_bigons",
    "check_region_condition",
    "resolve",
    "components",
    "trivial_components",
    "parallel_copies",
    "crossing_count",
    "corner_alternation_ok",
    "scenes_isomorphic",
    "canonical_form",
]

Marker = Tuple[int, int]
Cycle = Tuple[int, ...]  # half-edges of one face, orbit or strand, in order


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

    Construction only stores the parts.  The first operation on the scene
    builds its half-edge index and checks its structure; :func:`validate`
    adds the Euler bookkeeping and the cellularity check.
    """

    __slots__ = ("name", "vertices", "edges", "curves", "_index")

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
        self._index: Optional[_Index] = None

    def has_markers(self) -> bool:
        return bool(self.edges) and all(e.marker is not None for e in self.edges)

    def max_ids(self) -> Tuple[int, int, int]:
        """(max vertex id, max edge id, max half-edge id), -1 when empty."""
        mv = max((v.id for v in self.vertices), default=-1)
        me = max((e.id for e in self.edges), default=-1)
        mh = max(_index(self).nxt, default=-1)
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


@dataclass(frozen=True)
class Component:
    """A closed strand of one curve: its edges in traversal order."""

    curve: str
    edges: Tuple[int, ...]
    marker_sum: Optional[Marker]

    def homology(self) -> Optional[TorusClass]:
        if self.marker_sum is None or self.marker_sum == (0, 0):
            return None
        return normalize(*self.marker_sum)


@dataclass(frozen=True)
class ComponentCensus:
    components: Tuple[Component, ...]

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
    face_degrees: Tuple[int, ...]
    components_per_curve: Dict[str, int] = field(hash=False, default_factory=dict)


# ======================================================================
# The half-edge index and what is derived from it
# ======================================================================


class _Index:
    """sigma (``nxt``), alpha (``par``), edge (``edge``) and vertex degree
    (``deg``) of every half-edge, plus the scene's curve ids; the faces, orbits
    and strands derived from it are filled in on first use."""

    __slots__ = ("nxt", "par", "edge", "deg", "curves", "faces", "orbits", "strands")

    def __init__(self, nxt, par, edge, deg, curves) -> None:
        self.nxt: Dict[int, int] = nxt
        self.par: Dict[int, int] = par
        self.edge: Dict[int, Edge] = edge
        self.deg: Dict[int, int] = deg
        self.curves: Set[str] = curves
        self.faces: Optional[Tuple[Cycle, ...]] = None
        self.orbits: Optional[Tuple[Cycle, ...]] = None
        self.strands: Optional[Tuple[ComponentCensus, Tuple[Cycle, ...]]] = None


def _index(scene: Scene) -> _Index:
    ix = scene._index
    if ix is None:
        ix = scene._index = _build_index(scene)
    return ix


def _build_index(scene: Scene) -> _Index:
    """Index the half-edges of a scene, checking its structure on the way."""
    try:
        curves = {c.id for c in scene.curves}
        vertex_ids = {v.id for v in scene.vertices}
        edge_ids = {e.id for e in scene.edges}
        edge_curves = {e.curve for e in scene.edges}
    except TypeError:
        raise InvalidScene("vertex, edge and curve ids must be hashable") from None
    if len(vertex_ids) != len(scene.vertices):
        raise InvalidScene("duplicate vertex ids")
    if len(edge_ids) != len(scene.edges):
        raise InvalidScene("duplicate edge ids")
    if len(curves) != len(scene.curves):
        raise InvalidScene("duplicate curve ids")
    if not edge_curves <= curves:
        e = next(e for e in scene.edges if e.curve not in curves)
        raise InvalidScene(f"edge {e.id} references unknown curve {e.curve!r}")

    par: Dict[int, int] = {}
    edge: Dict[int, Edge] = {}
    for e in scene.edges:
        if type(e.id) is not int:  # bool is not int
            raise InvalidScene(f"edge id {e.id!r} is not an integer")
        try:
            a, b = e.half
        except (TypeError, ValueError):
            a = b = None
        if not isinstance(a, int) or not isinstance(b, int):
            raise InvalidScene(f"edge {e.id} needs a pair of integer half-edge ids, got {e.half!r}")
        if e.marker is not None:
            try:
                p, q = e.marker
            except (TypeError, ValueError):
                p = q = None
            if not isinstance(p, int) or not isinstance(q, int):
                raise InvalidScene(f"edge {e.id} has a non-integer marker {e.marker!r}")
        if a == b:
            raise DanglingHalfEdge(f"edge {e.id} repeats half-edge {a}")
        if a in edge or b in edge:
            raise DanglingHalfEdge(f"half-edge {a if a in edge else b} belongs to two edges")
        par[a] = b
        par[b] = a
        edge[a] = edge[b] = e

    nxt: Dict[int, int] = {}
    deg: Dict[int, int] = {}
    for v in scene.vertices:
        if type(v.id) is not int:
            raise InvalidScene(f"vertex id {v.id!r} is not an integer")
        cycle = v.cycle
        try:
            labels = [edge[h].curve for h in cycle]
        except KeyError as exc:
            raise DanglingHalfEdge(
                f"half-edge {exc.args[0]} is in a vertex cycle but on no edge"
            ) from None
        except TypeError:  # not a sequence, or an unhashable id
            raise InvalidScene(f"vertex {v.id} has a malformed half-edge cycle {cycle!r}") from None
        d = len(cycle)
        if d == 4:
            if not labels[0] == labels[2] != labels[1] == labels[3]:
                raise NonAlternatingCrossing(
                    f"vertex {v.id} has curve pattern {labels}, expected A,B,A,B"
                )
        elif d != 2:
            raise InvalidScene(f"vertex {v.id} has degree {d}, expected 2 or 4")
        elif labels[0] != labels[1]:
            raise InvalidScene(
                f"plain vertex {v.id} joins different curves {labels[0]!r}, {labels[1]!r}"
            )
        for i, h in enumerate(cycle):
            if h in nxt:
                raise DanglingHalfEdge(f"half-edge {h} sits in two vertex cycles")
            nxt[h] = cycle[i + 1 - d]
            deg[h] = d
    if len(nxt) != len(edge):
        h = next(h for h in edge if h not in nxt)
        raise DanglingHalfEdge(f"half-edge {h} is on an edge but in no vertex cycle")
    return _Index(nxt, par, edge, deg, curves)


def _require(scene: Scene, *curve_ids: str) -> _Index:
    """The checked index of a scene that has every curve named."""
    ix = _index(scene)
    for cid in curve_ids:
        if cid not in ix.curves:
            raise UnknownCurve(f"scene {scene.name!r} has no curve {cid!r}")
    return ix


def _faces(scene: Scene) -> Tuple[Cycle, ...]:
    ix = _index(scene)
    if ix.faces is None:
        ix.faces = _trace(ix)
    return ix.faces


def _trace(ix: _Index) -> Tuple[Cycle, ...]:
    """Orbits of h -> sigma(alpha(h)), each started at its smallest unused
    half-edge id."""
    nxt, par = ix.nxt, ix.par
    seen: Set[int] = set()
    faces: List[Cycle] = []
    for start in sorted(nxt):
        if start in seen:
            continue
        face = [start]
        h = nxt[par[start]]
        while h != start:
            face.append(h)
            h = nxt[par[h]]
        seen.update(face)
        faces.append(tuple(face))
    return tuple(faces)


def _orbits(scene: Scene) -> Tuple[Cycle, ...]:
    """The graph components: orbits of <sigma, alpha>, each in breadth-first
    order from its first half-edge."""
    ix = _index(scene)
    if ix.orbits is None:
        nxt, par = ix.nxt, ix.par
        seen: Set[int] = set()
        orbits: List[Cycle] = []
        for start in nxt:
            if start in seen:
                continue
            seen.add(start)
            orbit = [start]
            for h in orbit:
                for x in (nxt[h], par[h]):
                    if x not in seen:
                        seen.add(x)
                        orbit.append(x)
            orbits.append(tuple(orbit))
        ix.orbits = tuple(orbits)
    return ix.orbits


def _strands(scene: Scene) -> Tuple[ComponentCensus, Tuple[Cycle, ...]]:
    """The component census and, per component, the half-edge by which the
    walk enters each of its edges."""
    ix = _index(scene)
    if ix.strands is None:
        ix.strands = _walk_strands(scene, ix)
    return ix.strands


def _walk_strands(scene: Scene, ix: _Index) -> Tuple[ComponentCensus, Tuple[Cycle, ...]]:
    """Walk every curve's closed strands.  Each walk starts at the smallest
    unvisited edge id, entering by that edge's first half-edge, and goes
    straight on at every vertex: to the other half-edge at a plain vertex,
    to the opposite one at a crossing."""
    nxt, par, edge, deg = ix.nxt, ix.par, ix.edge, ix.deg
    visited: Set[int] = set()
    comps: List[Component] = []
    walks: List[Cycle] = []
    for e0 in sorted(scene.edges, key=lambda e: e.id):
        if e0.id in visited:
            continue
        start = h = e0.half[0]
        entries: List[int] = []
        edge_ids: List[int] = []
        marked, sx, sy = True, 0, 0
        while True:
            e = edge[h]
            entries.append(h)
            edge_ids.append(e.id)
            m = e.marker
            if m is None:
                marked = False
            elif h == e.half[0]:
                sx, sy = sx + m[0], sy + m[1]
            else:
                sx, sy = sx - m[0], sy - m[1]
            x = par[h]
            h = nxt[x] if deg[x] == 2 else nxt[nxt[x]]
            if h == start:
                break
        visited.update(edge_ids)
        comps.append(Component(e0.curve, tuple(edge_ids), (sx, sy) if marked else None))
        walks.append(tuple(entries))
    return ComponentCensus(tuple(comps)), tuple(walks)


def _face(ix: _Index, cycle: Cycle) -> Face:
    return Face(tuple((h, ix.edge[h].curve) for h in cycle))


def _faces_on(scene: Scene, ix: _Index, degree: int, curves: Set[str]) -> List[Cycle]:
    """The faces of the given degree whose sides lie on exactly these curves."""
    edge = ix.edge
    return [
        f for f in _faces(scene) if len(f) == degree and {edge[h].curve for h in f} == curves
    ]


# ======================================================================
# Validation, faces and the Euler count
# ======================================================================


def validate(scene: Scene, require_cellular: bool = True) -> SceneDiagnostics:
    """Check scene invariants; raise a specific error on the first violation.

    With ``require_cellular=False`` only structural invariants are enforced,
    which is the right level for post-resolution scenes and for configurations
    that deliberately contain components of several graph components.
    """
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

    faces = _faces(scene)
    v, e, f = len(scene.vertices), len(scene.edges), len(faces)
    chi = v - e + f
    connected = len(_orbits(scene)) == 1
    genus: Optional[int] = None
    if connected:
        if chi % 2 != 0 or chi > 2:
            raise NonOrientableOrCorrupt(f"connected scene with chi = {chi}")
        genus = (2 - chi) // 2
    cellular = connected and (genus == 1 if scene.has_markers() else True)

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
        face_degrees=tuple(sorted(len(face) for face in faces)),
        components_per_curve=per_curve,
    )


def trace_faces(scene: Scene) -> List[Face]:
    """Orbits of the face-tracing permutation, each started at its smallest
    unused half-edge id.  On a disconnected scene these are the faces of the
    per-component surfaces, not of any common ambient surface."""
    ix = _index(scene)
    return [_face(ix, f) for f in _faces(scene)]


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
    ix = _require(scene, curve_a, curve_b)
    return [_face(ix, f) for f in _faces_on(scene, ix, 2, {curve_a, curve_b})]


def check_region_condition(scene: Scene, c1: str, c2: str, c3: str) -> bool:
    """True iff no complementary region is a triangle with one side on each
    of the three curves.

    The companion quadrilateral condition involves a boundary arc and is
    vacuous on the closed scenes this engine models.  The three curves must be
    pairwise bigon-free (checked; BigonPresent otherwise).
    """
    ix = _require(scene, c1, c2, c3)
    triple = [c1, c2, c3]
    for i in range(3):
        for j in range(i + 1, 3):
            if triple[i] != triple[j] and _faces_on(scene, ix, 2, {triple[i], triple[j]}):
                raise BigonPresent(
                    f"curves {triple[i]!r} and {triple[j]!r} bound a bigon; "
                    "region condition needs minimal position"
                )
    return not _faces_on(scene, ix, 3, {c1, c2, c3})


# ======================================================================
# Components and homology
# ======================================================================


def components(scene: Scene) -> ComponentCensus:
    """Partition every curve's edges into closed strands.

    Traversal starts at the smallest unvisited edge id, walking from that
    edge's first half-edge; markers are summed with signs matching the
    traversal direction.
    """
    return _strands(scene)[0]


def crossing_count(scene: Scene, curve_a: str, curve_b: str) -> int:
    """Number of 4-valent vertices where the two curves cross."""
    ix = _require(scene, curve_a, curve_b)
    edge, deg, pair = ix.edge, ix.deg, (curve_a, curve_b)
    # A crossing's two curves differ, so both in the pair means exactly the pair.
    return sum(
        deg[v.cycle[0]] == 4 and edge[v.cycle[0]].curve in pair and edge[v.cycle[1]].curve in pair
        for v in scene.vertices
    )


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
    ix = _require(scene, *(curves or ()))
    census, walks = _strands(scene)
    out: List[Component] = []
    for comp, walk in zip(census.components, walks):
        free = all(ix.deg[ix.par[h]] == 2 for h in walk)
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
        edge_multiset = sorted(comp.edges)
        if any(sorted(ix.edge[h].id for h in f) == edge_multiset for f in _faces(scene)):
            out.append(comp)
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

    The returned scene carries an index derived from the input's checked one
    and is not checked again: alpha is shared, and sigma and degrees change
    only where a crossing's 4-cycle becomes two 2-cycles on fresh vertex ids.
    Edges of the pair move to the merged curve; others are reused.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")
    ix = _require(scene, from_curve, to_curve)
    if from_curve == to_curve:
        raise InvalidScene("resolve needs two distinct curve ids")
    pair = {from_curve, to_curve}
    if _faces_on(scene, ix, 2, pair):
        raise BigonPresent(
            f"curves {from_curve!r}, {to_curve!r} bound a bigon; resolve needs minimal position"
        )

    merged = _fresh_curve_id(ix, f"{from_curve}*{to_curve}")
    step = 1 if convention == "after" else -1

    edge, nxt, deg = ix.edge, dict(ix.nxt), dict(ix.deg)
    next_vid = max((v.id for v in scene.vertices), default=-1) + 1
    new_vertices: List[Vertex] = []
    for v in scene.vertices:
        c = v.cycle
        if ix.deg[c[0]] != 4 or edge[c[0]].curve not in pair or edge[c[1]].curve not in pair:
            new_vertices.append(v)
            continue
        first = 0 if edge[c[0]].curve == to_curve else 1
        for i in (first, first + 2):
            h, mate = c[i], c[(i + step) % 4]
            new_vertices.append(Vertex(next_vid, (h, mate)))
            nxt[h], nxt[mate] = mate, h
            deg[h] = deg[mate] = 2
            next_vid += 1

    new_edges = [
        Edge(e.id, e.half, merged, e.marker) if e.curve in pair else e for e in scene.edges
    ]
    new_edge = {h: e for e in new_edges for h in e.half}
    new_curves = [c for c in scene.curves if c.id not in pair]
    new_curves.append(Curve(merged, None))
    out = Scene(
        name=f"resolve({scene.name},{from_curve}->{to_curve})",
        vertices=new_vertices,
        edges=new_edges,
        curves=new_curves,
    )
    out._index = _Index(nxt, ix.par, new_edge, deg, (ix.curves - pair) | {merged})
    return out


def _fresh_curve_id(ix: _Index, base: str) -> str:
    if base not in ix.curves:
        return base
    n = 2
    while f"{base}{n}" in ix.curves:
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
    ix = _require(scene, from_curve, to_curve)
    nxt, par, edge, deg = ix.nxt, ix.par, ix.edge, ix.deg
    pair = (from_curve, to_curve)
    for face in _faces(scene):
        states: List[bool] = []
        for h in face:
            p = par[h]
            if deg[p] != 4 or edge[p].curve not in pair or edge[nxt[p]].curve not in pair:
                continue
            # Quadrant between p and ccw-next(p); it is closed iff that pair
            # is joined into a strand by the smoothing.
            q = p if convention == "after" else nxt[p]
            states.append(edge[q].curve == to_curve)
        if len(states) >= 2:
            for i in range(len(states)):
                if states[i - 1] == states[i]:
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
    if type(n) is not int or n <= 0:  # bool is not int
        raise InvalidCount(f"number of copies must be a positive integer, got {n!r}")
    ix = _require(scene, curve_id)
    census, walks = _strands(scene)
    mine = [i for i, c in enumerate(census.components) if c.curve == curve_id]
    if len(mine) != 1:
        raise SelfCrossingCurve(
            f"curve {curve_id!r} has {len(mine)} components; "
            "parallel_copies needs a single embedded loop"
        )
    if n == 1:
        return scene

    # Step i of the loop enters its edge by walk[i] and leaves by its partner.
    comp, walk = census.components[mine[0]], walks[mine[0]]
    next_vid, next_eid, next_hid = (x + 1 for x in scene.max_ids())

    def fresh_half() -> int:
        nonlocal next_hid
        next_hid += 1
        return next_hid - 1

    m = len(walk)
    # Travel-oriented markers per step, copied onto every copy of that edge.
    def travel_marker(edge: Edge, entry: int) -> Optional[Marker]:
        if edge.marker is None:
            return None
        return edge.marker if entry == edge.half[0] else (-edge.marker[0], -edge.marker[1])

    copy_half_start = [[fresh_half() for _ in range(n)] for _ in range(m)]
    copy_half_end = [[fresh_half() for _ in range(n)] for _ in range(m)]

    zero: Optional[Marker] = (0, 0) if scene.has_markers() else None
    loop_halves = {h for e in walk for h in (e, ix.par[e])}
    removed_edges = set(comp.edges)

    new_vertices: List[Vertex] = [v for v in scene.vertices if loop_halves.isdisjoint(v.cycle)]
    new_edges: List[Edge] = [e for e in scene.edges if e.id not in removed_edges]

    for i, entry in enumerate(walk):
        marker_i = travel_marker(ix.edge[entry], entry)
        for j in range(n):
            new_edges.append(
                Edge(next_eid, (copy_half_start[i][j], copy_half_end[i][j]), curve_id, marker_i)
            )
            next_eid += 1

    # Rebuild each visited vertex.  Step i ends at the vertex between step i
    # and step i+1; copies are indexed 0 (right of travel) .. n-1 (left).
    extra_vertices: List[Vertex] = []
    for i, entry in enumerate(walk):
        j_in = i
        j_out = (i + 1) % m
        if ix.deg[ix.par[entry]] == 2:
            for j in range(n):
                extra_vertices.append(
                    Vertex(next_vid, (copy_half_end[j_in][j], copy_half_start[j_out][j]))
                )
                next_vid += 1
            continue
        # Crossing with another curve: cycle reads (out, left, in, right)
        # counterclockwise starting at the outgoing copy-curve half-edge,
        # which is where step i+1 enters.
        c_left = ix.nxt[walk[j_out]]
        c_right = ix.nxt[ix.nxt[c_left]]
        other_curve = ix.edge[c_left].curve
        # Connector edges between consecutive copies, crossing right-to-left.
        conn_left: List[Optional[int]] = [None] * n
        conn_right: List[Optional[int]] = [None] * n
        conn_right[0] = c_right
        conn_left[n - 1] = c_left
        for j in range(1, n):
            h_a, h_b = fresh_half(), fresh_half()
            new_edges.append(Edge(next_eid, (h_a, h_b), other_curve, zero))
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
    ix = _index(scene)
    face_len = {h: len(f) for f in _faces(scene) for h in f}
    return tuple(
        sorted(_component_form(ix, orbit, face_len, match_curves) for orbit in _orbits(scene))
    )


def _component_form(
    ix: _Index, halves: Cycle, face_len_of: Dict[int, int], match_curves: bool
) -> Tuple:
    """Canonical encoding of one graph component given its half-edges."""
    n = len(halves)
    index = {h: i for i, h in enumerate(halves)}
    nxt = [index[ix.nxt[h]] for h in halves]  # sigma, as positions in ``halves``
    par = [index[ix.par[h]] for h in halves]  # alpha
    deg = [ix.deg[h] for h in halves]
    face_len = [face_len_of[h] for h in halves]
    curve: List[str] = []
    mark: List[Tuple[int, int, int]] = []  # marker oriented along the half-edge
    for h in halves:
        e = ix.edge[h]
        curve.append(e.curve)
        if e.marker is None:
            mark.append((0, 0, 0))
        elif e.half[0] == h:
            mark.append((1, e.marker[0], e.marker[1]))
        else:
            mark.append((1, -e.marker[0], -e.marker[1]))

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
    (position of ccw-next, position of partner, curve token, oriented marker).

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
