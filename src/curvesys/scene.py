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
touch a scene builds its dart index (edge k owns darts 2k and 2k + 1, so alpha
is p ^ 1) and in the same pass checks integer ids, half-edges and markers,
half-edge bookkeeping, vertex degrees 2 or 4, alternating crossings and curve
ids, raising a SceneError on the first violation.  No operation runs on a
scene that failed the check.  Scenes from the loader, ``parallel_copies`` and
direct construction are checked on their vertex and edge records.  Two kinds
of scene get their index without records.  The grid constructors hand over
dart columns (half-edge id = dart), which are checked at construction by the
same vertex-cycle and curve-id checks.  ``resolve`` derives its output's
index from the input's checked one by a local rewrite of sigma and degrees,
holding its input until the records are read.  Both build their vertex and
edge records only when read.  Faces, strand components and graph-component
orbits are derived from the index at most once per scene and kept on it.

Cellularity is stricter, and only ``validate`` demands it: the scene must be
connected (one graph component, so not empty), and a scene carrying homology
markers must encode genus 1, since markers declare a torus configuration.
Resolving all crossings of a pair of curves usually leaves a disjoint union of
circles, which no longer embeds cellularly; such scenes stay structurally
valid and support the census/triviality operations, but ``validate`` flags
them as ``NonCellular`` unless asked not to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations, product
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
Cycle = Tuple[int, ...]  # darts of one face, orbit or strand, in order


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

    Construction only stores the parts, and the first operation builds the
    dart index and checks the structure; grids are checked as they are built,
    and grids and resolved scenes build their records on first read.
    :func:`validate` adds the Euler bookkeeping and cellularity.
    """

    __slots__ = ("name", "curves", "_records", "_index")

    def __init__(
        self,
        name: str,
        vertices: Iterable[Vertex],
        edges: Iterable[Edge],
        curves: Iterable[Curve],
    ) -> None:
        self.name = name
        self._records = (tuple(vertices), tuple(edges))  # or a record builder, until read
        self.curves: Tuple[Curve, ...] = tuple(curves)
        self._index: Optional[_Index] = None

    vertices = property(lambda self: self._read()[0])
    edges = property(lambda self: self._read()[1])

    def _read(self) -> Tuple[Tuple[Vertex, ...], Tuple[Edge, ...]]:
        if callable(self._records):
            self._records = self._records()
        return self._records

    def max_ids(self) -> Tuple[int, int, int]:
        """(max vertex id, max edge id, max half-edge id), -1 when empty."""
        mv = max((v.id for v in self.vertices), default=-1)
        me = max((e.id for e in self.edges), default=-1)
        mh = max(_index(self).hid, default=-1)
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
# The dart index and what is derived from it
# ======================================================================


class _Index:
    """The scene as a combinatorial map over darts: edge k of ``scene.edges``
    owns darts 2k (its ``half[0]``) and 2k + 1 (its ``half[1]``), so alpha is
    ``p ^ 1``, the edge of p is ``p >> 1``, and the marker along p is negated
    when p is odd.  Faces, orbits and strand walks are tuples of darts."""

    __slots__ = ("nxt", "deg", "hid", "eid", "curve", "marker", "by_hid", "by_eid", "curves",
                 "nv", "marked", "faces", "orbits", "strands")

    def __init__(self, nxt, deg, hid, eid, curve, marker, by_hid, by_eid, curves, nv, marked):
        self.nxt: List[int] = nxt  # per dart: sigma, the ccw-next dart at its vertex
        self.deg: List[int] = deg  # per dart: the degree of its vertex
        self.hid: List[int] = hid  # per dart: its half-edge id
        self.eid: List[int] = eid  # per edge: its id
        self.curve: List[str] = curve  # per edge: its curve id
        self.marker: List[Optional[Marker]] = marker  # per edge: its marker or None
        self.by_hid: List[int] = by_hid  # the darts in half-edge id order, where faces start
        self.by_eid: List[int] = by_eid  # the edges in edge id order, where strands start
        self.curves: Set[str] = curves  # the scene's curve ids
        self.nv: int = nv  # the number of vertices
        self.marked: bool = marked  # there are edges and every one carries a marker
        # faces, orbits and (census, walks) of strands, derived on first use
        self.faces = self.orbits = self.strands = None


def _index(scene: Scene) -> _Index:
    ix = scene._index
    if ix is None:
        ix = scene._index = _build_index(scene)
    return ix


def _build_index(scene: Scene) -> _Index:
    """Index the darts of a scene, checking its structure on the way."""
    vertices, edges = scene.vertices, scene.edges
    try:
        curves = {c.id for c in scene.curves}
        vertex_ids = {v.id for v in vertices}
        eid = [e.id for e in edges]
        curve = [e.curve for e in edges]
        edge_ids, edge_curves = set(eid), set(curve)
    except TypeError:
        raise InvalidScene("vertex, edge and curve ids must be hashable") from None
    if len(vertex_ids) != len(vertices):
        raise InvalidScene("duplicate vertex ids")
    if len(edge_ids) != len(edges):
        raise InvalidScene("duplicate edge ids")
    _check_curves(curves, len(scene.curves), edge_curves, curve, eid)

    dart: Dict[int, int] = {}  # half-edge id -> dart, only while building
    for k, e in enumerate(edges):  # type(x) is int throughout: bool is not int
        if type(e.id) is not int:
            raise InvalidScene(f"edge id {e.id!r} is not an integer")
        try:
            a, b = e.half
        except (TypeError, ValueError):
            a = b = None
        if type(a) is not int or type(b) is not int:
            raise InvalidScene(f"edge {e.id} needs a pair of integer half-edge ids, got {e.half!r}")
        if e.marker is not None:
            try:
                p, q = e.marker
            except (TypeError, ValueError):
                p = q = None
            if type(p) is not int or type(q) is not int:
                raise InvalidScene(f"edge {e.id} has a non-integer marker {e.marker!r}")
        if a == b:
            raise DanglingHalfEdge(f"edge {e.id} repeats half-edge {a}")
        if a in dart or b in dart:
            raise DanglingHalfEdge(f"half-edge {a if a in dart else b} belongs to two edges")
        dart[a] = 2 * k
        dart[b] = 2 * k + 1
    hid = list(dart)  # in dart order, as inserted

    nxt, deg = _link_cycles(_vertex_darts(vertices, dart), curve, hid)
    marker = [e.marker for e in edges]
    by_hid = sorted(range(len(hid)), key=hid.__getitem__)
    by_eid = sorted(range(len(eid)), key=eid.__getitem__)
    marked = bool(edges) and None not in marker
    return _Index(nxt, deg, hid, eid, curve, marker, by_hid, by_eid, curves, len(vertices), marked)


def _check_curves(
    curves: Set[str], declared: int, used: Set[str], curve: List[str], eid: Sequence[int]
) -> None:
    """The declared curve ids are distinct and name every edge's curve."""
    if len(curves) != declared:
        raise InvalidScene("duplicate curve ids")
    if not used <= curves:
        k = next(k for k, c in enumerate(curve) if c not in curves)
        raise InvalidScene(f"edge {eid[k]} references unknown curve {curve[k]!r}")


def _vertex_darts(vertices: Sequence[Vertex], dart: Dict[int, int]):
    """(vertex id, its cycle as darts) per vertex, each checked as it is read."""
    for v in vertices:
        if type(v.id) is not int:
            raise InvalidScene(f"vertex id {v.id!r} is not an integer")
        cycle = v.cycle
        try:
            ds = [dart[h] for h in cycle]
        except KeyError as exc:
            raise DanglingHalfEdge(
                f"half-edge {exc.args[0]} is in a vertex cycle but on no edge"
            ) from None
        except TypeError:  # not a sequence, or an unhashable id
            raise InvalidScene(f"vertex {v.id} has a malformed half-edge cycle {cycle!r}") from None
        yield v.id, ds
    # Once every cycle's shape is checked: True and 1.0 find half-edge 1.
    if {type(h) for v in vertices for h in v.cycle} - {int}:
        v = next(v for v in vertices if any(type(h) is not int for h in v.cycle))
        raise InvalidScene(f"vertex {v.id} has a malformed half-edge cycle {v.cycle!r}")


def _link_cycles(
    cycles: Iterable[Tuple[int, Sequence[int]]], curve: List[str], hid: List[int]
) -> Tuple[List[int], List[int]]:
    """Sigma and per-dart degrees from (vertex id, darts) cycles, checking that
    every vertex has degree 2 or 4, every crossing alternates between two
    curves, every plain vertex stays on one curve, and every dart lies in
    exactly one cycle.  Both the record check and the grid constructors use it."""
    nxt = [0] * len(hid)
    deg = [0] * len(hid)  # 0 marks a dart in no vertex cycle yet
    for vid, ds in cycles:
        d = len(ds)
        if d == 4:
            if not curve[ds[0] >> 1] == curve[ds[2] >> 1] != curve[ds[1] >> 1] == curve[ds[3] >> 1]:
                labels = [curve[p >> 1] for p in ds]
                raise NonAlternatingCrossing(
                    f"vertex {vid} has curve pattern {labels}, expected A,B,A,B"
                )
        elif d != 2:
            raise InvalidScene(f"vertex {vid} has degree {d}, expected 2 or 4")
        elif curve[ds[0] >> 1] != curve[ds[1] >> 1]:
            a, b = (curve[p >> 1] for p in ds)
            raise InvalidScene(f"plain vertex {vid} joins different curves {a!r}, {b!r}")
        q = ds[0]
        for p in reversed(ds):
            if deg[p]:
                raise DanglingHalfEdge(f"half-edge {hid[p]} sits in two vertex cycles")
            nxt[p], deg[p] = q, d
            q = p
    if 0 in deg:
        h = hid[deg.index(0)]
        raise DanglingHalfEdge(f"half-edge {h} is on an edge but in no vertex cycle")
    return nxt, deg


def _dart_scene(
    name: str,
    cycles: List[Tuple[int, ...]],
    curve: List[str],
    marker: List[Marker],
    curves: Sequence[Curve],
) -> Scene:
    """A scene whose half-edge ids are its darts: edge k is (2k, 2k + 1) on
    ``curve[k]`` with ``marker[k]``, and vertex k has cycle ``cycles[k]``.
    It is checked now, on these columns, and builds its records on first read."""
    out = Scene(name, (), (), curves)
    ids = {c.id for c in out.curves}
    eid = list(range(len(curve)))
    _check_curves(ids, len(out.curves), set(curve), curve, eid)
    hid = list(range(2 * len(curve)))
    nxt, deg = _link_cycles(enumerate(cycles), curve, hid)
    marked = bool(marker) and None not in marker
    # Ids equal darts and edge numbers, so each id list is its own sorted order.
    out._index = _Index(nxt, deg, hid, eid, curve, marker, hid, eid, ids, len(cycles), marked)
    out._records = partial(_dart_records, cycles, curve, marker)
    return out


def _dart_records(cycles: List[Tuple[int, ...]], curve: List[str], marker: List[Marker]):
    """The records of a scene built by :func:`_dart_scene`."""
    vertices = tuple(Vertex(k, c) for k, c in enumerate(cycles))
    edges = tuple(Edge(k, (2 * k, 2 * k + 1), c, m) for k, (c, m) in enumerate(zip(curve, marker)))
    return vertices, edges


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
    """Orbits of p -> sigma(alpha(p)), each started at its unused dart of
    smallest half-edge id."""
    nxt = ix.nxt
    seen: Set[int] = set()
    faces: List[Cycle] = []
    for start in ix.by_hid:
        if start in seen:
            continue
        face = [start]
        p = nxt[start ^ 1]
        while p != start:
            face.append(p)
            p = nxt[p ^ 1]
        seen.update(face)
        faces.append(tuple(face))
    return tuple(faces)


def _orbits(scene: Scene) -> Tuple[Cycle, ...]:
    """The graph components: orbits of <sigma, alpha>, each in breadth-first
    order from its first dart."""
    ix = _index(scene)
    if ix.orbits is None:
        nxt = ix.nxt
        seen = bytearray(len(nxt))
        orbits: List[Cycle] = []
        for start in range(len(nxt)):
            if seen[start]:
                continue
            seen[start] = 1
            orbit = [start]
            for p in orbit:
                for x in (nxt[p], p ^ 1):
                    if not seen[x]:
                        seen[x] = 1
                        orbit.append(x)
            orbits.append(tuple(orbit))
        ix.orbits = tuple(orbits)
    return ix.orbits


def _strands(scene: Scene) -> Tuple[ComponentCensus, Tuple[Cycle, ...]]:
    """The component census and, per component, the dart by which the walk
    enters each of its edges."""
    ix = _index(scene)
    if ix.strands is None:
        ix.strands = _walk_strands(ix)
    return ix.strands


def _walk_strands(ix: _Index) -> Tuple[ComponentCensus, Tuple[Cycle, ...]]:
    """Walk every curve's closed strands.  Each walk starts at the smallest
    unvisited edge id, entering by that edge's first half-edge, and goes
    straight on at every vertex: to the other dart at a plain vertex, to the
    opposite one at a crossing."""
    nxt, deg, eid, marker = ix.nxt, ix.deg, ix.eid, ix.marker
    visited = bytearray(len(eid))
    comps: List[Component] = []
    walks: List[Cycle] = []
    for k0 in ix.by_eid:
        if visited[k0]:
            continue
        start = p = 2 * k0
        entries: List[int] = []
        edge_ids: List[int] = []
        marked, sx, sy = True, 0, 0
        while True:
            k = p >> 1
            visited[k] = 1
            entries.append(p)
            edge_ids.append(eid[k])
            m = marker[k]
            if m is None:
                marked = False
            elif p & 1:
                sx, sy = sx - m[0], sy - m[1]
            else:
                sx, sy = sx + m[0], sy + m[1]
            x = p ^ 1
            p = nxt[x] if deg[x] == 2 else nxt[nxt[x]]
            if p == start:
                break
        comps.append(Component(ix.curve[k0], tuple(edge_ids), (sx, sy) if marked else None))
        walks.append(tuple(entries))
    return ComponentCensus(tuple(comps)), tuple(walks)


def _face(ix: _Index, cycle: Cycle) -> Face:
    return Face(tuple((ix.hid[p], ix.curve[p >> 1]) for p in cycle))


def _faces_on(scene: Scene, ix: _Index, degree: int, curves: Set[str]) -> List[Cycle]:
    """The faces of the given degree whose sides lie on exactly these curves."""
    curve = ix.curve
    return [
        f for f in _faces(scene) if len(f) == degree and {curve[p >> 1] for p in f} == curves
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

    ix = _index(scene)
    faces = _faces(scene)
    v, e, f = ix.nv, len(ix.eid), len(faces)
    chi = v - e + f
    connected = len(_orbits(scene)) == 1
    genus: Optional[int] = None
    if connected:
        if chi % 2 != 0 or chi > 2:
            raise NonOrientableOrCorrupt(f"connected scene with chi = {chi}")
        genus = (2 - chi) // 2
    cellular = connected and (genus == 1 if ix.marked else True)

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
    nxt, curve, darts = ix.nxt, ix.curve, 0
    # Curves alternate at a crossing: two of its curve_a darts have ccw-next on curve_b.
    for p, d in enumerate(ix.deg):
        if d == 4 and curve[p >> 1] == curve_a and curve[nxt[p] >> 1] == curve_b:
            darts += 1
    return darts // 2


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
        free = all(ix.deg[p ^ 1] == 2 for p in walk)
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
        if any(sorted(ix.eid[p >> 1] for p in f) == edge_multiset for f in _faces(scene)):
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
    and is not checked again: it shares every column but sigma, degrees and
    edge curves, which change only where the pair crosses.  Its vertex and edge
    records are built on first read, and until then it holds the input scene.
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

    # At each crossing of the pair, each 'to' dart p is joined with its
    # ccw-next (after) or ccw-previous (before) dart, which is on 'from'.
    old_nxt, nxt, deg, curve = ix.nxt, ix.nxt[:], ix.deg[:], ix.curve
    for p, d in enumerate(ix.deg):
        if d == 4 and curve[p >> 1] == to_curve and curve[old_nxt[p] >> 1] == from_curve:
            mate = old_nxt[p] if step == 1 else old_nxt[old_nxt[old_nxt[p]]]
            nxt[p], nxt[mate] = mate, p
            deg[p] = deg[mate] = 2

    new_curves = [c for c in scene.curves if c.id not in pair]
    new_curves.append(Curve(merged, None))
    out = Scene(f"resolve({scene.name},{from_curve}->{to_curve})", (), (), new_curves)
    out._records = partial(_resolved_records, scene, pair, to_curve, step, merged)
    nv = ix.nv + (ix.deg.count(4) - deg.count(4)) // 4  # one more per smoothed crossing
    out._index = _Index(
        nxt, deg, ix.hid, ix.eid, [merged if c in pair else c for c in curve], ix.marker,
        ix.by_hid, ix.by_eid, (ix.curves - pair) | {merged}, nv, ix.marked,
    )
    return out


def _resolved_records(scene: Scene, pair: Set[str], to_curve: str, step: int, merged: str):
    """The records of a resolved scene: each smoothed crossing of ``scene``
    becomes two plain vertices on fresh ids, numbered in vertex order, and the
    pair's edges move to the merged curve."""
    curve_of = {h: e.curve for e in scene.edges for h in e.half}
    next_vid = max((v.id for v in scene.vertices), default=-1) + 1
    vertices: List[Vertex] = []
    for v in scene.vertices:
        c = v.cycle
        if len(c) != 4 or curve_of[c[0]] not in pair or curve_of[c[1]] not in pair:
            vertices.append(v)
            continue
        first = 0 if curve_of[c[0]] == to_curve else 1
        for i in (first, first + 2):
            vertices.append(Vertex(next_vid, (c[i], c[(i + step) % 4])))
            next_vid += 1
    edges = (Edge(e.id, e.half, merged, e.marker) if e.curve in pair else e for e in scene.edges)
    return tuple(vertices), tuple(edges)


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
    nxt, deg, curve = ix.nxt, ix.deg, ix.curve
    pair = (from_curve, to_curve)
    for face in _faces(scene):
        states: List[bool] = []
        for h in face:
            p = h ^ 1
            if deg[p] != 4 or curve[p >> 1] not in pair or curve[nxt[p] >> 1] not in pair:
                continue
            # Quadrant between p and ccw-next(p); it is closed iff that pair
            # is joined into a strand by the smoothing.
            q = p if convention == "after" else nxt[p]
            states.append(curve[q >> 1] == to_curve)
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

    # Step i of the loop enters its edge by dart walk[i] and leaves by its partner.
    comp, walk = census.components[mine[0]], walks[mine[0]]
    next_vid, next_eid, next_hid = (x + 1 for x in scene.max_ids())

    def fresh_half() -> int:
        nonlocal next_hid
        next_hid += 1
        return next_hid - 1

    m = len(walk)
    # Travel-oriented markers per step, copied onto every copy of that edge.
    def travel_marker(entry: int) -> Optional[Marker]:
        m = ix.marker[entry >> 1]
        return (-m[0], -m[1]) if m is not None and entry & 1 else m

    copy_half_start = [[fresh_half() for _ in range(n)] for _ in range(m)]
    copy_half_end = [[fresh_half() for _ in range(n)] for _ in range(m)]

    zero: Optional[Marker] = (0, 0) if ix.marked else None
    loop_halves = {ix.hid[p] for e in walk for p in (e, e ^ 1)}
    removed_edges = set(comp.edges)

    new_vertices: List[Vertex] = [v for v in scene.vertices if loop_halves.isdisjoint(v.cycle)]
    new_edges: List[Edge] = [e for e in scene.edges if e.id not in removed_edges]

    for i, entry in enumerate(walk):
        marker_i = travel_marker(entry)
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
        if ix.deg[entry ^ 1] == 2:
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
        other_curve = ix.curve[c_left >> 1]
        # Connector edges between consecutive copies, crossing right-to-left.
        conn_left: List[Optional[int]] = [None] * n
        conn_right: List[Optional[int]] = [None] * n
        conn_right[0] = ix.hid[c_right]
        conn_left[n - 1] = ix.hid[c_left]
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
    labels are kept literally when ``match_curves`` is true.  Otherwise a curve
    id is global, so it is renamed once for the whole scene: the curves on
    edges are numbered 0..C-1 in order of (edge count, strand count), which is
    invariant, and the smallest encoding over every numbering of tied curves
    wins; that tries k! numberings for k tied curves.  Markers participate,
    oriented by the traversal.

    Three devices keep the search close to linear in practice, and none lets
    ids leak into the result:

    * Root classes.  Every half-edge gets an isomorphism-invariant class
      (vertex degree, face length, oriented marker and curve label); roots
      come only from the class that is smallest by (size, class).  That
      choice is itself invariant.
    * Early abandon.  Each encoding is compared row by row with the best so
      far while the search builds it, and dropped at the first larger row.
    * Automorphism pruning.  An encoding equal to the best maps one
      breadth-first order onto the other, which is an automorphism; its
      cycles are merged into orbits, and a root whose orbit already holds a
      tried root is skipped, since it would give the same encoding (McKay and
      Piperno, "Practical graph isomorphism, II", 2014).
    """
    ix = _index(scene)
    face_len = {p: len(f) for f in _faces(scene) for p in f}
    orbits = _orbits(scene)
    labellings = [ix.curve] if match_curves else _curve_numberings(scene, ix)
    return min(
        tuple(sorted(_component_form(ix, orbit, face_len, label) for orbit in orbits))
        for label in labellings
    )


def _curve_numberings(scene: Scene, ix: _Index):
    """Per-edge curve numbers, one list for each bijection of the curves on
    edges onto 0..C-1 that lists them by (edge count, strand count), with
    every order of the curves that tie."""
    strands = Counter(comp.curve for comp in components(scene).components)
    tied: Dict[Tuple[int, int], List[str]] = {}
    for cid, n in Counter(ix.curve).items():
        tied.setdefault((n, strands[cid]), []).append(cid)
    groups = [permutations(tied[key]) for key in sorted(tied)]
    for choice in product(*groups):
        number = {cid: k for k, cid in enumerate(c for group in choice for c in group)}
        yield [number[c] for c in ix.curve]


def _component_form(
    ix: _Index, halves: Cycle, face_len_of: Dict[int, int], label: List
) -> Tuple:
    """Canonical encoding of one graph component given its darts and a curve
    label per edge."""
    n = len(halves)
    index = {p: i for i, p in enumerate(halves)}
    nxt = [index[ix.nxt[p]] for p in halves]  # sigma, as positions in ``halves``
    par = [index[p ^ 1] for p in halves]  # alpha
    deg = [ix.deg[p] for p in halves]
    face_len = [face_len_of[p] for p in halves]
    curve = [label[p >> 1] for p in halves]
    mark: List[Tuple[int, int, int]] = []  # marker oriented along the dart
    for p in halves:
        m = ix.marker[p >> 1]
        if m is None:
            mark.append((0, 0, 0))
        elif p & 1:
            mark.append((1, -m[0], -m[1]))
        else:
            mark.append((1, m[0], m[1]))

    classes: Dict[Tuple, List[int]] = {}
    for i in range(n):
        classes.setdefault((deg[i], face_len[i], mark[i], curve[i]), []).append(i)
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
        found = _encode_rows(root, nxt, par, curve, mark, best)
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
    curve: List,
    mark: List[Tuple[int, int, int]],
    best: Optional[List[Tuple]],
):
    """Breadth-first encoding from ``root``, one row per visited half-edge:
    (position of ccw-next, position of partner, curve label, oriented marker).

    Returns None as soon as a row makes the encoding larger than ``best``;
    otherwise (rows, visiting order, whether the rows equal ``best``).
    """
    order = [-1] * len(nxt)
    order[root] = 0
    queue = [root]
    rows: List[Tuple] = []
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
        row = (order[a], order[b], curve[h], mark[h])
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
    if _index(a).nv != _index(b).nv or len(_index(a).eid) != len(_index(b).eid):
        return False
    return canonical_form(a, match_curves) == canonical_form(b, match_curves)
