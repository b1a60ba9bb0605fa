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

Every scene is one checked dart index (edge k owns darts 2k and 2k + 1, so
alpha is p ^ 1), built by one constructor from columns: vertex ids, vertex
cycles as half-edge ids, edge ids, edge halves, curve labels, markers and the
curve ids.  It maps half-edge ids to darts and checks integer ids, half-edges
and markers, string curve ids and labels, half-edge bookkeeping, vertex
degrees 2 or 4 and alternating crossings, raising a SceneError on the first
violation.  A scene's curves are their ids, kept on the index in declared
order; how many components each has is what ``components`` finds, and no
scene declares it.  Only outside callers pass records: ``Scene(...)`` checks
that its name is a string and that it is given lists or tuples of Vertex
records, Edge records and curve ids, feeds the constructor their columns and
keeps none of the records.  The file loader, the grids (where each half-edge
id is its dart), the corpus controls and ``parallel_copies`` hand it columns,
and ``resolve`` derives its output's index from the input's by a local
rewrite of sigma, degrees, edge curves, curve ids and the per-vertex columns.
One reader gives the columns back: the Vertex and Edge records, built when
first read, and the file writer both use it.  Faces, strand components and
graph-component orbits are derived from the index at most once per scene and
kept on it.

Cellularity is stricter, and only ``validate`` demands it: the scene must be
connected (one graph component, so not empty), and a scene carrying homology
markers must encode genus 1, since markers declare a torus configuration.
Resolving all crossings of a pair of curves usually leaves a disjoint union of
circles, which no longer embeds cellularly; such scenes stay structurally
valid and support the census, but ``validate`` flags them as ``NonCellular``
unless asked not to, and only markers tell which circles bound a disk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, count
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import (
    BigonPresent,
    DanglingHalfEdge,
    InvalidChoice,
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


class Scene:
    """An immutable rotation system with curve-labelled edges, held as one
    checked dart index.  Only outside callers use ``Scene(...)``: it takes a
    string name and lists or tuples of Vertex records, Edge records and curve
    ids, indexes their columns with the one checked constructor, raising a
    SceneError on the first violation, and keeps none of the records given;
    the package's builders hand that constructor columns.  ``curves`` is the
    tuple of curve ids in declared order.  ``vertices`` and ``edges`` are
    built from the index when first read, so a scene's file loads back to
    equal records and curves.  :func:`validate` adds the Euler bookkeeping and
    cellularity.
    """

    __slots__ = ("name", "_parts", "_index")

    def __init__(
        self, name: str, vertices: Sequence[Vertex], edges: Sequence[Edge], curves: Sequence[str]
    ) -> None:
        if type(name) is not str:
            raise InvalidScene(f"the scene name must be a string, got {name!r}")
        for rows, what in ((vertices, "vertices"), (edges, "edges"), (curves, "curves")):
            if type(rows) not in _SEQ:
                raise InvalidScene(f"{what} must be a list or tuple, got {rows!r}")
        for rows, kind in ((vertices, Vertex), (edges, Edge)):
            if not {kind}.issuperset(map(type, rows)):
                bad = next(x for x in rows if type(x) is not kind)
                raise InvalidScene(f"expected {kind.__name__} records, got {bad!r}")
        self.name, self._parts = name, None  # records: built when read
        self._index: _Index = _checked_index(
            [v.id for v in vertices], [v.cycle for v in vertices], [e.id for e in edges],
            [e.half for e in edges], [e.curve for e in edges], [e.marker for e in edges], curves,
        )

    vertices = property(lambda self: self._read()[0])
    edges = property(lambda self: self._read()[1])
    curves = property(lambda self: self._index.curves)

    def _read(self) -> Tuple[Tuple[Vertex, ...], Tuple[Edge, ...]]:
        if self._parts is None:
            self._parts = _records(self._index)
        return self._parts

    def __repr__(self) -> str:
        v, e = len(self._index.vid), len(self._index.eid)
        return f"Scene({self.name!r}, V={v}, E={e}, curves={list(self.curves)})"


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
    """The scene as a combinatorial map over darts: edge k owns darts 2k (its
    first half-edge) and 2k + 1 (its second), so alpha is ``p ^ 1``, the edge
    of p is ``p >> 1``, and the marker along p is negated when p is odd.  Each
    vertex is kept as its id and its first dart, from which sigma walks its
    cycle.  Faces, orbits and strand walks are tuples of darts."""

    __slots__ = ("nxt", "deg", "hid", "eid", "curve", "marker", "by_hid", "by_eid", "curves",
                 "vid", "first", "marked", "faces", "orbits", "strands")

    def __init__(self, nxt, deg, hid, eid, curve, marker, by_hid, by_eid, curves, vid, first,
                 marked):
        self.nxt: List[int] = nxt  # per dart: sigma, the ccw-next dart at its vertex
        self.deg: List[int] = deg  # per dart: the degree of its vertex
        self.hid: List[int] = hid  # per dart: its half-edge id
        self.eid: List[int] = eid  # per edge: its id
        self.curve: List[str] = curve  # per edge: its curve id
        self.marker: List[Optional[Marker]] = marker  # per edge: its marker or None
        self.by_hid: List[int] = by_hid  # the darts in half-edge id order, where faces start
        self.by_eid: List[int] = by_eid  # the edges in edge id order, where strands start
        self.curves: Tuple[str, ...] = curves  # the scene's curve ids, in declared order
        self.vid: List[int] = vid  # per vertex: its id
        self.first: List[int] = first  # per vertex: the dart its cycle starts at
        self.marked: bool = marked  # there are edges and every one carries a marker
        # faces, orbits and (census, walks) of strands, derived on first use
        self.faces = self.orbits = self.strands = None


def _indexed(name: str, ix: _Index) -> Scene:
    """A scene with a checked index, which builds its records when read."""
    out = Scene.__new__(Scene)
    out.name, out._parts, out._index = name, None, ix
    return out


def _checked_scene(name: str, *columns: Sequence) -> Scene:
    """A scene of the seven columns that :func:`_checked_index` takes, checked
    as it is built; every scene not built by ``Scene(...)`` or ``resolve``."""
    return _indexed(name, _checked_index(*columns))


_INT = {int}  # the only accepted type for ids, half-edges and markers; bool is not int
_SEQ = {list, tuple}  # the accepted types of a pair of half-edges, a marker or a cycle


def _int_rows(rows: Sequence, size: Optional[int] = None) -> Optional[List[int]]:
    """The entries of the rows in order if every row is a list or tuple of
    ints, of ``size`` entries if given, else None."""
    if _SEQ.issuperset(map(type, rows)) and (size is None or set(map(len, rows)) <= {size}):
        entries = list(chain.from_iterable(rows))
        if _INT.issuperset(map(type, entries)):
            return entries
    return None


def _checked_index(
    vid: List[int],
    cycles: Sequence[Sequence[int]],
    eid: List[int],
    halves: Sequence[Sequence[int]],
    curve: List[str],
    marker: List[Optional[Marker]],
    curves: Sequence[str],
) -> _Index:
    """The dart index of a scene given as columns, checked on the way: vertex
    k has id ``vid[k]`` and the counterclockwise half-edge ids ``cycles[k]``;
    edge k has id ``eid[k]``, half-edges ``halves[k]``, curve ``curve[k]`` and
    marker ``marker[k]`` or None, and owns darts 2k and 2k + 1; ``curves``
    holds the curve ids.  Ids come first, then the curve ids and labels,
    half-edges and markers, then the vertex cycles."""
    for ids, what in ((vid, "vertex"), (eid, "edge")):
        if not _INT.issuperset(map(type, ids)):
            bad = next(x for x in ids if type(x) is not int)
            raise InvalidScene(f"{what} ids must be integers, got {bad!r}")
        if len(set(ids)) != len(ids):
            raise InvalidScene(f"duplicate {what} ids")
    if not {str}.issuperset(map(type, chain(curves, curve))):
        bad = next(x for x in chain(curves, curve) if type(x) is not str)
        raise InvalidScene(f"curve ids and edge curve labels must be strings, got {bad!r}")
    names, used = set(curves), set(curve)
    if len(names) != len(curves):
        raise InvalidScene("duplicate curve ids")
    if not used <= names:
        k = next(k for k, c in enumerate(curve) if c not in names)
        raise InvalidScene(f"edge {eid[k]} references unknown curve {curve[k]!r}")

    marked = bool(marker) and None not in marker  # there are edges and each has a marker
    pairs = marker if marked else [(0, 0) if m is None else m for m in marker]
    entries = []
    for rows, size, owner, what in (
        (halves, 2, eid, "edge {} half-edge ids must be a pair"),
        (pairs, 2, eid, "edge {} marker must be a pair"),
        (cycles, None, vid, "vertex {} half-edge cycle must be a sequence"),
    ):
        entries.append(_int_rows(rows, size))
        if entries[-1] is None:
            k, row = next((k, row) for k, row in enumerate(rows) if _int_rows((row,), size) is None)
            shown = list(row) if type(row) in _SEQ else row  # a file and records read alike
            raise InvalidScene(f"{what.format(owner[k])} of integers, got {shown!r}")
    hid, _, flat = entries
    n = len(hid)
    identity = hid == list(range(n))  # each half-edge id is its dart, as in the grids
    if not identity and len(set(hid)) != n:
        seen: Set[int] = set()
        for p, h in enumerate(hid):
            if h in seen:
                if hid[p ^ 1] == h:
                    raise DanglingHalfEdge(f"edge {eid[p >> 1]} repeats half-edge {h}")
                raise DanglingHalfEdge(f"half-edge {h} belongs to two edges")
            seen.add(h)
    if identity and (not flat or min(flat) >= 0 and max(flat) < n):
        darts = cycles
    else:  # half-edge id -> dart, only while building
        dart = dict(zip(hid, range(n)))
        darts = ([dart[h] for h in c] for c in cycles)
    try:
        nxt, deg, first = _link_cycles(zip(vid, darts), curve, hid)
    except KeyError as exc:
        h = exc.args[0]
        raise DanglingHalfEdge(f"half-edge {h} is in a vertex cycle but on no edge") from None
    marker = [m if m is None else tuple(m) for m in marker]
    by_hid = hid if identity else sorted(range(n), key=hid.__getitem__)
    by_eid = sorted(range(len(eid)), key=eid.__getitem__)
    return _Index(
        nxt, deg, hid, eid, curve, marker, by_hid, by_eid, tuple(curves), vid, first, marked
    )


def _link_cycles(
    cycles: Iterable[Tuple[int, Sequence[int]]], curve: List[str], hid: List[int]
) -> Tuple[List[int], List[int], List[int]]:
    """Sigma, per-dart degrees and per-vertex first darts from (vertex id,
    darts) cycles, checking that every vertex has degree 2 or 4, every
    crossing alternates between two curves, every plain vertex stays on one
    curve, and every dart lies in exactly one cycle."""
    nxt = [0] * len(hid)
    deg = [0] * len(hid)  # 0 marks a dart in no vertex cycle yet
    first: List[int] = []
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
        first.append(q)
        for p in reversed(ds):
            if deg[p]:
                raise DanglingHalfEdge(f"half-edge {hid[p]} sits in two vertex cycles")
            nxt[p], deg[p] = q, d
            q = p
    if 0 in deg:
        h = hid[deg.index(0)]
        raise DanglingHalfEdge(f"half-edge {h} is on an edge but in no vertex cycle")
    return nxt, deg, first


def _columns(ix: _Index) -> Tuple[list, ...]:
    """The six columns that :func:`_checked_index` takes, read back: vertex
    ids, cycles (half-edge ids, ccw), edge ids, halves, curves and markers."""
    nxt, deg, hid = ix.nxt, ix.deg, ix.hid
    cycles = []
    for p in ix.first:
        q = nxt[p]
        r = nxt[q]
        cycles.append((hid[p], hid[q]) if deg[p] == 2 else (hid[p], hid[q], hid[r], hid[nxt[r]]))
    return ix.vid, cycles, ix.eid, list(zip(hid[::2], hid[1::2])), ix.curve, ix.marker


def _records(ix: _Index) -> Tuple[Tuple[Vertex, ...], Tuple[Edge, ...]]:
    """The vertex and edge records of a checked index, in its order."""
    vid, cycles, eid, halves, curve, marker = _columns(ix)
    return tuple(map(Vertex, vid, cycles)), tuple(map(Edge, eid, halves, curve, marker))


def _require(scene: Scene, *curve_ids: str) -> _Index:
    """The checked index of a scene that has every curve named."""
    ix = scene._index
    for cid in curve_ids:
        if cid not in ix.curves:
            raise UnknownCurve(f"scene {scene.name!r} has no curve {cid!r}")
    return ix


def _faces(ix: _Index) -> Tuple[Cycle, ...]:
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


def _orbits(ix: _Index) -> Tuple[Cycle, ...]:
    """The graph components: orbits of <sigma, alpha>, each in breadth-first
    order from its first dart."""
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


def _strands(ix: _Index) -> Tuple[ComponentCensus, Tuple[Cycle, ...]]:
    """The component census and, per component, the dart by which the walk
    enters each of its edges."""
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


def _faces_on(ix: _Index, degree: int, curves: Set[str]) -> List[Cycle]:
    """The faces of the given degree whose sides lie on exactly these curves."""
    curve = ix.curve
    return [f for f in _faces(ix) if len(f) == degree and {curve[p >> 1] for p in f} == curves]


# ======================================================================
# Validation, faces and the Euler count
# ======================================================================


def validate(scene: Scene, require_cellular: bool = True) -> SceneDiagnostics:
    """Check scene invariants; raise a specific error on the first violation.

    With ``require_cellular=False`` only structural invariants are enforced,
    which is the right level for post-resolution scenes and for configurations
    that deliberately contain components of several graph components.
    """
    ix = scene._index
    per_curve: Dict[str, int] = dict.fromkeys(ix.curves, 0)
    for comp in components(scene).components:
        per_curve[comp.curve] += 1

    faces = _faces(ix)
    v, e, f = len(ix.vid), len(ix.eid), len(faces)
    chi = v - e + f
    connected = len(_orbits(ix)) == 1
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
    ix = scene._index
    return [_face(ix, f) for f in _faces(ix)]


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
    return [_face(ix, f) for f in _faces_on(ix, 2, {curve_a, curve_b})]


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
            if triple[i] != triple[j] and _faces_on(ix, 2, {triple[i], triple[j]}):
                raise BigonPresent(
                    f"curves {triple[i]!r} and {triple[j]!r} bound a bigon; "
                    "region condition needs minimal position"
                )
    return not _faces_on(ix, 3, {c1, c2, c3})


# ======================================================================
# Components and homology
# ======================================================================


def components(scene: Scene) -> ComponentCensus:
    """Partition every curve's edges into closed strands.

    Traversal starts at the smallest unvisited edge id, walking from that
    edge's first half-edge; markers are summed with signs matching the
    traversal direction.
    """
    return _strands(scene._index)[0]


def crossing_count(scene: Scene, curve_a: str, curve_b: str) -> int:
    """Number of 4-valent vertices where the two curves cross."""
    ix = _require(scene, curve_a, curve_b)
    nxt, curve, darts = ix.nxt, ix.curve, 0
    # Curves alternate at a crossing: two of its curve_a darts have ccw-next on curve_b.
    for p, d in enumerate(ix.deg):
        if d == 4 and curve[p >> 1] == curve_a and curve[nxt[p] >> 1] == curve_b:
            darts += 1
    return darts // 2


def trivial_components(scene: Scene) -> List[Component]:
    """Crossing-free components that bound a disk: those whose signed marker
    sum vanishes.  One without markers raises ``NonCellular``, since circles
    alone do not encode the surface they lie on.
    """
    ix = scene._index
    census, walks = _strands(ix)
    out: List[Component] = []
    for comp, walk in zip(census.components, walks):
        if any(ix.deg[p ^ 1] != 2 for p in walk):
            continue
        if comp.marker_sum is None:
            raise NonCellular(f"triviality needs markers; a circle of {comp.curve!r} has none")
        if comp.marker_sum == (0, 0):
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
    and is not checked again: it shares every column but sigma, degrees, edge
    curves and the per-vertex columns, which change only where the pair
    crosses.  Each smoothed crossing becomes two plain vertices on fresh ids
    (past the largest id, in vertex order), one starting at each 'to' dart.
    """
    if convention not in _CONVENTIONS:
        raise InvalidChoice(f"convention must be one of {_CONVENTIONS}, got {convention!r}")
    ix = _require(scene, from_curve, to_curve)
    if from_curve == to_curve:
        raise InvalidScene("resolve needs two distinct curve ids")
    pair = {from_curve, to_curve}
    if _faces_on(ix, 2, pair):
        raise BigonPresent(
            f"curves {from_curve!r}, {to_curve!r} bound a bigon; resolve needs minimal position"
        )

    merged = _fresh_curve_id(ix, f"{from_curve}*{to_curve}")
    after = convention == "after"

    # A crossing of the pair reads (t, f, u, g) counterclockwise from a 'to'
    # dart t.  Each 'to' dart is joined with its ccw-next (after) or
    # ccw-previous (before) dart, which is on 'from'.
    old_nxt, old_deg, nxt, deg, curve = ix.nxt, ix.deg, ix.nxt[:], ix.deg[:], ix.curve
    vid, first = [], []
    fresh = max(ix.vid, default=-1) + 1
    for v, p in zip(ix.vid, ix.first):
        if old_deg[p] != 4 or curve[p >> 1] not in pair or curve[old_nxt[p] >> 1] not in pair:
            vid.append(v)
            first.append(p)
            continue
        t = p if curve[p >> 1] == to_curve else old_nxt[p]
        f = old_nxt[t]
        u = old_nxt[f]
        g = old_nxt[u]
        if not after:
            f, g = g, f
        nxt[t], nxt[f], nxt[u], nxt[g] = f, t, g, u
        deg[t] = deg[f] = deg[u] = deg[g] = 2
        vid += (fresh, fresh + 1)
        first += (t, u)
        fresh += 2

    out = _Index(
        nxt, deg, ix.hid, ix.eid, [merged if c in pair else c for c in curve], ix.marker,
        ix.by_hid, ix.by_eid, (*(c for c in ix.curves if c not in pair), merged), vid, first,
        ix.marked,
    )
    return _indexed(f"resolve({scene.name},{from_curve}->{to_curve})", out)


def _fresh_curve_id(ix: _Index, base: str) -> str:
    if base not in ix.curves:
        return base
    n = 2
    while f"{base}{n}" in ix.curves:
        n += 1
    return f"{base}{n}"


def corner_alternation_ok(scene: Scene, from_curve: str, to_curve: str) -> bool:
    """Check that around every face, corners at (from,to)-crossings would be
    opened and closed alternately by the resolution.

    A corner of a face is the vertex quadrant between two consecutive sides;
    smoothing a crossing closes the two quadrants cut off by the new strands
    and opens the other two.  The answer is the same for either order of the
    curves and either smoothing convention: each of these negates every
    corner's state, which keeps alternation.
    """
    ix = _require(scene, from_curve, to_curve)
    nxt, deg, curve = ix.nxt, ix.deg, ix.curve
    pair = (from_curve, to_curve)
    for face in _faces(ix):
        states: List[bool] = []
        for h in face:
            p = h ^ 1
            if deg[p] != 4 or curve[p >> 1] not in pair or curve[nxt[p] >> 1] not in pair:
                continue
            # Quadrant between p and ccw-next(p); it is closed iff that pair
            # is joined into a strand by the smoothing.
            states.append(curve[p >> 1] == to_curve)
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
    census, walks = _strands(ix)
    mine = [i for i, c in enumerate(census.components) if c.curve == curve_id]
    if len(mine) != 1:
        raise SelfCrossingCurve(
            f"curve {curve_id!r} has {len(mine)} components; "
            "parallel_copies needs a single embedded loop"
        )
    if n == 1:
        return scene

    # Step i of the loop enters its edge by dart walk[i] and leaves by its partner.
    walk = walks[mine[0]]
    fresh = count(max(ix.hid) + 1)  # fresh half-edge ids
    m = len(walk)
    copy_half_start = [[next(fresh) for _ in range(n)] for _ in range(m)]
    copy_half_end = [[next(fresh) for _ in range(n)] for _ in range(m)]

    zero: Optional[Marker] = (0, 0) if ix.marked else None
    hid = ix.hid
    loop_halves = {hid[p] for e in walk for p in (e, e ^ 1)}
    loop_edges = {e >> 1 for e in walk}

    # The kept rows, then the copies and connectors, which take fresh ids
    # past the largest in row order.
    vid, cycles, eid, halves, curve, marker = _columns(ix)
    keep = [loop_halves.isdisjoint(c) for c in cycles]
    vid, cycles = list(compress(vid, keep)), list(compress(cycles, keep))
    keep = [k not in loop_edges for k in range(len(eid))]
    eid, halves, curve, marker = (list(compress(col, keep)) for col in (eid, halves, curve, marker))

    for i, entry in enumerate(walk):
        # The travel-oriented marker of step i, copied onto every copy of its edge.
        mk = ix.marker[entry >> 1]
        marker_i = (-mk[0], -mk[1]) if mk is not None and entry & 1 else mk
        halves += zip(copy_half_start[i], copy_half_end[i])
        curve += [curve_id] * n
        marker += [marker_i] * n

    # Rebuild each visited vertex.  Step i ends at the vertex between step i
    # and step i+1; copies are indexed 0 (right of travel) .. n-1 (left).
    for i, entry in enumerate(walk):
        j_out = (i + 1) % m
        if ix.deg[entry ^ 1] == 2:
            cycles += zip(copy_half_end[i], copy_half_start[j_out])
            continue
        # Crossing with another curve: cycle reads (out, left, in, right)
        # counterclockwise starting at the outgoing copy-curve half-edge,
        # which is where step i+1 enters.
        c_left = ix.nxt[walk[j_out]]
        c_right = ix.nxt[ix.nxt[c_left]]
        # Connector edges between consecutive copies, crossing right-to-left.
        connectors = [(next(fresh), next(fresh)) for _ in range(n - 1)]
        conn_left = [h for h, _ in connectors] + [hid[c_left]]
        conn_right = [hid[c_right]] + [h for _, h in connectors]
        halves += connectors
        curve += [ix.curve[c_left >> 1]] * (n - 1)
        marker += [zero] * (n - 1)
        cycles += zip(copy_half_start[j_out], conn_left, copy_half_end[i], conn_right)
    vid += range(max(ix.vid) + 1, max(ix.vid) + 1 + len(cycles) - len(vid))
    eid += range(max(ix.eid) + 1, max(ix.eid) + 1 + len(halves) - len(eid))

    name = f"copies({scene.name},{curve_id}x{n})"
    return _checked_scene(name, vid, cycles, eid, halves, curve, marker, ix.curves)


# ======================================================================
# Isomorphism of labelled rotation systems
# ======================================================================


def canonical_form(scene: Scene):
    """A hashable canonical encoding, equal exactly for isomorphic scenes.

    Each graph component is encoded by a breadth-first relabelling of its
    darts, read in place on the index, from a root; the lexicographically
    smallest encoding over the candidate roots wins, and the component
    encodings are sorted.  Curve labels are kept literally, and markers
    participate, oriented by the traversal.

    Three devices keep the search close to linear in practice, and none lets
    ids leak into the result:

    * Root classes.  Every dart gets an isomorphism-invariant class (vertex
      degree, face length, oriented marker and curve label); roots come only
      from the class smallest by (count in the component, class).  That
      choice is itself invariant.
    * Early abandon.  Each encoding is compared row by row with the best so
      far while the search builds it, and dropped at the first larger row.
    * Automorphism pruning.  An encoding equal to the best maps one
      breadth-first order onto the other, which is an automorphism; its
      cycles are merged into orbits, and a root whose orbit already holds a
      tried root is skipped, since it would give the same encoding (McKay and
      Piperno, "Practical graph isomorphism, II", 2014).
    """
    ix = scene._index
    n = len(ix.nxt)
    face_len = [0] * n
    for f in _faces(ix):
        k = len(f)
        for p in f:
            face_len[p] = k
    mark: List[Tuple[int, ...]] = []  # per dart: its marker oriented along it, () for none
    for m in ix.marker:
        mark += ((), ()) if m is None else (m, (-m[0], -m[1]))
    label = chain.from_iterable(zip(ix.curve, ix.curve))
    key = list(zip(ix.deg, face_len, mark, label))
    order = [-1] * n  # per dart: its breadth-first position, -1 outside an encoding
    orbit_of = list(range(n))  # union-find over automorphism orbits of darts
    tried = bytearray(n)  # per union-find root: the orbit holds a tried root
    comps = (_component_form(ix.nxt, key, orbit, order, orbit_of, tried) for orbit in _orbits(ix))
    return tuple(sorted(comps))


def _component_form(
    nxt: List[int], key: List[Tuple], orbit: Cycle, order: List[int], orbit_of: List[int],
    tried: bytearray,
) -> Tuple:
    """Canonical encoding of one graph component, given its darts and each
    dart's class, searched from the darts of its rarest class."""
    keys = list(map(key.__getitem__, orbit))
    counts = Counter(keys)
    rare = min(counts, key=lambda c: (counts[c], c))

    def find(x: int) -> int:
        while orbit_of[x] != x:
            orbit_of[x] = orbit_of[orbit_of[x]]
            x = orbit_of[x]
        return x

    best: Optional[List[Tuple]] = None
    best_queue: List[int] = []
    at = -1
    for _ in range(counts[rare]):
        at = keys.index(rare, at + 1)
        root = orbit[at]
        r = find(root)
        if tried[r]:
            continue
        tried[r] = 1
        found = _encode_rows(root, nxt, key, order, best)
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
    root: int, nxt: List[int], key: List[Tuple], order: List[int], best: Optional[List[Tuple]]
):
    """Breadth-first encoding from ``root``, one row per visited dart:
    (position of sigma, position of alpha, class of the dart).  ``order``
    holds -1 for every dart on entry and again on return.

    Returns None as soon as a row makes the encoding larger than ``best``;
    otherwise (rows, visiting order, whether the rows equal ``best``).
    """
    order[root] = 0
    queue = [root]
    rows: List[Tuple] = []
    tie, abandoned = best is not None, False
    k = 1  # the next position, len(queue)
    for h in queue:
        a = nxt[h]
        if order[a] < 0:
            order[a] = k
            k += 1
            queue.append(a)
        b = h ^ 1
        if order[b] < 0:
            order[b] = k
            k += 1
            queue.append(b)
        row = (order[a], order[b], key[h])
        if tie and row != best[order[h]]:
            if row > best[order[h]]:
                abandoned = True
                break
            tie = False
        rows.append(row)
    for h in queue:
        order[h] = -1
    return None if abandoned else (rows, queue, tie)


def scenes_isomorphic(a: Scene, b: Scene) -> bool:
    """Isomorphism of labelled rotation systems (markers included).  Scenes
    of equal size whose strand censuses differ are told apart before any
    canonical form is built."""
    ia, ib = a._index, b._index
    if len(ia.vid) != len(ib.vid) or len(ia.eid) != len(ib.eid):
        return False
    if _strand_signature(ia) != _strand_signature(ib):
        return False
    return canonical_form(a) == canonical_form(b)


def _strand_signature(ix: _Index) -> List[Tuple]:
    """Each strand's curve, edge count and marker sum up to sign (``()`` for
    none), sorted.  An isomorphism keeps sigma, alpha, curve labels and
    oriented markers, so it carries strands onto strands of the same curve and
    length; only the walk's direction, which edge ids fix, may negate a sum."""

    def signature(c: Component) -> Tuple:
        s = c.marker_sum
        return c.curve, len(c.edges), () if s is None else max(s, (-s[0], -s[1]))

    return sorted(map(signature, _strands(ix)[0].components))
