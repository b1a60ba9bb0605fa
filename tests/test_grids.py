"""Differential tests: the integer grid builder against the Fraction builder
it replaced, kept here verbatim as the reference."""

from fractions import Fraction
from itertools import product
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from curvesys import grids
from curvesys.errors import CurveSysError, InvalidScene
from curvesys.grids import torus_grid_scene, torus_lines_scene
from curvesys.scene import Curve, Edge, Scene, Vertex
from curvesys.sceneio import scene_to_dict

Vec = Tuple[int, int]


# ----------------------------------------------------------------------
# Reference: the rational-arithmetic builder, verbatim.
# ----------------------------------------------------------------------


def _unimodular_partner(u: Vec) -> Vec:
    """v with det(u, v) = u.x * v.y - u.y * v.x = 1 (u must be primitive)."""
    x, y = u
    a, b = _ext_gcd(x, y)  # a x + b y = 1
    return (-b, a)


def _ext_gcd(x: int, y: int) -> Tuple[int, int]:
    old_r, r = x, y
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r != 0:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_a, a = a, old_a - k * a
        old_b, b = b, old_b - k * b
    if old_r < 0:
        old_a, old_b = -old_a, -old_b
    return old_a, old_b


def _det(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


class _Line:
    __slots__ = ("index", "curve", "u", "uperp", "c")

    def __init__(self, index: int, curve: str, u: Vec, uperp: Vec, c: Fraction):
        self.index = index
        self.curve = curve
        self.u = u  # primitive direction
        self.uperp = uperp  # det(u, uperp) = 1
        self.c = c  # transverse offset in the (u, uperp) frame

    def point(self, t: Fraction) -> Tuple[Fraction, Fraction]:
        return (
            t * self.u[0] + self.c * self.uperp[0],
            t * self.u[1] + self.c * self.uperp[1],
        )


def _build(
    families: Sequence[Tuple[str, Vec]], denom: int, base: int, name: str
) -> Optional[Scene]:
    lines: List[_Line] = []
    for k, (cid, (x, y)) in enumerate(families):
        g = gcd(abs(x), abs(y))
        u = (x // g, y // g)
        uperp = _unimodular_partner(u)
        shift = pow(base, k + 1, denom)
        for i in range(g):
            c = Fraction(i * denom + shift, g * denom)
            lines.append(_Line(len(lines), cid, u, uperp, c))

    # Distinct parallel lines: offsets must differ mod 1 in a common frame.
    by_dir: Dict[Vec, List[Fraction]] = {}
    for ln in lines:
        d = ln.u if (ln.u[0], ln.u[1]) > (-ln.u[0], -ln.u[1]) else (-ln.u[0], -ln.u[1])
        off = (ln.c * _det(d, ln.uperp)) % 1  # transverse offset in d's frame
        by_dir.setdefault(d, []).append(off)
    for offs in by_dir.values():
        if len(set(offs)) != len(offs):
            return None

    # Crossings: dict canonical torus point -> list of (line index, t param).
    crossings: Dict[Tuple[Fraction, Fraction], List[Tuple[int, Fraction]]] = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            li, lj = lines[i], lines[j]
            den = _det(lj.u, li.u)
            if den == 0:
                continue
            # Points of li with det(lj.u, point) = lj.c (mod 1).
            t0 = (lj.c - li.c * _det(lj.u, li.uperp)) / den
            for m in range(abs(den)):
                t = (t0 + Fraction(m, 1) / den) % 1
                z = li.point(t)
                rep = (z[0] % 1, z[1] % 1)
                s = _det(rep, lj.uperp) % 1  # parameter of the point on lj
                crossings.setdefault(rep, []).append((i, t))
                crossings[rep].append((j, s))

    for rep, incid in crossings.items():
        if len(incid) != 2:
            return None  # multiple point; retry with other offsets

    # Per line: crossings sorted along the direction.
    on_line: Dict[int, List[Tuple[Fraction, Tuple[Fraction, Fraction]]]] = {
        ln.index: [] for ln in lines
    }
    for rep, incid in crossings.items():
        for line_idx, t in incid:
            on_line[line_idx].append((t, rep))
    for lst in on_line.values():
        lst.sort()

    # Allocate vertices at crossing points (sorted for determinism) and one
    # auxiliary plain vertex on every crossing-free line.
    vertex_id_of: Dict[Tuple[Fraction, Fraction], int] = {}
    for rep in sorted(crossings):
        vertex_id_of[rep] = len(vertex_id_of)
    next_vid = len(vertex_id_of)

    half_dir: Dict[int, Vec] = {}  # outward direction of each half-edge end
    vertex_halves: Dict[int, List[int]] = {}
    edges: List[Edge] = []
    next_hid = 0

    def new_half(vertex: int, direction: Vec) -> int:
        nonlocal next_hid
        h = next_hid
        next_hid += 1
        half_dir[h] = direction
        vertex_halves.setdefault(vertex, []).append(h)
        return h

    def neg(d: Vec) -> Vec:
        return (-d[0], -d[1])

    for ln in lines:
        hits = on_line[ln.index]
        if not hits:
            vid = next_vid
            next_vid += 1
            h_out = new_half(vid, ln.u)
            h_in = new_half(vid, neg(ln.u))
            edges.append(Edge(len(edges), (h_out, h_in), ln.curve, (ln.u[0], ln.u[1])))
            continue
        for a in range(len(hits)):
            t1, rep1 = hits[a]
            t2, rep2 = hits[(a + 1) % len(hits)]
            dt = t2 - t1 if a + 1 < len(hits) else t2 + 1 - t1
            v1 = vertex_id_of[rep1]
            v2 = vertex_id_of[rep2]
            h_start = new_half(v1, ln.u)
            h_end = new_half(v2, neg(ln.u))
            lift_end = (rep1[0] + dt * ln.u[0], rep1[1] + dt * ln.u[1])
            mx = lift_end[0] - rep2[0]
            my = lift_end[1] - rep2[1]
            if mx.denominator != 1 or my.denominator != 1:  # pragma: no cover
                raise InvalidScene("internal error: non-integral homology marker")
            edges.append(
                Edge(len(edges), (h_start, h_end), ln.curve, (int(mx), int(my)))
            )

    # Counterclockwise cyclic order at each crossing, by exact angle.
    vertices: List[Vertex] = []
    for rep in sorted(crossings):
        vid = vertex_id_of[rep]
        halves = vertex_halves[vid]
        halves.sort(key=lambda h: _angle_key(half_dir[h]))
        vertices.append(Vertex(vid, tuple(halves)))
    for vid in sorted(vertex_halves):  # plain vertices of crossing-free lines
        if vid >= len(vertex_id_of):
            vertices.append(Vertex(vid, tuple(vertex_halves[vid])))

    curves = [Curve(cid, gcd(abs(x), abs(y))) for cid, (x, y) in families]
    return Scene(name=name, vertices=vertices, edges=edges, curves=curves)


def _angle_key(d: Vec) -> Tuple[int, Fraction]:
    """Sort key for counterclockwise angle from the positive x-axis."""
    x, y = d
    if y == 0:
        return (0 if x > 0 else 2, Fraction(0))
    # Within each open half-plane, -x/y increases monotonically with angle.
    return (1 if y > 0 else 3, Fraction(-x, y))


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------


def _outcome(build, *args):
    """scene_to_dict of the built scene, or the type of the error raised."""
    try:
        return scene_to_dict(build(*args))
    except CurveSysError as exc:
        return type(exc)


def _assert_matches_reference(build, *args):
    new = _outcome(build, *args)
    with mock.patch.object(grids, "_build", _build):
        ref = _outcome(build, *args)
    assert new == ref, args


@pytest.mark.parametrize("p", range(-5, 6))
def test_two_family_grids_match_reference(p):
    """Every grid with |coords| <= 5, parallel and zero vectors included."""
    for q, r, s in product(range(-5, 6), repeat=3):
        _assert_matches_reference(torus_grid_scene, p, q, r, s)


@st.composite
def _families(draw, bound=7):
    """1-4 families with coords in [-bound, bound]; later families are often
    parallel to earlier ones, at a (possibly non-primitive) multiple."""
    coord = st.integers(-bound, bound)
    vecs = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
    for k in range(1, len(vecs)):
        if draw(st.booleans()):
            x, y = vecs[draw(st.integers(0, k - 1))]
            g = gcd(abs(x), abs(y)) or 1
            top = bound // max(abs(x // g), abs(y // g), 1)
            m = draw(st.integers(-top, top))
            vecs[k] = (x // g * m, y // g * m)
    return [(f"c{i}", v) for i, v in enumerate(vecs)]


@settings(max_examples=150, deadline=None)
@given(_families())
def test_lines_scenes_match_reference(families):
    _assert_matches_reference(torus_lines_scene, families)


@settings(max_examples=300, deadline=None)
@given(
    _families(bound=4),
    st.integers(1, 9),
    st.integers(0, 5),
)
def test_build_matches_reference_on_small_offset_schemes(families, denom, base):
    """Tiny offset denominators make coincident lines and multiple points
    common, so both builders must reject (None) or accept the same inputs."""
    if any(v == (0, 0) for _, v in families):
        return
    new = grids._build(families, denom, base, "x")
    ref = _build(families, denom, base, "x")
    assert (new is None) == (ref is None)
    if new is not None:
        assert scene_to_dict(new) == scene_to_dict(ref)


@pytest.mark.parametrize(
    "families",
    [
        [("a", (1, 0)), ("b", (2, 0))],  # coincident parallel lines
        [("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))],  # triple point
    ],
    ids=["coincident", "triple-point"],
)
def test_degenerate_offsets_are_rejected(families):
    """With denominator 1 every offset is 0, so both safety checks fire."""
    assert grids._build(families, 1, 2, "x") is None
    assert _build(families, 1, 2, "x") is None


@pytest.mark.parametrize(
    "families, message",
    [
        ([], "need at least one curve family"),
        ([("a", (1, 0)), ("b", (0, 1)), ("a", (1, 1))], "duplicate curve ids in ['a', 'b', 'a']"),
    ],
)
def test_torus_lines_scene_rejects_bad_families(families, message):
    with pytest.raises(InvalidScene) as info:
        torus_lines_scene(families)
    assert str(info.value) == message
