"""Scene engine: grids, faces, resolution, census, copies, isomorphism."""

import hashlib
import json
import random
import re
import tempfile
from collections import defaultdict
from functools import partial
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from curvesys.corpus import _two_loops, bigon_scene, genus2_filling_pair, trivial_component_scene
from curvesys.errors import (
    BigonPresent,
    CurveSysError,
    DanglingHalfEdge,
    InvalidChoice,
    InvalidCount,
    InvalidScene,
    NonAlternatingCrossing,
    NonCellular,
    ParallelSlopes,
    SelfCrossingCurve,
    UnknownCurve,
)
from curvesys.grids import torus_grid_scene, torus_lines_scene
from curvesys.harness import suite_resolution_oracle
from curvesys.scene import (
    Curve,
    Edge,
    Scene,
    Vertex,
    canonical_form,
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
from curvesys.sceneio import load_scene, save_scene, scene_to_dict
from curvesys.torus import intersection, multiply, normalize, signed_power_multiply


def census_classes(scene, curve=None):
    return components(scene).class_multiset(curve)


# ----------------------------------------------------------------------
# grid construction
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "pqrs,v,e,f",
    [
        ((1, 0, 0, 1), 1, 2, 1),
        ((2, 1, 1, 1), 1, 2, 1),
        ((3, 1, 1, 1), 2, 4, 2),
        ((2, 0, 0, 1), 2, 4, 2),
        ((2, 0, 0, 3), 6, 12, 6),
    ],
)
def test_grid_counts(pqrs, v, e, f):
    diag = validate(torus_grid_scene(*pqrs))
    assert (diag.v, diag.e, diag.f) == (v, e, f)
    assert diag.genus == 1 and diag.cellular
    assert all(d == 4 for d in diag.face_degrees)


def test_grid_component_structure():
    scene = torus_grid_scene(2, 0, 0, 3)
    assert census_classes(scene, "a") == {normalize(1, 0): 2}
    assert census_classes(scene, "b") == {normalize(0, 1): 3}
    assert crossing_count(scene, "a", "b") == 6


def test_grid_rejects_parallel_and_zero():
    with pytest.raises(ParallelSlopes):
        torus_grid_scene(2, 4, 1, 2)
    with pytest.raises(Exception):
        torus_grid_scene(0, 0, 1, 0)


vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda v: v != (0, 0)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(vectors, min_size=2, max_size=3))
def test_lines_scene_properties(vecs):
    """Any family list with two crossing directions yields a cellular torus
    scene whose crossing counts and census match the defining vectors."""
    from math import gcd

    families = [(f"c{i}", v) for i, v in enumerate(vecs)]
    directions = {
        (x // gcd(abs(x), abs(y)), y // gcd(abs(x), abs(y))) for x, y in vecs
    }
    directions = {max(d, (-d[0], -d[1])) for d in directions}
    if len(directions) < 2:
        return  # all parallel: nothing cellular to build
    scene = torus_lines_scene(families)
    diag = validate(scene)
    assert diag.genus == 1 and diag.cellular
    for i, (cid, v) in enumerate(families):
        assert census_classes(scene, cid) == {
            normalize(*v).primitive(): normalize(*v).multiplicity
        }
        for cjd, w in families[i + 1 :]:
            det = v[0] * w[1] - w[0] * v[1]
            assert crossing_count(scene, cid, cjd) == abs(det)


def test_crossing_count_matches_intersection():
    for pqrs in [(2, 1, 1, 1), (2, 0, 0, 3), (3, -2, 1, 4), (-3, 1, 2, 2)]:
        scene = torus_grid_scene(*pqrs)
        p, q, r, s = pqrs
        assert crossing_count(scene, "a", "b") == intersection(
            normalize(p, q), normalize(r, s)
        )
    with pytest.raises(UnknownCurve):
        crossing_count(torus_grid_scene(1, 0, 0, 1), "a", "zz")


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def test_validate_nonalternating():
    # Two curve loops forced through one 4-valent vertex as A,A,B,B.
    with pytest.raises(NonAlternatingCrossing):
        Scene(
            "bad",
            vertices=[Vertex(0, (0, 1, 2, 3))],
            edges=[Edge(0, (0, 1), "a"), Edge(1, (2, 3), "b")],
            curves=[Curve("a"), Curve("b")],
        )


def test_validate_dangling_half_edge():
    with pytest.raises(DanglingHalfEdge):
        Scene(
            "bad",
            vertices=[Vertex(0, (0, 1)), Vertex(1, (2, 3))],
            edges=[Edge(0, (0, 1), "a"), Edge(1, (2, 4), "a")],
            curves=[Curve("a")],
        )


def test_validate_single_essential_loop_not_cellular_on_torus():
    scene = torus_lines_scene([("a", (1, 0))])
    with pytest.raises(NonCellular):
        validate(scene)
    diag = validate(scene, require_cellular=False)
    assert diag.connected and diag.genus == 0  # the rotation system is a sphere


def test_validate_component_count_mismatch():
    grid = torus_grid_scene(1, 0, 0, 1)
    lying = Scene(
        grid.name, grid.vertices, grid.edges, [Curve("a", 2), Curve("b", 1)]
    )
    with pytest.raises(Exception):
        validate(lying)


# ----------------------------------------------------------------------
# faces
# ----------------------------------------------------------------------


def test_trace_faces_unit_grid():
    faces = trace_faces(torus_grid_scene(1, 0, 0, 1))
    assert len(faces) == 1
    assert faces[0].degree == 4
    assert sorted({c for _, c in faces[0].sides}) == ["a", "b"]


def test_trace_faces_two_squares():
    faces = trace_faces(torus_grid_scene(2, 0, 0, 1))
    assert [f.degree for f in faces] == [4, 4]


def test_faces_partition_half_edges():
    scene = torus_grid_scene(3, -2, 1, 4)
    seen = [h for f in trace_faces(scene) for h, _ in f.sides]
    assert sorted(seen) == sorted(h for e in scene.edges for h in e.half)


def chi_genus(scene):
    diag = validate(scene)
    return diag.chi, diag.genus


def test_euler_genus_examples():
    assert chi_genus(torus_grid_scene(1, 0, 0, 1)) == (0, 1)
    assert chi_genus(torus_grid_scene(3, 1, 1, 1)) == (0, 1)
    assert chi_genus(genus2_filling_pair()) == (-2, 2)


def test_euler_genus_rejects_disconnected():
    with pytest.raises(NonCellular):
        validate(trivial_component_scene())


def test_empty_scene_is_not_cellular():
    empty = Scene("e", [], [], [])
    with pytest.raises(NonCellular):
        validate(empty)
    diag = validate(empty, require_cellular=False)
    assert not diag.connected and diag.genus is None and not diag.cellular


# ----------------------------------------------------------------------
# bigons and region conditions
# ----------------------------------------------------------------------


def test_find_bigons():
    assert find_bigons(torus_grid_scene(1, 0, 0, 1), "a", "b") == []
    assert find_bigons(torus_grid_scene(2, 1, 1, 1), "a", "b") == []
    faces = find_bigons(bigon_scene(), "a", "b")
    assert len(faces) == 2 and all(f.degree == 2 for f in faces)
    with pytest.raises(UnknownCurve):
        find_bigons(bigon_scene(), "a", "nope")


def test_bigon_free_two_curve_scenes_have_deep_faces():
    """Without bigons every complementary polygon has at least four sides."""
    scenes = [
        torus_grid_scene(1, 0, 0, 1),
        torus_grid_scene(3, -2, 1, 4),
        genus2_filling_pair(),
    ]
    for scene in scenes:
        assert find_bigons(scene, "a", "b") == []
        assert min(f.degree for f in trace_faces(scene)) >= 4, scene.name


def test_region_condition_flat_triple_has_triangles():
    scene = torus_lines_scene([("c1", (1, 0)), ("c2", (0, 1)), ("c3", (1, 1))])
    assert validate(scene).genus == 1
    assert check_region_condition(scene, "c1", "c2", "c3") is False


def test_region_condition_parallel_copy_triple():
    scene = torus_lines_scene([("c1", (1, 0)), ("c2", (0, 1)), ("c3", (1, 0))])
    assert validate(scene).genus == 1
    assert check_region_condition(scene, "c1", "c2", "c3") is True


def test_region_condition_unknown_curve():
    scene = torus_grid_scene(1, 0, 0, 1)
    with pytest.raises(UnknownCurve):
        check_region_condition(scene, "a", "b", "c3")


def test_region_condition_requires_minimal_position():
    with pytest.raises(BigonPresent):
        check_region_condition(bigon_scene(), "a", "b", "a")


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------


def test_resolve_pins_smoothing_convention():
    scene = torus_grid_scene(1, 0, 0, 1)
    assert census_classes(resolve(scene, "a", "b")) == {normalize(1, 1): 1}
    assert census_classes(resolve(scene, "b", "a")) == {normalize(1, -1): 1}
    # The mirrored convention must produce the reversed product.
    flipped = resolve(scene, "a", "b", convention="before")
    assert census_classes(flipped) == {normalize(1, -1): 1}


@pytest.mark.parametrize("convention", ["during", "After", None])
def test_resolve_rejects_unknown_conventions(convention):
    with pytest.raises(InvalidChoice) as info:
        resolve(torus_grid_scene(1, 0, 0, 1), "a", "b", convention=convention)
    assert isinstance(info.value, CurveSysError) and isinstance(info.value, ValueError)
    assert f"got {convention!r}" in str(info.value)


def test_resolve_matches_product_on_grids():
    for pqrs in [(2, 1, 1, 1), (2, 0, 0, 2), (3, -1, 1, 2), (4, 3, -2, 1)]:
        p, q, r, s = pqrs
        scene = torus_grid_scene(p, q, r, s)
        prod = multiply(normalize(p, q), normalize(r, s))
        got = census_classes(resolve(scene, "a", "b"))
        assert got == {prod.primitive(): prod.multiplicity}, pqrs


def test_resolve_matches_product_all_signs_bound2():
    """Every signed parameter tuple in the window, constructed directly:
    the resolution census equals the product regardless of vector signs."""
    from itertools import product as iproduct

    for p, q, r, s in iproduct(range(-2, 3), repeat=4):
        if (p, q) == (0, 0) or (r, s) == (0, 0) or p * s - q * r == 0:
            continue
        scene = torus_grid_scene(p, q, r, s)
        prod = multiply(normalize(p, q), normalize(r, s))
        got = census_classes(resolve(scene, "a", "b"))
        assert got == {prod.primitive(): prod.multiplicity}, (p, q, r, s)


def test_resolve_two_parallel_copies_each():
    scene = torus_grid_scene(2, 0, 0, 2)
    resolved = resolve(scene, "a", "b")
    cen = components(resolved)
    assert len(cen.components) == 2
    assert census_classes(resolved) == {normalize(1, 1): 2}


def test_resolve_disjoint_curves_is_relabel():
    scene = torus_lines_scene([("a", (1, 0)), ("b", (0, 1)), ("c", (1, 0))])
    out = resolve(scene, "a", "c")
    assert len(out.vertices) == len(scene.vertices)
    assert sorted(c.id for c in out.curves) == ["a*c", "b"]
    assert census_classes(out, "a*c") == {normalize(1, 0): 2}
    # still cellular: nothing was smoothed
    assert chi_genus(out) == (0, 1)


def test_resolve_keeps_third_curve_crossings():
    """Resolving a pair leaves its crossings with other curves in place.

    Here the merged curve is parallel (as a class) to c, so the resolved
    configuration has an essential annulus in its complement: it is not
    cellular on the torus, and the engine must refuse to report the
    collapsed genus."""
    scene = torus_lines_scene([("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))])
    out = resolve(scene, "a", "b")
    assert census_classes(out, "a*b") == {normalize(1, 1): 1}
    assert census_classes(out, "c") == {normalize(1, 1): 1}
    assert crossing_count(out, "a*b", "c") == 2
    with pytest.raises(NonCellular):
        validate(out)
    validate(out, require_cellular=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(vectors, min_size=3, max_size=3), st.permutations("abc"))
def test_resolve_matches_product_beside_a_third_family(vecs, order):
    """Differential: resolving one ordered pair of three straight families
    merges it into their torus product and leaves the third family alone."""
    if all(v[0] * w[1] == v[1] * w[0] for v, w in zip(vecs, vecs[1:] + vecs[:1])):
        return  # all parallel: no scene to build
    scene = torus_lines_scene(list(zip("abc", vecs)))
    frm, to, third = order
    cls = {c: normalize(*v) for c, v in zip("abc", vecs)}
    out = resolve(scene, frm, to)
    prod = multiply(cls[frm], cls[to])
    assert census_classes(out, f"{frm}*{to}") == {prod.primitive(): prod.multiplicity}
    assert census_classes(out, third) == census_classes(scene, third)


def test_resolve_refuses_bigons_and_unknown():
    with pytest.raises(BigonPresent):
        resolve(bigon_scene(), "a", "b")
    with pytest.raises(UnknownCurve):
        resolve(torus_grid_scene(1, 0, 0, 1), "a", "zzz")


def test_resolve_refuses_one_curve():
    with pytest.raises(InvalidScene) as info:
        resolve(torus_grid_scene(1, 0, 0, 1), "a", "a")
    assert str(info.value) == "resolve needs two distinct curve ids"


def test_resolved_scene_usually_not_cellular():
    resolved = resolve(torus_grid_scene(1, 0, 0, 1), "a", "b")
    with pytest.raises(NonCellular):
        validate(resolved)
    diag = validate(resolved, require_cellular=False)
    assert diag.v == 2 and diag.e == 2


def test_corner_alternation_on_grids():
    for pqrs in [(1, 0, 0, 1), (2, 1, 1, 1), (3, -2, 1, 4)]:
        scene = torus_grid_scene(*pqrs)
        assert corner_alternation_ok(scene, "a", "b")


# ----------------------------------------------------------------------
# components, triviality, homology
# ----------------------------------------------------------------------


def test_components_of_unresolved_grid():
    cen = components(torus_grid_scene(2, 1, 1, 1))
    assert len(cen.components) == 2
    assert {c.curve for c in cen.components} == {"a", "b"}


def test_trivial_components_controls():
    assert trivial_components(resolve(torus_grid_scene(2, 0, 0, 3), "a", "b")) == []
    found = trivial_components(trivial_component_scene())
    assert [c.curve for c in found] == ["c"]


def _markerless_circle_scenes():
    # A genus-2 filling pair plus a markerless circle: the rotation system does
    # not say whether the circle bounds a disk or is essential.
    base = genus2_filling_pair()
    mv, me, mh = base.max_ids()
    vertices = list(base.vertices) + [Vertex(mv + 1, (mh + 1, mh + 2))]
    edges = list(base.edges) + [Edge(me + 1, (mh + 2, mh + 1), "c")]
    yield Scene("g2-plus-circle", vertices, edges, list(base.curves) + [Curve("c", 1)])
    # The essential (1,0) line with its markers stripped: a circle encoding genus 0.
    line = torus_lines_scene([("a", (1, 0))])
    bare = [Edge(e.id, e.half, e.curve) for e in line.edges]
    yield Scene("bare-line", line.vertices, bare, line.curves)
    yield resolve(genus2_filling_pair(), "a", "b")
    yield resolve(genus2_filling_pair(), "b", "a")


@pytest.mark.parametrize(
    "scene", _markerless_circle_scenes(), ids=["g2-plus-circle", "bare-line", "g2-ab", "g2-ba"]
)
def test_trivial_components_needs_markers(scene):
    components(scene)
    validate(scene, require_cellular=False)
    with pytest.raises(NonCellular, match="triviality needs markers"):
        trivial_components(scene)


def test_trivial_components_raises_on_every_resolved_two_loop_scene():
    """Both resolutions of every bigon-free two-loop scene with n <= 5
    crossings are markerless circles, so none has a triviality answer."""
    scenes = raised = 0
    for n in range(1, 6):
        for rest in permutations(range(1, n)):
            for flipped in product((False, True), repeat=n):
                scene = _two_loops("two-loops", (0, *rest), flipped)
                if find_bigons(scene, "a", "b"):
                    continue
                scenes += 1
                for frm, to in (("a", "b"), ("b", "a")):
                    with pytest.raises(NonCellular):
                        trivial_components(resolve(scene, frm, to))
                    raised += 1
    assert (scenes, raised) == (216, 432)


def test_component_homology():
    cen = components(torus_grid_scene(1, 0, 0, 1))
    by_curve = {c.curve: c for c in cen.components}
    assert by_curve["a"].homology() == normalize(1, 0)
    assert by_curve["b"].homology() == normalize(0, 1)
    # No class without markers, nor for a null-homologous component.
    assert components(genus2_filling_pair()).components[0].homology() is None
    ctrl = trivial_component_scene()
    circle = [c for c in components(ctrl).components if c.curve == "c"][0]
    assert circle.marker_sum == (0, 0) and circle.homology() is None


# ----------------------------------------------------------------------
# parallel copies
# ----------------------------------------------------------------------


def test_parallel_copies_identity():
    scene = torus_grid_scene(1, 0, 0, 1)
    assert parallel_copies(scene, "a", 1) is scene


def test_parallel_copies_doubles_crossings():
    scene = torus_grid_scene(1, 0, 0, 1)
    out = parallel_copies(scene, "a", 2)
    diag = validate(out)
    assert diag.genus == 1
    assert crossing_count(out, "a", "b") == 2
    assert find_bigons(out, "a", "b") == []
    assert census_classes(out, "a") == {normalize(1, 0): 2}


def test_parallel_copies_then_resolve_matches_power_form():
    base = torus_grid_scene(1, 0, 0, 1)
    a, b = normalize(1, 0), normalize(0, 1)
    for n in (2, 3, 4):
        out = parallel_copies(base, "a", n)
        got = census_classes(resolve(out, "a", "b"))
        want = signed_power_multiply(a, n, b)
        assert got == {want.primitive(): want.multiplicity}, n


def test_parallel_copies_on_slanted_grid():
    base = torus_grid_scene(2, 1, 1, 1)
    out = parallel_copies(base, "b", 3)
    assert validate(out).genus == 1
    assert crossing_count(out, "a", "b") == 3
    prod = multiply(normalize(2, 1), normalize(3, 3))  # three copies of (1,1)
    got = census_classes(resolve(out, "a", "b"))
    assert got == {prod.primitive(): prod.multiplicity}


def test_parallel_copies_across_two_curves():
    scene = torus_lines_scene([("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))])
    out = parallel_copies(scene, "a", 2)
    assert validate(out).genus == 1
    assert crossing_count(out, "a", "b") == 2
    assert crossing_count(out, "a", "c") == 2
    assert crossing_count(out, "b", "c") == 1
    assert census_classes(out, "a") == {normalize(1, 0): 2}


def test_parallel_copies_genus2_triples_crossings():
    base = genus2_filling_pair()
    out = parallel_copies(base, "a", 3)
    validate(out, require_cellular=False)
    assert chi_genus(out) == (-2, 2)
    assert crossing_count(out, "a", "b") == 12


def _subdivided(scene, curve_id):
    """``scene`` with the first edge of ``curve_id`` cut in two at a new plain
    vertex; the first half keeps the edge's marker and the second reads zero."""
    edges = list(scene.edges)
    k = next(i for i, e in enumerate(edges) if e.curve == curve_id)
    old = edges[k]
    vid, eid, hid = (x + 1 for x in scene.max_ids())
    zero = None if old.marker is None else (0, 0)
    edges[k : k + 1] = [
        Edge(old.id, (old.half[0], hid), curve_id, old.marker),
        Edge(eid, (hid + 1, old.half[1]), curve_id, zero),
    ]
    return Scene(scene.name, [*scene.vertices, Vertex(vid, (hid, hid + 1))], edges, scene.curves)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("pqrs", [(1, 0, 0, 1), (2, 1, 1, -1), (1, 2, -3, 1), (3, -1, 1, 2)])
def test_parallel_copies_through_a_plain_vertex(pqrs, n):
    grid = torus_grid_scene(*pqrs)
    out = parallel_copies(_subdivided(grid, "a"), "a", n)
    assert validate(out).genus == 1
    assert crossing_count(out, "a", "b") == n * crossing_count(grid, "a", "b")
    plain = parallel_copies(grid, "a", n)
    assert census_classes(resolve(out, "a", "b")) == census_classes(resolve(plain, "a", "b"))


def test_parallel_copies_errors():
    scene = torus_grid_scene(1, 0, 0, 1)
    for n in (0, True, False, 2.0):  # a bool is not a count
        with pytest.raises(InvalidCount):
            parallel_copies(scene, "a", n)
    multi = torus_grid_scene(2, 0, 0, 1)
    with pytest.raises(SelfCrossingCurve):
        parallel_copies(multi, "a", 2)  # two components, not a single loop


# ----------------------------------------------------------------------
# isomorphism
# ----------------------------------------------------------------------


def test_scenes_isomorphic_under_relabel():
    scene = torus_grid_scene(2, 1, 1, 1)
    shift = 100
    relabeled = Scene(
        "shifted",
        [Vertex(v.id + shift, tuple(h + shift for h in v.cycle)) for v in scene.vertices],
        [
            Edge(e.id + shift, (e.half[0] + shift, e.half[1] + shift), e.curve, e.marker)
            for e in scene.edges
        ],
        scene.curves,
    )
    assert scenes_isomorphic(scene, relabeled)
    assert not scenes_isomorphic(scene, torus_grid_scene(3, 1, 1, 1))


def test_isomorphism_sees_markers_and_labels():
    scene = torus_grid_scene(1, 0, 0, 1)
    remarked = Scene(
        scene.name,
        scene.vertices,
        [Edge(e.id, e.half, e.curve, (7, 7)) for e in scene.edges],
        scene.curves,
    )
    assert not scenes_isomorphic(scene, remarked)
    relabelled = Scene(
        scene.name,
        scene.vertices,
        [Edge(e.id, e.half, {"a": "x", "b": "y"}[e.curve], e.marker) for e in scene.edges],
        [Curve("x", 1), Curve("y", 1)],
    )
    assert not scenes_isomorphic(scene, relabelled)


def test_canonical_form_is_deterministic():
    scene = torus_grid_scene(2, -1, 1, 3)
    assert canonical_form(scene) == canonical_form(scene)


# Reference: the all-roots canonical form, kept as the oracle for the pruned
# search.  It encodes each component from every half-edge and keeps the
# smallest encoding, so it is canonical by construction.  It reads sigma and
# alpha from the scene's own vertex and edge lists, not from the index that
# the library builds and checks.


def _rotation(scene):
    """(sigma, alpha, edge) of every half-edge, as dicts."""
    nxt = {h: v.cycle[i + 1 - len(v.cycle)] for v in scene.vertices for i, h in enumerate(v.cycle)}
    par, edge = {}, {}
    for e in scene.edges:
        a, b = e.half
        par[a], par[b] = b, a
        edge[a] = edge[b] = e
    return nxt, par, edge


def reference_canonical_form(scene):
    rotation = _rotation(scene)
    nxt, par, _ = rotation
    seen = set()
    comps = []
    for h0 in sorted(nxt):
        if h0 in seen:
            continue
        orbit = set()
        stack = [h0]
        while stack:
            h = stack.pop()
            if h not in orbit:
                orbit.add(h)
                stack += [par[h], nxt[h]]
        seen |= orbit
        comps.append(min(_reference_encoding(rotation, r) for r in orbit))
    return tuple(sorted(comps))


def _reference_encoding(rotation, root):
    nxt, par, edge = rotation
    order = {root: 0}
    queue = [root]
    for h in queue:
        for nb in (nxt[h], par[h]):
            if nb not in order:
                order[nb] = len(order)
                queue.append(nb)
    rows = []
    for h in queue:
        e = edge[h]
        if e.marker is None:
            mk = (0, 0, 0)
        else:
            p, q = e.marker if h == e.half[0] else (-e.marker[0], -e.marker[1])
            mk = (1, p, q)
        rows.append((order[nxt[h]], order[par[h]], e.curve, mk))
    return tuple(rows)


def _relabelled(scene, rng, rename=None):
    """Fresh random ids, rotated vertex cycles, randomly reversed edges (marker
    negated to match), shuffled lists, and curves renamed by ``rename``."""
    rename = rename or {}
    halves = sorted(h for v in scene.vertices for h in v.cycle)
    hmap = dict(zip(halves, rng.sample(range(3 * len(halves) + 5), len(halves))))
    vids = rng.sample(range(3 * len(scene.vertices) + 5), len(scene.vertices))
    eids = rng.sample(range(3 * len(scene.edges) + 5), len(scene.edges))
    vertices = []
    for v, vid in zip(scene.vertices, vids):
        k = rng.randrange(len(v.cycle))
        cycle = tuple(hmap[h] for h in v.cycle[k:] + v.cycle[:k])
        vertices.append(Vertex(vid, cycle))
    edges = []
    for e, eid in zip(scene.edges, eids):
        half, marker = (hmap[e.half[0]], hmap[e.half[1]]), e.marker
        if rng.random() < 0.5:
            half = half[::-1]
            marker = None if marker is None else (-marker[0], -marker[1])
        edges.append(Edge(eid, half, rename.get(e.curve, e.curve), marker))
    rng.shuffle(vertices)
    rng.shuffle(edges)
    curves = [Curve(rename.get(c.id, c.id)) for c in scene.curves]
    return Scene(scene.name + "~", vertices, edges, curves)


def _negate_one_marker(scene, rng):
    marked = [i for i, e in enumerate(scene.edges) if e.marker not in (None, (0, 0))]
    if not marked:
        return scene
    i = rng.choice(marked)
    edges = list(scene.edges)
    e = edges[i]
    edges[i] = Edge(e.id, e.half, e.curve, (-e.marker[0], -e.marker[1]))
    return Scene(scene.name + "!", scene.vertices, edges, scene.curves)


def _markerless(scene):
    return Scene(
        scene.name, scene.vertices, [Edge(e.id, e.half, e.curve) for e in scene.edges], scene.curves
    )


def _random_grid(rng, lo, hi):
    while True:
        p, q, r, s = (rng.randint(-8, 8) for _ in range(4))
        if (p, q) != (0, 0) and (r, s) != (0, 0) and lo <= abs(p * s - q * r) <= hi:
            return torus_grid_scene(p, q, r, s)


def _assert_forms_agree(pairs):
    cache = {}

    def forms(scene):
        if id(scene) not in cache:
            cache[id(scene)] = canonical_form(scene), reference_canonical_form(scene)
        return cache[id(scene)]

    for x, y in pairs:
        (new_x, ref_x), (new_y, ref_y) = forms(x), forms(y)
        assert (new_x == new_y) == (ref_x == ref_y), (x.name, y.name)


def _pairs_around(scene, rng):
    """Relabelled copies (isomorphic), one-marker-negated near misses,
    markerless copies, copies with the two curves swapped, and, when the
    curves can be resolved, resolve outputs in both directions."""
    copy = _relabelled(scene, rng)
    bare = _markerless(scene)
    bare_copy = _relabelled(bare, rng)
    for x, y in ((scene, copy), (bare, bare_copy)):
        assert canonical_form(x) == canonical_form(y)
    pairs = [
        (scene, copy),
        (scene, _relabelled(_negate_one_marker(scene, rng), rng)),
        (bare, bare_copy),
        (bare, _relabelled(bare, rng, {"a": "b", "b": "a"})),
        (scene, _relabelled(scene, rng, {"a": "b", "b": "a"})),
    ]
    if not find_bigons(scene, "a", "b"):
        pairs += [
            (resolve(scene, "a", "b"), resolve(copy, "a", "b")),
            (resolve(scene, "a", "b"), resolve(copy, "b", "a")),
            (resolve(bare, "a", "b"), resolve(_markerless(copy), "a", "b")),
        ]
    return pairs


@pytest.mark.parametrize("seed", range(8))
def test_canonical_form_matches_all_roots_reference(seed):
    rng = random.Random(seed)
    scenes = [_random_grid(rng, 1, 60) for _ in range(2)]
    pairs = [p for scene in scenes for p in _pairs_around(scene, rng)]
    # Distinct grids of one crossing count are isomorphic exactly when an
    # orientation-preserving torus map carries one onto the other.
    for scene in scenes:
        n = len(scene.vertices)
        pairs.append((scene, _random_grid(rng, n, n)))
    _assert_forms_agree(pairs)


def test_canonical_form_matches_reference_on_curated_scenes():
    rng = random.Random(2)
    curated = [
        genus2_filling_pair(),
        bigon_scene(),
        trivial_component_scene(),
        parallel_copies(genus2_filling_pair(), "a", 2),
        parallel_copies(torus_grid_scene(1, 0, 0, 1), "a", 3),
    ]
    pairs = [p for scene in curated for p in _pairs_around(scene, rng)]
    pairs += [(x, y) for x in curated for y in curated if x is not y]
    _assert_forms_agree(pairs)


def _disjoint_union(x, y, rename=None):
    """x beside a copy of y on fresh ids, its curves renamed by ``rename``;
    both keep one global set of curve ids."""
    rename = rename or {}
    ids = [c.id for c in x.curves] + [rename.get(c.id, c.id) for c in y.curves]
    mv, me, mh = (m + 1 for m in x.max_ids())
    vertices = list(x.vertices) + [
        Vertex(v.id + mv, tuple(h + mh for h in v.cycle)) for v in y.vertices
    ]
    edges = list(x.edges) + [
        Edge(e.id + me, (e.half[0] + mh, e.half[1] + mh), rename.get(e.curve, e.curve), e.marker)
        for e in y.edges
    ]
    return Scene(f"{x.name}+{y.name}", vertices, edges, [Curve(c) for c in dict.fromkeys(ids)])


@pytest.mark.parametrize(
    "grid",
    [
        torus_grid_scene(1, 0, 1, 2),
        torus_grid_scene(1, 0, 0, 2),
        _markerless(torus_grid_scene(1, 0, 0, 2)),
    ],
    ids=["grid(1,0,1,2)", "grid(1,0,0,2)", "grid(1,0,0,2)-markerless"],
)
def test_disjoint_unions_keep_curve_labels(grid):
    """A curve id names one curve across the whole scene: G + G is isomorphic
    neither to G + swap(G), whose second half matches G only after renaming a
    and b, nor to a relabelled copy of itself with a and b swapped."""
    swap = {"a": "b", "b": "a"}
    same, swapped = _disjoint_union(grid, grid), _disjoint_union(grid, grid, swap)
    assert not scenes_isomorphic(same, swapped)
    assert reference_canonical_form(same) != reference_canonical_form(swapped)
    assert not scenes_isomorphic(same, _relabelled(same, random.Random(0), swap))


# ----------------------------------------------------------------------
# structure is checked when a scene is built, once per scene
# ----------------------------------------------------------------------


def _loose_scene(cycles, edges, curves=("a", "b")):
    """The records (name, vertices, edges, curves) of a scene, bypassing the
    file loader; ``Scene(*records)`` checks them."""
    return (
        "loose",
        [Vertex(i, tuple(c)) for i, c in enumerate(cycles)],
        [Edge(i, tuple(h), c) for i, (h, c) in enumerate(edges)],
        [Curve(c) for c in curves],
    )


def _path_scene():  # two degree-1 ends
    return _loose_scene([[0], [1, 2], [3]], [([0, 1], "a"), ([2, 3], "a")])


def _theta_scene():  # two degree-3 vertices
    return _loose_scene([[0, 1, 2], [3, 5, 4]], [([0, 3], "a"), ([1, 4], "a"), ([2, 5], "b")])


def _one_loop(vid=0, eid=0):  # records of one plain vertex on one edge
    return "m", [Vertex(vid, (0, 1))], [Edge(eid, (0, 1), "a")], [Curve("a")]


def _grid_with_vertex_id(vid):
    grid = torus_grid_scene(1, 0, 0, 1)
    return grid.name, [Vertex(vid, v.cycle) for v in grid.vertices], grid.edges, grid.curves


@pytest.mark.parametrize(
    "probe",
    [
        lambda: components(Scene(*_path_scene())),
        lambda: trivial_components(Scene(*_path_scene())),
        lambda: find_bigons(Scene(*_path_scene()), "a", "a"),
        lambda: components(Scene(*_theta_scene())),
        lambda: canonical_form(Scene(*_theta_scene())),
        lambda: components(Scene(*_loose_scene([[0, 1]], [([0, 1], "a"), ([1, 0], "a")]))),
        lambda: trace_faces(Scene(*_loose_scene([[0, 1], [1, 0]], [([0, 1], "a")]))),
        lambda: components(
            Scene("m", [Vertex(0, (0, 1))], [Edge(0, (0, 1), "a", (1,))], [Curve("a")])
        ),
        lambda: components(Scene("m", [Vertex(0, (0, [1]))], [Edge(0, (0, 1), "a")], [Curve("a")])),
        lambda: components(Scene("m", [Vertex(0, 7)], [Edge(0, (0, 1), "a")], [Curve("a")])),
        lambda: components(Scene("m", [Vertex(0, (0, 1))], [Edge(0, (0, 1, 2), "a")], [Curve("a")])),
        lambda: validate(Scene("m", [Vertex(0, (0, 1))], [Edge(0, 5, "a")], [Curve("a")])),
        lambda: components(Scene("m", [Vertex([0], (0, 1))], [Edge(0, (0, 1), "a")], [Curve("a")])),
        lambda: components(Scene("m", [Vertex(0, (0, 1))], [Edge([0], (0, 1), "a")], [Curve("a")])),
        lambda: components(Scene("m", [Vertex(0, (0, 1))], [Edge(0, (0, 1), "a")], [Curve(["a"])])),
        lambda: components(Scene("m", [Vertex(0, (0, 1))], [Edge(0, (0, 1), ["a"])], [Curve("a")])),
        *(lambda bad=bad: components(Scene(*_one_loop(vid=bad))) for bad in ("x", 1.5, True)),
        *(lambda bad=bad: components(Scene(*_one_loop(eid=bad))) for bad in ("x", 1.5, True)),
        lambda: resolve(Scene(*_grid_with_vertex_id("x")), "a", "b"),
        lambda: components(
            Scene("m", [Vertex(0, (0, 1))], [Edge(0, (False, 1), "a")], [Curve("a")])
        ),
        lambda: components(
            Scene("m", [Vertex(0, (0, True))], [Edge(0, (0, 1), "a")], [Curve("a")])
        ),
        lambda: components(
            Scene("m", [Vertex(0, (0, 1))], [Edge(0, (0, 1), "a", (True, 0))], [Curve("a")])
        ),
        *(
            lambda bad=bad: validate(
                Scene("m", [Vertex(0, (0, 1))], [Edge(0, (0, 1), "a")], [Curve("a", bad)])
            )
            for bad in (True, 1.0, "1", -1)
        ),
        lambda: Scene(7, [Vertex(0, (0, 1))], [Edge(0, (0, 1), 1)], [Curve(1)]),
        lambda: Scene(7, *_one_loop()[1:]),
        lambda: Scene("m", [Vertex(0, (0, 1))], [Edge(0, (0, 1), 1)], [Curve(1)]),
        lambda: Scene(*_one_loop()[:3], [Curve("a"), Curve(("b",))]),
    ],
    ids=["degree1-components", "degree1-trivial", "degree1-bigons", "degree3-components",
         "degree3-canonical-form", "half-on-two-edges", "half-in-two-cycles", "short-marker",
         "unhashable-cycle-id", "cycle-not-a-sequence", "half-not-a-pair", "half-not-a-sequence",
         "unhashable-vertex-id", "unhashable-edge-id", "unhashable-curve-id",
         "unhashable-edge-curve", "str-vertex-id", "float-vertex-id", "bool-vertex-id",
         "str-edge-id", "float-edge-id", "bool-edge-id", "str-vertex-id-resolve",
         "bool-half-edge", "bool-in-cycle", "bool-marker", "bool-expected-components",
         "float-expected-components", "str-expected-components",
         "negative-expected-components", "int-name-curve-and-label", "int-name",
         "int-curve-and-label", "tuple-unused-curve-id"],
)
def test_malformed_scenes_raise_in_the_library(probe):
    with pytest.raises(CurveSysError):
        probe()


_CURVE_IDS = st.sampled_from("abcx")  # "x" is never declared
_HALVES = st.integers(0, 9)


@st.composite
def _random_rotation_systems(draw):
    """Builders of small rotation systems of any shape: vertices of any
    degree, half-edges on no edge, in two cycles or twice on one edge, and
    unknown curves."""
    cycles = draw(st.lists(st.lists(_HALVES, max_size=5), max_size=5))
    edges = draw(st.lists(st.tuples(st.tuples(_HALVES, _HALVES), _CURVE_IDS), max_size=6))
    curves = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    marked = draw(st.booleans())
    return partial(
        Scene,
        "random",
        [Vertex(i, tuple(c)) for i, c in enumerate(cycles)],
        [Edge(i, h, c, (1, 0) if marked else None) for i, (h, c) in enumerate(edges)],
        [Curve(c) for c in curves],
    )


@st.composite
def _mutated_grids(draw):
    """The builder of a small grid's records, either intact or with one
    structural fault."""
    p, q, r, s = draw(st.sampled_from([(1, 0, 0, 1), (2, 1, 1, 1), (2, 0, 0, 1), (3, 1, 1, 2)]))
    grid = torus_grid_scene(p, q, r, s)
    vertices, edges = list(grid.vertices), list(grid.edges)
    i = draw(st.integers(0, len(vertices) - 1))
    j = draw(st.integers(0, len(edges) - 1))
    v, e = vertices[i], edges[j]
    fault = draw(st.sampled_from(["none", "drop", "repeat", "unknown", "rotate-pair", "same-half"]))
    if fault == "drop":  # degree 3, and a half-edge on an edge but in no cycle
        vertices[i] = Vertex(v.id, v.cycle[1:])
    elif fault == "repeat":  # one half-edge in two cycles
        vertices[i] = Vertex(v.id, v.cycle + (vertices[0].cycle[0],))
    elif fault == "unknown":
        edges[j] = Edge(e.id, e.half, "x", e.marker)
    elif fault == "rotate-pair":  # A,A,B,B at a crossing
        c = v.cycle
        vertices[i] = Vertex(v.id, (c[0], c[2], c[1], c[3]))
    elif fault == "same-half":
        edges[j] = Edge(e.id, (e.half[0], e.half[0]), e.curve, e.marker)
    return partial(Scene, grid.name, vertices, edges, grid.curves)


def _built(build):
    """The scene a builder makes, or None if it raises a CurveSysError."""
    try:
        return build()
    except CurveSysError:
        return None


def _every_operation(scene):
    yield lambda: validate(scene)
    yield lambda: validate(scene, require_cellular=False)
    yield lambda: trace_faces(scene)
    yield lambda: find_bigons(scene, "a", "b")
    yield lambda: find_bigons(scene, "a", "a")
    yield lambda: check_region_condition(scene, "a", "b", "c")
    yield lambda: components(scene)
    yield lambda: trivial_components(scene)
    yield lambda: crossing_count(scene, "a", "b")
    yield lambda: corner_alternation_ok(scene, "a", "b")
    yield lambda: components(resolve(scene, "a", "b"))
    yield lambda: trivial_components(resolve(scene, "b", "a", convention="before"))
    yield lambda: validate(parallel_copies(scene, "a", 2), require_cellular=False)
    yield lambda: scenes_isomorphic(scene, scene)
    yield lambda: scene.max_ids()


@settings(max_examples=150, deadline=None)
@given(st.one_of(_random_rotation_systems(), _mutated_grids()))
def test_every_operation_returns_or_raises_a_curvesys_error(build):
    """Construction raises a CurveSysError, or every operation on the scene
    returns or raises one."""
    scene = _built(build)
    if scene is None:
        return
    for op in _every_operation(scene):
        try:
            op()
        except CurveSysError:
            pass


def test_structure_faces_and_strands_built_once_per_scene(monkeypatch):
    import curvesys.scene as scene_module

    built = {"index": [], "faces": [], "strands": []}

    def counted(kind, fn):
        def wrapper(*args):
            built[kind].append(args[0])  # keeps the object alive, so ids stay distinct
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        scene_module, "_checked_index", counted("index", scene_module._checked_index)
    )
    monkeypatch.setattr(scene_module, "_trace", counted("faces", scene_module._trace))
    monkeypatch.setattr(
        scene_module, "_walk_strands", counted("strands", scene_module._walk_strands)
    )
    assert suite_resolution_oracle(2).ok
    for kind, owners in built.items():
        assert owners, kind
        assert len({id(x) for x in owners}) == len(owners), kind


def test_trace_faces_hands_out_a_fresh_list():
    scene = torus_grid_scene(3, -2, 1, 4)
    faces = trace_faces(scene)
    expected = list(faces)
    faces.clear()
    assert trace_faces(scene) == expected


_INDEX_PARTS = (
    "nxt", "deg", "hid", "eid", "curve", "marker", "by_hid", "by_eid", "curves", "vid", "first",
    "marked",
)


def _assert_derived_index_is_checked_index(out):
    """The index a scene got at construction (from ``resolve`` or a grid
    constructor) equals the one a scene built from its records checks."""
    import curvesys.scene as scene_module

    # Every column is compared; only faces, orbits and strands are derived.
    assert set(scene_module._Index.__slots__) - set(_INDEX_PARTS) == {"faces", "orbits", "strands"}
    derived = out._index
    built = Scene(out.name, out.vertices, out.edges, out.curves)._index
    for part in _INDEX_PARTS:
        assert getattr(derived, part) == getattr(built, part), (out.name, part)


def test_oracle_grids_carry_the_checked_index(monkeypatch):
    import curvesys.harness as harness_module

    grids = []
    real = harness_module.torus_grid_scene

    def recorded(*args):
        grids.append(real(*args))
        return grids[-1]

    monkeypatch.setattr(harness_module, "torus_grid_scene", recorded)
    assert suite_resolution_oracle(4).ok
    assert len(grids) == 1248
    for grid in grids:
        _assert_derived_index_is_checked_index(grid)


@st.composite
def _line_families(draw):
    """One to three families a, b, c of straight lines.  In half the draws
    all are parallel, so no line crosses another and each has one plain
    vertex."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        vecs = draw(st.lists(vectors, min_size=n, max_size=n))
    else:
        x, y = draw(vectors)
        ks = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=n, max_size=n))
        vecs = [(k * x, k * y) for k in ks]
    return torus_lines_scene(list(zip("abc", vecs)))


@settings(max_examples=150, deadline=None)
@given(_line_families())
def test_lines_scenes_carry_the_checked_index(scene):
    _assert_derived_index_is_checked_index(scene)


def _grid_columns(grid):
    """(cycles, curve, marker, curves) of a grid, read from its records."""
    cycles = [v.cycle for v in grid.vertices]
    return cycles, [e.curve for e in grid.edges], [e.marker for e in grid.edges], grid.curves


def _swap_halves(cols):  # A,A,B,B at crossing 0
    c = cols[0][0]
    cols[0][0] = (c[0], c[2], c[1], c[3])


def _drop_half(cols):  # degree 3, and a dart in no cycle
    cols[0][0] = cols[0][0][1:]


def _repeat_dart(cols):  # one dart in two cycles, and one in none
    cycles = cols[0]
    cycles[1] = (cycles[0][0],) + cycles[1][1:]


def _split_crossing(cols):  # two plain vertices, each joining a and b
    cycles = cols[0]
    c = cycles[0]
    cycles[0] = c[:2]
    cycles.append(c[2:])


def _loose_edge(cols):  # an edge whose darts are in no cycle
    cols[1].append("a")
    cols[2].append((1, 0))


def _unknown_curve(cols):
    cols[1][0] = "x"


def _duplicate_curve(cols):
    cols[3] = cols[3] + (cols[3][0],)


@pytest.mark.parametrize(
    "mutate",
    [_swap_halves, _drop_half, _repeat_dart, _split_crossing, _loose_edge,
     _unknown_curve, _duplicate_curve],
)
def test_dart_scenes_raise_what_their_records_raise(mutate):
    """A grid's columns with one fault: the column constructor, given each
    half-edge id as its dart the way the grids call it, raises the error,
    type and message, that the check of the same records raises."""
    import curvesys.scene as scene_module

    cols = list(_grid_columns(torus_grid_scene(3, 1, -1, 2)))
    cols[:3] = (list(col) for col in cols[:3])
    mutate(cols)
    cycles, curve, marker, curves = cols
    with pytest.raises(CurveSysError) as from_records:
        Scene(
            "g",
            [Vertex(k, c) for k, c in enumerate(cycles)],
            [Edge(k, (2 * k, 2 * k + 1), c, m) for k, (c, m) in enumerate(zip(curve, marker))],
            curves,
        )
    vid, eid = list(range(len(cycles))), list(range(len(curve)))
    halves = [(2 * k, 2 * k + 1) for k in eid]
    with pytest.raises(type(from_records.value), match=re.escape(str(from_records.value))):
        scene_module._checked_index(vid, cycles, eid, halves, curve, marker, curves)


def _file_of(records):
    """The scene file of a scene's records, as the loader reads it."""
    name, vertices, edges, curves = records
    rows = []
    for e in edges:
        rec = {"id": e.id, "half": e.half, "curve": e.curve}
        if e.marker is not None:
            rec["marker"] = e.marker
        rows.append(rec)
    data = {
        "name": name,
        "vertices": [{"id": v.id, "halfedges_ccw": v.cycle} for v in vertices],
        "edges": rows,
        "curves": [{"id": c.id} for c in curves],
    }
    return json.loads(json.dumps(data))


def _assert_loader_raises_what_records_raise(records):
    from curvesys.sceneio import scene_from_dict

    with pytest.raises(CurveSysError) as from_records:
        Scene(*records)
    with pytest.raises(CurveSysError) as from_file:
        scene_from_dict(_file_of(records))
    assert type(from_file.value) is type(from_records.value)
    assert str(from_file.value) == str(from_records.value)


@pytest.mark.parametrize(
    "mutate",
    [_swap_halves, _drop_half, _repeat_dart, _split_crossing, _loose_edge,
     _unknown_curve, _duplicate_curve],
)
def test_loader_raises_what_records_raise_on_grid_faults(mutate):
    """The faults of ``test_dart_scenes_raise_what_their_records_raise``, as
    files: the loader raises at load the error, type and message, that a
    scene built from the same records raises."""
    cols = list(_grid_columns(torus_grid_scene(3, 1, -1, 2)))
    cols[:3] = (list(col) for col in cols[:3])
    mutate(cols)
    cycles, curve, marker, curves = cols
    _assert_loader_raises_what_records_raise(
        (
            "g",
            [Vertex(k, c) for k, c in enumerate(cycles)],
            [Edge(k, (2 * k, 2 * k + 1), c, m) for k, (c, m) in enumerate(zip(curve, marker))],
            curves,
        )
    )


def _one_edge(vertex=(0, (0, 1)), edge=(0, (0, 1), "a", None), curve="a"):
    return "m", [Vertex(*vertex)], [Edge(*edge)], [Curve(curve)]


# The probes of test_malformed_scenes_raise_in_the_library that a scene file
# can express, as records.
_FILE_PROBES = {
    "degree1": _path_scene(),
    "degree3": _theta_scene(),
    "half-on-two-edges": _loose_scene([[0, 1]], [([0, 1], "a"), ([1, 0], "a")]),
    "half-in-two-cycles": _loose_scene([[0, 1], [1, 0]], [([0, 1], "a")]),
    "short-marker": _one_edge(edge=(0, (0, 1), "a", (1,))),
    "unhashable-cycle-id": _one_edge(vertex=(0, (0, [1]))),
    "cycle-not-a-sequence": _one_edge(vertex=(0, 7)),
    "half-not-a-pair": _one_edge(edge=(0, (0, 1, 2), "a")),
    "half-not-a-sequence": _one_edge(edge=(0, 5, "a")),
    "unhashable-vertex-id": _one_edge(vertex=([0], (0, 1))),
    "unhashable-edge-id": _one_edge(edge=([0], (0, 1), "a")),
    **{f"{type(bad).__name__}-vertex-id": _one_loop(vid=bad) for bad in ("x", 1.5, True)},
    **{f"{type(bad).__name__}-edge-id": _one_loop(eid=bad) for bad in ("x", 1.5, True)},
    "str-vertex-id-resolve": _grid_with_vertex_id("x"),
    "bool-half-edge": _one_edge(edge=(0, (False, 1), "a")),
    "bool-in-cycle": _one_edge(vertex=(0, (0, True))),
    "bool-marker": _one_edge(edge=(0, (0, 1), "a", (True, 0))),
}


@pytest.mark.parametrize("probe", sorted(_FILE_PROBES))
def test_loader_raises_what_records_raise_on_malformed_scenes(probe):
    _assert_loader_raises_what_records_raise(_FILE_PROBES[probe])


@pytest.mark.parametrize(
    "scene",
    [_one_edge(curve=["a"]), _one_edge(edge=(0, (0, 1), ["a"]))],
    ids=["unhashable-curve-id", "unhashable-edge-curve"],
)
def test_loader_rejects_non_string_curve_labels_first(scene):
    """Curve ids and labels that are not strings: the loader hands them to
    the checked constructor, whose string check raises before any label is
    hashed, with the error and message that the records path raises."""
    _assert_loader_raises_what_records_raise(scene)


@pytest.fixture(scope="module")
def resolve_outputs():
    """Every resolve output of ``suite_resolution_oracle(4)`` under both
    conventions, then each ordered pair of a three-family scene resolved
    under both conventions and resolved again with the third family, disjoint
    curves, and a colliding merged id that takes the ``_fresh_curve_id``
    path, resolved again."""
    import curvesys.harness as harness_module

    outputs = []

    def recorded(*args, **kwargs):
        outputs.append(resolve(*args, **kwargs))
        return outputs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_module, "resolve", recorded)
        suite_resolution_oracle(4, convention="after")
        suite_resolution_oracle(4, convention="before")
    assert len(outputs) == 4992
    three = torus_lines_scene([("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))])
    disjoint = torus_lines_scene([("a", (1, 0)), ("b", (0, 1)), ("c", (1, 0))])
    colliding = torus_lines_scene([("a", (1, 0)), ("b", (0, 1)), ("a*b", (1, 1))])
    for frm, to, third in (("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")):
        for convention in ("after", "before"):
            outputs.append(resolve(three, frm, to, convention=convention))
            outputs.append(resolve(outputs[-1], f"{frm}*{to}", third, convention=convention))
    outputs.append(resolve(disjoint, "a", "c"))
    outputs.append(resolve(colliding, "a", "b"))
    assert "a*b2" in {c.id for c in outputs[-1].curves}  # the fresh-id path
    outputs.append(resolve(outputs[-1], "a*b2", "a*b"))  # a derived index, derived again
    return outputs


def test_resolve_derives_the_checked_index(resolve_outputs):
    for out in resolve_outputs:
        _assert_derived_index_is_checked_index(out)


# sha256 of the records of every scene in ``resolve_outputs`` as built eagerly
# by resolve before records were built on first read; the two must agree.
_RESOLVED_RECORDS_SHA256 = "e5f32c893ee546b57a83325d8a83da38d53b631a73c810f0a449cfbe83ac0ba6"


def test_resolved_records_are_unchanged(resolve_outputs):
    digest = hashlib.sha256()
    for out in resolve_outputs:
        digest.update(json.dumps(scene_to_dict(out), sort_keys=True).encode())
    assert digest.hexdigest() == _RESOLVED_RECORDS_SHA256


def _count_record_builds(monkeypatch):
    """The indexes that the one record builder is called on, as it is called."""
    import curvesys.scene as scene_module

    built = []
    real = scene_module._records

    def counted(ix):
        built.append(ix)
        return real(ix)

    monkeypatch.setattr(scene_module, "_records", counted)
    return built


def test_resolved_records_are_built_only_when_read(monkeypatch):
    built = _count_record_builds(monkeypatch)
    assert suite_resolution_oracle(2).ok
    # The one record build is the trivial-component control, which extends
    # the records of grid(1,0,0,1); no resolve output is read.
    assert len(built) == 1
    built.clear()
    grid = torus_grid_scene(2, 1, -1, 2)
    out = resolve(grid, "a", "b")
    components(out), trivial_components(out), validate(out, require_cellular=False)
    first = scene_to_dict(out)
    assert built == [] and scene_to_dict(out) == first and built == []
    vertices, edges = out.vertices, out.edges
    assert built == [out._index]
    assert out.vertices is vertices and out.edges is edges and len(built) == 1


def test_grid_records_are_built_only_when_read(monkeypatch):
    import curvesys.harness as harness_module

    grids = []
    real_grid = harness_module.torus_grid_scene

    def recorded(*args):
        grids.append(real_grid(*args))
        return grids[-1]

    monkeypatch.setattr(harness_module, "torus_grid_scene", recorded)
    built = _count_record_builds(monkeypatch)
    assert suite_resolution_oracle(2).ok
    # No grid of the suite is read; the one record build is the trivial-component
    # control, which extends the records of grid(1,0,0,1).
    assert grids and all(grid._parts is None for grid in grids)
    assert len(built) == 1
    built.clear()
    grid = torus_grid_scene(2, 1, -1, 2)
    validate(grid), components(grid), find_bigons(grid, "a", "b"), canonical_form(grid)
    components(resolve(grid, "a", "b"))
    first = scene_to_dict(grid)
    assert built == [] and scene_to_dict(grid) == first and built == []
    vertices, edges = grid.vertices, grid.edges
    assert built == [grid._index]
    assert grid.vertices is vertices and grid.edges is edges and len(built) == 1


def _lines_or_grid(families):
    try:
        return torus_lines_scene(families)
    except CurveSysError:  # all three parallel
        return torus_grid_scene(1, 0, 0, 1)


@st.composite
def _three_line_families(draw):
    """Builders of three straight families a, b, c on the torus, parallel
    ones included."""
    vecs = draw(st.lists(vectors, min_size=3, max_size=3))
    return partial(_lines_or_grid, list(zip("abc", vecs)))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_random_rotation_systems(), _mutated_grids(), _three_line_families()),
    st.sampled_from(["after", "before"]),
)
def test_resolve_derives_the_checked_index_on_random_scenes(build, convention):
    """Construction raises a CurveSysError, or every resolve output of the
    scene, and each output resolved again, carries the checked index."""
    scene = _built(build)
    if scene is None:
        return
    for frm, to in (("a", "b"), ("b", "c"), ("c", "a")):
        try:
            out = resolve(scene, frm, to, convention=convention)
        except CurveSysError:
            continue
        _assert_derived_index_is_checked_index(out)
        third = ({"a", "b", "c"} - {frm, to}).pop()
        try:
            again = resolve(out, f"{frm}*{to}", third, convention=convention)
        except CurveSysError:
            continue
        _assert_derived_index_is_checked_index(again)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_random_rotation_systems(), _three_line_families()))
@example(partial(torus_lines_scene, [("a", (2, 1)), ("b", (0, 1)), ("c", (1, 1))]))
def test_corner_alternation_is_the_same_for_either_order(build):
    """Swapping the two curves negates every corner's state, as the mirrored
    smoothing convention does, and alternation survives negation.  The
    example has pairs that alternate and one that does not."""
    scene = _built(build)
    if scene is None:
        return
    for x, y in (("a", "b"), ("b", "c"), ("c", "a")):
        try:
            forward = corner_alternation_ok(scene, x, y)
        except CurveSysError:  # a curve the scene does not have
            continue
        assert corner_alternation_ok(scene, y, x) == forward


def test_resolve_outputs_are_not_indexed_again(monkeypatch):
    import curvesys.grids as grids_module
    import curvesys.scene as scene_module

    calls = {"_checked_index": 0, "_walk_strands": 0, "grids": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_checked_index", "_walk_strands"):
        monkeypatch.setattr(scene_module, name, counted(name, getattr(scene_module, name)))
    monkeypatch.setattr(
        grids_module, "_checked_index", counted("grids", grids_module._checked_index)
    )
    assert suite_resolution_oracle(4).ok
    # Only the three corpus controls are built from records and the 1,249
    # grids from their columns; the 2,496 resolve outputs carry derived
    # indexes, and every scene's strands are still walked once.
    assert calls == {"_checked_index": 3, "_walk_strands": 3250, "grids": 1249}


# ----------------------------------------------------------------------
# every scene that is built can be saved and loaded again
# ----------------------------------------------------------------------

_ODD_LABELS = st.one_of(
    st.sampled_from("ab"), st.text(max_size=2), st.integers(-1, 1), st.none(), st.tuples(st.just("a"))
)


@st.composite
def _grids_with_odd_labels(draw):
    """The builder of a small grid's records whose name, curve ids and edge
    curve labels are drawn from strings and from values that are not."""
    grid = torus_grid_scene(*draw(st.sampled_from([(1, 0, 0, 1), (2, 1, 1, 1)])))
    name, a, b = draw(_ODD_LABELS), draw(_ODD_LABELS), draw(_ODD_LABELS)
    declared = draw(st.sampled_from([(a, b), ("a", "b"), (a, b, draw(_ODD_LABELS))]))
    rename = {"a": a, "b": b}
    edges = [Edge(e.id, e.half, rename[e.curve], e.marker) for e in grid.edges]
    return partial(Scene, name, grid.vertices, edges, [Curve(c) for c in declared])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_random_rotation_systems(), _mutated_grids(), _grids_with_odd_labels()))
def test_every_scene_that_is_built_loads_back_from_its_file(build):
    scene = _built(build)
    if scene is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        save_scene(scene, path)
        again = load_scene(path)
    assert scene_to_dict(again) == scene_to_dict(scene)


# ----------------------------------------------------------------------
# isomorphism against an independent VF2 matcher
# ----------------------------------------------------------------------


def _vf2_graph(scene):
    """The scene as a digraph read from its records: a node per half-edge,
    labelled with its oriented marker; an arc to its ccw-next and one to its
    partner, told apart by their kinds; and a node per curve on edges,
    labelled with the curve's id, with an arc from every half-edge on it.  A
    label-preserving isomorphism of two such graphs is an isomorphism of the
    labelled rotation systems."""
    import networkx as nx

    nxt, par, edge = _rotation(scene)
    kinds = defaultdict(set)  # arc -> its kinds; sigma and alpha may share one
    graph = nx.DiGraph()
    for h, e in edge.items():
        m = None if e.marker is None else tuple(e.marker)
        if m is not None and h != e.half[0]:
            m = (-m[0], -m[1])
        curve = ("curve", e.curve)
        graph.add_node(h, label=("half-edge", m))
        graph.add_node(curve, label=("curve", e.curve))
        kinds[h, nxt[h]].add("sigma")
        kinds[h, par[h]].add("alpha")
        kinds[h, curve].add("on")
    for (u, v), kind in kinds.items():
        graph.add_edge(u, v, kind=frozenset(kind))
    return graph


def _vf2_isomorphic(x, y):
    from networkx.algorithms.isomorphism import (
        DiGraphMatcher,
        categorical_edge_match,
        categorical_node_match,
    )

    return DiGraphMatcher(
        _vf2_graph(x),
        _vf2_graph(y),
        node_match=categorical_node_match("label", None),
        edge_match=categorical_edge_match("kind", None),
    ).is_isomorphic()


_INTACT = [
    partial(torus_grid_scene, 1, 0, 0, 1),
    partial(torus_grid_scene, 2, 1, 1, 1),
    partial(torus_grid_scene, 1, 0, 1, 2),
    partial(torus_grid_scene, 1, 0, 0, 2),
    partial(torus_grid_scene, 3, 1, 1, 2),
    partial(torus_grid_scene, 2, 0, 0, 3),
    lambda: _markerless(torus_grid_scene(1, 0, 0, 2)),
    lambda: _markerless(torus_grid_scene(3, 1, -1, 2)),
    lambda: resolve(torus_grid_scene(2, 0, 0, 3), "a", "b"),
    lambda: resolve(_markerless(torus_grid_scene(3, 1, 1, 2)), "b", "a"),
    lambda: parallel_copies(torus_grid_scene(1, 0, 0, 1), "a", 3),
    lambda: torus_lines_scene([("a", (1, 0)), ("b", (0, 1)), ("c", (1, 1))]),
    genus2_filling_pair,
    trivial_component_scene,
]


@st.composite
def _iso_pairs(draw):
    """Two scenes: one from the random, mutated or intact builders, and a
    relabelled copy of it (with its curves permuted or not), a relabelled
    near miss, another drawn scene, or two disjoint unions of it with itself
    that differ by a permutation of the curves in one half."""
    builders = st.one_of(_random_rotation_systems(), _mutated_grids(), st.sampled_from(_INTACT))
    x = _built(draw(builders))
    if x is None:
        return None
    rng = draw(st.randoms(use_true_random=False))
    ids = [c.id for c in x.curves]
    perm = dict(zip(ids, rng.sample(ids, len(ids))))
    how = draw(st.sampled_from(["copy", "permuted", "near-miss", "other", "unions"]))
    if how == "copy":
        return x, _relabelled(x, rng)
    if how == "permuted":
        return x, _relabelled(x, rng, perm)
    if how == "near-miss":
        return x, _relabelled(_negate_one_marker(x, rng), rng)
    if how == "other":
        y = _built(draw(builders))
        return None if y is None else (x, y)
    rename = draw(st.sampled_from([{}, perm]))
    return _disjoint_union(x, x), _relabelled(_disjoint_union(x, x, perm), rng, rename)


def _swapped_unions(grid):
    return _disjoint_union(grid, grid), _disjoint_union(grid, grid, {"a": "b", "b": "a"})


@settings(max_examples=300, deadline=None)
@given(_iso_pairs())
@example(_swapped_unions(torus_grid_scene(1, 0, 1, 2)))
@example(_swapped_unions(torus_grid_scene(1, 0, 0, 2)))
@example(_swapped_unions(_markerless(torus_grid_scene(1, 0, 0, 2))))
def test_scenes_isomorphic_agrees_with_vf2(pair):
    if pair is None:
        return
    x, y = pair
    assert scenes_isomorphic(x, y) == _vf2_isomorphic(x, y), (x.name, y.name)


def test_scenes_isomorphic_reaches_canonical_form_through_the_module(monkeypatch):
    """The benchmark's tracer times ``canonical_form`` by wrapping the module
    attribute, so ``scenes_isomorphic`` must look it up there, twice per pair
    whose sizes agree."""
    import curvesys.scene as scene_module

    calls = []
    real = scene_module.canonical_form

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(scene_module, "canonical_form", counted)
    rng = random.Random(5)
    grid = torus_grid_scene(3, 1, -1, 2)
    pairs = [
        (grid, _relabelled(grid, rng)),
        (grid, _relabelled(_negate_one_marker(grid, rng), rng)),
        (grid, _relabelled(grid, rng, {"a": "b", "b": "a"})),
    ]
    assert [scenes_isomorphic(x, y) for x, y in pairs] == [True, False, False]
    assert len(calls) == 2 * len(pairs)
