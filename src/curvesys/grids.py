"""Flat-torus scene constructors.

A family with vector (X, Y) is realized as gcd(|X|, |Y|) straight closed
geodesics of the primitive direction (X, Y)/gcd on the square torus, at
distinct parallel offsets.  All geometry is exact integer arithmetic over one
common denominator N = denom * lcm(g_k) * lcm(|det(u_i, u_j)|), where g_k is
the gcd of family k's vector and the determinants run over non-parallel
family pairs: every offset, line parameter and crossing point is an integer
multiple of 1/N, so crossings are located by exact integer division of the
line congruences and compared as integer tuples.  Vertices receive their
counterclockwise cyclic order from the actual direction vectors, and each edge
carries the integer homology marker of its lift, so marker sums along
components recover the class exactly.

Offsets are chosen deterministically; if a choice happens to create a multiple
point or a coincident pair of lines (possible only with three or more
families, where a linear relation between offsets can make lines concurrent)
the constructor retries with fresh offsets.  Offset numerators grow
geometrically so that no small integer combination of them vanishes
identically; the built scene is always checked, never trusted.

The builder makes no vertex or edge records; only outside callers pass
records, to ``Scene(...)``.  Edge k owns half-edges 2k and 2k + 1, so a
half-edge id is its dart, and the vertex cycles and per-edge curves and
markers go as columns to the one checked constructor, so a grid is checked
when it is built, like every scene, and builds its records when first read.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvalidScene, ParallelSlopes
from .scene import _INT, _SEQ, Scene, _checked_scene, _int_rows

__all__ = ["torus_grid_scene", "torus_lines_scene"]

Vec = Tuple[int, int]

# (denominator, numerator base) pairs for offset choices, tried in order.
_OFFSET_SCHEMES = tuple(
    (denom, base)
    for denom in (100003, 100019, 100043, 100057, 100069)
    for base in (64, 67, 71, 73)
)


def torus_grid_scene(p: int, q: int, r: int, s: int) -> Scene:
    """Scene of the classes (p, q) and (r, s) in flat position.

    Curves are named "a" and "b"; there are exactly |p s - q r| crossings and
    every complementary region is a quadrilateral.  Parallel inputs are
    rejected: a two-curve scene of parallel classes is not cellular on the
    torus (build it inside an ambient scene, e.g. with parallel_copies).
    """
    if not _INT.issuperset(map(type, (p, q, r, s))):  # bool is not int
        bad = next(x for x in (p, q, r, s) if type(x) is not int)
        raise InvalidScene(f"grid vector entries must be integers, got {bad!r}")
    if (p, q) == (0, 0) or (r, s) == (0, 0):
        raise InvalidScene("grid vectors must be nonzero")
    if p * s - q * r == 0:
        raise ParallelSlopes(
            f"vectors ({p},{q}) and ({r},{s}) are parallel; the grid would not be cellular"
        )
    return torus_lines_scene(
        [("a", (p, q)), ("b", (r, s))], name=f"grid({p},{q},{r},{s})"
    )


def torus_lines_scene(
    families: Sequence[Tuple[str, Vec]], name: Optional[str] = None
) -> Scene:
    """Scene of several straight-line families on the flat torus.

    ``families`` is a list of (curve id, vector) pairs, each a list or tuple,
    mapping string curve ids to (possibly non-primitive) vectors of two exact
    ints; anything else, or a name that is not a string, raises InvalidScene
    before any geometry.  Parallel families simply do not cross.  All-parallel
    families, a single one included, are built (as blocks of larger scenes)
    but never cellular: two or more lines are disconnected, and one alone
    encodes genus 0 while carrying markers, so ``validate`` raises NonCellular.
    """
    if type(families) not in _SEQ:
        raise InvalidScene(f"curve families must be a list of (id, vector) pairs, got {families!r}")
    if not families:
        raise InvalidScene("need at least one curve family")
    for fam in families:
        if type(fam) not in _SEQ or len(fam) != 2:
            raise InvalidScene(f"a curve family must be an (id, vector) pair, got {fam!r}")
        cid, vec = fam
        if type(cid) is not str:
            raise InvalidScene(f"curve family ids must be strings, got {cid!r}")
        if _int_rows((vec,), 2) is None:
            raise InvalidScene(f"family {cid!r} vector must be a pair of integers, got {vec!r}")
    if name is not None and type(name) is not str:
        raise InvalidScene(f"the scene name must be a string, got {name!r}")
    ids = [cid for cid, _ in families]
    if len(set(ids)) != len(ids):
        raise InvalidScene(f"duplicate curve ids in {ids}")
    for cid, (x, y) in families:
        if (x, y) == (0, 0):
            raise InvalidScene(f"family {cid!r} has the zero vector")
    if name is None:
        name = "lines(" + ",".join(f"{cid}:({x},{y})" for cid, (x, y) in families) + ")"
    for denom, base in _OFFSET_SCHEMES:
        built = _build(families, denom, base, name)
        if built is not None:
            return built
    raise InvalidScene("could not find degenerate-free offsets")  # pragma: no cover


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


def _build(
    families: Sequence[Tuple[str, Vec]], denom: int, base: int, name: str
) -> Optional[Scene]:
    # Per family: curve id, line count g, primitive direction u and its
    # partner uperp, det(u, uperp) = 1.
    fams = []
    for cid, (x, y) in families:
        g = gcd(abs(x), abs(y))
        u = (x // g, y // g)
        fams.append((cid, g, u, _unimodular_partner(u)))
    dets = (_det(f1[2], f2[2]) for k, f1 in enumerate(fams) for f2 in fams[k + 1 :])
    n = denom * lcm(*(f[1] for f in fams)) * lcm(*(abs(d) for d in dets if d))

    # Lines (curve, u, uperp, C): C / n is the transverse offset in the
    # (u, uperp) frame.
    lines = []
    for k, (cid, g, u, uperp) in enumerate(fams):
        shift = pow(base, k + 1, denom)
        scale = n // (g * denom)
        lines.extend((cid, u, uperp, (i * denom + shift) * scale) for i in range(g))

    # Distinct parallel lines: offsets must differ mod 1 in a common frame.
    by_dir: Dict[Vec, List[int]] = {}
    for _, u, uperp, c in lines:
        d = max(u, (-u[0], -u[1]))
        by_dir.setdefault(d, []).append(c * _det(d, uperp) % n)
    if any(len(set(offs)) != len(offs) for offs in by_dir.values()):
        return None

    # Crossings: per line, (T, point, out slot, in slot) with point = n *
    # (position mod 1), T / n the parameter of the point along that line, and
    # the slots of the line's outgoing and incoming half-edges in the
    # crossing's counterclockwise cycle, ordered by outward direction.
    rank = _ccw_rank(d for _, u, _, _ in lines for d in (u, (-u[0], -u[1])))
    on_line: List[List[Tuple[int, Vec, int, int]]] = [[] for _ in lines]
    points = set()
    count = 0
    for i, (_, ui, (px, py), ci) in enumerate(lines):
        ux, uy = ui
        hits_i = on_line[i]
        for j in range(i + 1, len(lines)):
            _, uj, (qx, qy), cj = lines[j]
            den = _det(uj, ui)
            if den == 0:
                continue
            keys = (rank[ui], rank[(-ux, -uy)], rank[uj], rank[(-uj[0], -uj[1])])
            out_i, in_i, out_j, in_j = map(sorted(keys).index, keys)
            # Points of line i with det(uj, point) = cj / n (mod 1).  The
            # division is exact: every C is a multiple of
            # n / (denom * lcm(g_k)) = lcm(|det|), which den divides.
            t0 = (cj - ci * _det(uj, (px, py))) // den
            step = n // den
            count += abs(den)
            hits_j = on_line[j]
            for m in range(abs(den)):
                t = (t0 + m * step) % n
                rep = ((t * ux + ci * px) % n, (t * uy + ci * py) % n)
                points.add(rep)
                hits_i.append((t, rep, out_i, in_i))
                t_j = (rep[0] * qy - rep[1] * qx) % n  # det(rep, uperp_j)
                hits_j.append((t_j, rep, out_j, in_j))
    if len(points) != count:
        return None  # multiple point; retry with other offsets

    # Vertices at crossing points (sorted for determinism), then one plain
    # vertex on every crossing-free line.  Edge k owns half-edges 2k and
    # 2k + 1, each written into its slot of a crossing's cycle.
    vertex_id_of = {rep: vid for vid, rep in enumerate(sorted(points))}
    cycles: List[List[int]] = [[0] * 4 for _ in vertex_id_of]
    plain: List[List[int]] = []
    curve: List[str] = []  # per edge
    marker: List[Vec] = []  # per edge
    for (cid, (ux, uy), _, _), hits in zip(lines, on_line):
        if not hits:
            h = 2 * len(curve)
            plain.append([h, h + 1])
            curve.append(cid)
            marker.append((ux, uy))
            continue
        hits.sort()
        hits.append((hits[0][0] + n, *hits[0][1:]))  # wrap around the closed line
        for (t1, rep1, out_slot, _), (t2, rep2, _, in_slot) in zip(hits, hits[1:]):
            h = 2 * len(curve)
            cycles[vertex_id_of[rep1]][out_slot] = h
            cycles[vertex_id_of[rep2]][in_slot] = h + 1
            mx, rx = divmod(rep1[0] + (t2 - t1) * ux - rep2[0], n)
            my, ry = divmod(rep1[1] + (t2 - t1) * uy - rep2[1], n)
            if rx or ry:  # pragma: no cover
                raise InvalidScene("internal error: non-integral homology marker")
            curve.append(cid)
            marker.append((mx, my))

    cycles += plain
    curves = [cid for cid, _ in families]
    darts = range(2 * len(curve))
    vid, eid = list(range(len(cycles))), list(range(len(curve)))
    halves = list(zip(darts[::2], darts[1::2]))
    return _checked_scene(name, vid, cycles, eid, halves, curve, marker, curves)


def _ccw_rank(dirs: Iterable[Vec]) -> Dict[Vec, int]:
    """Position of each distinct direction in counterclockwise order from the
    positive x-axis."""
    dirs = set(dirs)
    scale = lcm(*(abs(y) for _, y in dirs if y))

    def key(d: Vec) -> Tuple[int, int]:
        x, y = d
        if y == 0:
            return (0 if x > 0 else 2, 0)
        # Within each open half-plane, -x/y (here scaled by a common multiple
        # of every y, so the division is exact) increases with angle.
        return (1 if y > 0 else 3, -x * scale // y)

    return {d: k for k, d in enumerate(sorted(dirs, key=key))}
