"""Curated scenes, shipped decompositions, and the on-disk corpus.

The builders here back the verification harness:

- :func:`genus2_filling_pair`: two loops crossing 4 times on the closed
  genus-2 surface whose complement is two octagons (so the pair fills).
- :func:`bigon_scene`: two isotopic torus loops crossing twice, the negative
  control for minimal position.
- :func:`trivial_component_scene`: a meridian/longitude grid plus a separate
  null-homologous circle, the positive control for triviality detection.
- :func:`dt_decompositions`: pair of pants, one-holed torus, closed genus 2,
  each with a sample coordinate vector.

:func:`write_corpus` materializes the whole corpus directory: one grid scene
per unordered pair of canonical classes with |x|, |y| <= 4 (sign flips of the
defining vectors yield isomorphic scenes, and the reversed order is the same
file with the curve roles swapped), plus the curated scenes and coordinate
files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

from .dtcoords import DTCoords, PantsDecomposition, save_dt
from .grids import torus_grid_scene
from .scene import Scene, _checked_scene, _columns
from .sceneio import save_scene
from .torus import enumerate_classes, intersection

__all__ = [
    "genus2_filling_pair",
    "bigon_scene",
    "trivial_component_scene",
    "dt_decompositions",
    "grid_corpus_parameters",
    "write_corpus",
]

GRID_BOUND = 4


def genus2_filling_pair() -> Scene:
    """A filling pair on the closed genus-2 surface.

    Curve "a" runs through the four crossings in the order 0,1,2,3 and curve
    "b" in the order 0,1,3,2; at crossings 2 and 3 the strand of "b" passes
    with the opposite orientation.  The complement is two octagons, which is
    minimal for a filling pair in genus 2.
    """
    return _two_loops("genus2-filling-pair", (0, 1, 3, 2), (False, False, True, True))


def bigon_scene() -> Scene:
    """Two torus loops crossing three times where once is minimal.

    A finger of "b" is pushed across "a", giving one crossing more than
    |a . b| on each side of the finger: the complement is two bigons and an
    octagon.  (A pair with only two excess-free crossings, i.e. two parallel
    loops crossing twice, has an essential annulus in its complement and so
    is not cellular; this is the smallest cellular bigon configuration.)
    Used as the expected-detect control for find_bigons and for resolve's
    refusal of non-minimal input.
    """
    return _two_loops("bigon-control", (0, 1, 2), (False, False, True))


def _two_loops(name: str, b_order: Tuple[int, ...], flipped: Tuple[bool, ...]) -> Scene:
    """Loops "a" and "b" through the same n crossings: "a" visits them in the
    order 0..n-1 and "b" in ``b_order``, passing crossing v the other way
    where ``flipped[v]``.  Crossing v has half-edges 4v (a out), 4v + 1
    (a in), 4v + 2 (b out) and 4v + 3 (b in)."""
    n = len(b_order)
    halves = [(4 * i, 4 * ((i + 1) % n) + 1) for i in range(n)]
    halves += [(4 * b_order[j] + 2, 4 * b_order[(j + 1) % n] + 3) for j in range(n)]
    cycles = [
        (4 * v, 4 * v + 2, 4 * v + 1, 4 * v + 3) if f else (4 * v, 4 * v + 3, 4 * v + 1, 4 * v + 2)
        for v, f in enumerate(flipped)
    ]
    vid, eid, curve = list(range(n)), list(range(2 * n)), ["a"] * n + ["b"] * n
    return _checked_scene(name, vid, cycles, eid, halves, curve, [None] * (2 * n), ["a", "b"])


def trivial_component_scene() -> Scene:
    """A meridian/longitude grid plus a disjoint circle bounding a disk.

    The extra curve "c" is null-homologous (zero marker sum), sitting inside
    one complementary square of the filling grid; the detector must report
    exactly its component.
    """
    grid = torus_grid_scene(1, 0, 0, 1)
    vid, cycles, eid, halves, curve, marker = _columns(grid._index)
    v, e, h = len(vid), len(eid), 2 * len(eid)  # free: the grid's ids run from 0
    return _checked_scene(
        "trivial-component-control",
        [*vid, v, v + 1], [*cycles, (h, h + 1), (h + 2, h + 3)],
        [*eid, e, e + 1], [*halves, (h + 1, h + 2), (h + 3, h)],
        [*curve, "c", "c"], [*marker, (0, 0), (0, 0)], [*grid.curves, "c"],
    )


def dt_decompositions() -> Dict[str, Tuple[PantsDecomposition, DTCoords]]:
    """The three shipped decompositions with sample coordinates."""
    pants = PantsDecomposition(pants=("P",), gluing=())
    torus1 = PantsDecomposition(pants=("P",), gluing=((("P", 0), ("P", 1)),))
    genus2 = PantsDecomposition(
        pants=("P", "Q"),
        gluing=(
            (("P", 0), ("Q", 0)),
            (("P", 1), ("Q", 1)),
            (("P", 2), ("Q", 2)),
        ),
    )
    return {
        "pair_of_pants": (pants, DTCoords(m=(), t=(), b=(2, 1, 1))),
        "one_holed_torus": (torus1, DTCoords(m=(2,), t=(-1,), b=(2,))),
        "genus2_closed": (genus2, DTCoords(m=(2, 0, 0), t=(3, 0, 1), b=())),
    }


def grid_corpus_parameters(bound: int = GRID_BOUND) -> List[Tuple[int, int, int, int]]:
    """(p, q, r, s) for one grid per unordered pair of crossing canonical
    classes, smaller class first.  This is also the order in which
    ``resolution_oracle`` checks them: the pairs come from the classes in
    descending order, which is the order in which its signed-vector sweep
    first meets them."""
    cs = enumerate_classes(bound)[::-1]
    return [
        (b.x, b.y, a.x, a.y) for i, a in enumerate(cs) for b in cs[i + 1 :] if intersection(a, b)
    ]


def write_corpus(root: Union[str, Path]) -> int:
    """Write the full corpus under ``root``; returns the number of files."""
    root = Path(root)
    for sub in ("grids", "curated", "dt"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    grids = grid_corpus_parameters()
    for p, q, r, s in grids:
        save_scene(torus_grid_scene(p, q, r, s), root / "grids" / f"grid_{p}_{q}_{r}_{s}.json")
    curated = {
        "genus2_filling_pair": genus2_filling_pair(),
        "bigon_torus": bigon_scene(),
        "trivial_component": trivial_component_scene(),
    }
    for name, scene in curated.items():
        save_scene(scene, root / "curated" / f"{name}.json")
    dts = dt_decompositions()
    for name, (d, x) in dts.items():
        save_dt(d, x, root / "dt" / f"{name}.json")
    return len(grids) + len(curated) + len(dts)

