"""Pants decompositions and twist coordinates for curve systems.

A decomposition is a list of 3-holed spheres ("pants") with slots 0..2, plus a
pairing of slots.  Each pair is an internal curve; unpaired slots are boundary
components of the surface.  A curve system is coordinatized by m_i (its
intersection with internal curve i), t_i (the twisting about curve i) and b_j
(its intersection with boundary component j).

Two curve systems with equal m and b vectors differ exactly by twisting:
composing with k_i twists about curve i adds k_i to t_i and changes nothing
else, so the twist exponents relating two coordinate vectors are the
differences of their twisting coordinates.  Curves are numbered 1..C in gluing
order; boundary slots are numbered in pants order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from .errors import (
    CountMismatch,
    IntersectionMismatch,
    InvalidChoice,
    MissedCurveTwistMismatch,
    NegativeTwistOnMissedCurve,
    ParityViolation,
    SlotReuse,
    TwistOnMissedCurve,
    UnknownCurveIndex,
)

__all__ = [
    "Slot",
    "PantsDecomposition",
    "DTCoords",
    "DecompositionShape",
    "validate_decomposition",
    "validate_coords",
    "twist_multiply",
    "dehn_twist",
    "solve_twists",
    "dt_to_dict",
    "dt_from_dict",
    "save_dt",
    "load_dt",
]

Slot = Tuple[str, int]  # (pants id, slot index in 0..2)


def parse_slot(text: str) -> Slot:
    """Parse "pantsId.slotIndex" into a slot."""
    if type(text) is not str:
        raise CountMismatch(f"slot address must be a string, got {text!r}")
    pants, dot, idx = text.rpartition(".")
    if not dot or not pants or not idx.isdigit() or int(idx) not in (0, 1, 2):
        raise CountMismatch(f"malformed slot address {text!r}, expected 'pants.index'")
    return (pants, int(idx))


def format_slot(slot: Slot) -> str:
    return f"{slot[0]}.{slot[1]}"


@dataclass(frozen=True)
class PantsDecomposition:
    pants: Tuple[str, ...]
    gluing: Tuple[Tuple[Slot, Slot], ...]

    @property
    def num_curves(self) -> int:
        return len(self.gluing)

    def boundary_slots(self) -> List[Slot]:
        """Unpaired slots, in pants order then slot order."""
        used = {s for pair in self.gluing for s in pair}
        return [(p, i) for p in self.pants for i in range(3) if (p, i) not in used]


@dataclass(frozen=True)
class DecompositionShape:
    genus: int
    boundary: int
    curves: int


@dataclass(frozen=True)
class DTCoords:
    m: Tuple[int, ...]
    t: Tuple[int, ...]
    b: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.m) != len(self.t):
            raise CountMismatch(
                f"m and t must have equal length, got {len(self.m)} and {len(self.t)}"
            )


def validate_decomposition(d: PantsDecomposition) -> DecompositionShape:
    """Check slot pairing and the pants/curve/boundary count identities."""
    if len(set(d.pants)) != len(d.pants):
        raise CountMismatch("duplicate pants ids")
    known = set(d.pants)
    seen: set = set()
    for a, b in d.gluing:
        for slot in (a, b):
            if slot[0] not in known:
                raise CountMismatch(f"slot {format_slot(slot)} names unknown pants")
            if slot[1] not in (0, 1, 2):
                raise CountMismatch(f"slot index out of range in {format_slot(slot)}")
            if slot in seen:
                raise SlotReuse(f"slot {format_slot(slot)} glued twice")
            seen.add(slot)
        if a == b:
            raise SlotReuse(f"slot {format_slot(a)} glued to itself")
    p = len(d.pants)
    c = len(d.gluing)
    boundary = 3 * p - 2 * c
    if boundary < 0:
        raise CountMismatch(f"{c} curves exceed the {3 * p} available slots")
    # chi = -P for a union of pants, so 2 - 2g - boundary = -P.
    if (2 + p - boundary) % 2 != 0:
        raise CountMismatch(f"P={p}, B={boundary} do not close up to an integer genus")
    genus = (2 + p - boundary) // 2
    if genus < 0:
        raise CountMismatch(f"P={p}, B={boundary} give negative genus")
    if c != 3 * genus + boundary - 3:
        raise CountMismatch(
            f"C={c} but a genus-{genus} surface with {boundary} boundary "
            f"components needs {3 * genus + boundary - 3} pants curves"
        )
    return DecompositionShape(genus=genus, boundary=boundary, curves=c)


def _slot_values(d: PantsDecomposition, x: DTCoords) -> Dict[Slot, int]:
    """Strand count seen by each slot (m of its curve or b of its boundary)."""
    values: Dict[Slot, int] = {}
    for i, (a, b) in enumerate(d.gluing):
        values[a] = x.m[i]
        values[b] = x.m[i]
    for j, slot in enumerate(d.boundary_slots()):
        values[slot] = x.b[j]
    return values


def validate_coords(d: PantsDecomposition, x: DTCoords) -> None:
    """Check parity and the missed-curve twist convention."""
    shape = validate_decomposition(d)
    if len(x.m) != shape.curves:
        raise CountMismatch(f"expected {shape.curves} m-entries, got {len(x.m)}")
    if len(x.b) != shape.boundary:
        raise CountMismatch(f"expected {shape.boundary} b-entries, got {len(x.b)}")
    if any(v < 0 for v in x.m) or any(v < 0 for v in x.b):
        raise CountMismatch("intersection coordinates must be non-negative")
    values = _slot_values(d, x)
    for p in d.pants:
        total = sum(values[(p, i)] for i in range(3))
        if total % 2 != 0:
            raise ParityViolation(f"pants {p!r} sees an odd strand total {total}")
    for i, (mi, ti) in enumerate(zip(x.m, x.t), start=1):
        if mi == 0 and ti < 0:
            raise NegativeTwistOnMissedCurve(
                f"curve {i}: t={ti} < 0 while m=0 (t counts parallel copies there)"
            )


def twist_multiply(x: DTCoords, k: Sequence[int]) -> DTCoords:
    """Apply k_i twists about curve i: t_i += k_i, everything else fixed.

    Twisting about a missed curve (k_i != 0 with m_i = 0) is refused; the
    reinterpretation needed there is deliberately out of scope.
    """
    if len(k) != len(x.m):
        raise CountMismatch(f"expected {len(x.m)} twist exponents, got {len(k)}")
    if any(type(ki) is not int for ki in k):  # bool is not int
        raise CountMismatch(f"twist exponents must be integers, got {list(k)!r}")
    for i, (mi, ki) in enumerate(zip(x.m, k), start=1):
        if ki != 0 and mi == 0:
            raise TwistOnMissedCurve(f"curve {i}: k={ki} but m=0")
    return DTCoords(x.m, tuple(t + ki for t, ki in zip(x.t, k)), x.b)


def dehn_twist(x: DTCoords, i: int, direction: str = "positive") -> DTCoords:
    """Dehn twist about pants curve i: t_i changes by +-m_i.

    With m_i = 0 the curve systems are disjoint and the twist acts trivially.
    """
    if type(i) is not int or not 1 <= i <= len(x.m):  # bool is not int
        raise UnknownCurveIndex(f"curve index {i!r} outside 1..{len(x.m)}")
    if direction not in ("positive", "negative"):
        raise InvalidChoice(f"direction must be 'positive' or 'negative', got {direction!r}")
    delta = x.m[i - 1] if direction == "positive" else -x.m[i - 1]
    t = list(x.t)
    t[i - 1] += delta
    return DTCoords(x.m, tuple(t), x.b)


def solve_twists(x1: DTCoords, x2: DTCoords) -> Tuple[int, ...]:
    """Twist exponents k with twist_multiply(x2, k) = x1.

    Defined exactly when the coordinates agree on every intersection number
    (m and b) and on the twisting of every missed curve; then k is the
    difference of the twisting coordinates.
    """
    if x1.m != x2.m or x1.b != x2.b:
        raise IntersectionMismatch(
            f"intersection data differ: m {x1.m} vs {x2.m}, b {x1.b} vs {x2.b}"
        )
    for i, mi in enumerate(x1.m, start=1):
        if mi == 0 and x1.t[i - 1] != x2.t[i - 1]:
            raise MissedCurveTwistMismatch(
                f"curve {i}: m=0 but t={x1.t[i - 1]} vs {x2.t[i - 1]}; "
                "not related by twisting"
            )
    return tuple(a - b for a, b in zip(x1.t, x2.t))


# ======================================================================
# File format: one object holding a decomposition plus coordinates
# ======================================================================


def dt_to_dict(d: PantsDecomposition, x: DTCoords) -> Dict[str, Any]:
    return {
        "pants": [{"id": p} for p in d.pants],
        "gluing": [[format_slot(a), format_slot(b)] for a, b in d.gluing],
        "m": list(x.m),
        "t": list(x.t),
        "b": list(x.b),
    }


def dt_from_dict(data: Dict[str, Any]) -> Tuple[PantsDecomposition, DTCoords]:
    """Decomposition and coordinates of a parsed coordinate file.  The five
    tables must be lists, pants ids and slot addresses strings and m, t, b
    plain ints: anything else raises CountMismatch."""
    try:
        if {type(data[k]) for k in ("pants", "gluing", "m", "t", "b")} != {list}:
            raise ValueError("pants, gluing, m, t and b must be lists")
        pants = tuple(p["id"] for p in data["pants"])
        if not {str}.issuperset(map(type, pants)):
            raise ValueError(f"pants ids must be strings, got {list(pants)!r}")
        if not {list}.issuperset(map(type, data["gluing"])):
            raise ValueError("gluing pairs must be lists")
        gluing = tuple((parse_slot(a), parse_slot(b)) for a, b in data["gluing"])
        x = DTCoords(m=tuple(data["m"]), t=tuple(data["t"]), b=tuple(data["b"]))
        if any(type(v) is not int for v in x.m + x.t + x.b):  # bool is not int
            raise ValueError("m, t and b must hold integers only")
    except (KeyError, TypeError, ValueError) as exc:
        raise CountMismatch(f"malformed coordinate file: {exc}") from exc
    return PantsDecomposition(pants, gluing), x


def save_dt(d: PantsDecomposition, x: DTCoords, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(dt_to_dict(d, x)) + "\n")


def load_dt(path: Union[str, Path]) -> Tuple[PantsDecomposition, DTCoords]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # as in sceneio.load_scene
        raise CountMismatch(f"unreadable coordinate file: {exc}") from exc
    return dt_from_dict(data)
