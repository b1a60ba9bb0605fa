"""Executable verification suites.

Every suite enumerates a bounded window of inputs, checks identities the
library promises, and returns a :class:`SuiteReport` whose failures carry
re-runnable witnesses (the inputs plus both sides of the violated identity).
A suite counts every case it checks but records a witness only for a case
that fails, so a passing run formats no witness.  :meth:`SuiteReport.fail`
alone formats one: a suite passes it the inputs as keywords, and it writes
torus classes among them in their string form.
Suites never raise on a failed identity; failures are data.  All enumeration
orders are deterministic, and the only randomness (twist-coordinate trials) is
driven by an explicit seed, so reports are reproducible byte for byte apart
from the per-suite ``millis`` timing fields.

:func:`run_all` runs each selected suite in its own forked worker when it may
use two or more CPUs.  The CPUs that the other suites leave free go to
``resolution_oracle``, whose grid cases it cuts into that many slices of
about equal crossing count, each in a worker of its own, folded back into one
report.  With a single task (one suite and no CPU to spare) it runs
in-process.  CPU affinity is the only control (``taskset -c 0`` runs
in-process), and ``millis`` is each suite's own wall time in the process that
ran it, summed over the slices of a sliced suite.

Suites:

- ``product_laws``: commutation, cancellation, power, twist and triangle laws
  of the torus product, plus the fixed non-associativity witness.
- ``convexity``: midpoint convexity of n -> I(a^n b, g), the matching twisted
  profiles, and a frozen spot profile.
- ``twist_dynamics``: non-commuting twists along crossing loops, and
  fixed-point freeness of composed opposite twists.
- ``twist_bounds``: two-sided bounds on intersection numbers after iterated
  twists along disjoint loops.
- ``resolution_oracle``: scene resolution versus the torus formula over all
  grid scenes in the window, plus the corpus control scenes.
- ``twist_coords``: seeded random round-trips on the shipped pants
  decompositions.
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import partial, wraps
from itertools import accumulate, product
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import corpus
from .dtcoords import (
    DTCoords,
    dehn_twist as dt_dehn_twist,
    solve_twists,
    twist_multiply,
    validate_coords,
)
from .errors import BigonPresent, DTError, InvalidBound, ParityViolation, WorkerDied
from .grids import torus_grid_scene
from .scene import (
    components,
    corner_alternation_ok,
    crossing_count,
    find_bigons,
    resolve,
    trivial_components,
    validate,
)
from .torus import (
    TorusClass,
    _check_range,
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

__all__ = [
    "Failure",
    "SuiteReport",
    "SUITES",
    "suite_product_laws",
    "suite_convexity",
    "suite_twist_dynamics",
    "suite_twist_bounds",
    "suite_resolution_oracle",
    "suite_twist_coords",
    "run_all",
    "report_to_dict",
]


@dataclass(frozen=True)
class Failure:
    clause: str
    inputs: Dict[str, Any]
    lhs: str
    rhs: str


@dataclass
class SuiteReport:
    suite: str
    params: Dict[str, Any]
    cases: int = 0
    failures: List[Failure] = field(default_factory=list)
    millis: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, clause: str, lhs: Any, rhs: Any, **inputs: Any) -> None:
        """Record the witness of a failed case: its inputs, torus classes in
        their string form and the rest as given, and both sides of the
        identity.  Suites add every case they check, failed or not, to
        ``cases`` themselves."""
        named = {k: str(v) if isinstance(v, TorusClass) else v for k, v in inputs.items()}
        self.failures.append(Failure(clause, named, str(lhs), str(rhs)))


def _is_bound(value: Any, least: int = 1) -> bool:
    # Exactly int: a bool is not a bound.
    return type(value) is int and value >= least


def _require_bound(value: int, name: str, least: int = 1) -> None:
    if not _is_bound(value, least):
        raise InvalidBound(f"{name} must be an integer >= {least}, got {value!r}")


def _timed(suite: Callable[..., SuiteReport]) -> Callable[..., SuiteReport]:
    """Set the report's ``millis`` to the suite call's wall time.  The wrapper
    keeps the suite's name and module, which the benchmark's tracer reads."""

    @wraps(suite)
    def timed(*args: Any, **kwargs: Any) -> SuiteReport:
        t0 = time.perf_counter()
        report = suite(*args, **kwargs)
        report.millis = int((time.perf_counter() - t0) * 1000)
        return report

    return timed


# ======================================================================
# Torus product laws
# ======================================================================


@_timed
def suite_product_laws(bound: int = 4) -> SuiteReport:
    _require_bound(bound, "bound")
    rep = SuiteReport("product_laws", {"bound": bound})
    classes = enumerate_classes(bound)
    for a in classes:
        for b in classes:
            ab = multiply(a, b)
            ba = multiply(b, a)
            i_ab = intersection(a, b)
            if i_ab == 0:
                rep.cases += 1 + len(classes)
                if ab != ba:
                    rep.fail("commute-disjoint", ab, ba, a=a, b=b)
                for c in classes:
                    got = intersection(ab, c)
                    want = intersection(a, c) + intersection(b, c)
                    if got != want:
                        rep.fail("disjoint-additivity", got, want, a=a, b=b, c=c)
            else:
                rep.cases += 4
                if ab == ba:
                    rep.fail("noncommute-crossing", ab, ba, a=a, b=b)
                left, right = multiply(a, ba), multiply(ab, a)
                if left != b:
                    rep.fail("cancel-left", left, b, a=a, b=b)
                if right != b:
                    rep.fail("cancel-right", right, b, a=a, b=b)
                kept = (intersection(a, ab), intersection(a, ba))
                if kept != (i_ab, i_ab):
                    rep.fail("crossing-preserved", kept, i_ab, a=a, b=b)
            rep.cases += 5
            for k in range(1, 6):
                lhs = multiply(power(a, k), power(b, k))
                rhs = power(ab, k)
                if lhs != rhs:
                    rep.fail("power-distribution", lhs, rhs, a=a, b=b, k=k)
            if i_ab > 0:
                rep.cases += 25
                for n in range(-2, 3):
                    for m_exp in range(-2, 3):
                        lhs = signed_power_multiply(a, n, signed_power_multiply(a, m_exp, b))
                        rhs = signed_power_multiply(a, n + m_exp, b)
                        if lhs != rhs:
                            rep.fail("exponent-additivity", lhs, rhs, a=a, b=b, n=n, m=m_exp)
            if a.is_primitive():
                rep.cases += 3
                tw = dehn_twist(a, b, "positive")
                via_power = signed_power_multiply(a, intersection(a, b), b)
                if tw != via_power:
                    rep.fail("twist-power-form", tw, via_power, a=a, b=b)
                d = a.x * b.y - b.x * a.y
                matrix = normalize(b.x + d * a.x, b.y + d * a.y)
                if tw != matrix:
                    rep.fail("twist-matrix", tw, matrix, a=a, b=b)
                back = dehn_twist(a, tw, "negative")
                if back != b:
                    rep.fail("twist-inverse", back, b, a=a, b=b)
    for a in classes:
        for b in classes:
            ab = multiply(a, b)
            rep.cases += len(classes)
            for c in classes:
                x = intersection(a, c)
                y = intersection(b, c)
                z = intersection(ab, c)
                if not (x + y >= z and y + z >= x and z + x >= y):
                    rep.fail(
                        "product-triangle", (x, y, z), "each <= sum of the other two", a=a, b=b, c=c
                    )

    # Fixed witnesses: associativity fails without the region condition
    # and holds for the (a, b, a-parallel) shape.
    e1, e2, e3 = normalize(1, 0), normalize(0, 1), normalize(1, 1)
    lhs = multiply(multiply(e1, e2), e3)
    rhs = multiply(e1, multiply(e2, e3))
    rep.cases += 2
    if not (lhs == normalize(2, 2) and rhs == normalize(2, 0)):
        rep.fail(
            "nonassociativity-witness", (lhs, rhs), ((2, 2), (2, 0)), triple="(1,0),(0,1),(1,1)"
        )
    assoc_l = multiply(multiply(e1, e2), e1)
    assoc_r = multiply(e1, multiply(e2, e1))
    if not assoc_l == assoc_r == normalize(0, 1):
        rep.fail("associativity-instance", (assoc_l, assoc_r), (0, 1), triple="(1,0),(0,1),(1,0)")
    return rep


# ======================================================================
# Convexity of twisted intersection numbers
# ======================================================================


@_timed
def suite_convexity(bound: int = 3, n_min: int = -6, n_max: int = 6) -> SuiteReport:
    _require_bound(bound, "bound")
    _check_range(n_min, n_max)
    rep = SuiteReport("convexity", {"bound": bound, "n_min": n_min, "n_max": n_max})
    classes = enumerate_classes(bound)
    ns = list(range(n_min, n_max + 1))
    inner = range(1, len(ns) - 1)
    for a in classes:
        for b in classes:
            crossing = intersection(a, b) > 0
            d = 1 if a.x * b.y - b.x * a.y > 0 else -1
            powers = [signed_power_multiply(a, n, b) for n in ns]
            for g in classes:
                values = [intersection(p, g) for p in powers]
                rep.cases += len(inner)
                for i in inner:
                    if 2 * values[i] > values[i - 1] + values[i + 1]:
                        rep.fail(
                            "midpoint-convexity",
                            2 * values[i],
                            values[i - 1] + values[i + 1],
                            a=a, b=b, g=g, n=ns[i],
                        )
                if crossing:
                    # a^n b = +-(d n a + b) with d = sign det(a, b), so
                    # I(a^n b, g) = |n A + B| with A = d det(a, g) and
                    # B = det(b, g).
                    big_a = d * (a.x * g.y - g.x * a.y)
                    big_b = b.x * g.y - g.x * b.y
                    closed = [abs(n * big_a + big_b) for n in ns]
                    rep.cases += 1
                    if values != closed:
                        rep.fail("closed-form-agreement", values, closed, a=a, b=b, g=g)
    # Twisted profiles: I(D_a^n b, g) via iterated twists must be convex
    # and must match the power profile at exponent k*n.
    for a in enumerate_primitive_classes(bound):
        for b in classes:
            k = intersection(a, b)
            twisted: Dict[int, TorusClass] = {0: b}
            cur = b
            for n in range(1, n_max + 1):
                cur = dehn_twist(a, cur, "positive")
                twisted[n] = cur
            cur = b
            for n in range(-1, n_min - 1, -1):
                cur = dehn_twist(a, cur, "negative")
                twisted[n] = cur
            rep.cases += len(ns)
            for n in ns:
                want = signed_power_multiply(a, k * n, b)
                if twisted[n] != want:
                    rep.fail("twist-iterate-power", twisted[n], want, a=a, b=b, n=n)
            for g in classes:
                values = [intersection(twisted[n], g) for n in ns]
                rep.cases += len(inner)
                for i in inner:
                    if 2 * values[i] > values[i - 1] + values[i + 1]:
                        rep.fail(
                            "twisted-midpoint-convexity",
                            2 * values[i],
                            values[i - 1] + values[i + 1],
                            a=a, b=b, g=g, n=ns[i],
                        )
    # Frozen spot profile: a=(1,0), b=(0,1), g=(1,2) on -2..2, read through
    # convexity_profile, the path `curvesys torus profile` prints.
    spot = list(convexity_profile(normalize(1, 0), normalize(0, 1), normalize(1, 2), -2, 2))
    rep.cases += 1
    if spot != [5, 3, 1, 1, 3]:
        rep.fail(
            "spot-profile", spot, [5, 3, 1, 1, 3], a="(1,0)", b="(0,1)", g="(1,2)", range="-2..2"
        )
    return rep


# ======================================================================
# Twist dynamics: non-commutation and fixed-point freeness
# ======================================================================


@_timed
def suite_twist_dynamics(bound: int = 4, gamma_bound: int = 6) -> SuiteReport:
    _require_bound(bound, "bound")
    _require_bound(gamma_bound, "gamma_bound")
    rep = SuiteReport("twist_dynamics", {"bound": bound, "gamma_bound": gamma_bound})
    prims = enumerate_primitive_classes(bound)
    gammas = enumerate_classes(gamma_bound)
    for a in prims:
        for b in prims:
            if intersection(a, b) == 0:
                continue
            lhs = dehn_twist(a, dehn_twist(b, a, "positive"), "positive")
            rhs = dehn_twist(b, dehn_twist(a, a, "positive"), "positive")
            rep.cases += 1 + len(gammas)
            if lhs == rhs:
                rep.fail("twists-do-not-commute", lhs, rhs, alpha=a, beta=b)
            for g in gammas:
                moved = dehn_twist(a, dehn_twist(b, g, "positive"), "negative")
                if moved == g:
                    rep.fail("no-fixed-class", moved, g, alpha=a, beta=b, gamma=g)
    return rep


# ======================================================================
# Intersection bounds under iterated disjoint twists
# ======================================================================


@_timed
def suite_twist_bounds(bound: int = 3, m_max: int = 3) -> SuiteReport:
    _require_bound(bound, "bound")
    _require_bound(m_max, "m_max", least=0)
    rep = SuiteReport("twist_bounds", {"bound": bound, "m_max": m_max})
    classes = enumerate_classes(bound)
    prims = enumerate_primitive_classes(bound)
    for a in prims:
        for beta in classes:
            twisted = beta
            for m in range(0, m_max + 1):
                if m > 0:
                    twisted = dehn_twist(a, twisted, "positive")
                s_ab = m * intersection(a, beta)
                rep.cases += len(classes)
                for g in classes:
                    center = s_ab * intersection(a, g)
                    spread = intersection(beta, g)
                    got = intersection(twisted, g)
                    if not center - spread <= got <= center + spread:
                        rep.fail(
                            "twist-intersection-bounds",
                            got,
                            (center - spread, center + spread),
                            a=a, beta=beta, gamma=g, m=m,
                        )
    spot = intersection(
        dehn_twist(
            normalize(1, 0),
            dehn_twist(normalize(1, 0), normalize(0, 1), "positive"),
            "positive",
        ),
        normalize(1, 2),
    )
    rep.cases += 1
    if spot != 3:
        rep.fail("spot-bound-value", spot, 3, a="(1,0)", beta="(0,1)", gamma="(1,2)", m=2)
    return rep


# ======================================================================
# Scene resolution against the torus formula
# ======================================================================


def _vec_iter(bound: int):
    for x, y in product(range(-bound, bound + 1), repeat=2):
        if (x, y) != (0, 0):
            yield (x, y)


_OracleCase = Tuple[int, int, int, int, bool]  # p, q, r, s, deep


def _oracle_cases(bound: int) -> List[_OracleCase]:
    """The suite's grid cases in check order: one deep case per grid of the
    corpus, then the direct sign sweep at min(bound, 2)."""
    cases: List[_OracleCase] = [(*g, True) for g in corpus.grid_corpus_parameters(bound)]
    small = min(bound, 2)
    for p, q in _vec_iter(small):
        for r, s in _vec_iter(small):
            if p * s - q * r != 0:
                cases.append((p, q, r, s, False))
    return cases


# The cost of a case in crossings: its grid's |ps - qr| crossings plus a fixed
# per-case cost.  A least-squares fit over the bound-6 cases gave about 17 us
# per crossing and 180 us per case: a fixed cost of about ten crossings.
_ORACLE_CASE_COST = 10


def _oracle_slices(cases: Sequence[_OracleCase], n: int) -> List[Tuple[int, int]]:
    """Cut ``cases`` into at most ``n`` contiguous, non-empty (start, stop)
    slices of about equal summed cost: each cut falls at the case boundary
    nearest its even share."""
    ends = list(accumulate(abs(p * s - q * r) + _ORACLE_CASE_COST for p, q, r, s, _ in cases))
    total = ends[-1]
    cuts = [0]
    for k in range(1, n):
        share = total * k / n
        i = bisect_left(ends, share)  # case i straddles or ends at the share
        before = ends[i - 1] if i else 0
        cuts.append(i if share - before <= ends[i] - share else i + 1)
    cuts.append(len(cases))
    cuts = sorted(set(cuts))
    return list(zip(cuts, cuts[1:]))


@_timed
def suite_resolution_oracle(
    bound: int = 4, convention: str = "after", *, cut: Optional[Tuple[int, int]] = None
) -> SuiteReport:
    """Grid scenes versus the torus product.

    Scenes are built once per unordered pair of canonical classes; flipping
    the sign of a defining vector leaves the same embedded configuration
    (markers merely reverse orientation) and the identical class equation.
    A direct full-sign sweep at bound <= 2 double-checks the constructor's
    sign handling anyway.  The ``convention`` knob exists for fault
    injection: running the suite with the mirrored smoothing convention must
    fail at the (1,0),(0,1) pin.

    ``cut=(start, stop)`` checks only ``cases[start:stop]`` of the grid
    cases, and the corpus controls only when ``stop`` is the last case's end;
    :func:`run_all` gives each slice worker its cut.  The report's ``params``
    leave ``cut`` out, so the folded slices equal the whole report.
    """
    _require_bound(bound, "bound")
    rep = SuiteReport(
        "resolution_oracle",
        {
            "bound": bound,
            "convention": convention,
            "note": "unordered canonical class pairs; signed vectors give isomorphic scenes",
        },
    )
    cases = _oracle_cases(bound)
    start, stop = cut or (0, len(cases))
    for p, q, r, s, deep in cases[start:stop]:
        _check_oracle_case(rep, p, q, r, s, deep, convention)
    if stop == len(cases):
        _check_oracle_controls(rep)
    return rep


def _check_oracle_controls(rep: SuiteReport) -> None:
    """The corpus control scenes: a bigon, a trivial component, genus 2."""
    bigon = corpus.bigon_scene()
    n_bigons = len(find_bigons(bigon, "a", "b"))
    rep.cases += 1
    if n_bigons != 2:
        rep.fail("bigon-control-detected", n_bigons, 2, scene=bigon.name)
    trivial_scene = corpus.trivial_component_scene()
    found = [c.curve for c in trivial_components(trivial_scene)]
    rep.cases += 1
    if found != ["c"]:
        rep.fail("trivial-control-detected", found, ["c"], scene=trivial_scene.name)
    g2 = corpus.genus2_filling_pair()
    diag = validate(g2)
    shape = (diag.chi, diag.genus, diag.face_degrees, diag.components_per_curve)
    want = (-2, 2, (8, 8), {"a": 1, "b": 1})
    rep.cases += 1
    if shape != want:
        rep.fail("genus2-pair-shape", shape, want, scene=g2.name)


def _check_oracle_case(
    rep: SuiteReport, p: int, q: int, r: int, s: int, deep: bool, convention: str
) -> None:
    a = normalize(p, q)
    b = normalize(r, s)
    scene = torus_grid_scene(p, q, r, s)
    fail = partial(rep.fail, p=p, q=q, r=r, s=s)
    if deep:
        diag = validate(scene)
        lines = {"a": a.multiplicity, "b": b.multiplicity}
        rep.cases += 3
        if not (diag.cellular and diag.genus == 1 and diag.components_per_curve == lines):
            got = (diag.chi, diag.genus, diag.components_per_curve)
            fail("grid-cellular-torus", got, (0, 1, lines))
        if not all(d == 4 for d in diag.face_degrees):
            fail("grid-all-quads", diag.face_degrees, "all 4")
        if not corner_alternation_ok(scene, "a", "b"):
            fail("corner-alternation", "mixed corners", "alternating")
    crossings, expected = crossing_count(scene, "a", "b"), intersection(a, b)
    rep.cases += 2
    if crossings != expected:
        fail("crossing-count", crossings, expected)
    if find_bigons(scene, "a", "b"):
        fail("bigon-free", "bigons", "none")
    for frm, to, merged, prod in (
        ("a", "b", "a*b", multiply(a, b)),
        ("b", "a", "b*a", multiply(b, a)),
    ):
        rep.cases += 2
        try:
            resolved = resolve(scene, frm, to, convention=convention)
        except BigonPresent as exc:  # a non-minimal grid: failure as data
            census = f"{type(exc).__name__}: {exc}"
            want = f"{prod.multiplicity} x {prod.primitive()}"
            fail("census-matches-product", census, want, **{"from": frm, "to": to})
            continue
        got = components(resolved).class_multiset(merged)
        if got != {prod.primitive(): prod.multiplicity}:
            census = sorted((str(k), v) for k, v in got.items())
            want = f"{prod.multiplicity} x {prod.primitive()}"
            fail("census-matches-product", census, want, **{"from": frm, "to": to})
        trivial = len(trivial_components(resolved))
        if trivial:
            fail("no-trivial-components", f"{trivial} trivial", "none", **{"from": frm, "to": to})


# ======================================================================
# Twist coordinate round trips
# ======================================================================


@_timed
def suite_twist_coords(trials: int = 1000, seed: int = 7) -> SuiteReport:
    _require_bound(trials, "trials")
    rep = SuiteReport("twist_coords", {"trials": trials, "seed": seed})
    rng = random.Random(seed)
    decomps = corpus.dt_decompositions()
    names = sorted(decomps)
    for trial in range(trials):
        name = names[trial % len(names)]
        d, _ = decomps[name]
        fail = partial(rep.fail, decomposition=name, trial=trial)
        x = _random_coords(rng, d)
        if x is None:
            rep.cases += 1
            fail("valid-draw", f"{_MAX_DRAWS} rejected draws", "a valid draw")
            continue
        k = _random_twists(rng, x)
        y = twist_multiply(x, k)
        rep.cases += 4
        if not (y.m == x.m and y.b == x.b):
            fail("twist-preserves-m-b", (y.m, y.b), (x.m, x.b), x=repr(x))
        try:
            validate_coords(d, y)
        except Exception:  # noqa: BLE001 - failure as data
            fail("twist-preserves-validity", False, True, x=repr(x), k=k)
        try:
            back = solve_twists(y, x)
        except DTError as exc:  # y left x's class: failure as data
            back = f"{type(exc).__name__}: {exc}"
        if back != k:
            fail("round-trip", back, k, x=repr(x), k=k)
        k2 = _random_twists(rng, x)
        lhs = twist_multiply(twist_multiply(x, k), k2)
        rhs = twist_multiply(x, tuple(i + j for i, j in zip(k, k2)))
        if lhs != rhs:
            fail("twist-commutation", lhs, rhs, x=repr(x), k=k, k2=k2)
        if x.m:
            i = 1 + trial % len(x.m)
            tw = dt_dehn_twist(x, i, "positive")
            unit = tuple(x.m[i - 1] if j == i - 1 else 0 for j in range(len(x.m)))
            want = twist_multiply(x, unit)
            rep.cases += 1
            if tw != want:
                fail("dehn-twist-is-unit-twist", tw, want, x=repr(x), i=i)
    return rep


# Seeded draws that the parity rule rejects are redrawn up to this many times;
# sound draws needed at most 17 over 505,000 trials (seeds 1-100 and 7).
_MAX_DRAWS = 64


def _random_coords(rng: random.Random, d) -> Optional[DTCoords]:
    """Valid random coordinates on d, or None when every one of
    ``_MAX_DRAWS`` draws broke the parity rule."""
    shape_curves = d.num_curves
    n_bound = len(d.boundary_slots())
    for _ in range(_MAX_DRAWS):
        m = tuple(rng.choice((0, 0, 1, 2, 2, 3, 4)) for _ in range(shape_curves))
        b = tuple(rng.randint(0, 4) for _ in range(n_bound))
        t = tuple(
            rng.randint(0, 5) if mi == 0 else rng.randint(-5, 5) for mi in m
        )
        x = DTCoords(m=m, t=t, b=b)
        try:
            validate_coords(d, x)
        except ParityViolation:  # the only rejection of a sound draw; retry
            continue
        return x
    return None


def _random_twists(rng: random.Random, x: DTCoords) -> Tuple[int, ...]:
    return tuple(0 if mi == 0 else rng.randint(-4, 4) for mi in x.m)


# ======================================================================
# Aggregation
# ======================================================================

SUITES = (
    "product_laws",
    "convexity",
    "twist_dynamics",
    "twist_bounds",
    "resolution_oracle",
    "twist_coords",
)


def run_all(
    bound: int = 4,
    n_min: int = -6,
    n_max: int = 6,
    trials: int = 1000,
    seed: int = 7,
    conv_bound: Optional[int] = None,
    suites: Optional[Sequence[str]] = None,
) -> List[SuiteReport]:
    """Run the selected suites (all by default) and return their reports in
    plan order.

    ``bound`` is the class-coordinate window for the exhaustive suites;
    the cubic-cost convexity and twist-bound sweeps default to a window of
    min(bound, 3) unless ``conv_bound`` overrides it.

    With two or more usable CPUs (the process's affinity set, else
    ``os.cpu_count()``) and ``fork``, the CPUs that the other selected suites
    leave free, at least one, go to ``resolution_oracle``: its grid cases are
    cut into that many contiguous slices of about equal crossing count, each
    passed to the suite as ``cut=(start, stop)``, the corpus controls in the
    last.  When that makes two or more tasks (suites and slices), each runs
    in a forked worker, min(tasks, CPUs) of them, and the slices fold back
    into one report.  Otherwise the suites run in-process one after another.
    CPU affinity is the only control: pin the process to one CPU to run
    serially.  Reports are the same either way apart from ``millis``: each
    suite's own wall time in the process that ran it, and for a sliced suite
    the sum of its slices' times.  An invalid ``bound`` leaves the oracle
    whole, so it raises where it does in-process.  A worker that dies raises
    ``WorkerDied``.
    """
    if conv_bound is None:
        conv_bound = min(bound, 3)
    plan: List[Tuple[str, Tuple[Any, ...]]] = [
        ("product_laws", (bound,)),
        ("convexity", (conv_bound, n_min, n_max)),
        ("twist_dynamics", (bound,)),
        ("twist_bounds", (conv_bound,)),
        ("resolution_oracle", (bound,)),
        ("twist_coords", (trials, seed)),
    ]
    wanted = set(suites) if suites else None
    if wanted is not None:
        unknown = wanted - set(SUITES)
        if unknown:
            raise InvalidBound(f"unknown suites: {sorted(unknown)}")
    selected = [(name, args) for name, args in plan if wanted is None or name in wanted]
    cpus = _usable_cpus()
    free = max(1, cpus - len(selected) + 1)
    tasks: List[Tuple[str, Tuple[Any, ...], Optional[Tuple[int, int]]]] = []
    for name, args in selected:
        if name == "resolution_oracle" and free > 1 and _is_bound(bound):
            tasks += [(name, args, cut) for cut in _oracle_slices(_oracle_cases(bound), free)]
        else:
            tasks.append((name, args, None))
    workers = min(len(tasks), cpus)
    if workers < 2 or not hasattr(os, "fork"):
        return [_run_suite(name, args) for name, args in selected]
    # Imported here, so that the in-process path and ``import curvesys`` never load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # The ``with`` block joins every worker before run_all returns or raises.
    # ``map`` yields in plan order, so the error raised is the one the in-process
    # path raises, and it cancels the tasks not yet started when one raises.
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            done = list(pool.map(_run_suite, *zip(*tasks)))
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a suite worker process died: {exc}") from exc
    reports: List[SuiteReport] = []
    for (_, _, cut), report in zip(tasks, done):
        if cut is None or cut[0] == 0:
            reports.append(report)
        else:  # a later slice of the suite just appended
            first = reports[-1]
            first.cases += report.cases
            first.failures += report.failures
            first.millis += report.millis
    return reports


def _run_suite(
    name: str, args: Tuple[Any, ...], cut: Optional[Tuple[int, int]] = None
) -> SuiteReport:
    # Looked up at call time, so a patched or traced suite_* name is the one
    # that runs, in-process or in a forked worker, which inherits it.
    suite = globals()[f"suite_{name}"]
    return suite(*args) if cut is None else suite(*args, cut=cut)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def report_to_dict(reports: Sequence[SuiteReport]) -> Dict[str, Any]:
    return {
        "suites": [asdict(r) for r in reports],
        "total_failures": sum(len(r.failures) for r in reports),
    }
