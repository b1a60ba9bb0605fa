"""The four benchmark workloads: seeded inputs, timed passes, correctness gates.

Every library call goes through a ``lib`` namespace (see :func:`library`), so
a traced run can substitute timing wrappers and the self-tests can substitute
faulty implementations without touching the library.  Each workload offers

- ``generate(lib, seed)``: build the inputs (this is the timed set-up);
- ``run_pass(lib, inputs, tally)``: run every input once and return a
  :class:`Pass` with the work done and one latency sample per operation.

Gates never abort a pass: a wrong answer or an exception is counted in the
:class:`Tally` and the pass moves on to the next operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Vec = Tuple[int, int]


def library() -> SimpleNamespace:
    """The public curvesys entry points the workloads call."""
    from curvesys import cli, grids, scene, sceneio

    def load_text(text: str):
        return sceneio.scene_from_dict(json.loads(text))

    def dump_text(sc) -> str:
        return json.dumps(sceneio.scene_to_dict(sc))

    return SimpleNamespace(
        cli_main=cli.main,
        torus_grid_scene=grids.torus_grid_scene,
        torus_lines_scene=grids.torus_lines_scene,
        load_text=load_text,
        dump_text=dump_text,
        validate=scene.validate,
        find_bigons=scene.find_bigons,
        corner_alternation_ok=scene.corner_alternation_ok,
        check_region_condition=scene.check_region_condition,
        resolve=scene.resolve,
        components=scene.components,
        trivial_components=scene.trivial_components,
        scenes_isomorphic=scene.scenes_isomorphic,
    )


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def count(self, attempted: int, problems: Sequence[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        for p in problems:
            if len(self.notes) < 10:
                self.notes.append(p)

    @property
    def failure_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Pass:
    ops: int  # harness cases, scenes or pairs completed
    samples: List[float]  # seconds, one per timed operation
    wall: float


def _primitive(v: Vec) -> Vec:
    g = math.gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def _ext_gcd(x: int, y: int) -> Tuple[int, int]:
    """(a, b) with a x + b y = gcd(x, y) >= 0."""
    old_r, r, old_a, a, old_b, b = x, y, 1, 0, 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_a, a = a, old_a - k * a
        old_b, b = b, old_b - k * b
    return (old_a, old_b) if old_r > 0 else (-old_a, -old_b)


def crossing_targets(n: int, lo: int, hi: int, skew: float) -> List[int]:
    """n crossing counts from lo to hi, spaced as lo * (hi/lo) ** (u ** skew).

    The sizes are fixed strata, not random draws, so that every seed puts the
    same amount of work into a pass and runs with different seeds compare.
    """
    return [round(lo * (hi / lo) ** ((i / (n - 1)) ** skew)) for i in range(n)]


def grid_vectors(rng: random.Random, crossings: int) -> Tuple[Vec, Vec]:
    """Random (p, q), (r, s) with |p s - q r| = crossings and short vectors.

    (p, q) is primitive; (r, s) = crossings * (r0, s0) + t (p, q), where
    p s0 - q r0 = 1 and t makes (r, s) short.  (r, s) may be a multiple,
    which gives a family of several parallel lines.
    """
    m = max(1, math.isqrt(crossings))
    while True:
        p, q = rng.randint(-m, m), rng.randint(-m, m)
        if (p, q) != (0, 0) and math.gcd(p, q) == 1:
            break
    a, b = _ext_gcd(p, q)  # a p + b q = 1, so (r0, s0) = (-b, a)
    r0, s0 = -crossings * b, crossings * a
    t = round(-(r0 * p + s0 * q) / (p * p + q * q))
    r, s = r0 + t * p, s0 + t * q
    if rng.random() < 0.5:
        r, s = -r, -s
    return (p, q), (r, s)


# ======================================================================
# verify_algebra, verify_oracle: the CLI in-process
# ======================================================================

ALGEBRA_SUITES = ("product_laws", "convexity", "twist_dynamics", "twist_bounds", "twist_coords")
TWIST_TRIALS = 5000

# Case counts of the seed-independent suites at the bounds the workloads use.
# A change that checks fewer cases fails the gate instead of looking faster.
PINNED_CASES = {
    "product_laws": 350338,
    "convexity": 4198321,
    "twist_dynamics": 132600,
    "twist_bounds": 576001,
    "resolution_oracle": 33633,
}

_SUITE_LINE = re.compile(r"^(\w+)\s+(\d+) cases\s+-?\d+ ms\s+(.*)$")
_TOTAL_LINE = re.compile(r"^total: (\d+) failure\(s\)$")


@dataclass
class VerifyInputs:
    argv: List[str]
    expected_cases: Dict[str, Tuple[int, int]]  # suite -> inclusive range


def verify_algebra_inputs(seed: int) -> VerifyInputs:
    argv = ["verify"]
    for suite in ALGEBRA_SUITES:
        argv += ["--suite", suite]
    argv += ["--bound", "5", "--conv-bound", "5", "--trials", str(TWIST_TRIALS), "--seed", str(seed)]
    expected = {s: (PINNED_CASES[s], PINNED_CASES[s]) for s in ALGEBRA_SUITES[:-1]}
    # Each trial checks four clauses, plus a fifth when the decomposition has
    # internal curves; which decompositions get drawn depends on the seed.
    expected["twist_coords"] = (4 * TWIST_TRIALS, 5 * TWIST_TRIALS)
    return VerifyInputs(argv, expected)


def verify_oracle_inputs(seed: int) -> VerifyInputs:
    # The suite enumerates a fixed window; the seed has nothing to choose.
    n = PINNED_CASES["resolution_oracle"]
    return VerifyInputs(
        ["verify", "--suite", "resolution_oracle", "--bound", "6"], {"resolution_oracle": (n, n)}
    )


def verify_pass(lib, inputs: VerifyInputs, tally: Tally) -> Pass:
    """One ``curvesys verify`` invocation, gated on its printed report."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = lib.cli_main(inputs.argv)
    except (Exception, SystemExit) as exc:  # counted, never aborts the run
        wall = time.perf_counter() - t0
        tally.count(1, [f"verify raised {exc!r}"])
        return Pass(0, [wall], wall)
    wall = time.perf_counter() - t0

    problems: List[str] = []
    cases: Dict[str, int] = {}
    failures = None
    for line in out.getvalue().splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            cases[m.group(1)] = int(m.group(2))
        m = _TOTAL_LINE.match(line)
        if m:
            failures = int(m.group(1))
    if code != 0:
        problems.append(f"verify exited {code}")
    if failures is None:
        problems.append("verify printed no total")
    else:
        problems += [f"verify reported a failed case ({i + 1} of {failures})" for i in range(failures)]
    for suite, (lo, hi) in inputs.expected_cases.items():
        got = cases.get(suite)
        if got is None or not lo <= got <= hi:
            problems.append(f"{suite}: {got} cases, expected {lo}..{hi}")
    done = sum(cases.values())
    tally.count(max(done, 1), problems)
    return Pass(done, [wall], wall)


# ======================================================================
# scene_pipeline: load, check, resolve, census and dump large torus scenes
# ======================================================================

# The fixed grids of the layer baselines: 32, 99, 409 and 1599 crossings.
FIXED_GRIDS = ((6, 1, -2, 5), (10, 1, 1, 10), (20, 3, -3, 20), (40, 1, 1, 40))
PIPELINE_GRIDS = 110  # random grids of 20..2000 crossings, skewed small
PIPELINE_LINES = 6  # three-family scenes


@dataclass
class SceneCase:
    text: str  # the serialised scene the pass loads
    crossings: int
    third: Optional[str]  # "c" on three-family scenes
    census: Dict[Tuple[str, str], Dict]  # (from, to) -> expected class multiset


def _expected_census(u: Vec, v: Vec) -> Dict[Tuple[str, str], Dict]:
    from curvesys.torus import multiply, normalize

    a, b = normalize(*u), normalize(*v)
    out = {}
    for key, prod in ((("a", "b"), multiply(a, b)), (("b", "a"), multiply(b, a))):
        out[key] = {prod.primitive(): prod.multiplicity}
    return out


def _det(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def pipeline_inputs(lib, seed: int) -> List[SceneCase]:
    """The scenes of a pass, serialised.

    Only the grid constructors go through ``lib``; serialisation and the
    expected census call the library directly, so that a traced run counts
    no set-up work under ``sceneio`` or ``torus``.
    """
    from curvesys.sceneio import scene_to_dict

    rng = random.Random(f"scene_pipeline:{seed}")
    cases = []
    specs = [((p, q), (r, s)) for p, q, r, s in FIXED_GRIDS]
    specs += [grid_vectors(rng, c) for c in crossing_targets(PIPELINE_GRIDS, 20, 2000, 3)]
    for u, v in specs:
        text = json.dumps(scene_to_dict(lib.torus_grid_scene(u[0], u[1], v[0], v[1])))
        cases.append(SceneCase(text, abs(_det(u, v)), None, _expected_census(u, v)))
    for _ in range(PIPELINE_LINES):
        while True:
            vecs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            if all(_det(vecs[i], vecs[j]) for i in range(3) for j in range(i + 1, 3)):
                break
        text = json.dumps(scene_to_dict(lib.torus_lines_scene(list(zip("abc", vecs)))))
        crossings = sum(abs(_det(vecs[i], vecs[j])) for i in range(3) for j in range(i + 1, 3))
        cases.append(SceneCase(text, crossings, "c", _expected_census(vecs[0], vecs[1])))
    rng.shuffle(cases)
    return cases


def pipeline_scene(lib, case: SceneCase) -> Tuple[float, List[str]]:
    """Time the whole pipeline on one scene, then check every answer."""
    t0 = time.perf_counter()
    sc = lib.load_text(case.text)
    diag = lib.validate(sc)
    bigons = lib.find_bigons(sc, "a", "b")
    if case.third:
        region = lib.check_region_condition(sc, "a", "b", case.third)
    else:
        corners = lib.corner_alternation_ok(sc, "a", "b")
    results = []
    for frm, to in (("a", "b"), ("b", "a")):
        resolved = lib.resolve(sc, frm, to)
        census = lib.components(resolved).class_multiset(f"{frm}*{to}")
        results.append((frm, to, resolved, census, lib.trivial_components(resolved)))
    text = lib.dump_text(results[0][2])
    seconds = time.perf_counter() - t0

    n = case.crossings
    problems = []
    shape = (diag.cellular, diag.genus, diag.v, diag.e, diag.f)
    # A 4-regular cellular torus graph has V = n, E = 2n and, as chi = 0, F = n.
    if shape != (True, 1, n, 2 * n, n):
        problems.append(f"validate gave {shape}, expected (True, 1, {n}, {2 * n}, {n})")
    if bigons:
        problems.append(f"{len(bigons)} bigons between straight lines")
    if case.third:
        # Three non-parallel line families always cut a triangle off some
        # corner of the a-b grid, so the region condition fails.
        if region is not False:
            problems.append("region condition held on three line families")
    elif corners is not True:
        problems.append("corner alternation failed on a grid")
    for frm, to, _, census, trivial in results:
        if census != case.census[(frm, to)]:
            problems.append(f"census {frm}*{to} = {census}, expected {case.census[(frm, to)]}")
        if trivial:
            problems.append(f"{len(trivial)} trivial components after {frm}->{to}")
    if '"a*b"' not in text:
        problems.append("dumped resolution lacks the merged curve")
    return seconds, problems


def pipeline_pass(lib, cases: Sequence[SceneCase], tally: Tally) -> Pass:
    samples = []
    t0 = time.perf_counter()
    for case in cases:
        t1 = time.perf_counter()
        try:
            seconds, problems = pipeline_scene(lib, case)
        except Exception as exc:  # counted, never aborts the run
            seconds = time.perf_counter() - t1
            problems = [f"{case.crossings}-crossing scene raised {exc!r}"]
        samples.append(seconds)
        tally.count(1, problems[:1])
    return Pass(len(cases), samples, time.perf_counter() - t0)


# ======================================================================
# scene_iso: isomorphism of relabelled copies and near misses
# ======================================================================

ISO_STRATA = 24  # grids of 10..120 crossings, each giving a true and a false pair
ISO_FIXED = ((10, 1, 1, 10),)  # 99 crossings, a true and a false pair every pass
ISO_LARGE = (20, 3, -3, 20)  # 409 crossings, one pair per pass, alternating


@dataclass
class IsoPair:
    a: object
    b: object
    crossings: int
    truth: bool


@dataclass
class IsoInputs:
    pairs: List[IsoPair]  # every pass
    large: List[IsoPair]  # pass k adds large[k % len(large)]
    passes: int = 0


def relabelled(d: Dict, rng: random.Random) -> Dict:
    """A scene dict with fresh random ids, rotated vertex cycles, randomly
    reversed edges (marker negated to match) and shuffled lists."""
    halves = [h for v in d["vertices"] for h in v["halfedges_ccw"]]
    hmap = dict(zip(halves, rng.sample(range(4 * len(halves)), len(halves))))
    vids = rng.sample(range(4 * len(d["vertices"])), len(d["vertices"]))
    eids = rng.sample(range(4 * len(d["edges"])), len(d["edges"]))
    vertices = []
    for v, vid in zip(d["vertices"], vids):
        cycle = [hmap[h] for h in v["halfedges_ccw"]]
        k = rng.randrange(len(cycle))
        vertices.append({"id": vid, "halfedges_ccw": cycle[k:] + cycle[:k]})
    edges = []
    for e, eid in zip(d["edges"], eids):
        h1, h2 = hmap[e["half"][0]], hmap[e["half"][1]]
        marker = e.get("marker")
        if rng.random() < 0.5:
            h1, h2 = h2, h1
            marker = None if marker is None else [-marker[0], -marker[1]]
        rec = {"id": eid, "half": [h1, h2], "curve": e["curve"]}
        if marker is not None:
            rec["marker"] = marker
        edges.append(rec)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return {"name": d["name"] + "~", "vertices": vertices, "edges": edges, "curves": d["curves"]}


def near_miss(d: Dict, unit: Dict[str, Vec], rng: random.Random) -> Dict:
    """The same scene with one edge marker changed, which is never isomorphic.

    ``unit`` gives each curve's primitive class S.  Every component of a
    curve has marker sum +-S.  Negating a marker m changes one component's
    sum to +-S - 2m, which is +-S only when m is 0 or +-S; such edges instead
    get m + S, which makes the sum 0 or +-2S.  Either way the component census
    differs, so no isomorphism exists.  Negation is preferred: it keeps the
    multiset of unoriented markers, so only a global search can tell.
    """
    edges = [dict(e) for e in d["edges"]]

    def plain(e) -> bool:
        s = unit[e["curve"]]
        return tuple(e["marker"]) in ((0, 0), s, (-s[0], -s[1]))

    candidates = [i for i, e in enumerate(edges) if not plain(e)]
    if candidates:
        i = rng.choice(candidates)
        edges[i]["marker"] = [-edges[i]["marker"][0], -edges[i]["marker"][1]]
    else:
        i = rng.randrange(len(edges))
        s = unit[edges[i]["curve"]]
        edges[i]["marker"] = [edges[i]["marker"][0] + s[0], edges[i]["marker"][1] + s[1]]
    return {**d, "edges": edges}


def iso_inputs(lib, seed: int) -> IsoInputs:
    """A true and a false pair per base grid.

    The 409-crossing pairs cost about as much as all the others together, so
    a pass carries one of them, true and false in turn; that keeps a pass
    short enough for several to fit in one run.
    """
    from curvesys.sceneio import scene_from_dict, scene_to_dict

    rng = random.Random(f"scene_iso:{seed}")

    def pair_up(u: Vec, v: Vec) -> List[IsoPair]:
        base = lib.torus_grid_scene(u[0], u[1], v[0], v[1])
        d = scene_to_dict(base)
        unit = {"a": _primitive(u), "b": _primitive(v)}
        n = abs(_det(u, v))
        return [
            IsoPair(base, scene_from_dict(relabelled(d, rng)), n, True),
            IsoPair(base, scene_from_dict(near_miss(relabelled(d, rng), unit, rng)), n, False),
        ]

    pairs = []
    for u, v in [grid_vectors(rng, c) for c in crossing_targets(ISO_STRATA, 10, 120, 1)]:
        pairs += pair_up(u, v)
    for p, q, r, s in ISO_FIXED:
        pairs += pair_up((p, q), (r, s))
    rng.shuffle(pairs)
    return IsoInputs(pairs, pair_up(ISO_LARGE[:2], ISO_LARGE[2:]))


def iso_pass(lib, inputs: IsoInputs, tally: Tally) -> Pass:
    pairs = inputs.pairs + [inputs.large[inputs.passes % len(inputs.large)]]
    inputs.passes += 1
    samples = []
    t0 = time.perf_counter()
    for pair in pairs:
        problems = []
        t1 = time.perf_counter()
        try:
            answer = lib.scenes_isomorphic(pair.a, pair.b)
        except Exception as exc:  # counted, never aborts the run
            answer = exc
        samples.append(time.perf_counter() - t1)
        if answer is not pair.truth:
            problems.append(f"{pair.crossings}-crossing pair: got {answer!r}, expected {pair.truth}")
        tally.count(1, problems)
    return Pass(len(pairs), samples, time.perf_counter() - t0)


# ======================================================================
# Registry
# ======================================================================


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one operation of ops_per_s is
    generate: Callable  # (lib, seed) -> inputs
    run_pass: Callable  # (lib, inputs, tally) -> Pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_algebra", "cases", lambda lib, seed: verify_algebra_inputs(seed), verify_pass),
        Workload("verify_oracle", "cases", lambda lib, seed: verify_oracle_inputs(seed), verify_pass),
        Workload("scene_pipeline", "scenes", pipeline_inputs, pipeline_pass),
        Workload("scene_iso", "pairs", iso_inputs, iso_pass),
    )
}
