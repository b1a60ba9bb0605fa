"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with -s or -rA) and asserts the
criterion at its stated tolerance; stated wall-time budgets are asserted from
the suite-reported timings.  Criterion 8 walks the shipped corpus directory.
"""

from pathlib import Path

from curvesys.dtcoords import dt_to_dict, load_dt, save_dt
from curvesys.harness import (
    suite_convexity,
    suite_product_laws,
    suite_resolution_oracle,
    suite_twist_bounds,
    suite_twist_coords,
    suite_twist_dynamics,
)
from curvesys.scene import scenes_isomorphic
from curvesys.sceneio import load_scene, save_scene, scene_to_dict
from curvesys.torus import (
    convexity_profile,
    dehn_twist,
    intersection,
    multiply,
    normalize,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def report_line(n, name, report=None, extra=""):
    detail = ""
    if report is not None:
        detail = f" ({report.cases} cases, {report.millis} ms)"
    print(f"ACCEPTANCE {n} PASS: {name}{detail}{extra}")


def test_criterion_1_product_laws_exhaustive():
    report = suite_product_laws(4)
    assert report.ok, report.failures[:5]
    assert report.millis < 5000
    report_line(1, "product laws exhaustive at bound 4", report)


def test_criterion_2_convexity_and_spot_profile():
    report = suite_convexity(3, -6, 6)
    assert report.ok, report.failures[:5]
    prof = convexity_profile(normalize(1, 0), normalize(0, 1), normalize(1, 2), -2, 2)
    assert prof.values == (5, 3, 1, 1, 3)
    report_line(2, "convexity at bound 3, n in -6..6; spot profile (5,3,1,1,3)", report)


def test_criterion_3_associativity_witnesses():
    e1, e2, e3 = normalize(1, 0), normalize(0, 1), normalize(1, 1)
    assert multiply(multiply(e1, e2), e3) == normalize(2, 2)
    assert multiply(e1, multiply(e2, e3)) == normalize(2, 0)
    assert multiply(multiply(e1, e2), e1) == normalize(0, 1)
    assert multiply(e1, multiply(e2, e1)) == normalize(0, 1)
    report_line(3, "non-associativity witness (2,2)/(2,0); associative instance (0,1)")


def test_criterion_4_resolution_oracle_and_fault_injection():
    report = suite_resolution_oracle(4)
    assert report.ok, report.failures[:5]
    assert report.millis < 5000
    flipped = suite_resolution_oracle(1, convention="before")
    assert not flipped.ok
    pins = {
        (f.inputs.get("p"), f.inputs.get("q"), f.inputs.get("r"), f.inputs.get("s"))
        for f in flipped.failures
    }
    assert (0, 1, 1, 0) in pins or (1, 0, 0, 1) in pins
    report_line(
        4,
        "resolution census = product over bound 4; flipped convention caught",
        report,
    )


def test_criterion_5_twist_dynamics():
    report = suite_twist_dynamics(4, 6)
    assert report.ok, report.failures[:5]
    report_line(5, "twist non-commutation and fixed-point freeness (4 / 6)", report)


def test_criterion_6_twist_bounds_and_spot_value():
    report = suite_twist_bounds(3, 3)
    assert report.ok, report.failures[:5]
    a, beta, gamma = normalize(1, 0), normalize(0, 1), normalize(1, 2)
    twisted = dehn_twist(a, dehn_twist(a, beta, "positive"), "positive")
    assert twisted == normalize(2, 1)
    value = intersection(twisted, gamma)
    center = 2 * intersection(a, beta) * intersection(a, gamma)
    spread = intersection(beta, gamma)
    assert value == 3 and (center, spread) == (4, 1)
    assert center - spread <= value <= center + spread
    report_line(6, "twist intersection bounds at 3 / m<=3; spot value 3 in 4+-1", report)


def test_criterion_7_twist_coordinate_round_trips():
    report = suite_twist_coords(1000, 7)
    assert report.ok, report.failures[:5]
    assert report.millis < 1000
    report_line(7, "1000 seeded coordinate round trips on 3 decompositions", report)


def test_criterion_8_corpus_round_trips(tmp_path):
    assert CORPUS.is_dir(), "shipped corpus directory missing"
    scene_files = sorted(CORPUS.glob("grids/*.json")) + sorted(
        CORPUS.glob("curated/*.json")
    )
    dt_files = sorted(CORPUS.glob("dt/*.json"))
    assert len(scene_files) >= 750 and len(dt_files) == 3
    for path in scene_files:
        scene = load_scene(path)
        out = tmp_path / path.name
        save_scene(scene, out)
        back = load_scene(out)
        assert scene_to_dict(back) == scene_to_dict(scene), path.name
        assert scenes_isomorphic(scene, back), path.name
    for path in dt_files:
        d, x = load_dt(path)
        out = tmp_path / path.name
        save_dt(d, x, out)
        d2, x2 = load_dt(out)
        assert dt_to_dict(d2, x2) == dt_to_dict(d, x), path.name
    report_line(
        8,
        f"round trips over {len(scene_files)} scenes and {len(dt_files)} coordinate files",
    )
