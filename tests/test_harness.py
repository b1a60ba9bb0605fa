"""Verification harness: suite behavior, determinism, fault injection."""

import dataclasses
import itertools
import json
import multiprocessing
import subprocess
import sys
import types
from math import gcd
from pathlib import Path

import pytest

from curvesys import dtcoords, harness, scene as scenes, torus
from curvesys.cli import main
from curvesys.dtcoords import DTCoords
from curvesys.errors import CountMismatch, InvalidBound, ParityViolation
from curvesys.harness import (
    SUITES,
    report_to_dict,
    run_all,
    suite_convexity,
    suite_product_laws,
    suite_resolution_oracle,
    suite_twist_bounds,
    suite_twist_coords,
    suite_twist_dynamics,
)
from curvesys.scene import resolve as scene_resolve
from curvesys.torus import TorusClass


def test_all_suites_pass_at_small_bounds():
    reports = run_all(bound=2, n_min=-3, n_max=3, gamma_bound=3, m_max=2, trials=60)
    assert [r.suite for r in reports] == list(SUITES)
    for r in reports:
        assert r.ok, (r.suite, r.failures[:3])
        assert r.cases > 0


def test_bound_one_enumerates_four_classes():
    report = suite_product_laws(1)
    assert report.ok
    # 4 classes -> 16 ordered pairs contribute at least the power clauses
    assert report.cases >= 16 * 5


@pytest.mark.parametrize(
    "factory",
    [
        lambda: suite_product_laws(0),
        lambda: suite_convexity(0),
        lambda: suite_convexity(2, 3, -3),
        lambda: suite_twist_dynamics(0),
        lambda: suite_twist_dynamics(2, 0),
        lambda: suite_twist_bounds(0),
        lambda: suite_resolution_oracle(0),
        lambda: suite_twist_coords(0),
        lambda: run_all(suites=["nope"]),
        lambda: suite_product_laws(True),
        lambda: suite_product_laws(2.0),
        lambda: suite_convexity(2, True, 3),
        lambda: suite_convexity(2, -3, 3.0),
        lambda: suite_twist_dynamics(2, True),
        lambda: suite_twist_bounds(True, 0),
        lambda: suite_twist_bounds(2, False),
        lambda: suite_twist_bounds(2, -1),
        lambda: suite_resolution_oracle(True),
        lambda: suite_twist_coords(True),
    ],
)
def test_invalid_bounds_rejected(factory):
    with pytest.raises(InvalidBound):
        factory()


def test_flipped_convention_fails_at_the_pin():
    report = suite_resolution_oracle(1, convention="before")
    assert not report.ok
    witnesses = {
        (f.inputs.get("p"), f.inputs.get("q"), f.inputs.get("r"), f.inputs.get("s"))
        for f in report.failures
        if f.clause == "census-matches-product"
    }
    # the meridian/longitude pin is among the failing parameters
    assert (0, 1, 1, 0) in witnesses or (1, 0, 0, 1) in witnesses


def _without_millis(reports) -> str:
    doc = report_to_dict(reports)
    for suite in doc["suites"]:
        suite.pop("millis")
    return json.dumps(doc, sort_keys=True)


def test_report_structure_and_determinism():
    r1 = run_all(bound=2, n_min=-2, n_max=2, gamma_bound=2, m_max=1, trials=30)
    r2 = run_all(bound=2, n_min=-2, n_max=2, gamma_bound=2, m_max=1, trials=30)
    for suite in report_to_dict(r1)["suites"]:
        assert set(suite) == {"suite", "params", "cases", "failures", "millis"}
    assert _without_millis(r1) == _without_millis(r2)


GOLDEN_REPORTS = Path(__file__).resolve().parent / "data" / "reports"


def test_default_report_matches_the_golden_file(monkeypatch):
    """The default ``curvesys verify`` report, ``millis`` apart, is the one
    that ``tools/golden_reports.py`` wrote, laid out as that script does."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)  # in this process
    doc = report_to_dict(run_all())
    for suite in doc["suites"]:
        suite.pop("millis")
    golden = (GOLDEN_REPORTS / "default.json").read_text(encoding="utf-8")
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == golden


# On 8 CPUs the five other suites leave three to resolution_oracle, whose
# slices fold back between twist_bounds and twist_coords.
@pytest.mark.parametrize("cpus", [2, 3, 6, 8])
def test_reports_are_the_same_for_every_worker_count(monkeypatch, cpus):
    def run(usable):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: usable)
        return run_all(bound=2, n_min=-2, n_max=2, gamma_bound=2, m_max=1, trials=30)

    assert _without_millis(run(cpus)) == _without_millis(run(1))
    assert multiprocessing.active_children() == []


def test_importing_the_package_loads_no_process_pool():
    probe = (
        "import sys, curvesys, curvesys.cli\n"
        "print([m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent.futures'))])"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_single_point_convexity_range():
    report = suite_convexity(1, 2, 2)
    assert report.ok and report.cases > 0


def test_seed_changes_twist_coordinate_draws():
    a = suite_twist_coords(trials=40, seed=1)
    b = suite_twist_coords(trials=40, seed=2)
    assert a.ok and b.ok
    assert a.params != b.params


def test_failures_carry_witnesses():
    report = suite_resolution_oracle(1, convention="before")
    f = report.failures[0]
    assert f.clause and f.inputs and f.lhs and f.rhs


def test_suite_selection():
    reports = run_all(bound=1, trials=5, suites=["product_laws", "twist_coords"])
    assert [r.suite for r in reports] == ["product_laws", "twist_coords"]


def test_passing_runs_format_no_witness(monkeypatch):
    formatted = []
    real_str = TorusClass.__str__

    def counting_str(self):
        formatted.append(self)
        return real_str(self)

    monkeypatch.setattr(TorusClass, "__str__", counting_str)
    # In-process with the parameters run_all(bound=2, n_min=-3, n_max=3,
    # gamma_bound=3, m_max=2, trials=60) passes them: a counter patched here
    # would not see the calls run_all makes in worker processes.
    reports = [
        suite_product_laws(2),
        suite_convexity(2, -3, 3),
        suite_twist_dynamics(2, 3),
        suite_twist_bounds(2, 2),
        suite_resolution_oracle(2),
        suite_twist_coords(60, 7),
    ]
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r.ok for r in reports)
    assert len(formatted) == 0


# ----------------------------------------------------------------------
# fault injection on the torus suites
# ----------------------------------------------------------------------


def _bad_intersection(a, b):
    """The true number, except that it swaps zero and nonzero on the pairs
    with a.x + 2 a.y + 3 b.x + 5 b.y = 3 mod 7."""
    i = torus.intersection(a, b)
    if (a.x + 2 * a.y + 3 * b.x + 5 * b.y) % 7 == 3:
        return 0 if i else 1
    return i


def _bad_dehn_twist(a, b, direction="positive"):
    """The true image, except that classes with x + y = 0 mod 5 stay fixed."""
    if (b.x + b.y) % 5 == 0:
        return b
    return torus.dehn_twist(a, b, direction)


def _bad_multiply(a, b):
    """The true product, except that it is taken in the wrong order when the
    first factor has x - y = 3 mod 4."""
    if (a.x - a.y) % 4 == 3:
        a, b = b, a
    return torus.multiply(a, b)


# Per suite: the case count and, for every clause, its failure count and
# first witness (inputs, lhs, rhs) under the three faults above.
_PINNED_FAILURES = {
    "product_laws": (
        34074,
        {
            "disjoint-additivity": (1564, {"a": "(0,1)", "b": "(0,1)", "c": "(0,3)"}, "0", "2"),
            "noncommute-crossing": (185, {"a": "(0,1)", "b": "(0,3)"}, "(0,4)", "(0,4)"),
            "cancel-left": (185, {"a": "(0,1)", "b": "(0,3)"}, "(0,5)", "(0,3)"),
            "cancel-right": (182, {"a": "(0,1)", "b": "(0,3)"}, "(0,5)", "(0,3)"),
            "crossing-preserved": (117, {"a": "(0,1)", "b": "(0,3)"}, "(0, 0)", "1"),
            "exponent-additivity": (
                32, {"a": "(0,1)", "b": "(0,3)", "n": -2, "m": 1}, "(0,6)", "(0,4)"
            ),
            "twist-power-form": (108, {"a": "(0,1)", "b": "(0,3)"}, "(0,3)", "(0,4)"),
            "power-distribution": (536, {"a": "(0,1)", "b": "(1,-3)", "k": 2}, "(2,-8)", "(2,-4)"),
            "twist-matrix": (75, {"a": "(0,1)", "b": "(1,-1)"}, "(1,-1)", "(1,-2)"),
            "twist-inverse": (51, {"a": "(0,1)", "b": "(1,0)"}, "(1,-1)", "(1,0)"),
            "commute-disjoint": (51, {"a": "(0,1)", "b": "(2,-1)"}, "(2,0)", "(2,-2)"),
            "product-triangle": (
                4681,
                {"a": "(0,1)", "b": "(0,1)", "c": "(1,1)"},
                "(0, 0, 2)",
                "each <= sum of the other two",
            ),
            "nonassociativity-witness": (
                1,
                {"triple": "(1,0),(0,1),(1,1)"},
                "(TorusClass(x=2, y=2), TorusClass(x=2, y=2))",
                "((2, 2), (2, 0))",
            ),
            "associativity-instance": (
                1,
                {"triple": "(1,0),(0,1),(1,0)"},
                "(TorusClass(x=0, y=1), TorusClass(x=2, y=1))",
                "(0, 1)",
            ),
        },
    ),
    "convexity": (
        269329,
        {
            "midpoint-convexity": (
                33429, {"a": "(0,1)", "b": "(0,1)", "g": "(0,1)", "n": -5}, "2", "0"
            ),
            "closed-form-agreement": (
                9888,
                {"a": "(0,1)", "b": "(0,3)", "g": "(0,1)"},
                "[0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0]",
                "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
            ),
            "twist-iterate-power": (2430, {"a": "(0,1)", "b": "(0,3)", "n": -6}, "(0,3)", "(0,9)"),
            "twisted-midpoint-convexity": (
                14390, {"a": "(0,1)", "b": "(1,-3)", "g": "(0,1)", "n": 1}, "2", "1"
            ),
            "spot-profile": (
                1,
                {"a": "(1,0)", "b": "(0,1)", "g": "(1,2)", "range": "-2..2"},
                "[5, 3, 1, 1, 0]",
                "[5, 3, 1, 1, 3]",
            ),
        },
    ),
    "twist_dynamics": (
        8446,
        {
            "no-fixed-class": (
                1648, {"alpha": "(0,1)", "beta": "(1,-3)", "gamma": "(1,-1)"}, "(1,-1)", "(1,-1)"
            ),
            "twists-do-not-commute": (64, {"alpha": "(0,1)", "beta": "(1,-2)"}, "(1,-1)", "(1,-1)"),
        },
    ),
    "twist_bounds": (
        36865,
        {
            "twist-intersection-bounds": (
                12165, {"a": "(0,1)", "beta": "(0,3)", "gamma": "(0,3)", "m": 1}, "0", "(1, 1)"
            ),
            "spot-bound-value": (
                1, {"a": "(1,0)", "beta": "(0,1)", "gamma": "(1,2)", "m": 2}, "0", "3"
            ),
        },
    ),
}


def _inject_faults(monkeypatch):
    # power-distribution and the two associativity witnesses call neither
    # intersection nor dehn_twist, so multiply is faulted too.
    monkeypatch.setattr(harness, "intersection", _bad_intersection)
    monkeypatch.setattr(harness, "dehn_twist", _bad_dehn_twist)
    monkeypatch.setattr(harness, "multiply", _bad_multiply)


def _faulted_suites_in_process():
    return [
        suite_product_laws(3),
        suite_convexity(3),
        suite_twist_dynamics(3, 4),
        suite_twist_bounds(3, 3),
    ]


def _clause_summary(reports):
    """Per suite: the case count and, per clause, its failure count and first
    witness."""
    got = {}
    for r in reports:
        clauses = {}
        for f in r.failures:
            entry = clauses.setdefault(f.clause, [0, f.inputs, f.lhs, f.rhs])
            entry[0] += 1
        got[r.suite] = (r.cases, {clause: tuple(v) for clause, v in clauses.items()})
    return got


def test_algebra_suite_failures_are_unchanged(monkeypatch):
    _inject_faults(monkeypatch)
    assert _clause_summary(_faulted_suites_in_process()) == _PINNED_FAILURES


def _bad_signed_power_multiply(a, n, b):
    """The true a^n b, except that an exponent n > 1 is taken as n + 1."""
    return torus.signed_power_multiply(a, n + 1 if n > 1 else n, b)


# Per suite, as in _PINNED_FAILURES: product_laws and convexity at bound 3
# with signed_power_multiply faulted as above.
_PINNED_POWER_FAILURES = {
    "product_laws": (
        34370,
        {
            "exponent-additivity": (
                3168, {"a": "(0,1)", "b": "(1,-3)", "n": -2, "m": 2}, "(1,-4)", "(1,-3)"
            ),
            "twist-power-form": (302, {"a": "(0,1)", "b": "(2,-3)"}, "(2,-5)", "(2,-6)"),
        },
    ),
    "convexity": (
        271105,
        {
            "midpoint-convexity": (
                11628, {"a": "(0,1)", "b": "(0,1)", "g": "(1,-3)", "n": 2}, "8", "7"
            ),
            "closed-form-agreement": (
                11640,
                {"a": "(0,1)", "b": "(1,-3)", "g": "(1,-3)"},
                "[6, 5, 4, 3, 2, 1, 0, 1, 3, 4, 5, 6, 7]",
                "[6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6]",
            ),
            "twist-iterate-power": (2102, {"a": "(0,1)", "b": "(1,-3)", "n": 2}, "(1,-5)", "(1,-6)"),
            "spot-profile": (
                1,
                {"a": "(1,0)", "b": "(0,1)", "g": "(1,2)", "range": "-2..2"},
                "[5, 3, 1, 1, 5]",
                "[5, 3, 1, 1, 3]",
            ),
        },
    ),
}


def test_faulted_powers_fail_the_pinned_clauses(monkeypatch):
    monkeypatch.setattr(harness, "signed_power_multiply", _bad_signed_power_multiply)
    reports = [suite_product_laws(3), suite_convexity(3)]
    assert _clause_summary(reports) == _PINNED_POWER_FAILURES


def test_faulted_suites_report_the_same_through_run_all(monkeypatch):
    """Forked workers inherit the patched names; every failure, in order,
    comes back as the in-process call records it."""
    _inject_faults(monkeypatch)
    in_process = _faulted_suites_in_process()
    assert sum(len(r.failures) for r in in_process) > 0
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)  # workers on any host
    reports = run_all(
        bound=3,
        conv_bound=3,
        gamma_bound=4,
        m_max=3,
        suites=["product_laws", "convexity", "twist_dynamics", "twist_bounds"],
    )

    def shape(rs):
        return [(r.suite, r.cases, len(r.failures)) for r in rs]

    assert shape(reports) == shape(in_process)
    # Tens of thousands of witnesses: compared as one bool, so that a failure
    # does not make pytest diff two megabyte strings.
    same = _without_millis(reports) == _without_millis(in_process)
    assert same, "same counts, but the witnesses differ in content or order"
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# fault injection on the scene and twist-coordinate suites
# ----------------------------------------------------------------------


def _bad_validate(scene, require_cellular=True):
    """The true diagnostics, except that the genus reads one higher when
    F = 2 mod 3, and an odd vertex count adds a face of degree 2."""
    diag = scenes.validate(scene, require_cellular)
    genus = diag.genus + 1 if diag.f % 3 == 2 else diag.genus
    degrees = diag.face_degrees + (2,) if diag.v % 2 else diag.face_degrees
    return dataclasses.replace(diag, genus=genus, face_degrees=degrees)


def _bad_corner_alternation_ok(scene, frm, to):
    """The true answer, except False at 3 mod 4 crossings."""
    alternating = scenes.corner_alternation_ok(scene, frm, to)
    return alternating and scenes.crossing_count(scene, frm, to) % 4 != 3


def _bad_crossing_count(scene, a, b):
    """The true count, one higher when it is 2 mod 3."""
    n = scenes.crossing_count(scene, a, b)
    return n + 1 if n % 3 == 2 else n


def _bad_find_bigons(scene, a, b):
    """The true bigons, and one more at 0 mod 3 crossings."""
    faces = scenes.find_bigons(scene, a, b)
    return faces + [None] if scenes.crossing_count(scene, a, b) % 3 == 0 else faces


def _bad_trivial_components(scene):
    """The true trivial components, and one more on a curve "x" when the
    scene has an odd number of components."""
    found = scenes.trivial_components(scene)
    odd = len(scenes.components(scene).components) % 2
    return found + [types.SimpleNamespace(curve="x")] if odd else found


# The case count and, per clause, the failure count and first witness of
# resolution_oracle at bound 2 under the five faults above: every clause but
# census-matches-product, the corpus controls included.
_PINNED_ORACLE_FAILURES = (
    3537,
    {
        "grid-cellular-torus": (
            26,
            {"p": 2, "q": 1, "r": 2, "s": 2},
            "(0, 2, {'a': 1, 'b': 2})",
            "(0, 1, {'a': 1, 'b': 2})",
        ),
        "crossing-count": (234, {"p": 2, "q": 1, "r": 2, "s": 2}, "3", "2"),
        "no-trivial-components": (
            882,
            {"p": 2, "q": 1, "r": 2, "s": 2, "from": "a", "to": "b"},
            "1 trivial",
            "none",
        ),
        "bigon-free": (90, {"p": 2, "q": -1, "r": 2, "s": 2}, "bigons", "none"),
        "grid-all-quads": (21, {"p": 1, "q": 2, "r": 2, "s": 1}, "(4, 4, 4, 2)", "all 4"),
        "corner-alternation": (
            6, {"p": 1, "q": 2, "r": 2, "s": 1}, "mixed corners", "alternating"
        ),
        "bigon-control-detected": (1, {"scene": "bigon-control"}, "3", "2"),
        "trivial-control-detected": (
            1, {"scene": "trivial-component-control"}, "['c', 'x']", "['c']"
        ),
        "genus2-pair-shape": (
            1,
            {"scene": "genus2-filling-pair"},
            "(-2, 3, (8, 8), {'a': 1, 'b': 1})",
            "(-2, 2, (8, 8), {'a': 1, 'b': 1})",
        ),
    },
)


def test_faulted_scene_functions_fail_the_pinned_oracle_clauses(monkeypatch):
    monkeypatch.setattr(harness, "validate", _bad_validate)
    monkeypatch.setattr(harness, "corner_alternation_ok", _bad_corner_alternation_ok)
    monkeypatch.setattr(harness, "crossing_count", _bad_crossing_count)
    monkeypatch.setattr(harness, "find_bigons", _bad_find_bigons)
    monkeypatch.setattr(harness, "trivial_components", _bad_trivial_components)
    report = suite_resolution_oracle(2)
    assert _clause_summary([report]) == {"resolution_oracle": _PINNED_ORACLE_FAILURES}
    routed = next(f for f in report.failures if f.clause == "no-trivial-components")
    assert list(routed.inputs) == ["p", "q", "r", "s", "from", "to"]


def _one_component_validate(scene, require_cellular=True):
    """The true diagnostics, except that every curve reports one component."""
    diag = scenes.validate(scene, require_cellular)
    ones = dict.fromkeys(diag.components_per_curve, 1)
    return dataclasses.replace(diag, components_per_curve=ones)


def test_a_wrong_line_count_is_a_recorded_failure(monkeypatch, capsys):
    """A grid whose curves report one component each fails
    grid-cellular-torus exactly when one of its vectors is not primitive,
    and verify exits 1: a wrong count is a failed identity, not an error."""
    monkeypatch.setattr(harness, "validate", _one_component_validate)
    report = suite_resolution_oracle(2)
    non_primitive = [
        {"p": p, "q": q, "r": r, "s": s}
        for p, q, r, s, deep in harness._oracle_cases(2)
        if deep and max(gcd(p, q), gcd(r, s)) > 1
    ]
    assert {f.clause for f in report.failures} == {"grid-cellular-torus"}
    assert [f.inputs for f in report.failures] == non_primitive
    first = report.failures[0]
    assert (len(non_primitive), first.inputs, first.lhs, first.rhs) == (
        34,
        {"p": 2, "q": 1, "r": 2, "s": 2},
        "(0, 1, {'a': 1, 'b': 1})",
        "(0, 1, {'a': 1, 'b': 2})",
    )
    assert main(["verify", "--suite", "resolution_oracle", "--bound", "2"]) == 1
    assert capsys.readouterr().out.endswith("total: 34 failure(s)\n")


def _bad_twist_multiply(x, k):
    """The true image, except that the last boundary entry grows by one when
    the exponents sum to 1 mod 3."""
    y = dtcoords.twist_multiply(x, k)
    if y.b and sum(k) % 3 == 1:
        return DTCoords(y.m, y.t, y.b[:-1] + (y.b[-1] + 1,))
    return y


def _bad_solve_twists(x1, x2):
    """The differences of the twisting coordinates, without the checks that
    the intersection data agree, and the last one high by one when x1's last
    twist is 3 mod 4."""
    k = tuple(a - b for a, b in zip(x1.t, x2.t))
    return k[:-1] + (k[-1] + 1,) if k and x1.t[-1] % 4 == 3 else k


# As _PINNED_ORACLE_FAILURES: twist_coords(60, 7) under the two faults above.
_PINNED_COORD_FAILURES = (
    280,
    {
        "round-trip": (
            10,
            {
                "decomposition": "genus2_closed",
                "trial": 6,
                "x": "DTCoords(m=(3, 0, 1), t=(-4, 4, -4), b=())",
                "k": (-4, 0, -1),
            },
            "(-4, 0, 0)",
            "(-4, 0, -1)",
        ),
        "twist-commutation": (
            5,
            {
                "decomposition": "one_holed_torus",
                "trial": 16,
                "x": "DTCoords(m=(2,), t=(-3,), b=(2,))",
                "k": (2,),
                "k2": (4,),
            },
            "DTCoords(m=(2,), t=(3,), b=(3,))",
            "DTCoords(m=(2,), t=(3,), b=(2,))",
        ),
        "dehn-twist-is-unit-twist": (
            8,
            {
                "decomposition": "one_holed_torus",
                "trial": 22,
                "x": "DTCoords(m=(1,), t=(-5,), b=(4,))",
                "i": 1,
            },
            "DTCoords(m=(1,), t=(-4,), b=(4,))",
            "DTCoords(m=(1,), t=(-4,), b=(5,))",
        ),
        "twist-preserves-m-b": (
            3,
            {
                "decomposition": "one_holed_torus",
                "trial": 37,
                "x": "DTCoords(m=(4,), t=(2,), b=(4,))",
            },
            "((4,), (5,))",
            "((4,), (4,))",
        ),
        "twist-preserves-validity": (
            3,
            {
                "decomposition": "one_holed_torus",
                "trial": 37,
                "x": "DTCoords(m=(4,), t=(2,), b=(4,))",
                "k": (1,),
            },
            "False",
            "True",
        ),
    },
)


def test_faulted_twist_coordinates_fail_the_pinned_clauses(monkeypatch):
    monkeypatch.setattr(harness, "twist_multiply", _bad_twist_multiply)
    monkeypatch.setattr(harness, "solve_twists", _bad_solve_twists)
    report = suite_twist_coords(60, 7)
    assert _clause_summary([report]) == {"twist_coords": _PINNED_COORD_FAILURES}
    assert list(report.failures[0].inputs) == ["decomposition", "trial", "x", "k"]


def test_a_refused_round_trip_is_a_failure_not_an_error(monkeypatch, capsys):
    """With only twist_multiply faulted, solve_twists refuses the image whose
    b moved; the suite records that refusal as a round-trip failure, and
    verify exits 1 instead of 2."""
    monkeypatch.setattr(harness, "twist_multiply", _bad_twist_multiply)
    report = suite_twist_coords(60, 7)
    moved, refused = (
        next(f for f in report.failures if f.clause == clause)
        for clause in ("twist-preserves-m-b", "round-trip")
    )
    assert moved.inputs["trial"] == refused.inputs["trial"] == 37
    assert refused.lhs == (
        "IntersectionMismatch: intersection data differ: m (4,) vs (4,), b (5,) vs (4,)"
    )
    assert refused.rhs == "(1,)"
    assert main(["verify", "--suite", "twist_coords", "--trials", "60"]) == 1
    assert capsys.readouterr().out.endswith("total: 22 failure(s)\n")


class _Stop(BaseException):
    """Escapes ``except Exception``, so a loop that retries on any error
    stops at its second call instead of spinning."""


def test_twist_coordinate_draws_retry_only_on_a_parity_rejection(monkeypatch):
    calls = []

    def broken_validate(d, x):
        calls.append(x)
        if len(calls) > 1:
            raise _Stop
        raise CountMismatch("expected 1 m-entries, got 2")

    monkeypatch.setattr(harness, "validate_coords", broken_validate)
    with pytest.raises(CountMismatch, match="expected 1 m-entries, got 2"):
        suite_twist_coords(1)
    assert len(calls) == 1


def test_a_trial_without_a_valid_draw_fails_and_the_suite_goes_on(monkeypatch, capsys):
    """When every draw breaks the parity rule, each trial gives up after
    ``_MAX_DRAWS`` draws and records one ``valid-draw`` failure."""
    calls = []

    def rejecting_validate(d, x):
        calls.append(x)
        raise ParityViolation("odd")

    monkeypatch.setattr(harness, "validate_coords", rejecting_validate)
    report = suite_twist_coords(3)
    assert report.cases == 3 and len(calls) == 3 * harness._MAX_DRAWS == 192
    assert [(f.clause, f.inputs, f.lhs, f.rhs) for f in report.failures] == [
        ("valid-draw", {"decomposition": name, "trial": trial}, "64 rejected draws", "a valid draw")
        for trial, name in enumerate(["genus2_closed", "one_holed_torus", "pair_of_pants"])
    ]
    assert main(["verify", "--suite", "twist_coords", "--trials", "3"]) == 1
    assert capsys.readouterr().out.endswith("total: 3 failure(s)\n")


# ----------------------------------------------------------------------
# resolution_oracle cut into slices
# ----------------------------------------------------------------------


def _mirrored_resolve(scene, frm, to, convention="after"):
    return scene_resolve(scene, frm, to, convention="before")


@pytest.mark.parametrize("cpus", [2, 3, 6])
def test_sliced_oracle_reports_the_failures_of_the_in_process_run(monkeypatch, cpus):
    """Forked slice workers inherit the patched resolve; the folded report
    has the in-process cases and every failure, in order."""
    monkeypatch.setattr(harness, "resolve", _mirrored_resolve)
    in_process = suite_resolution_oracle(3, convention="before")
    assert len(in_process.failures) > 0
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    [report] = run_all(bound=3, suites=["resolution_oracle"])
    assert (report.suite, report.cases) == (in_process.suite, in_process.cases)
    assert report.failures == in_process.failures
    assert multiprocessing.active_children() == []


def test_sliced_oracle_report_equals_the_in_process_report(monkeypatch):
    in_process = suite_resolution_oracle(4)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert _without_millis(run_all(bound=4, suites=["resolution_oracle"])) == _without_millis(
        [in_process]
    )
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("bound", [1, 2, 3, 6])
def test_oracle_cases_keep_the_first_seen_order_of_class_pairs(bound):
    # The reference: every ordered pair of canonical vectors, each unordered
    # class pair kept where it is first seen.
    classes = [(c.x, c.y) for c in (torus.normalize(p, q) for p, q in harness._vec_iter(bound))]
    deep, seen = [], set()
    for a in classes:
        for b in classes:
            key = (min(a, b), max(a, b))
            if a[0] * b[1] != a[1] * b[0] and key not in seen:
                seen.add(key)
                deep.append((*key[0], *key[1], True))
    small = min(bound, 2)
    sweep = [
        (p, q, r, s, False)
        for p, q in harness._vec_iter(small)
        for r, s in harness._vec_iter(small)
        if p * s != q * r
    ]
    assert harness._oracle_cases(bound) == deep + sweep


def test_oracle_deep_cases_at_bound_4_are_the_shipped_grids():
    grids = Path(__file__).resolve().parent.parent / "corpus" / "grids"
    names = [f"grid_{p}_{q}_{r}_{s}.json" for p, q, r, s, deep in harness._oracle_cases(4) if deep]
    assert len(names) == 752
    assert sorted(names) == sorted(f.name for f in grids.iterdir())


@pytest.mark.parametrize("n", [2, 3, 6])
def test_oracle_slices_cover_the_cases_in_even_shares(n):
    cases = harness._oracle_cases(6)
    slices = harness._oracle_slices(cases, n)
    assert len(slices) == n
    assert slices[0][0] == 0 and slices[-1][1] == len(cases)
    assert all(stop == start for (_, stop), (start, _) in zip(slices, slices[1:]))
    weights = [abs(p * s - q * r) + harness._ORACLE_CASE_COST for p, q, r, s, _ in cases]
    share = sum(weights) / n
    for start, stop in slices:
        assert start < stop
        assert abs(sum(weights[start:stop]) - share) <= max(weights)


def test_only_the_last_oracle_slice_checks_the_controls():
    # Cases check 9 clauses when deep and 6 in the sign sweep; the corpus
    # controls add 3.
    cases = harness._oracle_cases(2)
    slices = harness._oracle_slices(cases, 3)
    got = [harness._run_suite("resolution_oracle", (2,), cut).cases for cut in slices]
    want = [sum(9 if deep else 6 for *_, deep in cases[start:stop]) for start, stop in slices]
    want[-1] += 3
    assert got == want
    assert sum(got) == suite_resolution_oracle(2).cases


def test_an_oracle_cut_checks_its_cases_and_leaves_the_params_alone():
    whole = suite_resolution_oracle(2)
    first = suite_resolution_oracle(2, cut=(0, 1))
    assert first.params == whole.params
    assert first.cases == 9  # one deep case and no corpus controls


def test_a_sliced_suite_reports_the_sum_of_its_slice_times(monkeypatch):
    # Every timed interval reads one second, in the parent and in the workers.
    ticks = itertools.count()
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    [report] = run_all(bound=2, suites=["resolution_oracle"])
    assert report.millis == 3000
