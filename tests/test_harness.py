"""Verification harness: suite behavior, determinism, fault injection."""

import json
import multiprocessing
import subprocess
import sys

import pytest

from curvesys import harness, torus
from curvesys.errors import InvalidBound
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


@pytest.mark.parametrize("cpus", [2, 3, 6])
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


def test_algebra_suite_failures_are_unchanged(monkeypatch):
    _inject_faults(monkeypatch)
    reports = _faulted_suites_in_process()
    got = {}
    for r in reports:
        clauses = {}
        for f in r.failures:
            entry = clauses.setdefault(f.clause, [0, f.inputs, f.lhs, f.rhs])
            entry[0] += 1
        got[r.suite] = (r.cases, {clause: tuple(v) for clause, v in clauses.items()})
    assert got == _PINNED_FAILURES


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
