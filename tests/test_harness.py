"""Verification harness: suite behavior, determinism, fault injection."""

import json

import pytest

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


def test_report_structure_and_determinism():
    def strip_millis(doc):
        for suite in doc["suites"]:
            suite.pop("millis")
        return doc

    r1 = report_to_dict(run_all(bound=2, n_min=-2, n_max=2, gamma_bound=2, m_max=1, trials=30))
    r2 = report_to_dict(run_all(bound=2, n_min=-2, n_max=2, gamma_bound=2, m_max=1, trials=30))
    for suite in r1["suites"]:
        assert set(suite) == {"suite", "params", "cases", "failures", "millis"}
    assert json.dumps(strip_millis(r1), sort_keys=True) == json.dumps(
        strip_millis(r2), sort_keys=True
    )


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
