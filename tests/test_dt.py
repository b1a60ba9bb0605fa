"""Pants decompositions and twist coordinates."""

import json

import pytest
from hypothesis import given, strategies as st

from curvesys.cli import main
from curvesys.corpus import dt_decompositions
from curvesys.dtcoords import (
    DTCoords,
    PantsDecomposition,
    dehn_twist,
    dt_from_dict,
    dt_to_dict,
    load_dt,
    save_dt,
    solve_twists,
    twist_multiply,
    validate_coords,
    validate_decomposition,
)
from curvesys.errors import (
    CountMismatch,
    CurveSysError,
    IntersectionMismatch,
    InvalidChoice,
    MissedCurveTwistMismatch,
    NegativeTwistOnMissedCurve,
    ParityViolation,
    SlotReuse,
    TwistOnMissedCurve,
    UnknownCurveIndex,
)

GENUS2 = dt_decompositions()["genus2_closed"][0]
TORUS1 = dt_decompositions()["one_holed_torus"][0]
PANTS = dt_decompositions()["pair_of_pants"][0]


# ----------------------------------------------------------------------
# decomposition validation
# ----------------------------------------------------------------------


def test_shapes_of_shipped_decompositions():
    assert validate_decomposition(GENUS2) == validate_decomposition(GENUS2)
    s = validate_decomposition(GENUS2)
    assert (s.genus, s.boundary, s.curves) == (2, 0, 3)
    s = validate_decomposition(PANTS)
    assert (s.genus, s.boundary, s.curves) == (0, 3, 0)
    s = validate_decomposition(TORUS1)
    assert (s.genus, s.boundary, s.curves) == (1, 1, 1)


def test_slot_reuse_rejected():
    d = PantsDecomposition(
        pants=("P", "Q"),
        gluing=(
            (("P", 0), ("Q", 0)),
            (("P", 0), ("Q", 1)),
        ),
    )
    with pytest.raises(SlotReuse):
        validate_decomposition(d)


def test_unknown_pants_rejected():
    d = PantsDecomposition(pants=("P",), gluing=(((("X"), 0), ("P", 0)),))
    with pytest.raises(CountMismatch):
        validate_decomposition(d)


@pytest.mark.parametrize(
    "index, error, message",
    [(0, SlotReuse, r"slot P\.0 glued twice"), (3, CountMismatch, r"out of range in P\.3")],
    ids=["glued-to-itself", "index-3"],
)
def test_bad_second_slot_rejected(index, error, message):
    d = PantsDecomposition(pants=("P",), gluing=((("P", 0), ("P", index)),))
    with pytest.raises(error, match=message):
        validate_decomposition(d)


_DISCONNECTED = "the pants do not glue into one connected surface"


@pytest.mark.parametrize(
    "pants, gluing",
    [
        ((), ()),
        (("P", "Q"), ()),
        (("P", "Q", "R"), ((("P", 0), ("Q", 0)), (("P", 1), ("Q", 1)))),
    ],
    ids=["empty", "two-unglued-pants", "glued-pair-and-a-lone-pants"],
)
def test_decomposition_must_be_connected(pants, gluing):
    with pytest.raises(CountMismatch, match=_DISCONNECTED):
        validate_decomposition(PantsDecomposition(pants, gluing))


def test_dt_validate_rejects_an_empty_decomposition(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"pants": [], "gluing": [], "m": [], "t": [], "b": []}))
    assert main(["dt", "validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {_DISCONNECTED}\n"


# ----------------------------------------------------------------------
# coordinate validation
# ----------------------------------------------------------------------


def test_valid_coords_example():
    validate_coords(GENUS2, DTCoords(m=(2, 0, 0), t=(3, 0, 1), b=()))


def test_parity_violation():
    with pytest.raises(ParityViolation):
        validate_coords(GENUS2, DTCoords(m=(1, 1, 1), t=(0, 0, 0), b=()))


def test_negative_twist_on_missed_curve():
    with pytest.raises(NegativeTwistOnMissedCurve):
        validate_coords(GENUS2, DTCoords(m=(2, 0, 0), t=(0, -1, 0), b=()))


def test_boundary_parity():
    validate_coords(PANTS, DTCoords(m=(), t=(), b=(2, 1, 1)))
    with pytest.raises(ParityViolation):
        validate_coords(PANTS, DTCoords(m=(), t=(), b=(1, 1, 1)))
    validate_coords(TORUS1, DTCoords(m=(1,), t=(4,), b=(2,)))
    with pytest.raises(ParityViolation):
        validate_coords(TORUS1, DTCoords(m=(1,), t=(0,), b=(1,)))


def test_dt_validate_rejects_a_negative_b(tmp_path, capsys):
    d, x = dt_decompositions()["one_holed_torus"]
    path = tmp_path / "negative_b.json"
    save_dt(d, DTCoords(x.m, x.t, (-2,)), path)
    assert main(["dt", "validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: intersection coordinates must be non-negative\n"


def test_wrong_lengths():
    with pytest.raises(CountMismatch):
        validate_coords(GENUS2, DTCoords(m=(2, 0), t=(0, 0), b=()))
    with pytest.raises(CountMismatch):
        DTCoords(m=(1, 2), t=(0,), b=())


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def test_twist_multiply():
    x = DTCoords(m=(2, 0, 0), t=(1, 0, 1), b=())
    assert twist_multiply(x, (2, 0, 0)).t == (3, 0, 1)
    assert twist_multiply(x, (0, 0, 0)) == x
    with pytest.raises(TwistOnMissedCurve):
        twist_multiply(x, (0, 1, 0))
    # Exponents are exact ints: never truncated, read as 1 or added as floats.
    for bad in ((0.5, 0, 0), (True, 0, 0), (2.0, 0, 0), ("1", 0, 0), (None, 0, 0)):
        with pytest.raises(CountMismatch):
            twist_multiply(x, bad)


def test_dehn_twist():
    x = DTCoords(m=(2, 0, 0), t=(3, 0, 1), b=())
    assert dehn_twist(x, 1, "positive").t == (5, 0, 1)
    assert dehn_twist(x, 2, "positive") == x
    assert dehn_twist(x, 2, "negative") == x
    assert dehn_twist(dehn_twist(x, 1, "positive"), 1, "negative") == x
    with pytest.raises(UnknownCurveIndex):
        dehn_twist(x, 4)
    with pytest.raises(UnknownCurveIndex):
        dehn_twist(x, 0)
    # The curve index is an exact int: True is not curve 1, and 1.0 is no index.
    for bad in (True, 1.0, "1", None):
        with pytest.raises(UnknownCurveIndex):
            dehn_twist(x, bad)


@pytest.mark.parametrize("direction", ["left", "Positive", None])
def test_dehn_twist_rejects_unknown_directions(direction):
    x = DTCoords(m=(2, 0, 0), t=(3, 0, 1), b=())
    with pytest.raises(InvalidChoice) as info:
        dehn_twist(x, 1, direction)
    assert isinstance(info.value, CurveSysError) and isinstance(info.value, ValueError)
    assert str(info.value) == f"direction must be 'positive' or 'negative', got {direction!r}"


def test_solve_twists():
    m = (2, 0, 0)
    x1 = DTCoords(m=m, t=(3, 0, 1), b=())
    x2 = DTCoords(m=m, t=(1, 0, 1), b=())
    assert solve_twists(x1, x2) == (2, 0, 0)
    assert solve_twists(x1, x1) == (0, 0, 0)
    with pytest.raises(IntersectionMismatch):
        solve_twists(x1, DTCoords(m=(4, 0, 0), t=(1, 0, 1), b=()))
    with pytest.raises(MissedCurveTwistMismatch):
        solve_twists(x1, DTCoords(m=m, t=(3, 0, 2), b=()))


coords3 = st.tuples(
    st.tuples(*[st.sampled_from([0, 2, 4])] * 3),
    st.tuples(*[st.integers(-5, 5)] * 3),
)


@given(coords3, st.tuples(*[st.integers(-4, 4)] * 3))
def test_round_trip_property(mt, k):
    m, t = mt
    t = tuple(abs(ti) if mi == 0 else ti for mi, ti in zip(m, t))
    k = tuple(0 if mi == 0 else ki for mi, ki in zip(m, k))
    x = DTCoords(m=m, t=t, b=())
    validate_coords(GENUS2, x)
    y = twist_multiply(x, k)
    assert (y.m, y.b) == (x.m, x.b)
    assert solve_twists(y, x) == k
    validate_coords(GENUS2, y)


@given(coords3, st.tuples(*[st.integers(-4, 4)] * 3), st.tuples(*[st.integers(-4, 4)] * 3))
def test_twist_commutation(mt, k1, k2):
    m, t = mt
    t = tuple(abs(ti) if mi == 0 else ti for mi, ti in zip(m, t))
    k1 = tuple(0 if mi == 0 else ki for mi, ki in zip(m, k1))
    k2 = tuple(0 if mi == 0 else ki for mi, ki in zip(m, k2))
    x = DTCoords(m=m, t=t, b=())
    lhs = twist_multiply(twist_multiply(x, k1), k2)
    rhs = twist_multiply(x, tuple(a + b for a, b in zip(k1, k2)))
    assert lhs == rhs


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(dt_decompositions()))
def test_file_round_trip(tmp_path, name):
    d, x = dt_decompositions()[name]
    path = tmp_path / f"{name}.json"
    save_dt(d, x, path)
    d2, x2 = load_dt(path)
    assert d2 == d and x2 == x


def test_file_fields():
    d, x = dt_decompositions()["genus2_closed"]
    data = dt_to_dict(d, x)
    assert set(data) == {"pants", "gluing", "m", "t", "b"}
    assert data["gluing"][0] == ["P.0", "Q.0"]
    back_d, back_x = dt_from_dict(data)
    assert back_d == d and back_x == x


def test_malformed_file():
    with pytest.raises(CountMismatch):
        dt_from_dict({"pants": [], "gluing": [["P0", "Q.0"]], "m": [], "t": [], "b": []})
    with pytest.raises(CountMismatch):
        dt_from_dict({"pants": []})


@pytest.mark.parametrize(
    "name, key, index, value",
    [
        ("genus2_closed", "m", 0, 2.0),
        ("genus2_closed", "t", 0, "3"),
        ("pair_of_pants", "b", 1, True),
    ],
)
def test_file_takes_plain_ints_only(tmp_path, name, key, index, value):
    """m, t and b entries that int() would coerce are rejected (exit 2)."""
    data = dt_to_dict(*dt_decompositions()[name])
    data[key][index] = value
    with pytest.raises(CountMismatch, match="integers"):
        dt_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["dt", "validate", str(path)]) == 2


def _tables_as_objects(data):
    return {k: {} for k in data}


def _int_pants_id(data):
    data["pants"][0]["id"] = 5
    return data


def _float_slot(data):
    data["gluing"][0][0] = 5.0
    return data


def _list_slot(data):
    data["gluing"][0][1] = ["Q.0"]
    return data


def _pair_as_object(data):
    data["gluing"][0] = dict.fromkeys(data["gluing"][0])
    return data


@pytest.mark.parametrize(
    "corrupt", [_tables_as_objects, _int_pants_id, _float_slot, _list_slot, _pair_as_object],
    ids=["tables-as-objects", "int-pants-id", "float-slot", "list-slot", "pair-as-object"],
)
def test_file_takes_lists_and_strings_only(tmp_path, capsys, corrupt):
    """Tables that are not lists and pants ids or slot addresses that are not
    strings are rejected, never coerced with str() (exit 2)."""
    data = corrupt(dt_to_dict(*dt_decompositions()["genus2_closed"]))
    with pytest.raises(CountMismatch, match="must be"):
        dt_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["dt", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
