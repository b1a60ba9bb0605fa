"""The TorusClass contract: checks, sign, immutability, comparison, copies.

Only the standard library is used, so the file also runs without pytest, on
any supported interpreter, as a plain script from the repository root:

    PYTHONPATH=src python tests/test_torus_class.py
"""

import copy
import dataclasses
import pickle

from curvesys.errors import CurveSysError, InvalidClass
from curvesys.torus import TorusClass


def _raised(exc_type, fn, *args):
    """The exception of type exc_type that fn(*args) raises."""
    try:
        fn(*args)
    except exc_type as exc:
        return exc
    raise AssertionError(f"{fn.__name__}{args!r} raised no {exc_type.__name__}")


def _canonical(x, y):
    """Reference sign rule: x > 0, or x = 0 and y > 0."""
    return (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)


def test_non_int_coordinates_are_rejected():
    for x, y in [(True, 0), (1, False), (1.0, 2), (1, 2.0), (1, "2"), (None, 1)]:
        exc = _raised(InvalidClass, TorusClass, x, y)
        assert isinstance(exc, CurveSysError) and isinstance(exc, ValueError)
        assert str(exc) == f"integer coordinates required, got ({x!r}, {y!r})"


def test_zero_vector_is_rejected():
    exc = _raised(InvalidClass, TorusClass, 0, 0)
    assert str(exc) == "the zero vector does not represent a curve system"


def test_signs_are_normalised_in_a_window():
    for x in range(-12, 13):
        for y in range(-12, 13):
            if (x, y) != (0, 0):
                c = TorusClass(x, y)
                assert (c.x, c.y) == _canonical(x, y), (x, y)


def test_big_coordinates_keep_their_value():
    big = 10**40 + 7
    c = TorusClass(-big, 3)
    assert (c.x, c.y) == (big, -3)


def test_assignment_and_deletion_raise_frozen_instance_error():
    c = TorusClass(2, 3)
    for name in ("x", "y", "z"):
        _raised(dataclasses.FrozenInstanceError, setattr, c, name, 1)
        _raised(dataclasses.FrozenInstanceError, delattr, c, name)
    assert (c.x, c.y) == (2, 3)


def test_instances_hold_only_their_two_slots():
    c = TorusClass(2, 3)
    assert not hasattr(c, "__dict__")
    assert [f.name for f in dataclasses.fields(c)] == ["x", "y"]


def test_equality_and_hash_follow_the_canonical_vector():
    assert TorusClass(-2, -2) == TorusClass(2, 2)
    assert TorusClass(1, 2) != TorusClass(1, -2)
    assert TorusClass(1, 0) != (1, 0)
    assert hash(TorusClass(-2, 5)) == hash((2, -5))
    assert len({TorusClass(1, 1), TorusClass(-1, -1), TorusClass(2, 2)}) == 2


def test_order_is_the_order_of_the_canonical_vectors():
    raw = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
    got = [(c.x, c.y) for c in sorted(TorusClass(x, y) for x, y in raw)]
    assert got == sorted(_canonical(x, y) for x, y in raw)
    assert TorusClass(0, 1) < TorusClass(1, -5) <= TorusClass(1, -5) < TorusClass(1, 0)
    _raised(TypeError, lambda: TorusClass(1, 0) < (2, 0))


def test_repr_and_str():
    assert repr(TorusClass(-2, -2)) == "TorusClass(x=2, y=2)"
    assert str(TorusClass(-2, 2)) == "(2,-2)"


def test_pickle_copy_and_deepcopy_round_trip():
    c = TorusClass(-3, 5)
    copies = [pickle.loads(pickle.dumps(c, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(c), copy.deepcopy(c), copy.deepcopy([c, c])[1]]
    for d in copies:
        assert type(d) is TorusClass and d == c and (d.x, d.y) == (3, -5)


def test_replace_rechecks_and_normalises():
    c = TorusClass(2, 3)
    assert dataclasses.replace(c, x=-4) == TorusClass(4, -3)
    _raised(InvalidClass, lambda: dataclasses.replace(c, x=0, y=0))


if __name__ == "__main__":
    tests = [f for name, f in list(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} TorusClass contract checks passed")
