"""Torus class arithmetic: frozen examples and algebraic properties."""

import pytest
from hypothesis import assume, given, strategies as st

from curvesys.errors import (
    CurveSysError,
    InvalidChoice,
    InvalidClass,
    InvalidExponent,
    InvalidProfile,
    NotSimpleLoop,
    OutsideProfile,
)
from curvesys.torus import (
    ConvexityProfile,
    TorusClass,
    convexity_profile,
    dehn_twist,
    enumerate_classes,
    intersection,
    multiply,
    normalize,
    power,
    signed_power_multiply,
)

nonzero_vec = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50)
).filter(lambda v: v != (0, 0))


def classes(bound):
    return enumerate_classes(bound)


# ----------------------------------------------------------------------
# normalize
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,canon",
    [((-1, 2), (1, -2)), ((0, -3), (0, 3)), ((2, 4), (2, 4)), ((-3, 0), (3, 0))],
)
def test_normalize_examples(raw, canon):
    c = normalize(*raw)
    assert (c.x, c.y) == canon


def test_normalize_rejects_zero():
    with pytest.raises(InvalidClass):
        normalize(0, 0)


@pytest.mark.parametrize("raw", [(True, 0), (1, False), (1.0, 2), (1, "2")])
def test_classes_take_plain_ints_only(raw):
    with pytest.raises(InvalidClass):
        normalize(*raw)


@pytest.mark.parametrize("bound", [0, True, 2.0])
def test_enumerate_classes_rejects_bad_bounds(bound):
    with pytest.raises(InvalidClass):
        enumerate_classes(bound)


@given(nonzero_vec)
def test_normalize_sign_invariant(v):
    assert normalize(*v) == normalize(-v[0], -v[1])


@given(st.integers(), st.integers())
def test_classes_store_the_canonical_sign(x, y):
    """Against a reference: the stored vector is (x, y) or (-x, -y), whichever
    has x > 0 or x = 0 < y.  Unbounded integers, so big ones too."""
    assume((x, y) != (0, 0))
    want = (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)
    c = TorusClass(x, y)
    assert (c.x, c.y) == want
    assert type(c.x) is int and type(c.y) is int


def test_multiplicity_and_primitive():
    c = normalize(2, 4)
    assert c.multiplicity == 2
    assert c.primitive() == normalize(1, 2)
    assert normalize(3, -5).is_primitive()


# ----------------------------------------------------------------------
# intersection
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,n",
    [
        ((1, 0), (0, 1), 1),
        ((2, 1), (1, 1), 1),
        ((2, 0), (0, 3), 6),
        ((3, 6), (1, 2), 0),
    ],
)
def test_intersection_examples(a, b, n):
    assert intersection(normalize(*a), normalize(*b)) == n


@given(nonzero_vec, nonzero_vec)
def test_intersection_symmetric(u, v):
    a, b = normalize(*u), normalize(*v)
    assert intersection(a, b) == intersection(b, a)
    assert (intersection(a, b) == 0) == (a.primitive() == b.primitive())


# ----------------------------------------------------------------------
# multiply
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,want",
    [
        ((1, 0), (0, 1), (1, 1)),
        ((0, 1), (1, 0), (1, -1)),
        ((1, 0), (2, 0), (3, 0)),
        ((1, 1), (1, 1), (2, 2)),
    ],
)
def test_multiply_examples(a, b, want):
    assert multiply(normalize(*a), normalize(*b)) == normalize(*want)


def test_multiply_nonassociativity_witness():
    e1, e2, e3 = normalize(1, 0), normalize(0, 1), normalize(1, 1)
    assert multiply(multiply(e1, e2), e3) == normalize(2, 2)
    assert multiply(e1, multiply(e2, e3)) == normalize(2, 0)


def test_multiply_associativity_instance():
    e1, e2 = normalize(1, 0), normalize(0, 1)
    assert multiply(multiply(e1, e2), e1) == normalize(0, 1)
    assert multiply(e1, multiply(e2, e1)) == normalize(0, 1)


@given(nonzero_vec, nonzero_vec)
def test_multiply_never_zero_and_triangle(u, v):
    a, b = normalize(*u), normalize(*v)
    ab = multiply(a, b)  # construction would raise on the zero vector
    for w in [(1, 0), (0, 1), (3, -2)]:
        c = normalize(*w)
        x, y, z = intersection(a, c), intersection(b, c), intersection(ab, c)
        assert z <= x + y and x <= y + z and y <= z + x


# ----------------------------------------------------------------------
# power / signed powers
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,k,want", [((1, 1), 3, (3, 3)), ((2, 0), 1, (2, 0)), ((1, -2), 2, (2, -4))]
)
def test_power_examples(a, k, want):
    assert power(normalize(*a), k) == normalize(*want)


@pytest.mark.parametrize("k", [0, -1, -7])
def test_power_rejects_nonpositive(k):
    with pytest.raises(InvalidExponent):
        power(normalize(1, 0), k)


@pytest.mark.parametrize("k", [True, 2.0])
def test_power_takes_plain_ints_only(k):
    with pytest.raises(InvalidExponent):
        power(normalize(1, 0), k)


@pytest.mark.parametrize(
    "a,n,b,want",
    [
        ((1, 0), 2, (0, 1), (2, 1)),
        ((1, 0), -1, (0, 1), (1, -1)),
        ((1, 0), 0, (0, 1), (0, 1)),
    ],
)
def test_signed_power_multiply_examples(a, n, b, want):
    assert signed_power_multiply(normalize(*a), n, normalize(*b)) == normalize(*want)


def test_signed_power_closed_form_exhaustive():
    """Against the definition, the closed form |d n a + b| must agree whenever
    the classes cross (d the sign of the crossing determinant)."""
    for a in classes(3):
        for b in classes(3):
            det = a.x * b.y - b.x * a.y
            if det == 0:
                continue
            d = 1 if det > 0 else -1
            for n in range(-5, 6):
                want = normalize(d * n * a.x + b.x, d * n * a.y + b.y)
                assert signed_power_multiply(a, n, b) == want


def test_signed_power_matches_iterated_multiply():
    for a in classes(2):
        for b in classes(2):
            if intersection(a, b) == 0:
                continue
            acc = b
            for n in range(1, 5):
                acc = multiply(a, acc)
                assert signed_power_multiply(a, n, b) == acc
            acc = b
            for n in range(1, 5):
                acc = multiply(acc, a)
                assert signed_power_multiply(a, -n, b) == acc


def test_exponent_law():
    """a^n (a^m b) = a^(n+m) b when the classes cross."""
    for a in classes(2):
        for b in classes(2):
            if intersection(a, b) == 0:
                continue
            for n in range(-3, 4):
                for m in range(-3, 4):
                    lhs = signed_power_multiply(a, n, signed_power_multiply(a, m, b))
                    rhs = signed_power_multiply(a, n + m, b)
                    assert lhs == rhs, (a, b, n, m)


# ----------------------------------------------------------------------
# Dehn twists
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,direction,want",
    [
        ((1, 0), (0, 1), "positive", (1, 1)),
        ((1, 0), (0, 1), "negative", (1, -1)),
        ((1, 0), (3, 0), "positive", (3, 0)),
    ],
)
def test_dehn_twist_examples(a, b, direction, want):
    assert dehn_twist(normalize(*a), normalize(*b), direction) == normalize(*want)


def test_dehn_twist_rejects_multicurve():
    with pytest.raises(NotSimpleLoop):
        dehn_twist(normalize(2, 0), normalize(0, 1))


@pytest.mark.parametrize("direction", ["left", "Positive", None])
def test_dehn_twist_rejects_unknown_directions(direction):
    with pytest.raises(InvalidChoice) as info:
        dehn_twist(normalize(1, 0), normalize(0, 1), direction)
    assert isinstance(info.value, CurveSysError) and isinstance(info.value, ValueError)
    assert str(info.value) == f"direction must be 'positive' or 'negative', got {direction!r}"


@given(nonzero_vec, nonzero_vec)
def test_dehn_twist_inverse(u, v):
    a = normalize(*u).primitive()
    b = normalize(*v)
    assert dehn_twist(a, dehn_twist(a, b, "positive"), "negative") == b
    assert dehn_twist(a, dehn_twist(a, b, "negative"), "positive") == b


@given(nonzero_vec, nonzero_vec)
def test_dehn_twist_matrix_model(u, v):
    """The twist acts on homology by b -> b + det(a, b) a."""
    a = normalize(*u).primitive()
    b = normalize(*v)
    d = a.x * b.y - b.x * a.y
    assert dehn_twist(a, b, "positive") == normalize(b.x + d * a.x, b.y + d * a.y)


def test_twists_along_crossing_loops_do_not_commute():
    a, b = normalize(1, 0), normalize(0, 1)
    lhs = dehn_twist(a, dehn_twist(b, a, "positive"), "positive")
    rhs = dehn_twist(b, dehn_twist(a, a, "positive"), "positive")
    assert lhs == normalize(0, 1)
    assert rhs == normalize(1, -1)
    assert lhs != rhs


# ----------------------------------------------------------------------
# convexity profiles
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,g,n_min,n_max,values",
    [
        ((1, 0), (0, 1), (1, 2), -2, 2, (5, 3, 1, 1, 3)),
        ((1, 0), (0, 1), (1, 0), 0, 2, (1, 1, 1)),
        ((1, 1), (1, 1), (0, 1), 1, 3, (2, 3, 4)),
    ],
)
def test_profile_examples(a, b, g, n_min, n_max, values):
    prof = convexity_profile(normalize(*a), normalize(*b), normalize(*g), n_min, n_max)
    assert prof.values == values


def test_profile_type_rejects_nonconvex():
    with pytest.raises(ValueError):
        ConvexityProfile(
            normalize(1, 0), normalize(0, 1), normalize(1, 2), 0, 2, (0, 5, 0)
        )
    with pytest.raises(ValueError):
        ConvexityProfile(normalize(1, 0), normalize(0, 1), normalize(1, 2), 2, 0, ())


@pytest.mark.parametrize(
    "n_min,n_max,values,message",
    [
        (0, 2, (0, 5, 0), "profile not midpoint convex at n=1: (0, 5, 0)"),
        (0, 2, (1, 1), "values length does not match the range"),
        (0, 1, (1, -1), "intersection numbers are non-negative"),
    ],
)
def test_profile_rejects_bad_values_as_invalid_profile(n_min, n_max, values, message):
    a, b, g = normalize(1, 0), normalize(0, 1), normalize(1, 2)
    with pytest.raises(InvalidProfile) as info:
        ConvexityProfile(a, b, g, n_min, n_max, values)
    assert isinstance(info.value, CurveSysError) and isinstance(info.value, ValueError)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [-3, 3, 100])
def test_profile_value_at_outside_the_range(n):
    prof = convexity_profile(normalize(1, 0), normalize(0, 1), normalize(1, 2), -2, 2)
    assert [prof.value_at(k) for k in range(-2, 3)] == [5, 3, 1, 1, 3]
    with pytest.raises(OutsideProfile) as info:
        prof.value_at(n)
    assert isinstance(info.value, CurveSysError) and isinstance(info.value, IndexError)
    assert str(info.value) == f"n={n} outside -2..2"


@given(nonzero_vec, nonzero_vec, nonzero_vec)
def test_profile_always_convex(u, v, w):
    prof = convexity_profile(normalize(*u), normalize(*v), normalize(*w), -4, 4)
    vals = prof.values
    for i in range(1, len(vals) - 1):
        assert 2 * vals[i] <= vals[i - 1] + vals[i + 1]


def test_proof_step_inequality():
    """2 f(1) <= f(0) + f(2) for every small triple."""
    for a in classes(2):
        for b in classes(2):
            for g in classes(2):
                f = lambda n: intersection(signed_power_multiply(a, n, b), g)
                assert 2 * f(1) <= f(0) + f(2)


# ----------------------------------------------------------------------
# enumeration helpers
# ----------------------------------------------------------------------


def test_enumerate_classes_bound1():
    got = enumerate_classes(1)
    assert sorted((c.x, c.y) for c in got) == [(0, 1), (1, -1), (1, 0), (1, 1)]


def test_enumerate_classes_distinct():
    cs = enumerate_classes(4)
    assert len(cs) == len(set(cs)) == 40
