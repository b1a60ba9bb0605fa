"""Exact arithmetic on unoriented isotopy classes of curve systems in the torus.

A class is a nonzero integer vector (x, y) up to global sign; gcd(|x|, |y|) = d
means d parallel copies of the primitive class (x/d, y/d).  The product of two
classes resolves every crossing of flat representatives from the first curve to
the second, which on homology vectors is

    (x, y) * (x', y')  =  (x + d x', y + d y'),

where d = sign(x y' - x' y) when the vectors are independent and d = sign(k)
when (x, y) = k (x', y').  All arithmetic is plain Python integers, so values
can grow without bound and never wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Tuple

from .errors import (
    InvalidBound,
    InvalidChoice,
    InvalidClass,
    InvalidExponent,
    InvalidProfile,
    NotSimpleLoop,
    OutsideProfile,
)

__all__ = [
    "TorusClass",
    "ConvexityProfile",
    "normalize",
    "intersection",
    "multiply",
    "power",
    "signed_power_multiply",
    "dehn_twist",
    "convexity_profile",
    "enumerate_classes",
    "enumerate_primitive_classes",
]


@dataclass(frozen=True, order=True, init=False)
class TorusClass:
    """A nonzero vector up to sign, stored with x > 0 or (x = 0, y > 0).

    Every instance is built by ``__init__``, which checks and normalises its
    arguments and then writes each slot once through the slot's descriptor,
    past the frozen class's ``__setattr__``.  The slots are declared in the
    body rather than with ``slots=True``, which would re-create the class and
    leave the generated ``__setattr__`` raising ``TypeError`` instead of
    ``FrozenInstanceError`` for names that are not fields.
    """

    __slots__ = ("x", "y")
    x: int
    y: int

    def __init__(self, x: int, y: int) -> None:
        # Exactly int: a bool is not a coordinate.
        if type(x) is not int or type(y) is not int:
            raise InvalidClass(f"integer coordinates required, got ({x!r}, {y!r})")
        if x == 0 and y == 0:
            raise InvalidClass("the zero vector does not represent a curve system")
        if x < 0 or (x == 0 and y < 0):
            x = -x
            y = -y
        _set_x(self, x)
        _set_y(self, y)

    @property
    def multiplicity(self) -> int:
        """Number of parallel copies of the underlying primitive loop."""
        return gcd(abs(self.x), abs(self.y))

    def primitive(self) -> "TorusClass":
        d = self.multiplicity
        return TorusClass(self.x // d, self.y // d)

    def is_primitive(self) -> bool:
        return self.multiplicity == 1

    def __reduce__(self):
        # Copies and unpickled instances are built by __init__ too.
        return (TorusClass, (self.x, self.y))

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


# The slot descriptors' setters, bound once: TorusClass.__init__ calls them.
_set_x = TorusClass.x.__set__
_set_y = TorusClass.y.__set__


def normalize(x: int, y: int) -> TorusClass:
    """Canonical representative of the sign orbit of (x, y)."""
    return TorusClass(x, y)


def intersection(a: TorusClass, b: TorusClass) -> int:
    """Geometric intersection number |x y' - x' y|; zero iff parallel."""
    return abs(a.x * b.y - b.x * a.y)


def _delta(a: TorusClass, b: TorusClass) -> int:
    d = a.x * b.y - b.x * a.y
    if d != 0:
        return 1 if d > 0 else -1
    # Parallel case: with both representatives canonical, a = k b has k > 0.
    return 1


def multiply(a: TorusClass, b: TorusClass) -> TorusClass:
    """Resolution product a * b.  Non-commutative when the classes cross."""
    d = _delta(a, b)
    return TorusClass(a.x + d * b.x, a.y + d * b.y)


def power(a: TorusClass, k: int) -> TorusClass:
    """k parallel copies of a, k >= 1."""
    if type(k) is not int or k < 1:
        raise InvalidExponent(f"exponent must be a positive integer, got {k!r}")
    return TorusClass(k * a.x, k * a.y)


def signed_power_multiply(a: TorusClass, n: int, b: TorusClass) -> TorusClass:
    """a^n b for any integer n, with a^n b meaning b a^(-n) when n < 0.

    When a and b cross, this equals the closed form
    normalize(d*n*a.x + b.x, d*n*a.y + b.y) with d = sign(a.x b.y - b.x a.y);
    the test suite checks that identity against this definitional path.
    """
    if n == 0:
        return b
    if n > 0:
        return multiply(power(a, n), b)
    return multiply(b, power(a, -n))


def dehn_twist(a: TorusClass, b: TorusClass, direction: str = "positive") -> TorusClass:
    """Image of b under the Dehn twist along the simple loop a.

    The positive twist sends b to a^k b with k = intersection(a, b); the
    negative twist is its inverse, a^(-k) b.
    """
    if not a.is_primitive():
        raise NotSimpleLoop(f"{a} is {a.multiplicity} parallel loops, not a simple loop")
    if direction not in ("positive", "negative"):
        raise InvalidChoice(f"direction must be 'positive' or 'negative', got {direction!r}")
    k = intersection(a, b)
    return signed_power_multiply(a, k if direction == "positive" else -k, b)


@dataclass(frozen=True)
class ConvexityProfile:
    """Values f(n) = I(a^n b, g) over a window of integers n.

    Construction re-checks the midpoint convexity 2 f(i) <= f(i-1) + f(i+1);
    a violation would mean a bug in the algebra, so it raises rather than
    storing an inconsistent profile.
    """

    alpha: TorusClass
    beta: TorusClass
    gamma: TorusClass
    n_min: int
    n_max: int
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        _check_range(self.n_min, self.n_max)
        if len(self.values) != self.n_max - self.n_min + 1:
            raise InvalidProfile("values length does not match the range")
        if any(type(v) is not int for v in self.values):
            raise InvalidProfile(f"intersection numbers are integers: {self.values}")
        if any(v < 0 for v in self.values):
            raise InvalidProfile("intersection numbers are non-negative")
        for i in range(1, len(self.values) - 1):
            if 2 * self.values[i] > self.values[i - 1] + self.values[i + 1]:
                raise InvalidProfile(
                    f"profile not midpoint convex at n={self.n_min + i}: {self.values}"
                )

    def value_at(self, n: int) -> int:
        if type(n) is not int:
            raise OutsideProfile(f"n={n!r} is not an integer")
        if not self.n_min <= n <= self.n_max:
            raise OutsideProfile(f"n={n} outside {self.n_min}..{self.n_max}")
        return self.values[n - self.n_min]


def _check_range(n_min: int, n_max: int) -> None:
    if type(n_min) is not int or type(n_max) is not int:
        raise InvalidBound(f"non-integer range {n_min!r}..{n_max!r}")
    if n_min > n_max:
        raise InvalidBound(f"empty range {n_min}..{n_max}")


def convexity_profile(
    a: TorusClass, b: TorusClass, g: TorusClass, n_min: int, n_max: int
) -> ConvexityProfile:
    """Profile of I(a^n b, g) for n in n_min..n_max."""
    _check_range(n_min, n_max)
    values = tuple(
        intersection(signed_power_multiply(a, n, b), g) for n in range(n_min, n_max + 1)
    )
    return ConvexityProfile(a, b, g, n_min, n_max, values)


def enumerate_classes(bound: int) -> List[TorusClass]:
    """All distinct classes with a representative in |x|, |y| <= bound, sorted."""
    if type(bound) is not int or bound < 1:
        raise InvalidClass(f"bound must be an integer >= 1, got {bound!r}")
    out = set()
    for x in range(0, bound + 1):
        for y in range(-bound, bound + 1):
            if x == 0 and y <= 0:
                continue
            out.add(TorusClass(x, y))
    return sorted(out)


def enumerate_primitive_classes(bound: int) -> List[TorusClass]:
    """The primitive classes within the same window."""
    return [c for c in enumerate_classes(bound) if c.is_primitive()]
