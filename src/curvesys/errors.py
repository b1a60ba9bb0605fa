"""Exception hierarchy shared by all curvesys modules."""


class CurveSysError(Exception):
    """Base class for every error raised by this package."""


class InvalidChoice(CurveSysError, ValueError):
    """A string argument outside its allowed values (twist direction, smoothing convention)."""


# ---- torus algebra ----

class InvalidClass(CurveSysError, ValueError):
    """A torus class was built from the zero vector or non-integers, or
    enumerate_classes was given a bound that is not an integer >= 1."""


class InvalidExponent(CurveSysError, ValueError):
    """power() needs a positive integer exponent."""


class NotSimpleLoop(CurveSysError, ValueError):
    """Dehn twists are only defined along primitive (single-loop) classes."""


class InvalidProfile(CurveSysError, ValueError):
    """Convexity profile values that do not fit the range, are negative or are not convex."""


class OutsideProfile(CurveSysError, IndexError):
    """A convexity profile was read at an n outside its range, or at a non-integer n."""


# ---- scene engine ----

class SceneError(CurveSysError):
    """Base class for scene-structure violations."""


class InvalidScene(SceneError):
    """Generic structural violation (duplicate ids, bad degrees, ...)."""


class DanglingHalfEdge(SceneError):
    """A half-edge is missing from, or repeated in, the vertex/edge tables."""


class NonAlternatingCrossing(SceneError):
    """A 4-valent vertex whose cyclic curve labels are not A,B,A,B with A != B."""


class NonCellular(SceneError):
    """The scene does not encode the surface a question needs (not cellular, or no markers)."""


class NonOrientableOrCorrupt(SceneError):
    """Euler bookkeeping produced an impossible genus."""


class UnknownCurve(SceneError, KeyError):
    """A curve id that the scene does not contain."""

    __str__ = Exception.__str__  # KeyError's own would quote the message


class BigonPresent(SceneError):
    """Refusing to resolve a pair of curves that still bounds a bigon."""


class SelfCrossingCurve(SceneError):
    """parallel_copies needs a single embedded loop as its template."""


class InvalidCount(CurveSysError, ValueError):
    """parallel_copies needs a positive integer number of copies."""


class ParallelSlopes(SceneError, ValueError):
    """torus_grid_scene needs two non-parallel direction vectors."""


# ---- twist coordinates ----

class DTError(CurveSysError):
    """Base class for pants-decomposition / twist-coordinate errors."""


class SlotReuse(DTError):
    """A pants slot appears in more than one gluing pair."""


class CountMismatch(DTError):
    """Malformed pants data or coordinates: a bad slot address, duplicate or
    unknown pants, pants that do not glue into one connected surface, entry
    counts that do not fit the decomposition, negative intersection
    coordinates, bad twist exponents, or an unreadable coordinate file."""


class ParityViolation(DTError):
    """Some pants sees an odd total of strand ends."""


class NegativeTwistOnMissedCurve(DTError):
    """t_i < 0 while m_i = 0 (parallel copies cannot be negative)."""


class UnknownCurveIndex(DTError, IndexError):
    """A pants-curve index outside 1..C."""


class TwistOnMissedCurve(DTError):
    """k_i != 0 requested where m_i = 0."""


class IntersectionMismatch(DTError):
    """solve_twists needs coordinates with identical m and b vectors."""


class MissedCurveTwistMismatch(DTError):
    """t_i differ on a curve with m_i = 0: not reachable by twisting."""


# ---- harness ----

class InvalidBound(CurveSysError, ValueError):
    """A bound, trial count or range that is not an integer in range (suite
    bounds, a convexity profile's n range), or an unknown suite name."""


class WorkerDied(CurveSysError):
    """A verification worker process ended before returning its suite's report."""
