"""Intersection numbers along twist orbits are convex.

f(n) = I(a^n b, g) is a convex function of the twisting exponent n: it
decreases to a minimum and climbs back out, like |2n - 1| below.  The same
holds for iterated Dehn twists, since D_a^n(b) = a^(kn) b with k = I(a, b).
"""

from curvesys import convexity_profile, dehn_twist, normalize

a, b, g = normalize(1, 0), normalize(0, 1), normalize(1, 2)

profile = convexity_profile(a, b, g, -6, 6)
print("n:     ", list(range(-6, 7)))
print("f(n):  ", list(profile))

# A crude terminal plot.
peak = max(profile)
for height in range(peak, 0, -2):
    row = "".join(" #"[v >= height] * 3 for v in profile)
    print(f"{height:3d} |{row}")
print("     " + "".join(f"{n:3d}" for n in range(-6, 7)))

# The twisted profile is the same sequence, reached by actual twist moves.
cur = b
twisted = {0: b}
for n in range(1, 7):
    cur = dehn_twist(a, cur, "positive")
    twisted[n] = cur
cur = b
for n in range(-1, -7, -1):
    cur = dehn_twist(a, cur, "negative")
    twisted[n] = cur
from curvesys import intersection  # noqa: E402

print("twist orbit values:", [intersection(twisted[n], g) for n in range(-6, 7)])

# Parallel a and b give affine profiles (also convex).
print("parallel case:", convexity_profile(normalize(1, 1), normalize(1, 1), normalize(0, 1), 1, 5))
