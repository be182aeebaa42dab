"""The group law on a hyperplane section of the Fricke surface.

Cutting the surface with the plane y = n0 leaves the conic
x^2 + n0^2 + z^2 = 3*x*n0*z.  With a base point O it becomes a group;
this walks through the law, the dihedral transforms, and the minus
continued fraction hiding in the TA-orbit.

Run with: python3 demos/section_group.py
"""
import math
from fractions import Fraction

from frickelab import (
    SectionFrame,
    SectionPoint,
    cf_convergent,
    chebyshev_b,
    dihedral,
    infinity_points,
    quadric_add,
    quadric_double,
    quadric_inverse,
    ta_power,
)


def fmt(pair):
    return "(" + ", ".join(str(Fraction(c)) for c in pair) + ")"


def millionths(n):
    """n / 10^6 with six decimals, for n >= 0."""
    return f"{n // 10**6}.{n % 10**6:06d}"


frame = SectionFrame(1, 1, 1)
O = frame.origin

print("Section y = 1 of x^2 + y^2 + z^2 = 3xyz, base point O = (1, 1)")
print("=" * 64)

p = SectionPoint(1, 2, frame)
q = SectionPoint(2, 1, frame)
print(f"P = {fmt(p.xy)},  Q = {fmt(q.xy)}")
print(f"P + Q        = {fmt(quadric_add(frame, p, q).xy)}")
print(f"P + P        = {fmt(quadric_double(frame, p).xy)}")
print(f"-P           = {fmt(quadric_inverse(frame, p).xy)}")
print(f"P + (-P)     = {fmt(quadric_add(frame, p, quadric_inverse(frame, p)).xy)}  (= O)")

print()
print("Dihedral transforms (all preserve integrality)")
print("=" * 64)
for name in ("A", "T", "TA", "C", "TC", "B"):
    print(f"  {name:>2}(1, 2) = {fmt(dihedral(frame, p, name).xy)}")

print()
print("The TA-orbit of O is a subgroup: P_a + P_b = P_(a+b)")
print("=" * 64)
orbit = [ta_power(frame, O, r) for r in range(7)]
for r, pt in enumerate(orbit):
    print(f"  P_{r} = {fmt(pt.xy)}")
assert quadric_add(frame, orbit[2], orbit[3]).xy == orbit[5].xy
print("  check: P_2 + P_3 == P_5")

print()
print("Chebyshev-like recurrence b_r and the minus continued fraction")
print("=" * 64)
print("  b_r(1) for r = 0..6: ", [str(chebyshev_b(r, 1)) for r in range(7)])
lo, hi = infinity_points(frame)
print(f"  points at infinity:  {lo}  and  {hi}")
print("  convergents b_r/b_(r-1) marching down to the larger one:")
for r in range(1, 7):
    t = cf_convergent(frame, r)
    print(f"    r = {r}:  {t}  ~ {millionths(round(t * 10**6))}")
# (3 + sqrt 5)/2 to the nearest millionth: sqrt 5 is irrational, so there is no tie
print(f"    target {hi} ~ {millionths((3 * 10**6 + math.isqrt(5 * 10**12) + 1) // 2)}")
