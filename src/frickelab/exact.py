"""Exact coordinate types shared by every surface law.

Everything in here is exact: arbitrary-precision rationals, primitive
integer projective vectors, quadratic irrationals stored symbolically,
and the line-cubic intersection oracle.  No floating point exists in
this module (or anywhere else in the package).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rat = Union[int, Fraction]


class DomainError(ValueError):
    """Base class for precondition violations on exact-geometry inputs."""


class ZeroVector(DomainError):
    pass


class SingularPoint(DomainError):
    pass


class OffSurface(DomainError):
    pass


class CoincidentPoints(DomainError):
    pass


class OriginOperand(DomainError):
    pass


class ZeroArgument(DomainError):
    pass


# ---------------------------------------------------------------------------
# rationals: parsing and wire format


def parse_rational(text: str) -> Fraction:
    """Parse the "num/den" wire form (den optional) into a Fraction.

    Raises ValueError on malformed text, a zero denominator included.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Rat) -> str:
    """Serialize exactly: "num/den", with "/den" omitted when den == 1."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# projective points


@dataclass(frozen=True, slots=True)
class ProjectivePoint:
    """Primitive integer homogeneous coordinates, first nonzero entry > 0.

    Covers both the plane ([p:q:r]) and space ([x:y:z:s]) flavors; the
    length of ``coords`` tells them apart.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.coords):
            raise ZeroVector("all projective coordinates are zero")
        g = math.gcd(*self.coords)
        if g != 1:
            raise ValueError(f"coordinates not primitive: {self.coords}")
        first = next(c for c in self.coords if c != 0)
        if first < 0:
            raise ValueError(f"sign not normalized: {self.coords}")

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def normalize_projective(values: Sequence[Rat]) -> ProjectivePoint:
    """Clear denominators, divide by the gcd, and fix the sign.

    Idempotent and invariant under scaling by any nonzero rational.
    """
    fracs = [Fraction(v) for v in values]
    if not any(fracs):
        raise ZeroVector("all projective coordinates are zero")
    lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * lcm) for f in fracs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    first = next(c for c in ints if c != 0)
    if first < 0:
        ints = [-c for c in ints]
    return ProjectivePoint(tuple(ints))


def parse_projective(text: str) -> ProjectivePoint:
    """Parse "[p:q:...]" (brackets optional) into a normalized point."""
    body = text.strip().lstrip("[").rstrip("]")
    return normalize_projective([parse_rational(part) for part in body.split(":")])


# ---------------------------------------------------------------------------
# quadratic irrationals


def _square_part(n: int) -> int:
    """Largest s with s**2 | n (n > 0)."""
    s = 1
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            s *= k
        k += 1
    return s


@dataclass(frozen=True, slots=True)
class QuadraticIrrational:
    """The exact value (a + b*sqrt(d)) / c with d > 1 squarefree, b != 0.

    Invariants: c > 0, gcd(a, b, c) == 1.  The minimal integer quadratic
    A*t**2 + B*t + C with this value as a root is available from
    :meth:`minimal_quadratic`.
    """

    a: int
    b: int
    d: int
    c: int

    def __post_init__(self) -> None:
        if self.b == 0 or self.d <= 1 or self.c <= 0:
            raise ValueError("not a normalized quadratic irrational")
        if math.isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"d={self.d} is a perfect square")
        if _square_part(self.d) != 1:
            raise ValueError(f"d={self.d} is not squarefree")
        if math.gcd(self.a, self.b, self.c) != 1:
            raise ValueError("coordinates not primitive")

    def __str__(self) -> str:
        sign = "+" if self.b >= 0 else "-"
        return f"({self.a}{sign}{abs(self.b)}√{self.d})/{self.c}"

    def minimal_quadratic(self) -> tuple[int, int, int]:
        """Primitive (A, B, C), A > 0, with A*t^2 + B*t + C = 0 at this value."""
        A = self.c * self.c
        B = -2 * self.a * self.c
        C = self.a * self.a - self.b * self.b * self.d
        g = math.gcd(A, B, C)
        return (A // g, B // g, C // g)

    def conjugate(self) -> "QuadraticIrrational":
        return QuadraticIrrational(self.a, -self.b, self.d, self.c)

    # exact arithmetic; mixed operands must share the same radicand ------

    def _parts(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.a, self.c), Fraction(self.b, self.c))

    def __add__(self, other):
        ra, rb = self._parts()
        if isinstance(other, QuadraticIrrational):
            if other.d != self.d:
                return NotImplemented
            oa, ob = other._parts()
            return make_quadratic(ra + oa, rb + ob, self.d)
        if isinstance(other, (int, Fraction)):
            return make_quadratic(ra + other, rb, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadraticIrrational(-self.a, -self.b, self.d, self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ra, rb = self._parts()
        if isinstance(other, QuadraticIrrational):
            if other.d != self.d:
                return NotImplemented
            oa, ob = other._parts()
            return make_quadratic(ra * oa + rb * ob * self.d, ra * ob + rb * oa, self.d)
        if isinstance(other, (int, Fraction)):
            return make_quadratic(ra * other, rb * other, self.d)
        return NotImplemented

    __rmul__ = __mul__


def make_quadratic(a: Rat, b: Rat, d: int):
    """Build (a + b*sqrt(d)) from rational parts, normalizing the radicand.

    Returns a plain Fraction when the irrational part vanishes or d turns
    out to be a perfect square.
    """
    a, b = Fraction(a), Fraction(b)
    if d <= 0:
        raise ValueError("radicand must be positive")
    if b == 0:
        return a
    s = _square_part(d)
    d //= s * s
    b *= s
    if d == 1:
        return a + b
    c = math.lcm(a.denominator, b.denominator)
    ai, bi = int(a * c), int(b * c)
    g = math.gcd(ai, bi, c)
    return QuadraticIrrational(ai // g, bi // g, d, c // g)


def sqrt_exact(q: Rat):
    """Exact square root of a nonnegative rational.

    Returns a Fraction when q is a perfect rational square, otherwise a
    QuadraticIrrational equal to sqrt(q).
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    # sqrt(p/q) = sqrt(p*q)/q
    return make_quadratic(0, Fraction(1, q.denominator), q.numerator * q.denominator)


def is_rational_square(q: Rat) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    return (
        math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


# ---------------------------------------------------------------------------
# slopes


class _Vertical:
    """Sentinel slope of a vertical line (the two points share their x)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "AT_INFINITY"


AT_INFINITY = _Vertical()

Slope = Union[Fraction, _Vertical]


def slope_between(p1: tuple[Rat, Rat], p2: tuple[Rat, Rat]) -> Slope:
    """Slope of the line through two distinct plane points."""
    (x1, z1), (x2, z2) = p1, p2
    if x1 == x2:
        if z1 == z2:
            raise CoincidentPoints("slope of a point pair needs distinct points")
        return AT_INFINITY
    return Fraction(Fraction(z2) - Fraction(z1), Fraction(x2) - Fraction(x1))


# ---------------------------------------------------------------------------
# the surfaces


@dataclass(frozen=True, slots=True)
class Surface:
    """The cubic surface Q(x, y, z) - kappa*x*y*z = sigma.

    Q = x^2 + y^2 + z^2 + 2*cross*(xy + yz + zx) with cross 0 or 1: the
    sum of squares of the Fricke surface, or the squared sum (x + y + z)^2
    of the double surface.  The secant, Vieta, plane-transfer and section
    laws are all derived from this record.
    """

    name: str
    kappa: int
    cross: int
    sigma: Fraction = Fraction(0)

    def quad(self, x: Rat, y: Rat, z: Rat = 0):
        """Q(x, y, z)."""
        if self.cross:
            return (x + y + z) ** 2
        return x * x + y * y + z * z

    def bilinear(self, p: Sequence[Rat], q: Sequence[Rat]):
        """The symmetric bilinear form B of Q, with B(p, p) = Q(p)."""
        if self.cross:
            return (p[0] + p[1] + p[2]) * (q[0] + q[1] + q[2])
        return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]

    def other_root(self, u: Rat, v: Rat, w: Rat):
        """Vieta's move: the root w' beside w of the equation in one coordinate.

        With the other two coordinates u, v fixed the surface equation is a
        monic quadratic, so w + w' = kappa*u*v - 2*cross*(u + v).
        """
        if self.cross:
            return self.kappa * u * v - 2 * (u + v) - w
        return self.kappa * u * v - w


FRICKE = Surface("fricke", 3, 0)
DOUBLE = Surface("double", 9, 1)
SURFACES = {s.name: s for s in (FRICKE, DOUBLE)}


# ---------------------------------------------------------------------------
# the line-cubic oracle
#
# The secant composition laws are all verified against this: substitute the
# parametrized line into the cubic surface polynomial, deflate the resulting
# cubic in t by its two known roots t=0 and t=1, and read off the third root.


@dataclass(frozen=True, slots=True)
class LineParameter:
    """Parameter t on the segment Q + t*(P - Q); t=0 is Q, t=1 is P."""

    t: Fraction


class _Degenerate:
    __slots__ = ()

    def __repr__(self) -> str:
        return "DEGENERATE_CUBIC"


DEGENERATE_CUBIC = _Degenerate()

Triple = tuple[Fraction, Fraction, Fraction]


def surface_defect(surface: str, p: Sequence[Rat], sigma: Rat = 0) -> Fraction:
    """LHS minus RHS of the selected surface equation; zero iff on surface."""
    x, y, z = (Fraction(v) for v in p)
    if surface == "fricke":
        defect = x * x + y * y + z * z - 3 * x * y * z
    elif surface == "double":
        defect = (x + y + z) ** 2 - 9 * x * y * z
    else:
        raise ValueError(f"unknown surface id: {surface!r}")
    return defect - Fraction(sigma) if sigma else defect


def _poly_mul(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def line_point(p: Sequence[Rat], q: Sequence[Rat], t: Rat) -> Triple:
    """Evaluate the line Q + t*(P - Q) at parameter t."""
    t = Fraction(t)
    return tuple(Fraction(qi) + t * (Fraction(pi) - Fraction(qi)) for pi, qi in zip(p, q))


def line_third_intersection(
    p: Sequence[Rat], q: Sequence[Rat], surface: str, sigma: Rat = 0
):
    """Third intersection parameter of the line PQ with the surface.

    Both points must lie on the surface, so t=0 and t=1 are roots of the
    substituted cubic; the remaining root is returned.  When the cubic's
    leading coefficient vanishes (the line meets the surface again only at
    infinity) the DEGENERATE_CUBIC flag is returned instead.
    """
    pf = tuple(Fraction(v) for v in p)
    qf = tuple(Fraction(v) for v in q)
    if pf == qf:
        raise CoincidentPoints(f"{p} == {q}")
    if not any(pf) or not any(qf):
        raise OriginOperand("the surface origin has no secant composition")
    for pt in (pf, qf):
        if surface_defect(surface, pt, sigma) != 0:
            raise OffSurface(f"{pt} is not on {surface}")

    # each coordinate is linear in t: [constant, slope]
    lx, ly, lz = ([qi, pi - qi] for pi, qi in zip(pf, qf))
    if surface == "fricke":
        poly = [Fraction(0)] * 4
        for lin in (lx, ly, lz):
            sq = _poly_mul(lin, lin)
            for i, c in enumerate(sq):
                poly[i] += c
        cube = _poly_mul(_poly_mul(lx, ly), lz)
        for i, c in enumerate(cube):
            poly[i] -= 3 * c
        poly[0] -= Fraction(sigma)
    elif surface == "double":
        s = [lx[0] + ly[0] + lz[0], lx[1] + ly[1] + lz[1]]
        poly = [Fraction(0)] * 4
        for i, c in enumerate(_poly_mul(s, s)):
            poly[i] += c
        for i, c in enumerate(_poly_mul(_poly_mul(lx, ly), lz)):
            poly[i] -= 9 * c
        poly[0] -= Fraction(sigma)
    else:
        raise ValueError(f"unknown surface id: {surface!r}")

    c0, c1, c2, c3 = poly
    assert c0 == 0 and c0 + c1 + c2 + c3 == 0, "operands must be surface points"
    if c3 == 0:
        return DEGENERATE_CUBIC
    # poly == c3 * t * (t - 1) * (t - t3)  =>  t3 = -(c2 + c3) / c3
    return LineParameter(-(c2 + c3) / c3)
