"""Secant laws of the surfaces Q(x, y, z) - kappa*xyz = sigma.

Membership, the Viete generators, the rational chart of the Fricke
surface x^2 + y^2 + z^2 = 3xyz, the secant composition law with its
degenerate cases, the star law, and the transferred structures on the
projective plane.  Each law reads Q and kappa from a ``Surface`` record,
the Fricke surface by default, so the same code serves the double
surface (x + y + z)^2 = 9xyz.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

from .exact import (
    FRICKE,
    DomainError,
    OffSurface,
    ProjectivePoint,
    Rat,
    SingularPoint,
    Surface,
    ZeroArgument,
    normalize_projective,
    surface_defect,
)


class SigmaUnsupported(DomainError):
    pass


class BasePointUndefined(DomainError):
    pass


class UndefinedImage(DomainError):
    pass


def FrickeSurface(sigma: Rat = 0) -> Surface:
    """The Fricke record shifted to x^2 + y^2 + z^2 - 3xyz = sigma."""
    return replace(FRICKE, sigma=Fraction(sigma))


@dataclass(frozen=True, slots=True)
class SurfacePoint:
    """An affine point validated to lie on its surface exactly."""

    x: Fraction
    y: Fraction
    z: Fraction
    surface: Surface

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))
        object.__setattr__(self, "z", Fraction(self.z))
        s = self.surface
        if surface_defect(s.name, (self.x, self.y, self.z), s.sigma) != 0:
            raise OffSurface(f"({self.x}, {self.y}, {self.z}) is not on the surface")

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    @property
    def is_origin(self) -> bool:
        return self.x == self.y == self.z == 0


@dataclass(frozen=True, slots=True)
class FrickePoint(SurfacePoint):
    """A point of the Fricke surface, or of the surface given."""

    surface: Surface = FRICKE


# -- composition results ----------------------------------------------------

UNDEFINED_COINCIDENT = "coincident-points"
UNDEFINED_ORIGIN = "origin-operand"
UNDEFINED_SECANT_AT_INFINITY = "secant-at-infinity"


@dataclass(frozen=True, slots=True)
class Finite:
    point: SurfacePoint


@dataclass(frozen=True, slots=True)
class Infinite:
    """Composition escaped to one of the three lines at infinity (s = 0)."""

    point: ProjectivePoint

    def __post_init__(self) -> None:
        assert self.point.coords[-1] == 0


@dataclass(frozen=True, slots=True)
class Undefined:
    reason: str


ComposeResult = Union[Finite, Infinite, Undefined]


# -- Viete generators ---------------------------------------------------------


def viete(p: SurfacePoint, generator: str) -> SurfacePoint:
    """Apply L: (x,y,z) -> (x, z', y) or R: (x,y,z) -> (y, x', z).

    z' and x' are the other roots of Vieta's move; on the Fricke surface
    L is (x, 3xy-z, y) and R is (y, 3yz-x, z).
    """
    s = p.surface
    if s.sigma != 0:
        raise SigmaUnsupported("Viete generators are stated for sigma = 0 only")
    x, y, z = p.coords
    if generator == "L":
        return type(p)(x, s.other_root(x, y, z), y, s)
    if generator == "R":
        return type(p)(y, s.other_root(y, z, x), z, s)
    raise ValueError(f"generator must be 'L' or 'R', got {generator!r}")


# -- parametrizations ---------------------------------------------------------


def phi(p: ProjectivePoint, surface: Surface = FRICKE) -> ProjectivePoint:
    """Parametrize the projectivized surface by the plane.

    [p:q:r] -> [p*s : q*s : r*s : kappa*pqr] with s = Q(p, q, r).  Total
    over the rationals on the Fricke surface (p^2+q^2+r^2 = 0 has no
    rational points).
    """
    a, b, c = p.coords
    s = surface.quad(a, b, c)
    return normalize_projective([a * s, b * s, c * s, surface.kappa * a * b * c])


def psi(p: ProjectivePoint) -> ProjectivePoint:
    """Inverse of phi: forget the last coordinate."""
    x, y, z, s = p.coords
    if x == y == z == 0:
        raise SingularPoint("[0:0:0:1] has no image under psi")
    return normalize_projective([x, y, z])


def param_affine(P: Rat, Q: Rat) -> FrickePoint:
    """The affine chart (P,Q) -> ((P^2+Q^2+1)/3Q, ./3P, ./3PQ)."""
    P, Q = Fraction(P), Fraction(Q)
    if P == 0 or Q == 0:
        raise ZeroArgument("chart parameters must be nonzero")
    s = P * P + Q * Q + 1
    return FrickePoint(s / (3 * Q), s / (3 * P), s / (3 * P * Q))


def param_affine_inverse(p: FrickePoint) -> tuple[Fraction, Fraction]:
    """Chart coordinates (x/z, y/z) of a point with z != 0."""
    if p.z == 0:
        raise ZeroArgument("chart inverse needs z != 0")
    return (p.x / p.z, p.y / p.z)


# -- the secant composition ---------------------------------------------------


def compose(p: SurfacePoint, q: SurfacePoint) -> ComposeResult:
    """Third intersection of the line pq with the surface.

    Finite when all three coordinate differences are nonzero; otherwise
    the answer lives on a line at infinity and is projectivized.  With B
    the bilinear form of Q, x = (kappa*(ank + bcm) - 2*(B(p, q) - sigma))
    / (kappa*(b - n)*(c - k)), and y, z follow by symmetry.
    """
    if p.surface != q.surface:
        raise ValueError("operands live on different surfaces")
    (a, b, c), (m, n, k) = p.coords, q.coords
    if (a, b, c) == (m, n, k):
        return Undefined(UNDEFINED_COINCIDENT)
    if p.is_origin or q.is_origin:
        return Undefined(UNDEFINED_ORIGIN)
    da, db, dc = a - m, b - n, c - k
    if da and db and dc:
        s = p.surface
        kappa = s.kappa
        w = 2 * (s.bilinear(p.coords, q.coords) - s.sigma)
        x = (kappa * (a * n * k + b * c * m) - w) / (kappa * db * dc)
        y = (kappa * (b * m * k + a * c * n) - w) / (kappa * da * dc)
        z = (kappa * (c * m * n + a * b * k) - w) / (kappa * da * db)
        return Finite(type(p)(x, y, z, s))
    # the line meets the surface again at infinity: when a = m the third
    # point is [0 : b-n : c-k : 0], and the other vanishing patterns follow
    # by the symmetry of the equation
    return Infinite(normalize_projective([da, db, dc, 0]))


def compose_alternative(p: FrickePoint, q: FrickePoint) -> FrickePoint:
    """Factored form of the finite composition (sigma = 0 only).

    Valid when all coordinate differences and all six coordinates are
    nonzero; agrees with :func:`compose` coordinatewise.
    """
    (a, b, c), (m, n, k) = p.coords, q.coords
    u, v, w = a * n - b * m, a * k - m * c, b * k - c * n
    x = (u * u + v * v) / (3 * a * m * (b - n) * (c - k))
    y = (w * w + u * u) / (3 * b * n * (a - m) * (c - k))
    z = (v * v + w * w) / (3 * c * k * (a - m) * (b - n))
    return FrickePoint(x, y, z)


ONE = FrickePoint(1, 1, 1)


def star(p: FrickePoint, q: FrickePoint) -> ComposeResult:
    """(1,1,1) o (p o q): commutative with identity (1,1,1), not associative."""
    inner = compose(p, q)
    if isinstance(inner, Undefined):
        return inner
    if isinstance(inner, Infinite):
        return Undefined(UNDEFINED_SECANT_AT_INFINITY)
    return compose(ONE, inner.point)


# -- transfers to the projective plane ---------------------------------------


def p2_viete(p: ProjectivePoint, generator: str, surface: Surface = FRICKE) -> ProjectivePoint:
    """Viete generators conjugated through phi onto the plane.

    L: [p:q:r] -> [pr : Q(p, q, 0) : qr], R: [qp : Q(q, r, 0) : pr].
    """
    a, b, c = p.coords
    if generator == "L":
        image = [a * c, surface.quad(a, b), b * c]
    elif generator == "R":
        image = [b * a, surface.quad(b, c), a * c]
    else:
        raise ValueError(f"generator must be 'L' or 'R', got {generator!r}")
    if not any(image):
        raise BasePointUndefined(f"{p} is a base point of the transferred map")
    return normalize_projective(image)


def p2_involution(p: ProjectivePoint, which: int, surface: Surface = FRICKE) -> ProjectivePoint:
    """The three birational involutions obtained by permuting the transfer."""
    a, b, c = p.coords
    if which == 1:
        image = [a * c, b * c, surface.quad(a, b)]
    elif which == 2:
        image = [surface.quad(b, c), a * b, a * c]
    elif which == 3:
        image = [a * b, surface.quad(a, c), c * b]
    else:
        raise ValueError("which must be 1, 2 or 3")
    if not any(image):
        raise UndefinedImage(f"involution {which} is undefined at {p}")
    return normalize_projective(image)


def p2_compose(
    p: ProjectivePoint, q: ProjectivePoint, surface: Surface = FRICKE
) -> ProjectivePoint:
    """The secant composition conjugated through phi onto the plane.

    The kernels are Q(u, v, 0), Q(u, -w, 0) and Q(v, w, 0): u^2 + v^2 on
    the Fricke surface, (u + v)^2 on the double surface.
    """
    (a, b, c), (m, n, k) = p.coords, q.coords
    s1 = surface.quad(a, b, c)
    s2 = surface.quad(m, n, k)
    u, v, w = a * n - b * m, a * k - c * m, b * k - c * n
    image = [
        (s1 * k * n - s2 * b * c) * surface.quad(u, v),
        (s1 * k * m - s2 * a * c) * surface.quad(u, -w),
        (s1 * m * n - s2 * b * a) * surface.quad(v, w),
    ]
    if not any(image):
        raise UndefinedImage("transferred composition vanishes identically here")
    return normalize_projective(image)
