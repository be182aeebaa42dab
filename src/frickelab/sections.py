"""Quadric sections y = n0 of the surfaces.

A section is a conic in the (x,z) plane: x^2 + n0^2 + z^2 = 3*x*n0*z on
the Fricke surface, and in general
x^2 + z^2 + beta*x*z + gamma*(x + z) + n0^2 - sigma = 0, with
(beta, gamma) = (2*cross - kappa*n0, 2*cross*n0) read from the frame's
``Surface`` record.  With a base point O = (m0, k0) it carries a
commutative group law: A + B is the second intersection with the conic
of the line through O parallel to the chord AB.  The module also covers
the points at infinity (minus continued fractions), the dihedral integral
transforms of the Fricke sections, and their Chebyshev-like closed forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    AT_INFINITY,
    FRICKE,
    DomainError,
    Rat,
    Slope,
    Surface,
    common_denominator,
    is_rational_square,
    slope_between,
    sqrt_exact,
)


class OffSection(DomainError):
    pass


class DenominatorVanishes(DomainError):
    """The chord is parallel to an asymptote; the sum is at infinity."""


class IndexZero(DomainError):
    pass


@dataclass(frozen=True, slots=True)
class SectionFrame:
    """A section plane y = n0 together with the base point O = (m0, k0)."""

    m0: Fraction
    n0: Fraction
    k0: Fraction
    surface: Surface = FRICKE

    def __post_init__(self) -> None:
        object.__setattr__(self, "m0", Fraction(self.m0))
        object.__setattr__(self, "n0", Fraction(self.n0))
        object.__setattr__(self, "k0", Fraction(self.k0))
        if not self.contains(self.m0, self.k0):
            raise OffSection(f"({self.m0}, {self.n0}, {self.k0}) is not on the surface")
        if self.n0 == 0:
            raise OffSection("n0 = 0 degenerates the section")

    @property
    def origin(self) -> "SectionPoint":
        return SectionPoint(self.m0, self.k0, self)

    @property
    def is_fundamental(self) -> bool:
        """Positive integral triple whose middle entry is the maximum."""
        triple = (self.m0, self.n0, self.k0)
        return (
            all(v.denominator == 1 and v > 0 for v in triple)
            and self.n0 == max(triple)
        )

    @property
    def conic(self) -> tuple[Fraction, Fraction]:
        """(beta, gamma) of the section conic."""
        s = self.surface
        return (2 * s.cross - s.kappa * self.n0, 2 * s.cross * self.n0)

    def contains(self, x: Rat, z: Rat) -> bool:
        return self.surface.defect((x, self.n0, z)) == 0


@dataclass(frozen=True, slots=True)
class SectionPoint:
    x: Fraction
    z: Fraction
    frame: SectionFrame

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "z", Fraction(self.z))
        if not self.frame.contains(self.x, self.z):
            raise OffSection(f"({self.x}, {self.z}) is not on the section")

    @property
    def xy(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.z)


def solve_z(frame: SectionFrame, x: Rat) -> list[SectionPoint]:
    """All rational z with (x, z) on the section: 0, 1 or 2 points.

    Empty when the discriminant of the quadratic in z, on the Fricke
    surface 9*x^2*n0^2 - 4*(n0^2 + x^2), is not the square of a rational.
    """
    x = Fraction(x)
    beta, gamma = frame.conic
    lin = beta * x + gamma
    # the constant term of the quadratic in z is the defect at z = 0
    disc = lin * lin - 4 * frame.surface.defect((x, frame.n0, 0))
    if disc < 0 or not is_rational_square(disc):
        return []
    root = sqrt_exact(disc)
    if root == 0:
        return [SectionPoint(x, -lin / 2, frame)]
    return [
        SectionPoint(x, (-lin - root) / 2, frame),
        SectionPoint(x, (-lin + root) / 2, frame),
    ]


def infinity_points(frame: SectionFrame):
    """The two slopes at infinity: the roots of t^2 + beta*t + 1 = 0.

    (3*n0 +- sqrt(9*n0^2 - 4)) / 2 on the Fricke surface.  Quadratic
    irrationals in general; a pair of rationals when the radicand happens
    to be a rational square.  Their sum is -beta and their product is 1.
    An ellipse (beta^2 < 4) has none: DomainError.
    """
    beta, _gamma = frame.conic
    if beta * beta < 4:
        raise DomainError(f"beta^2 = {beta * beta} < 4: an ellipse has no real points at infinity")
    root = sqrt_exact(beta * beta - 4)
    lo = (-beta - root) * Fraction(1, 2)
    hi = (-beta + root) * Fraction(1, 2)
    return (lo, hi)


# -- dihedral transforms -------------------------------------------------------

# The transforms A, TA, C, TC, B, T of the section y = n0 are 2x2 matrices on
# the column (m, k), built from 1 and t = 3*n0; with n0 = p/q each is N/q for
# the integer matrix N = make(3*p, q), so powers are taken in integers.
_MATRICES = {
    "A": lambda t, q: ((q, 0), (t, -q)),
    "TA": lambda t, q: ((t, -q), (q, 0)),
    "C": lambda t, q: ((-q, t), (0, q)),
    "TC": lambda t, q: ((0, q), (-q, t)),
    "B": lambda t, q: ((-q, 0), (0, -q)),
    "T": lambda t, q: ((0, q), (q, 0)),
}


def _mat_mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _mat_pow(m, r: int):
    """m^r by repeated squaring: O(log r) integer matrix products."""
    if r == 0:
        return ((1, 0), (0, 1))
    half = _mat_pow(m, r // 2)
    square = _mat_mul(half, half)
    return _mat_mul(square, m) if r % 2 else square


def _power(which: str, n0: Fraction, r: int):
    """(N, scale) with N an integer matrix and N/scale the r-th power of the transform."""
    if which not in _MATRICES:
        raise ValueError(f"transform must be one of {tuple(_MATRICES)}, got {which!r}")
    q = n0.denominator
    return _mat_pow(_MATRICES[which](3 * n0.numerator, q), r), q**r


def _fricke_only(frame: SectionFrame) -> None:
    """The table is the Fricke one (the Vieta move in z does not involve
    sigma); on another surface its images leave the section."""
    name = frame.surface.name
    if name != "fricke":
        raise DomainError(f"dihedral transforms act on Fricke sections, not on the {name} surface")


def _apply(frame: SectionFrame, p: SectionPoint, which: str, r: int) -> SectionPoint:
    _fricke_only(frame)
    ((a, b), (c, d)), scale = _power(which, frame.n0, r)
    # (m, k) = (u, v)/den over a common denominator: one Fraction per coordinate
    (u, v), den = common_denominator(p.xy)
    den *= scale
    return SectionPoint(Fraction(a * u + b * v, den), Fraction(c * u + d * v, den), frame)


def dihedral(frame: SectionFrame, p: SectionPoint, which: str) -> SectionPoint:
    """The integral transforms A, TA, C, TC, B, T of the section.

    A and T are involutions, C = T*A*T, and <A, T> is the infinite
    dihedral group; every image of an integral point is integral.
    """
    return _apply(frame, p, which, 1)


def ta_power(frame: SectionFrame, p: SectionPoint, r: int, family: str = "TA") -> SectionPoint:
    """Closed form of the r-th power of TA (or TC): one integer matrix power."""
    if r < 0:
        raise IndexZero("powers are defined for r >= 0")
    if family not in ("TA", "TC"):
        raise ValueError(f"family must be 'TA' or 'TC', got {family!r}")
    return _apply(frame, p, family, r)


# -- Chebyshev-like recurrence -------------------------------------------------


def chebyshev_b(r: int, n0: Rat) -> Fraction:
    """b_r(n0) with b_0 = 1, b_1 = 3*n0, b_{r+2} = 3*n0*b_{r+1} - b_r.

    Indices -1 and -2 (values 0 and -1) are admitted: they are forced by
    running the recurrence backwards.  Read off the matrix power
    TA^r = [[b_r, -b_{r-1}], [b_{r-1}, -b_{r-2}]] at r + 2.
    """
    if r < -2:
        raise IndexZero(f"index {r} below the supported range")
    matrix, scale = _power("TA", Fraction(n0), r + 2)
    return Fraction(-matrix[1][1], scale)


def cf_convergent(frame: SectionFrame, r: int) -> Fraction:
    """r-th convergent b_r/b_{r-1} of the minus continued fraction
    ceil(3*n0 : 3*n0 : ...) converging to the larger point at infinity."""
    if r < 1:
        raise IndexZero("convergents are indexed from 1")
    _fricke_only(frame)
    matrix, _scale = _power("TA", frame.n0, r)
    return Fraction(matrix[0][0], matrix[1][0])


# -- the group law -------------------------------------------------------------


def _second_point(frame: SectionFrame, x0: Fraction, z0: Fraction, mu: Slope):
    """Second intersection with the section of the line through (x0, z0), slope mu.

    Along (x0 + u, z0 + mu*u) the conic is u*(C_x + mu*C_z) +
    u^2*(1 + beta*mu + mu^2), with the gradient (C_x, C_z) taken at
    (x0, z0); a vertical line gives the other root in z by Vieta.
    """
    if mu is AT_INFINITY:
        return SectionPoint(x0, frame.surface.other_root(x0, frame.n0, z0), frame)
    beta, gamma = frame.conic
    lead = 1 + beta * mu + mu * mu
    if lead == 0:
        raise DenominatorVanishes("line parallel to an asymptote; second point at infinity")
    cx = 2 * x0 + beta * z0 + gamma
    cz = 2 * z0 + beta * x0 + gamma
    u = -(cx + mu * cz) / lead
    return SectionPoint(x0 + u, z0 + mu * u, frame)


def tangent_slope(frame: SectionFrame, p: SectionPoint) -> Slope:
    """Slope of the tangent line to the section at p."""
    beta, gamma = frame.conic
    num = 2 * p.x + beta * p.z + gamma
    den = 2 * p.z + beta * p.x + gamma
    if den == 0:
        return AT_INFINITY
    return -num / den


def quadric_add(frame: SectionFrame, p1: SectionPoint, p2: SectionPoint) -> SectionPoint:
    """The conic group law with neutral element O."""
    if p1.xy == p2.xy:
        return quadric_double(frame, p1)
    return _second_point(frame, frame.m0, frame.k0, slope_between(p1.xy, p2.xy))


def quadric_double(frame: SectionFrame, p: SectionPoint) -> SectionPoint:
    """P + P, via the chord through O parallel to the tangent at P."""
    return _second_point(frame, frame.m0, frame.k0, tangent_slope(frame, p))


def quadric_inverse(frame: SectionFrame, p: SectionPoint) -> SectionPoint:
    """The unique S with P + S = O.

    Second intersection with the section of the line through P parallel
    to the tangent at O.
    """
    return _second_point(frame, p.x, p.z, tangent_slope(frame, frame.origin))
