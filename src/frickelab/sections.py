"""Quadric sections y = n0 of the surfaces.

A section is a conic in the (x,z) plane: x^2 + n0^2 + z^2 = 3*x*n0*z on
the Fricke surface, and in general
x^2 + z^2 + beta*x*z + gamma*(x + z) + n0^2 - sigma = 0, with
(beta, gamma) = (2*cross - kappa*n0, 2*cross*n0) read from the frame's
``Surface`` record.  With a base point O = (m0, k0) it carries a
commutative group law: A + B is the second intersection with the conic
of the line through O parallel to the chord AB (Lemmermeyer, "Conics - a
poor man's elliptic curves", arXiv:math/0311306).  Sums, doubles and
inverses share one chord: the second point on the line through a point
in an integer direction (B - A times both points' denominators, or the
tangent (C_z, -C_x) from the integer gradient, a positive multiple of
the conic's), computed in integers; the chord is homogeneous of degree 2
in the direction, so its scale does not matter.  Frames and points keep
the integer form (x, n0, z) = (X, N, Z)/d that their validation
computes; the chord reads only that form, and builds its result's form
by one content gcd over the one denominator it holds.  The node of a
section that is a line pair has no tangent: SingularPoint.  The module also
covers the points at infinity, the dihedral transforms of a section (the
frame's own Vieta moves in x and in z, the swap, and B = -1 on Fricke
sections), and their closed forms: the powers of TA and TC, b_r and the
minus continued fraction convergents all read off one Lucas sequence
U_r(-beta), computed in integers by doubling, and refused (DomainError)
when the result would pass MAX_LUCAS_BITS bits.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .exact import (
    AT_INFINITY,
    FRICKE,
    DomainError,
    Rat,
    Record,
    SingularPoint,
    Slope,
    Surface,
    _over_one_denominator,
    _quadratic,
    _setters,
    _squarefree_split,
    common_denominator,
    format_point,
    format_rational,
)


class OffSection(DomainError):
    pass


class DenominatorVanishes(DomainError):
    """The chord is parallel to an asymptote; the sum is at infinity."""


class IndexZero(DomainError):
    pass


class SectionFrame(Record):
    """A section plane y = n0 together with the base point O = (m0, k0).

    ``form`` is (M, N, K, d) with (m0, n0, k0) = (M, N, K)/d, as a point's
    (x, n0, z) = (X, N, Z)/d.
    """

    __slots__ = ("m0", "n0", "k0", "surface", "form")
    _fields = ("m0", "n0", "k0", "surface")

    def __init__(self, m0: Rat, n0: Rat, k0: Rat, surface: Surface = FRICKE) -> None:
        _set_m0(self, m0 if type(m0) is Fraction else Fraction(m0))
        _set_n0(self, n0 if type(n0) is Fraction else Fraction(n0))
        _set_k0(self, k0 if type(k0) is Fraction else Fraction(k0))
        _set_surface(self, surface)
        self.__post_init__()

    def __post_init__(self) -> None:
        form = _over_one_denominator((self.m0, self.n0, self.k0))
        if self.surface._residual(form):
            point = format_point((self.m0, self.n0, self.k0))
            raise OffSection(f"{point} is not on the surface")
        if form[1] == 0:
            raise OffSection("n0 = 0 degenerates the section")
        _set_frame_form(self, form)

    @property
    def conic(self) -> tuple[Fraction, Fraction]:
        """(beta, gamma) = (2*cross - kappa*n0, 2*cross*n0) of the section conic."""
        s, a, b = self.surface, self.n0.numerator, self.n0.denominator
        return Fraction(2 * s.cross * b - s.kappa * a, b), Fraction(2 * s.cross * a, b)

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

    def contains(self, x: Rat, z: Rat) -> bool:
        return self.surface.contains((x, self.n0, z))


_set_m0, _set_n0, _set_k0, _set_surface, _set_frame_form = _setters(SectionFrame)


class SectionPoint(Record):
    """A point (x, z) of the section of its frame.

    Every public construction is validated by ``Surface._residual`` on the
    form of (x, n0, z).  Only the chord ``_second_point`` (behind add,
    double and inverse) builds points through ``_second_root``, which skips
    that check: its result is the second root of a quadratic whose first
    root is a point on the section (``tests/test_trusted_construction.py``).
    A wrong chord no longer raises here; the tests catch it.
    """

    __slots__ = ("x", "z", "frame", "form")
    _fields = ("x", "z", "frame")

    def __init__(self, x: Rat, z: Rat, frame: SectionFrame) -> None:
        _set_x(self, x if type(x) is Fraction else Fraction(x))
        _set_z(self, z if type(z) is Fraction else Fraction(z))
        _set_frame(self, frame)
        self.__post_init__()

    def __post_init__(self) -> None:
        form = _over_one_denominator((self.x, self.frame.n0, self.z))
        if self.frame.surface._residual(form):
            raise OffSection(f"{format_point(self.xy)} is not on the section")
        _set_point_form(self, form)

    @classmethod
    def _second_root(cls, form: tuple[int, int, int, int], frame: SectionFrame) -> "SectionPoint":
        """The point of ``frame``'s section with the canonical form
        (X, N, Z, d), built without ``_residual`` for the second root of a
        chord through a point of the section (see ``_second_point``): x and
        z are Fraction(X, d) and Fraction(Z, d), and the form is kept as it
        is."""
        x, _n, z, d = form
        point = object.__new__(cls)
        _set_x(point, Fraction(x, d))  # the slots' own setters: no frozen __setattr__
        _set_z(point, Fraction(z, d))
        _set_frame(point, frame)
        _set_point_form(point, form)
        return point

    @property
    def xy(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.z)


_set_x, _set_z, _set_frame, _set_point_form = _setters(SectionPoint)


def _on_frame(frame: SectionFrame, *points: SectionPoint) -> None:
    """OffSection unless every point belongs to the frame: frames agree when their
    canonical forms and surfaces do, so an equal frame of a subclass agrees."""
    for p in points:
        other = p.frame
        if other is not frame and (other.form, other.surface) != (frame.form, frame.surface):
            raise OffSection(f"{format_point(p.xy)} is a point of another section frame")


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
    if disc < 0:
        return []
    # a rational square in lowest terms has square numerator and denominator
    num, den = isqrt(disc.numerator), isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return []
    root = Fraction(num, den)
    if root == 0:
        return [SectionPoint(x, -lin / 2, frame)]
    return [
        SectionPoint(x, (-lin - root) / 2, frame),
        SectionPoint(x, (-lin + root) / 2, frame),
    ]


def _hyperbola_beta(frame: SectionFrame) -> Fraction:
    """beta of the conic, or DomainError for an ellipse (beta^2 < 4)."""
    beta, _gamma = frame.conic
    if beta * beta < 4:
        square = format_rational(beta * beta)
        raise DomainError(f"beta^2 = {square} < 4: an ellipse has no real points at infinity")
    return beta


def infinity_points(frame: SectionFrame):
    """The two slopes at infinity: the roots of t^2 + beta*t + 1 = 0.

    (3*n0 +- sqrt(9*n0^2 - 4)) / 2 on the Fricke surface.  Quadratic
    irrationals in general; a pair of rationals when the radicand happens
    to be a rational square.  Their sum is -beta and their product is 1.
    An ellipse (beta^2 < 4) has none: DomainError.

    With beta = p/q in lowest terms, beta^2 - 4 = (p - 2q)(p + 2q)/q^2.
    The two factors have the sign of p (on the Fricke surface
    p = -3*n0 < 0), and as gcd(p, q) = 1 they share only divisors of
    gcd(p - 2q, 4q) = gcd(p - 2q, 4), so their odd parts are coprime and
    ``_squarefree_split`` finds the square part factor by factor.  The
    irrational roots are then built over that squarefree radicand
    without checking it again.
    """
    beta = _hyperbola_beta(frame)
    p, q = beta.numerator, beta.denominator
    # beta^2 - 4 = s^2*r/q^2: the roots are (-p +- s*sqrt(r))/2q
    s, r = _squarefree_split(p - 2 * q, p + 2 * q) if p * p != 4 * q * q else (0, 1)
    if r == 1:
        hi = Fraction(s - p, 2 * q)
        return (-beta - hi, hi)
    hi = _quadratic(Fraction(-p, 2 * q), Fraction(s, 2 * q), r)
    return (hi.conjugate(), hi)


# -- dihedral transforms and their closed forms --------------------------------

# The transforms of the section y = n0 as maps of (x, z), made of the frame's
# own Vieta moves: A in z, C in x, the swap T, and B = -1.
_TRANSFORMS = {
    "A": lambda s, n0, x, z: (x, s.other_root(x, n0, z)),
    "TA": lambda s, n0, x, z: (s.other_root(x, n0, z), x),
    "C": lambda s, n0, x, z: (s.other_root(z, n0, x), z),
    "TC": lambda s, n0, x, z: (z, s.other_root(z, n0, x)),
    "B": lambda s, n0, x, z: (-x, -z),
    "T": lambda s, n0, x, z: (z, x),
}


# The terms of the Lucas sequence grow by about max(bits(p), bits(q)) bits per
# index at tau = p/q.  On CPython 3.11, printing a result in decimal takes time
# quadratic in its length and dominates the time from argv to stdout: at this
# many bits the largest accepted r takes a second or two, and each doubling of
# the limit would about quadruple that.  From 3.12, str() of a large int goes
# through _pylong and is subquadratic, so the 3.11 time is the one that binds.
MAX_LUCAS_BITS = 1 << 19


def _lucas(tau: Fraction, n: int) -> tuple[int, int]:
    """(V_n, V_{n+1}) with V_n = q^(n-1)*U_n for tau = p/q, where U_0 = 0,
    U_1 = 1 and U_{n+2} = tau*U_{n+1} - U_n: one doubling per bit of n,
    V_2n = V_n*(2*V_{n+1} - p*V_n) and V_{2n+1} = V_{n+1}^2 - q^2*V_n^2.

    DomainError, before any doubling, when n*max(bits(p), bits(q)), about
    the bit length of V_{n+1}, exceeds MAX_LUCAS_BITS.  An integer tau
    with |tau| <= 2 is never refused: there U_n is periodic or +-n, of
    about bits(n) bits.  At tau = +-2 it is the closed form
    U_n = n*(tau/2)^(n-1), since the doubling would run one step per bit
    of n on numbers as large as n.
    """
    p, q = tau.numerator, tau.denominator
    bits = n * max(abs(p).bit_length(), q.bit_length())
    if bits > MAX_LUCAS_BITS and (q > 1 or abs(p) > 2):
        raise DomainError(
            f"U_{format_rational(n)} at tau = {format_rational(tau)} has about"
            f" {format_rational(bits)} bits, past the limit of {MAX_LUCAS_BITS} bits"
        )
    if q == 1 and abs(p) == 2:
        if p > 0 or n % 2:  # (tau/2)^(n-1) = 1, so U_{n+1} = (n+1)*tau/2
            return n, p // 2 * (n + 1)
        return -n, n + 1  # (tau/2)^(n-1) = -1 and (tau/2)^n = 1
    qq = q * q
    v, w = 0, 1
    for bit in bin(n)[2:]:
        v, w = v * (2 * w - p * v), w * w - qq * (v * v)
        if bit == "1":
            v, w = w, p * w - qq * v
    return v, w


def dihedral(frame: SectionFrame, p: SectionPoint, which: str) -> SectionPoint:
    """The transforms A, TA, C, TC, B, T of the section.

    A and T are involutions, C = T*A*T, and <A, T> is the infinite
    dihedral group; every image of an integral point is integral.  B
    keeps only the Fricke sections: elsewhere its image is OffSection.
    """
    if which not in _TRANSFORMS:
        raise ValueError(f"transform must be one of {tuple(_TRANSFORMS)}, got {which!r}")
    _on_frame(frame, p)
    return SectionPoint(*_TRANSFORMS[which](frame.surface, frame.n0, p.x, p.z), frame)


def ta_power(frame: SectionFrame, p: SectionPoint, r: int, family: str = "TA") -> SectionPoint:
    """Closed form of the r-th power of TA (or TC = T*TA*T).

    TA is P -> c + M*(P - c) about the centre (c, c), c = -gamma/(2 + beta),
    with M = [[tau, -1], [1, 0]] for tau = -beta = p/q, and q^r*M^r =
    [[V_{r+1}, -q*V_r], [q*V_r, V_{r+1} - p*V_r]].  A parabola (beta = -2,
    gamma != 0) has no centre: DomainError, and so is an r with
    r*max(bits(p), bits(q)) past MAX_LUCAS_BITS (see ``_lucas``).
    """
    if r < 0:
        raise IndexZero("powers are defined for r >= 0")
    if family not in ("TA", "TC"):
        raise ValueError(f"family must be 'TA' or 'TC', got {family!r}")
    _on_frame(frame, p)
    beta, gamma = frame.conic
    if gamma and beta == -2:
        raise DomainError("the section is a parabola: TA has no centre")
    xz = p.xy if family == "TA" else (p.z, p.x)
    (x, z, c), den = common_denominator((*xz, -gamma / (2 + beta) if gamma else 0))
    tau = -beta
    (v, w), q = _lucas(tau, r), tau.denominator
    x, z, c, den = x - c, z - c, c * q**r, den * q**r
    out = (
        Fraction(c + w * x - q * v * z, den),
        Fraction(c + q * v * x + (w - tau.numerator * v) * z, den),
    )
    return SectionPoint(*(out if family == "TA" else out[::-1]), frame)


def chebyshev_b(r: int, n0: Rat) -> Fraction:
    """b_r(n0) with b_0 = 1, b_1 = 3*n0, b_{r+2} = 3*n0*b_{r+1} - b_r.

    That is U_{r+1} at tau = 3*n0 = p/q.  Indices -1 and -2 (values 0
    and -1) are admitted: they are forced by running the recurrence
    backwards.  DomainError when (r + 1)*max(bits(p), bits(q)), about the
    bit length of the result, passes MAX_LUCAS_BITS (see ``_lucas``): at
    n0 = 3, four bits per index, the largest r accepted is
    MAX_LUCAS_BITS/4 - 1.
    """
    if r < -2:
        raise IndexZero(f"index {format_rational(r)} below the supported range")
    if r < 0:
        return Fraction(r + 1)
    tau = 3 * Fraction(n0)
    return Fraction(_lucas(tau, r + 1)[0], tau.denominator**r)


def cf_convergent(frame: SectionFrame, r: int) -> Fraction:
    """r-th convergent U_{r+1}/U_r at tau = -beta (b_r/b_{r-1} on the Fricke
    surface) of the minus continued fraction ceil(tau : tau : ...), which
    converges to the point at infinity of larger modulus.  An ellipse has
    none: DomainError, and so is an r with r*max(bits(p), bits(q)) past
    MAX_LUCAS_BITS for tau = p/q (see ``_lucas``)."""
    if r < 1:
        raise IndexZero("convergents are indexed from 1")
    tau = -_hyperbola_beta(frame)
    v, w = _lucas(tau, r)
    return Fraction(w, tau.denominator * v)


# -- the group law -------------------------------------------------------------


def _in_integers(surface: Surface, form: tuple[int, int, int, int]):
    """(X, Z, d, B, gx, gz) for the point (x, z) = (X, Z)/d of the form
    (X, N, Z, d) on the section y = N/d: beta = B/d, and the integer
    gradient (gx, gz) = d^2*(C_x, C_z) of the section conic at (x, z)."""
    x, n, z, d = form
    b, g = 2 * surface.cross * d - surface.kappa * n, 2 * surface.cross * n
    return x, z, d, b, 2 * d * x + b * z + d * g, 2 * d * z + b * x + d * g


def _gradient(surface: Surface, form: tuple[int, int, int, int]) -> tuple[int, int]:
    """(C_x, C_z) times a positive integer: the gradient of the section conic
    at the point of the form, in integers, nonzero off a node."""
    *_, cx, cz = _in_integers(surface, form)
    if not (cx or cz):
        point = format_point((Fraction(form[0], form[3]), Fraction(form[2], form[3])))
        raise SingularPoint(f"the section is singular at {point}: it has no tangent there")
    return cx, cz


def _second_point(
    frame: SectionFrame, form: tuple[int, int, int, int], u: int, w: int
) -> SectionPoint:
    """Second intersection with the section of the line (x0 + t*u, z0 + t*w)
    through the point (x0, z0) of the form, in the integer direction (u, w).

    Along it the conic is t*(C_x*u + C_z*w) + t^2*(u^2 + beta*u*w + w^2),
    with the gradient taken at (x0, z0).  With x0, z0 and beta written as
    (X, Z, B)/d, both coefficients times a power of d are integers.  The
    point is homogeneous of degree 2 in (u, w), so every nonzero multiple
    of a direction gives the same point.

    The quadratic in t has the roots 0, the point of the form, and
    -(C_x*u + C_z*w)/(u^2 + beta*u*w + w^2), so the second point is on the
    section too: it is built by ``SectionPoint._second_root`` and not
    validated again.  It is (x, n0, z) = (X', N*lead, Z')/D over the one
    denominator D = d*lead, where lead is d times the t^2 coefficient.
    Over any common denominator the lcm of the reduced denominators is
    D/gcd(X', N*lead, Z', D), so one content gcd g, negated when D < 0,
    gives the canonical form (X', N*lead, Z', D)/g.
    """
    x, z, d, b, cx, cz = _in_integers(frame.surface, form)
    lead = d * (u * u + w * w) + b * u * w
    if lead == 0:
        raise DenominatorVanishes("line parallel to an asymptote; second point at infinity")
    lin = cx * u + cz * w
    x, n, z, den = x * lead - lin * u, form[1] * lead, z * lead - lin * w, d * lead
    g = gcd(x, n, z, den)
    if den < 0:
        g = -g
    return SectionPoint._second_root((x // g, n // g, z // g, den // g), frame)


def tangent_slope(frame: SectionFrame, p: SectionPoint) -> Slope:
    """Slope of the tangent line to the section at p."""
    _on_frame(frame, p)
    cx, cz = _gradient(frame.surface, p.form)
    return Fraction(-cx, cz) if cz else AT_INFINITY


def quadric_add(frame: SectionFrame, p1: SectionPoint, p2: SectionPoint) -> SectionPoint:
    """The conic group law with neutral element O."""
    _on_frame(frame, p1, p2)
    if p1.form == p2.form:
        return quadric_double(frame, p1)
    (x1, _n, z1, d1), (x2, _n, z2, d2) = p1.form, p2.form
    return _second_point(frame, frame.form, x2 * d1 - x1 * d2, z2 * d1 - z1 * d2)


def quadric_double(frame: SectionFrame, p: SectionPoint) -> SectionPoint:
    """P + P, via the chord through O parallel to the tangent at P."""
    _on_frame(frame, p)
    cx, cz = _gradient(frame.surface, p.form)
    return _second_point(frame, frame.form, cz, -cx)


def quadric_inverse(frame: SectionFrame, p: SectionPoint) -> SectionPoint:
    """The unique S with P + S = O.

    Second intersection with the section of the line through P parallel
    to the tangent at O.
    """
    _on_frame(frame, p)
    cx, cz = _gradient(frame.surface, frame.form)
    return _second_point(frame, p.form, cz, -cx)
