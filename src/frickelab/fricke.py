"""Secant laws of the surfaces Q(x, y, z) - kappa*xyz = sigma.

Membership, the Viete generators, the rational chart of the Fricke
surface x^2 + y^2 + z^2 = 3xyz, the secant composition law with its
degenerate cases, the star law, and the transferred structures on the
projective plane.  Each law reads Q and kappa from a ``Surface`` record,
the Fricke surface by default, so the same code serves the double
surface (x + y + z)^2 = 9xyz.
"""
from __future__ import annotations

from fractions import Fraction

from .exact import (
    FRICKE,
    DomainError,
    OffSurface,
    ProjectivePoint,
    Rat,
    Record,
    SingularPoint,
    Surface,
    ZeroArgument,
    _over_one_denominator,
    _setters,
    format_point,
    normalize_projective,
    replace,
)


class BasePointUndefined(DomainError):
    pass


class UndefinedImage(DomainError):
    pass


class FactorVanishes(DomainError):
    """A factor of compose_alternative's denominators is zero: the two points share
    a coordinate, or one of them is the origin."""


def FrickeSurface(sigma: Rat = 0) -> Surface:
    """The Fricke record shifted to x^2 + y^2 + z^2 - 3xyz = sigma."""
    return replace(FRICKE, sigma=sigma)


class SurfacePoint(Record):
    """An affine point on its surface exactly.

    ``form`` is (X, Y, Z, d): the coordinates written as (X, Y, Z)/d over
    the lcm d of their denominators, the canonical integer form that the
    validation computes and ``compose`` reads.

    Every public construction is validated by ``Surface._residual``, which
    builds the form.  Only ``compose``'s finite branch and ``viete`` build
    points through ``_remaining_root``, which skips that check: their
    result is the remaining root of a polynomial whose other roots are
    points on the surface (``tests/test_trusted_construction.py``).  A
    wrong closed form there is not caught here; the tests and ``check``
    catch it.  Such a result builds its form on first read, in
    ``__getattr__``, and keeps it.
    """

    __slots__ = ("x", "y", "z", "surface", "form")
    _fields = ("x", "y", "z", "surface")

    def __init__(self, x: Rat, y: Rat, z: Rat, surface: Surface) -> None:
        _set_x(self, x if type(x) is Fraction else Fraction(x))
        _set_y(self, y if type(y) is Fraction else Fraction(y))
        _set_z(self, z if type(z) is Fraction else Fraction(z))
        _set_surface(self, surface)
        self.__post_init__()

    def __post_init__(self) -> None:
        form = _over_one_denominator((self.x, self.y, self.z))
        if self.surface._residual(form):
            raise OffSurface(f"{format_point(self.coords)} is not on the surface")
        _set_form(self, form)

    def __getattr__(self, name: str):
        # called only when a lookup fails: for "form", on a point that
        # ``_remaining_root`` built and nothing has read the form of yet
        if name == "form":
            form = _over_one_denominator((self.x, self.y, self.z))
            _set_form(self, form)
            return form
        raise AttributeError(
            f"{type(self).__qualname__!r} object has no attribute {name!r}", name=name, obj=self
        )

    @classmethod
    def _remaining_root(
        cls, x: Fraction, y: Fraction, z: Fraction, surface: Surface
    ) -> "SurfacePoint":
        """The point of ``cls`` at the Fractions (x, y, z), without
        ``_residual``, for the remaining root of a polynomial whose other
        roots are points on ``surface`` (see ``compose`` and ``viete``).  Its
        ``form`` slot stays empty until the first read fills it."""
        point = object.__new__(cls)
        _set_x(point, x)
        _set_y(point, y)
        _set_z(point, z)
        _set_surface(point, surface)
        return point

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    @property
    def is_origin(self) -> bool:
        return self.x == self.y == self.z == 0


_set_x, _set_y, _set_z, _set_surface, _set_form = _setters(SurfacePoint)


class FrickePoint(SurfacePoint):
    """A point of the Fricke surface, or of the surface given."""

    __slots__ = ()

    def __init__(self, x: Rat, y: Rat, z: Rat, surface: Surface = FRICKE) -> None:
        super().__init__(x, y, z, surface)


# -- composition results ----------------------------------------------------

UNDEFINED_COINCIDENT = "coincident-points"
UNDEFINED_ORIGIN = "origin-operand"
UNDEFINED_SECANT_AT_INFINITY = "secant-at-infinity"


class Finite(Record):
    __slots__ = _fields = ("point",)

    def __init__(self, point: SurfacePoint) -> None:
        _set_finite(self, point)


class Infinite(Record):
    """Composition escaped to one of the three lines at infinity (s = 0)."""

    __slots__ = _fields = ("point",)

    def __init__(self, point: ProjectivePoint) -> None:
        _set_infinite(self, point)
        if point.coords[-1] != 0:
            raise ValueError(f"{point} is not on a line at infinity")


class Undefined(Record):
    __slots__ = _fields = ("reason",)

    def __init__(self, reason: str) -> None:
        _set_reason(self, reason)


(_set_finite,) = _setters(Finite)
(_set_infinite,) = _setters(Infinite)
(_set_reason,) = _setters(Undefined)


ComposeResult = Finite | Infinite | Undefined


# -- Viete generators ---------------------------------------------------------


def viete(p: SurfacePoint, generator: str) -> SurfacePoint:
    """Apply L: (x,y,z) -> (x, z', y) or R: (x,y,z) -> (y, x', z).

    z' and x' are the other roots of Vieta's move, which does not depend on
    sigma; on every Fricke surface L is (x, 3xy-z, y) and R is (y, 3yz-x, z).
    With two coordinates of p fixed, the surface equation is a monic
    quadratic in the third with p's coordinate as one root, so the other
    root gives a point on the surface too: the result is built by
    ``SurfacePoint._remaining_root`` and not validated again.
    """
    s = p.surface
    x, y, z = p.coords
    if generator == "L":
        return type(p)._remaining_root(x, s.other_root(x, y, z), y, s)
    if generator == "R":
        return type(p)._remaining_root(y, s.other_root(y, z, x), z, s)
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


def _chart_coords(P: Rat, Q: Rat) -> tuple[Fraction, Fraction, Fraction]:
    """The coordinates of ``param_affine(P, Q)``, not yet validated."""
    P, Q = Fraction(P), Fraction(Q)
    a, b, c, e = P.numerator, P.denominator, Q.numerator, Q.denominator
    if a == 0 or c == 0:
        raise ZeroArgument("chart parameters must be nonzero")
    be = b * e
    S = (a * e) ** 2 + (c * b) ** 2 + be * be
    return Fraction(S, 3 * c * b * be), Fraction(S, 3 * a * be * e), Fraction(S, 3 * a * c * be)


def param_affine(P: Rat, Q: Rat) -> FrickePoint:
    """The affine chart (P,Q) -> ((P^2+Q^2+1)/3Q, ./3P, ./3PQ).

    In integers: with P = a/b, Q = c/e and S = a^2e^2 + c^2b^2 + b^2e^2,
    the point is (S/3cb^2e, S/3abe^2, S/3abce).
    """
    return FrickePoint(*_chart_coords(P, Q))


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

    The law is computed in integers on the operands' forms p = (a, b, c)/d1
    and q = (m, n, k)/d2, with sigma = s_n/s_d: numerator and denominator
    of x multiplied by s_d*d1^2*d2^2 give N_x/(kappa*s_d*db*dc), where
    db = b*d2 - n*d1 is the difference of the y coordinates times d1*d2.
    With y_p = u/e and y_q = v/f in lowest terms, db = c_y*l_y for
    l_y = u*f - v*e and the cofactor c_y = (d1/e)*(d2/f), and likewise
    for z, so x = (N_x/(c_y*c_z)) / (kappa*s_d*l_y*l_z): the known
    cofactor is divided out before the one gcd that builds the Fraction
    (Henrici's rule; Knuth, TAOCP Vol. 2, 4.5.1).

    The division is exact.  Let x' = kappa*yz - 2*cross*(y + z) - x be the
    Vieta partner of x and B_yz the form B restricted to (y, z); the
    closed form's numerator is then x_p*x_q' + x_p'*x_q - 2*B_yz(p, q)
    + 2*sigma.  On a point of the surface take T = den(y)*den(z).  T*x
    and T*x' are the roots of s_d*u^2 - s_d*A*u + C with A = T*(x + x')
    and C = s_d*T^2*x*x' = s_d*T^2*(Q(0, y, z) - sigma) integers.  Their
    sum A is an integer, so they share one denominator t in lowest terms,
    and their product C/s_d then has denominator exactly t^2, so t^2
    divides s_d.  As t_p^2 and t_q^2 both divide s_d, so does t_p*t_q,
    and s_d*T_p*T_q*x_p*x_q' and s_d*T_p*T_q*x_p'*x_q are integers; so
    are s_d*T_p*T_q*B_yz(p, q) and s_d*T_p*T_q*sigma.
    Since kappa*(y_p - y_q)*(z_p - z_q) = kappa*l_y*l_z/(T_p*T_q), the
    result's kappa*s_d*l_y*l_z*x is s_d*T_p*T_q times the numerator, an
    integer, and it equals N_x/(c_y*c_z).  The tests compare the result
    with the line-cubic oracle and with the closed form in Fractions on
    sigma-shifted pairs reached by chains of Vieta moves, zero
    coordinates included.

    The finite result is the third root of the line-cubic, whose other two
    roots are the operands, points on the surface; it is built by
    ``SurfacePoint._remaining_root`` and not validated again, so a wrong
    closed form would pass here and is caught by those tests and by
    ``check``, which compares every result's coordinates with the oracle's
    line.  The result builds its form on first read, so a chain of
    compositions pays for it only where the next ``compose`` reads it.
    """
    if p.surface != q.surface:
        raise ValueError("operands live on different surfaces")
    if p.form == q.form:
        return Undefined(UNDEFINED_COINCIDENT)
    a, b, c, d1 = p.form
    m, n, k, d2 = q.form
    if not (a or b or c) or not (m or n or k):
        return Undefined(UNDEFINED_ORIGIN)
    s = p.surface
    # each coordinate of p and q over its own denominator: l_i is their
    # difference times both denominators, zero exactly where the
    # coordinates agree
    (u1, e1), (u2, e2), (u3, e3) = map(Fraction.as_integer_ratio, (p.x, p.y, p.z))
    (v1, f1), (v2, f2), (v3, f3) = map(Fraction.as_integer_ratio, (q.x, q.y, q.z))
    l1, l2, l3 = u1 * f1 - v1 * e1, u2 * f2 - v2 * e2, u3 * f3 - v3 * e3
    if l1 and l2 and l3:
        # the cofactors c_i, with d1*d2*(p_i - q_i) = c_i*l_i
        c1, c2, c3 = (d1 // e1) * (d2 // f1), (d1 // e2) * (d2 // f2), (d1 // e3) * (d2 // f3)
        sn, sd = s.sigma.numerator, s.sigma.denominator
        d12 = d1 * d2
        ks = s.kappa * sd
        w = 2 * d12 * (sd * s.bilinear((a, b, c), (m, n, k)) - sn * d12)
        x = Fraction((ks * (a * n * k * d1 + b * c * m * d2) - w) // (c2 * c3), ks * l2 * l3)
        y = Fraction((ks * (b * m * k * d1 + a * c * n * d2) - w) // (c1 * c3), ks * l1 * l3)
        z = Fraction((ks * (c * m * n * d1 + a * b * k * d2) - w) // (c1 * c2), ks * l1 * l2)
        return Finite(type(p)._remaining_root(x, y, z, s))
    # the line meets the surface again at infinity: when a = m the third
    # point is [0 : b-n : c-k : 0], and the other vanishing patterns follow
    # by the symmetry of the equation
    return Infinite(normalize_projective([a * d2 - m * d1, b * d2 - n * d1, c * d2 - k * d1, 0]))


def _fricke_only(law: str, p: SurfacePoint, q: SurfacePoint) -> None:
    """ValueError naming the first surface of p, q that is not FRICKE."""
    for s in (p.surface, q.surface):
        if s != FRICKE:
            raise ValueError(f"{law} is a law of the fricke surface, not of {s.label}")


def compose_alternative(p: FrickePoint, q: FrickePoint) -> FrickePoint:
    """Factored form of the finite composition, on FRICKE alone (sigma = 0).

    Valid when all coordinate differences and all six coordinates are
    nonzero, else FactorVanishes; agrees with :func:`compose` coordinatewise.
    """
    _fricke_only("compose_alternative", p, q)
    (a, b, c), (m, n, k) = p.coords, q.coords
    if 0 in (a - m, b - n, c - k, a, b, c, m, n, k):
        raise FactorVanishes(
            f"compose_alternative needs two points with no coordinate zero or shared:"
            f" {format_point(p.coords)} and {format_point(q.coords)}"
        )
    u, v, w = a * n - b * m, a * k - m * c, b * k - c * n
    x = (u * u + v * v) / (3 * a * m * (b - n) * (c - k))
    y = (w * w + u * u) / (3 * b * n * (a - m) * (c - k))
    z = (v * v + w * w) / (3 * c * k * (a - m) * (b - n))
    return FrickePoint(x, y, z)


ONE = FrickePoint(1, 1, 1)


def star(p: FrickePoint, q: FrickePoint) -> ComposeResult:
    """(1,1,1) o (p o q): commutative with identity (1,1,1), not associative.

    A law of the Fricke surface alone: operands on another surface are a
    ValueError that names it.
    """
    _fricke_only("star", p, q)
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
