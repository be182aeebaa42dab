"""Exact coordinate types shared by every surface law.

Everything in here is exact: arbitrary-precision rationals, primitive
integer projective vectors, quadratic irrationals stored symbolically,
and the line-cubic intersection oracle.  No floating point exists in
this module (or anywhere else in the package).  Integers cross the
interpreter's digit limit of ``str`` and ``int`` by one path,
``_no_digit_limit``, which lifts the limit for one conversion.
"""
from __future__ import annotations

import math
import re
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from operator import attrgetter
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


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(rf"({_INTEGER.pattern})(?:/([0-9]+))?")


_DIGIT_LIMIT_LOCK = threading.Lock()


@contextmanager
def _no_digit_limit():
    """Lift the interpreter's limit on int-str conversion for the body, the
    one place in the package that does.  The limit is saved, set to 0 and
    restored in a ``finally``, all under one lock, so that two threads
    converting at once cannot restore each other's limit too early or leave
    it lifted.  The trade: the limit is one per interpreter, so a thread
    calling plain ``str`` or ``int`` meanwhile sees it lifted too.  The lock
    is not reentrant: the body must not enter the helper again.
    """
    with _DIGIT_LIMIT_LOCK:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(limit)


def _int(digits: str) -> int:
    """int(digits), also past the interpreter's limit on str-to-int conversion."""
    try:
        return int(digits)
    except ValueError:  # too many digits for int(); only then lift the limit
        with _no_digit_limit():
            return int(digits)


def _digits(n: int) -> str:
    """str(n), also past the interpreter's limit on int-to-str conversion."""
    try:
        return str(n)
    except ValueError:  # too many digits for str(); only then lift the limit
        with _no_digit_limit():
            return str(n)


def parse_rational(text: str) -> Fraction:
    """Parse the "num/den" wire form (den optional) into a Fraction.

    Only an optional sign, digits, and optionally "/" and digits are
    accepted, with surrounding whitespace; numbers of any length are read.
    Raises ValueError on anything else, a zero denominator included.
    """
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not of the form num[/den]: {text!r}")
    num, den = match.groups()
    try:
        return Fraction(_int(num), _int(den or "1"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def parse_integer(text: str) -> int:
    """Parse an optionally signed integer by parse_rational's digit rule.

    Surrounding whitespace is allowed and numbers of any length are read;
    raises ValueError on anything else.
    """
    match = _INTEGER.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an integer: {text!r}")
    return _int(match.group())


def format_rational(value: Rat) -> str:
    """Serialize exactly, at any size: "num/den", with "/den" omitted when den == 1."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return _digits(num)
    return f"{_digits(num)}/{_digits(den)}"


def format_point(values: Sequence[Rat]) -> str:
    """A point for a message, "(a, b, c)", each coordinate by format_rational."""
    return "(" + ", ".join(map(format_rational, values)) + ")"


def _ratio(v: Rat) -> tuple[int, int]:
    """(n, d) with v = n/d in lowest terms, d > 0; an int or a Fraction is
    read as it is, any other value through Fraction(v)."""
    if type(v) is Fraction or isinstance(v, int):
        return v.as_integer_ratio()
    return Fraction(v).as_integer_ratio()


def common_denominator(values: Sequence[Rat]) -> tuple[list[int], int]:
    """(numerators, d): the values written as integers over d, the lcm of
    their denominators, so that value i is numerators[i] / d."""
    ratios = [_ratio(v) for v in values]
    d = math.lcm(*[den for _num, den in ratios])
    return [num * (d // den) for num, den in ratios], d


def _over_one_denominator(p: Sequence[Rat]) -> tuple[int, int, int, int]:
    """(X, Y, Z, d): the three coordinates of p written as (X, Y, Z)/d, d
    the lcm of their denominators, as ``common_denominator`` gives them but
    in fixed-arity code.  A p of another length is a ValueError.

    Three exact Fractions are read by ``as_integer_ratio`` directly, and
    equal denominators need no lcm.  Over any common denominator D of
    numerators (a, b, c) the lcm is D/gcd(a, b, c, D), which is how the
    section chord builds this form for its result without calling here.
    """
    x, y, z = p
    if type(x) is type(y) is type(z) is Fraction:
        (X, dx), (Y, dy), (Z, dz) = x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()
    else:
        (X, dx), (Y, dy), (Z, dz) = _ratio(x), _ratio(y), _ratio(z)
    if dx == dy == dz:
        return X, Y, Z, dx
    d = math.lcm(dx, dy, dz)
    return X * (d // dx), Y * (d // dy), Z * (d // dz), d


# ---------------------------------------------------------------------------
# records


class Record:
    """Base of the package's frozen records: plain slotted classes.

    A record class lists its slots in ``__slots__`` and its compared fields
    in ``_fields``, in the order of its ``__init__``'s parameters; a
    subclass adds no slots (``__slots__ = ()``).  Each ``__init__`` writes
    the slots through their own setters (see ``_setters``) and validates
    them itself, in a ``__post_init__`` that it calls only where the
    benchmark's tracer wraps that method by name: ``ProjectivePoint``,
    ``SurfacePoint``, ``SectionPoint`` and ``CanonicalTriple``.  Eq, hash
    and repr read the fields only, so a slot kept beside them, such as a
    point's ``form``, is neither compared nor shown; records of different
    classes are never equal.  Setting or deleting an attribute is an
    AttributeError.  ``copy``, ``deepcopy`` and pickle keep every slot as
    it is, without validating again; ``replace`` builds a changed record
    through ``__init__``, which does validate.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # every slot of the class and its bases: what copy and pickle keep
        cls._slots = tuple(n for c in reversed(cls.__mro__) for n in c.__dict__.get("__slots__", ()))
        # the compared fields as a tuple; an attrgetter binds to no instance
        get = attrgetter(*cls._fields)
        cls._key = get if len(cls._fields) > 1 else staticmethod(lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self._slots)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self._slots, state):
            object.__setattr__(self, name, value)


def _setters(cls: type) -> list:
    """The setter of each slot that ``cls`` declares, in order: the one way a
    record's constructors write past its frozen ``__setattr__``."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


def replace(record: Record, /, **changes) -> Record:
    """A record of the class of ``record`` with ``changes`` to its fields.

    It is built by the class's own ``__init__``, so it is validated as any
    new record is.  A name that is not a field, ``form`` included, is a
    TypeError.
    """
    unknown = changes.keys() - set(record._fields)
    if unknown:
        raise TypeError(f"{type(record).__qualname__} has no field {min(unknown)!r} to replace")
    return type(record)(**{**dict(zip(record._fields, record._key(record))), **changes})


# ---------------------------------------------------------------------------
# projective points


class ProjectivePoint(Record):
    """Primitive integer homogeneous coordinates, first nonzero entry > 0.

    Covers both the plane ([p:q:r]) and space ([x:y:z:s]) flavors; the
    length of ``coords`` tells them apart.
    """

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        _set_coords(self, coords)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not any(self.coords):
            raise ZeroVector("all projective coordinates are zero")
        g = math.gcd(*self.coords)
        if g != 1:
            raise ValueError(f"coordinates not primitive: {self}")
        first = next(c for c in self.coords if c != 0)
        if first < 0:
            raise ValueError(f"sign not normalized: {self}")

    def __str__(self) -> str:
        return "[" + ":".join(map(_digits, self.coords)) + "]"


(_set_coords,) = _setters(ProjectivePoint)


def normalize_projective(values: Sequence[Rat]) -> ProjectivePoint:
    """Clear denominators, divide by the gcd, and fix the sign.

    Idempotent and invariant under scaling by any nonzero rational.
    """
    ints, _d = common_denominator(values)
    if not any(ints):
        raise ZeroVector("all projective coordinates are zero")
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    first = next(c for c in ints if c != 0)
    if first < 0:
        ints = [-c for c in ints]
    return ProjectivePoint(tuple(ints))


def parse_projective(text: str) -> ProjectivePoint:
    """Parse "[p:q:...]" (a matched pair of brackets optional) into a normalized point."""
    body = text.strip()
    if body[:1] == "[" and body[-1:] == "]":
        body = body[1:-1]
    return normalize_projective([parse_rational(part) for part in body.split(":")])


# ---------------------------------------------------------------------------
# quadratic irrationals


def _square_part(n: int) -> int:
    """Largest s with s**2 | n (n > 0).

    Exact for every n, in O(n**(1/3)) trial divisions (Cohen, GTM 138,
    sections 1.7 and 8.3): each k is divided out completely while k**3 is
    at most the cofactor, so when the loop stops every prime factor of the
    cofactor exceeds its cube root and the cofactor is 1, p, p*q or p**2,
    with a square factor exactly when it is a perfect square.  That is
    still exponential in the bit length of n: no polynomial-time
    squarefree test is known.
    """
    s = 1
    k = 2
    while k * k * k <= n:
        if n % k == 0:
            e = 0
            while n % k == 0:
                n //= k
                e += 1
            s *= k ** (e // 2)
        k += 1 if k == 2 else 2
    r = math.isqrt(n)
    return s * r if r * r == n else s


def _squarefree_split(u: int, v: int) -> tuple[int, int]:
    """(s, r) with u*v = s**2 * r and r squarefree, for nonzero u and v of
    one sign whose odd parts are coprime.

    The power of 2 of the product is taken out apart; the square part of
    the rest is the product of the square parts of the two odd parts, so
    each is trial-divided by :func:`_square_part` only to its own cube
    root, not to that of the product.
    """
    u, v = abs(u), abs(v)
    tu, tv = (u & -u).bit_length() - 1, (v & -v).bit_length() - 1
    u, v, twos = u >> tu, v >> tv, tu + tv
    su, sv = _square_part(u), _square_part(v)
    return su * sv << twos // 2, (u // (su * su)) * (v // (sv * sv)) << twos % 2


class QuadraticIrrational(Record):
    """The exact value (a + b*sqrt(d)) / c with d > 1 squarefree, b != 0.

    Invariants: c > 0, gcd(a, b, c) == 1.  The minimal integer quadratic
    A*t**2 + B*t + C with this value as a root is available from
    :meth:`minimal_quadratic`.

    Every public construction checks its own radicand with
    :func:`_square_part`: exact for every d, in O(d**(1/3)) divisions,
    which is still exponential in the bit length of d.  Only ``_quadratic``
    (behind ``make_quadratic`` and the shared-radicand ``+``, ``-`` and
    ``*``), ``__neg__`` and ``conjugate`` build values through
    ``_squarefree``, which skips that check
    (``tests/test_trusted_construction.py``): their d is the radicand of
    a value already built, or the squarefree part that ``make_quadratic``
    has just split off, and sums, products, negation and conjugation of
    values over one squarefree d are again values over that d.
    """

    __slots__ = _fields = ("a", "b", "d", "c")

    def __init__(self, a: int, b: int, d: int, c: int) -> None:
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)
        _set_c(self, c)
        if b == 0 or d <= 1 or c <= 0:
            raise ValueError("not a normalized quadratic irrational")
        if math.isqrt(d) ** 2 == d:
            raise ValueError(f"d={format_rational(d)} is a perfect square")
        if _square_part(d) != 1:
            raise ValueError(f"d={format_rational(d)} is not squarefree")
        if math.gcd(a, b, c) != 1:
            raise ValueError("coordinates not primitive")

    @classmethod
    def _squarefree(cls, a: int, b: int, d: int, c: int) -> "QuadraticIrrational":
        """The value (a + b*sqrt(d))/c without the checks of ``__init__``,
        for a d known to be squarefree and (a, b, c) already normalized."""
        value = object.__new__(cls)
        _set_a(value, a)  # the slots' own setters: no frozen __setattr__
        _set_b(value, b)
        _set_d(value, d)
        _set_c(value, c)
        return value

    def __str__(self) -> str:
        sign = "+" if self.b >= 0 else "-"
        a, b, d, c = map(format_rational, (self.a, abs(self.b), self.d, self.c))
        return f"({a}{sign}{b}√{d})/{c}"

    def minimal_quadratic(self) -> tuple[int, int, int]:
        """Primitive (A, B, C), A > 0, with A*t^2 + B*t + C = 0 at this value."""
        A = self.c * self.c
        B = -2 * self.a * self.c
        C = self.a * self.a - self.b * self.b * self.d
        g = math.gcd(A, B, C)
        return (A // g, B // g, C // g)

    def conjugate(self) -> "QuadraticIrrational":
        return QuadraticIrrational._squarefree(self.a, -self.b, self.d, self.c)

    # exact arithmetic; mixed operands must share the same radicand ------

    def _parts(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.a, self.c), Fraction(self.b, self.c))

    def __add__(self, other):
        ra, rb = self._parts()
        if isinstance(other, QuadraticIrrational):
            if other.d != self.d:
                return NotImplemented
            oa, ob = other._parts()
            return _quadratic(ra + oa, rb + ob, self.d)
        if isinstance(other, (int, Fraction)):
            return _quadratic(ra + other, rb, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadraticIrrational._squarefree(-self.a, -self.b, self.d, self.c)

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
            return _quadratic(ra * oa + rb * ob * self.d, ra * ob + rb * oa, self.d)
        if isinstance(other, (int, Fraction)):
            return _quadratic(ra * other, rb * other, self.d)
        return NotImplemented

    __rmul__ = __mul__


_set_a, _set_b, _set_d, _set_c = _setters(QuadraticIrrational)


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
    if d == 1:
        return a + b * s
    return _quadratic(a, b * s, d)


def _quadratic(a: Fraction, b: Fraction, d: int):
    """(a + b*sqrt(d)) for a d > 1 known to be squarefree, which is not
    checked again: a Fraction when b == 0."""
    if b == 0:
        return a
    (ai, bi), c = common_denominator((a, b))
    g = math.gcd(ai, bi, c)
    return QuadraticIrrational._squarefree(ai // g, bi // g, d, c // g)


def sqrt_exact(q: Rat):
    """Exact square root of a nonnegative rational.

    Returns a Fraction when q is a perfect rational square, otherwise a
    QuadraticIrrational equal to sqrt(q).
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    # write q = n/e**2: sqrt(n/m) = sqrt(n*m)/m unless m is already a square
    n, e = q.numerator, math.isqrt(q.denominator)
    if e * e != q.denominator:
        n, e = n * q.denominator, q.denominator
    r = math.isqrt(n)
    if r * r == n:
        return Fraction(r, e)
    return make_quadratic(0, Fraction(1, e), n)


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


class Surface(Record):
    """The cubic surface Q(x, y, z) - kappa*x*y*z = sigma.

    Q = x^2 + y^2 + z^2 + 2*cross*(xy + yz + zx) with cross 0 or 1: the
    sum of squares of the Fricke surface, or the squared sum (x + y + z)^2
    of the double surface.  The secant, Vieta, plane-transfer and section
    laws are all derived from this record, which keeps sigma as a Fraction.
    """

    __slots__ = _fields = ("name", "kappa", "cross", "sigma")

    def __init__(self, name: str, kappa: int, cross: int, sigma: Rat = Fraction(0)) -> None:
        _set_name(self, name)
        _set_kappa(self, kappa)
        _set_cross(self, cross)
        _set_sigma(self, sigma if type(sigma) is Fraction else Fraction(sigma))

    @property
    def label(self) -> str:
        """The record's name, with its sigma when that is not 0."""
        return f"{self.name} with sigma = {format_rational(self.sigma)}" if self.sigma else self.name

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

    def _residual(self, form: tuple[int, int, int, int]) -> int:
        """s_d*d^3*(Q(p) - kappa*xyz - sigma) in integers, zero exactly on
        the surface, for the point p = (X, Y, Z)/d of the integer form
        (X, Y, Z, d) and sigma = s_n/s_d: Q(X, Y, Z)*d - kappa*XYZ, times
        s_d less s_n*d^3 when sigma != 0."""
        X, Y, Z, d = form
        r = self.quad(X, Y, Z) * d - self.kappa * X * Y * Z
        sigma = self.sigma
        if not sigma:
            return r
        return r * sigma.denominator - sigma.numerator * d * d * d

    def contains(self, p: Sequence[Rat]) -> bool:
        """Whether p lies on the surface, decided in integers on p's form
        over one common denominator; a point keeps that form and is
        validated on it by the same residual."""
        return not self._residual(_over_one_denominator(p))

    def defect(self, p: Sequence[Rat]) -> Fraction:
        """Q(p) - kappa*xyz - sigma as a Fraction, from the same residual."""
        form = _over_one_denominator(p)
        d = form[3]
        return Fraction(self._residual(form), self.sigma.denominator * d * d * d)


_set_name, _set_kappa, _set_cross, _set_sigma = _setters(Surface)


class _ByName(dict):
    def __missing__(self, name):  # an unknown name is a ValueError, not a KeyError
        raise ValueError(f"unknown surface id: {name!r}")


FRICKE = Surface("fricke", 3, 0)
DOUBLE = Surface("double", 9, 1)
SURFACES = _ByName((s.name, s) for s in (FRICKE, DOUBLE))


# ---------------------------------------------------------------------------
# the line-cubic oracle
#
# The secant composition laws are all verified against this: substitute the
# parametrized line into the cubic surface polynomial, deflate the resulting
# cubic in t by its two known roots t=0 and t=1, and read off the third root.


class LineParameter(Record):
    """Parameter t on the segment Q + t*(P - Q); t=0 is Q, t=1 is P."""

    __slots__ = _fields = ("t",)

    def __init__(self, t: Fraction) -> None:
        _set_t(self, t)


(_set_t,) = _setters(LineParameter)


class _Degenerate:
    __slots__ = ()

    def __repr__(self) -> str:
        return "DEGENERATE_CUBIC"


DEGENERATE_CUBIC = _Degenerate()

Triple = tuple[Fraction, Fraction, Fraction]


def surface_defect(surface: str, p: Sequence[Rat], sigma: Rat = 0) -> Fraction:
    """``Surface.defect`` of the named surface, minus sigma; zero iff on it."""
    defect = SURFACES[surface].defect(p)
    return defect - Fraction(sigma) if sigma else defect


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

    The cubic is built in integers: with p = (a, b, c)/D and q = u/D over
    one denominator D and sigma = sn/sd, the line is (u + t*v)/D with
    v = (a, b, c) - u, and the surface polynomial on it is multiplied by
    sd*D**3.
    """
    (a, b, c, u1, u2, u3), D = common_denominator((*p, *q))
    if (a, b, c) == (u1, u2, u3):
        raise CoincidentPoints(f"both operands are {format_point(p)}")
    if not (a or b or c) or not (u1 or u2 or u3):
        raise OriginOperand("the surface origin has no secant composition")

    # Q(u + t*v) by powers of t, from each surface's own quadratic form
    v1, v2, v3 = a - u1, b - u2, c - u3
    if surface == "fricke":
        kappa = 3
        q0 = u1 * u1 + u2 * u2 + u3 * u3
        q1 = 2 * (u1 * v1 + u2 * v2 + u3 * v3)
        q2 = v1 * v1 + v2 * v2 + v3 * v3
    elif surface == "double":
        kappa = 9
        su, sv = u1 + u2 + u3, v1 + v2 + v3
        q0, q1, q2 = su * su, 2 * su * sv, sv * sv
    else:
        raise ValueError(f"unknown surface id: {surface!r}")
    # (u1 + t*v1)(u2 + t*v2)(u3 + t*v3) by powers of t
    e0 = u1 * u2 * u3
    e1 = v1 * u2 * u3 + u1 * v2 * u3 + u1 * u2 * v3
    e2 = v1 * v2 * u3 + v1 * u2 * v3 + u1 * v2 * v3
    e3 = v1 * v2 * v3
    sigma = Fraction(sigma)
    sn, sd = sigma.numerator, sigma.denominator
    ks = kappa * sd
    c0 = sd * D * q0 - ks * e0 - sn * D * D * D
    c1 = sd * D * q1 - ks * e1
    c2 = sd * D * q2 - ks * e2
    c3 = -ks * e3
    # c0 + c1 + c2 + c3 is sd*D**3 times the defect of p, and c0 that of q
    for pt, value in ((p, c0 + c1 + c2 + c3), (q, c0)):
        if value != 0:
            raise OffSurface(f"{format_point(pt)} is not on {surface}")
    if c3 == 0:
        return DEGENERATE_CUBIC
    # poly == c3 * t * (t - 1) * (t - t3)  =>  t3 = -(c2 + c3) / c3
    return LineParameter(Fraction(-(c2 + c3), c3))
