"""The double Fricke surface (x + y + z)^2 = 9xyz.

Its positive integral points are exactly the coordinatewise squares of
Markov triples.  Its secant composition, plane transfers and section
group law are the generic laws of ``fricke`` and ``sections`` read with
the ``DOUBLE`` record; the ``f2_*`` and ``F2*`` names bind them to it.
This module adds what is particular to the paper: the Nielsen-style
generators, the squared-triple correspondence, the squared chart, and
the negative solution trees.
"""
from __future__ import annotations

import math
from functools import partial

from .exact import DOUBLE, FRICKE, DomainError, Rat, Surface, format_point, format_rational
from .fricke import (
    OffSurface,
    SurfacePoint,
    _chart_coords,
    compose,
    p2_compose,
    p2_involution,
    p2_viete,
    phi,
    psi,
    viete,
)
from .sections import (  # OffSection and DenominatorVanishes are re-exported
    DenominatorVanishes,
    OffSection,
    SectionFrame,
    SectionPoint,
    infinity_points,
    quadric_add,
    quadric_double,
    quadric_inverse,
    tangent_slope,
)
from .tree import canonical, generate


class NotASquare(DomainError):
    pass


class F2Point(SurfacePoint):
    """An affine point validated against (x+y+z)^2 = 9xyz exactly."""

    __slots__ = ()

    def __init__(self, x: Rat, y: Rat, z: Rat, surface: Surface = DOUBLE) -> None:
        super().__init__(x, y, z, surface)


class F2SectionFrame(SectionFrame):
    """Section plane y = n0 of the double surface with base point (m0, k0)."""

    __slots__ = ()

    def __init__(self, m0: Rat, n0: Rat, k0: Rat, surface: Surface = DOUBLE) -> None:
        super().__init__(m0, n0, k0, surface)


F2SectionPoint = SectionPoint
f2_compose = compose
f2_phi = partial(phi, surface=DOUBLE)
f2_psi = psi
f2_p2_viete = partial(p2_viete, surface=DOUBLE)
f2_p2_involution = partial(p2_involution, surface=DOUBLE)
f2_p2_compose = partial(p2_compose, surface=DOUBLE)
f2_tangent_slope = tangent_slope
f2_quadric_add = quadric_add
f2_quadric_double = quadric_double
f2_quadric_inverse = quadric_inverse
f2_infinity_points = infinity_points


# -- generators and the squared-triple correspondence -------------------------


def nielsen(p: F2Point, generator: str) -> F2Point:
    """(x,y,z) -> (x, 9xy-2x-2y-z, y), or the shifted variant on (y,z)."""
    moves = {"first": "L", "second": "R"}
    if generator not in moves:
        raise ValueError(f"generator must be 'first' or 'second', got {generator!r}")
    return viete(p, moves[generator])


def square_lift(triple: tuple[int, int, int]) -> F2Point:
    """(m,n,k) on the Fricke surface -> (m^2, n^2, k^2) on the double."""
    m, n, k = triple
    if not FRICKE.contains((m, n, k)):
        raise OffSurface(f"{format_point(triple)} is not a Markov triple")
    return F2Point(m * m, n * n, k * k)


def sqrt_descend(p: F2Point) -> tuple[int, int, int]:
    """Exact coordinatewise square root of a positive integral point.

    The result is verified to be a Markov triple; failure of either
    check signals bad input (or would contradict the squared-triple
    theorem).
    """
    out = []
    for v in p.coords:
        if v.denominator != 1 or v <= 0:
            raise NotASquare(f"{format_rational(v)} is not a positive integer")
        r = math.isqrt(v.numerator)
        if r * r != v.numerator:
            raise NotASquare(f"{format_rational(v)} is not a perfect square")
        out.append(r)
    if not FRICKE.contains(out):
        raise NotASquare(f"roots {format_point(out)} do not form a Markov triple")
    return tuple(out)


def f2_param_affine(P: Rat, Q: Rat) -> F2Point:
    """Chart (P,Q) -> ((P^2+Q^2+1)^2/9Q^2, ./9P^2, ./9P^2Q^2).

    Coordinatewise square of the Fricke chart at the same (P,Q): in
    integers (S^2/(3cb^2e)^2, S^2/(3abe^2)^2, S^2/(3abce)^2) with the
    notation of ``fricke.param_affine``.  Only this point is validated,
    not the Fricke point it squares.
    """
    return F2Point(*(c * c for c in _chart_coords(P, Q)))


# -- negative solution trees ---------------------------------------------------


def negative_tree(n: int, depth: int) -> list[tuple[int, int, int]]:
    """Integral points grown from the fundamental solution (-n, 0, n).

    Breadth-first closure under the three Vieta moves and coordinate
    permutations, to the given depth; triples are returned in canonical
    (sorted ascending) form, deduplicated, in deterministic order.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")
    nodes = generate(canonical((-n, 0, n), DOUBLE), depth=depth)
    return sorted(node.triple.values for node in nodes)
