"""Property tests of the kernels that compute in integers over one common
denominator per point: ``compose`` against the line-cubic oracle,
``surface_defect`` against the surface polynomial in plain Fractions,
``Surface.contains`` against a zero defect, the oracle, ``line_point`` and
the affine charts against Fraction transcriptions of their definitions
written out here, the section chord and ``tangent_slope`` against
their slope forms and under scaling of the integer direction, the chord's
integers against Fractions, and the fixed-arity conversion of the
membership test against the variable-arity common denominator written out
here; ``compose`` also against its closed form in Fractions, the integer
line test of ``check`` against ``line_point``, and the integer form each
point, section frame and section point keeps against that conversion."""
import copy
import decimal
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frickelab import (
    AT_INFINITY,
    DEGENERATE_CUBIC,
    DOUBLE,
    FRICKE,
    F2Point,
    F2SectionFrame,
    Finite,
    FrickePoint,
    Infinite,
    LineParameter,
    ProjectivePoint,
    SectionFrame,
    SectionPoint,
    SurfacePoint,
    Undefined,
    compose,
    f2_param_affine,
    line_point,
    line_third_intersection,
    param_affine,
    quadric_add,
    quadric_double,
    quadric_inverse,
    replace,
    slope_between,
    surface_defect,
    viete,
)
from frickelab.exact import (
    SURFACES,
    CoincidentPoints,
    OffSurface,
    OriginOperand,
    SingularPoint,
    ZeroArgument,
    _over_one_denominator,
    common_denominator,
)
from frickelab import sections
from frickelab.cli import _on_line
from frickelab.sections import (
    DenominatorVanishes,
    _gradient,
    _in_integers,
    _second_point,
    tangent_slope,
)
from frickelab.tree import canonical, generate

from conftest import f2_section_point_pool, section_point_pool

KERNEL_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)

HEIGHT = 2**128
integers = st.integers(-HEIGHT, HEIGHT)
nonzero = integers.filter(bool)
rationals = st.builds(Fraction, integers, st.integers(1, HEIGHT))
chart_parameters = st.builds(Fraction, nonzero, st.integers(1, HEIGHT))
surfaces = st.sampled_from([FRICKE, DOUBLE])
CHARTS = {"fricke": param_affine, "double": f2_param_affine}
KAPPA = {"fricke": 3, "double": 9}


def assert_matches_oracle(a: SurfacePoint, b: SurfacePoint):
    result = compose(a, b)
    s = a.surface
    oracle = line_third_intersection(a.coords, b.coords, s.name, s.sigma)
    if isinstance(result, Finite):
        assert oracle is not DEGENERATE_CUBIC
        assert result.point.coords == line_point(a.coords, b.coords, oracle.t)
        assert all(type(v) is Fraction for v in result.point.coords)
    else:
        assert isinstance(result, Infinite) and oracle is DEGENERATE_CUBIC
    return result


@KERNEL_SETTINGS
@given(surfaces, chart_parameters, chart_parameters, chart_parameters, chart_parameters)
def test_compose_matches_oracle_on_tall_charts(surface, P1, Q1, P2, Q2):
    chart = CHARTS[surface.name]
    a, b = chart(P1, Q1), chart(P2, Q2)
    assume(a != b)
    assert_matches_oracle(a, b)


@KERNEL_SETTINGS
@given(surfaces, chart_parameters, chart_parameters, chart_parameters, chart_parameters, st.permutations(range(3)))
def test_check_line_test_agrees_with_line_point(surface, P1, Q1, P2, Q2, order):
    # check's integer test of a result against the oracle's line, on the result, on
    # it with its coordinates permuted (still on the surface, mostly off the line),
    # and on the operands, at the oracle's parameter and at t = 0 and t = 1; the
    # test reads the result's coordinates, so its form is still unbuilt afterwards
    chart = CHARTS[surface.name]
    a, b = chart(P1, Q1), chart(P2, Q2)
    assume(a != b)
    result = assert_matches_oracle(a, b)
    assume(isinstance(result, Finite))
    r = result.point
    permuted = type(r)(*(r.coords[i] for i in order))
    oracle = line_third_intersection(a.coords, b.coords, surface.name)
    for t in (oracle.t, Fraction(0), Fraction(1)):
        on_line = line_point(a.coords, b.coords, t)
        for point in (r, permuted, a, b):
            assert _on_line(point, a, b, t) == (on_line == point.coords)
    assert _on_line(r, a, b, oracle.t) and _on_line(b, a, b, Fraction(0)) and _on_line(a, a, b, Fraction(1))
    with pytest.raises(AttributeError):
        SurfacePoint.form.__get__(r, SurfacePoint)


def assert_matches_closed_form(a: SurfacePoint, b: SurfacePoint):
    """``compose`` against the oracle and, when finite, against its closed
    form in Fractions."""
    result = assert_matches_oracle(a, b)
    if isinstance(result, Finite):
        assert result.point.coords == fraction_compose(a.surface, a.coords, b.coords)
    return result


def vieta_chain(p: SurfacePoint, moves) -> SurfacePoint:
    """p after each (generator, order) of moves: a Vieta move, then a
    permutation of the coordinates; stops early once a coordinate passes
    2^1024."""
    for generator, order in moves:
        moved = viete(p, generator).coords
        if any(max(abs(v.numerator), v.denominator) > 2**1024 for v in moved):
            break
        p = SurfacePoint(*(moved[i] for i in order), p.surface)
    return p


@KERNEL_SETTINGS
@given(
    surfaces,
    st.lists(rationals, min_size=3, max_size=3, unique=True),
    st.sampled_from([None, 0, 1, 2]),
    st.lists(st.tuples(st.sampled_from("LR"), st.permutations(range(3))), max_size=4),
)
@example(FRICKE, [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)], 1, [("L", [2, 0, 1])])
@example(DOUBLE, [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)], 0, [("R", [1, 2, 0])])
def test_compose_on_sigma_surfaces(base, triple, zero, moves):
    # a point fixes sigma, almost always non-integral; its permutations and
    # its images under chains of Vieta moves and permutations lie on the same
    # sigma-surface, and so do their compositions, whose denominators
    # differ from the operands'; a zero coordinate has denominator 1
    if zero is not None:
        triple[zero] = Fraction(0)
        assume(len(set(triple)) == 3)
    x, y, z = triple
    sigma = surface_defect(base.name, triple)
    assume(sigma.denominator != 1)
    surf = replace(base, sigma=sigma)
    p = SurfacePoint(x, y, z, surf)
    r = assert_matches_closed_form(p, SurfacePoint(z, x, y, surf))
    if isinstance(r, Finite):
        assert_matches_closed_form(r.point, SurfacePoint(y, z, x, surf))
        assert_matches_closed_form(SurfacePoint(y, x, z, surf), r.point)
    q = vieta_chain(p, moves)
    for a, b in ((p, q), (q, SurfacePoint(y, z, x, surf))):
        if a != b:
            assert_matches_closed_form(a, b)


def plain_defect(name: str, p, sigma) -> Fraction:
    x, y, z = (Fraction(v) for v in p)
    quad = x * x + y * y + z * z if name == "fricke" else (x + y + z) ** 2
    return quad - KAPPA[name] * x * y * z - Fraction(sigma)


@KERNEL_SETTINGS
@given(
    st.sampled_from(["fricke", "double"]),
    st.lists(st.one_of(integers, rationals), min_size=3, max_size=3),
    st.one_of(st.just(0), integers, rationals),
)
def test_surface_defect_matches_polynomial(name, triple, sigma):
    defect = surface_defect(name, triple, sigma)
    assert type(defect) is Fraction
    assert defect == plain_defect(name, triple, sigma)
    # the shifted surface through the triple
    assert surface_defect(name, triple, plain_defect(name, triple, 0)) == 0
    # the record subtracts its own sigma
    assert replace(SURFACES[name], sigma=sigma).defect(triple) == plain_defect(name, triple, sigma)


# -- membership: contains against a zero defect ------------------------------

SIGMAS = (0, -4, Fraction(9, 4), Fraction(25, 36))
# one point of each sigma-surface; Vieta moves reach taller ones, and the
# integral seeds keep int coordinates
SIGMA_SEEDS = {
    ("fricke", 0): (1, 1, 1),
    ("fricke", -4): (1, 2, 3),
    ("fricke", Fraction(9, 4)): (-2, Fraction(1, 2), -1),
    ("fricke", Fraction(25, 36)): (-1, Fraction(1, 2), Fraction(-2, 3)),
    ("double", 0): (1, 4, 25),
    ("double", -4): (-2, Fraction(2, 3), Fraction(-2, 3)),
    ("double", Fraction(9, 4)): (-3, Fraction(1, 2), Fraction(-1, 2)),
    ("double", Fraction(25, 36)): (Fraction(-1, 6), Fraction(1, 3), Fraction(1, 2)),
}
shifts = st.one_of(st.just(0), st.integers(-5, 5), rationals)


def coordinate_types(values, as_fractions):
    """Every value as a Fraction, or every integral one as an int."""
    if as_fractions:
        return [Fraction(v) for v in values]
    return [int(v) if Fraction(v).denominator == 1 else v for v in values]


def assert_contains_iff_zero_defect(surface, p):
    on = surface.contains(p)
    assert type(on) is bool
    assert on == (surface.defect(p) == 0)
    assert on == (plain_defect(surface.name, p, surface.sigma) == 0)
    return on


@KERNEL_SETTINGS
@given(
    surfaces,
    st.sampled_from(SIGMAS),
    st.lists(st.integers(0, 2), max_size=40),
    st.permutations(range(3)),
    st.integers(0, 2),
    shifts,
    st.booleans(),
)
def test_contains_iff_zero_defect_on_sigma_orbits(base, sigma, moves, order, i, shift, as_fractions):
    surface = replace(base, sigma=Fraction(sigma))
    p = list(SIGMA_SEEDS[surface.name, sigma])
    for k in moves:
        u, v = (p[j] for j in range(3) if j != k)
        w = surface.other_root(u, v, p[k])
        if max(abs(w.numerator), w.denominator) > HEIGHT:
            break
        p[k] = w
    p = coordinate_types([p[j] for j in order], as_fractions)
    assert assert_contains_iff_zero_defect(surface, p)
    p[i] += shift
    assert_contains_iff_zero_defect(surface, coordinate_types(p, as_fractions))


@KERNEL_SETTINGS
@given(
    surfaces,
    st.sampled_from(SIGMAS),
    chart_parameters,
    chart_parameters,
    st.integers(0, 2),
    shifts,
    st.booleans(),
)
def test_contains_iff_zero_defect_on_tall_charts(base, sigma, P, Q, i, shift, as_fractions):
    p = coordinate_types(CHARTS[base.name](P, Q).coords, as_fractions)
    surface = replace(base, sigma=Fraction(sigma))
    assert assert_contains_iff_zero_defect(surface, p) == (sigma == 0)
    p[i] += shift
    assert_contains_iff_zero_defect(surface, coordinate_types(p, as_fractions))


def test_contains_off_surface_points():
    # each seed, and the seed moved off its surface, in each coordinate type
    for (name, sigma), seed in SIGMA_SEEDS.items():
        surface = replace(SURFACES[name], sigma=Fraction(sigma))
        for as_fractions in (False, True):
            assert surface.contains(coordinate_types(seed, as_fractions))
            off = coordinate_types((seed[0] + 3, *seed[1:]), as_fractions)
            assert not surface.contains(off)
            assert surface.defect(off) != 0


# -- the line-cubic oracle against its Fraction-polynomial definition ---------


def poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def fraction_oracle(p, q, surface, sigma=0):
    """The oracle in Fraction polynomials: substitute the line Q + t*(P - Q)
    into the surface polynomial and deflate by the roots t = 0 and t = 1."""
    pf = tuple(Fraction(v) for v in p)
    qf = tuple(Fraction(v) for v in q)
    if pf == qf:
        raise CoincidentPoints(f"{p} == {q}")
    if not any(pf) or not any(qf):
        raise OriginOperand("origin")
    for pt in (pf, qf):
        if surface_defect(surface, pt, sigma) != 0:
            raise OffSurface(f"{pt} is not on {surface}")
    lx, ly, lz = ([qi, pi - qi] for pi, qi in zip(pf, qf))
    if surface == "fricke":
        kappa, squares = 3, [poly_mul(lin, lin) for lin in (lx, ly, lz)]
    elif surface == "double":
        total = [lx[0] + ly[0] + lz[0], lx[1] + ly[1] + lz[1]]
        kappa, squares = 9, [poly_mul(total, total)]
    else:
        raise ValueError(f"unknown surface id: {surface!r}")
    poly = [Fraction(0)] * 4
    for sq in squares:
        for i, c in enumerate(sq):
            poly[i] += c
    for i, c in enumerate(poly_mul(poly_mul(lx, ly), lz)):
        poly[i] -= kappa * c
    poly[0] -= Fraction(sigma)
    c0, c1, c2, c3 = poly
    assert c0 == 0 and c0 + c1 + c2 + c3 == 0
    if c3 == 0:
        return DEGENERATE_CUBIC
    return LineParameter(-(c2 + c3) / c3)


def outcome(fn, *args):
    """The value fn returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def assert_oracle_parity(p, q, surface, sigma=0):
    got = outcome(line_third_intersection, p, q, surface, sigma)
    assert got == outcome(fraction_oracle, p, q, surface, sigma)
    if isinstance(got, LineParameter):
        assert type(got.t) is Fraction
    if not isinstance(got, type):
        # the cubic loses its leading term exactly when the line is parallel
        # to a coordinate plane: the operands share a coordinate
        shared = any(Fraction(a) == Fraction(b) for a, b in zip(p, q))
        assert (got is DEGENERATE_CUBIC) == shared
    return got


@KERNEL_SETTINGS
@given(surfaces, chart_parameters, chart_parameters, chart_parameters, chart_parameters)
def test_oracle_parity_on_tall_charts(surface, P1, Q1, P2, Q2):
    chart = CHARTS[surface.name]
    a, b = chart(P1, Q1), chart(P2, Q2)
    assume(a != b)
    assert_oracle_parity(a.coords, b.coords, surface.name)
    # a Vieta neighbour keeps one coordinate in place: a degenerate cubic
    for neighbour in (viete(a, "L"), viete(a, "R")):
        if neighbour != a:
            assert assert_oracle_parity(a.coords, neighbour.coords, surface.name) is (
                DEGENERATE_CUBIC
            )


MARKOV = [node.triple.values for node in generate(canonical((1, 1, 1)), depth=5)]
SIGNS = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]


@KERNEL_SETTINGS
@given(
    surfaces,
    st.sampled_from(MARKOV),
    st.sampled_from(MARKOV),
    st.sampled_from(SIGNS),
    chart_parameters,
    chart_parameters,
)
def test_oracle_parity_on_int_operands(surface, m1, m2, signs, P, Q):
    # integral points as ints: Markov triples with an even number of signs
    # flipped on the Fricke surface, their squares on the double surface
    if surface == DOUBLE:
        a, b = tuple(v * v for v in m1), tuple(v * v for v in m2[::-1])
    else:
        a, b = m1, tuple(s * v for s, v in zip(signs, m2[::-1]))
    chart = CHARTS[surface.name](P, Q).coords
    assert_oracle_parity(a, b, surface.name)
    assert_oracle_parity(a, chart, surface.name)
    assert_oracle_parity(chart, tuple(map(Fraction, b)), surface.name)


COORDINATE_KINDS = {
    "int": integers,
    "fraction": rationals,
    "mixed": st.one_of(integers, rationals),
}
PERMUTATIONS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]


@KERNEL_SETTINGS
@given(
    surfaces,
    st.sampled_from(sorted(COORDINATE_KINDS)).flatmap(
        lambda kind: st.lists(COORDINATE_KINDS[kind], min_size=3, max_size=3, unique=True)
    ),
    st.sampled_from(PERMUTATIONS[3:]),
)
def test_oracle_parity_on_sigma_surfaces(surface, triple, transposition):
    # the triple fixes sigma: integral on int triples (passed as an int),
    # non-integral on almost every Fraction one; its permutations lie on the
    # same sigma-surface, and a transposition keeps one coordinate
    sigma = surface_defect(surface.name, triple)
    if sigma.denominator == 1:
        sigma = int(sigma)
    x, y, z = triple
    assert_oracle_parity(triple, (z, x, y), surface.name, sigma)
    assert_oracle_parity(triple, tuple(triple[i] for i in transposition), surface.name, sigma)
    # Vieta's move keeps two coordinates
    assert_oracle_parity(triple, (x, y, surface.other_root(x, y, z)), surface.name, sigma)
    # a composition's denominators differ from the operands'
    surf = replace(surface, sigma=Fraction(sigma))
    r = compose(SurfacePoint(x, y, z, surf), SurfacePoint(z, x, y, surf))
    if isinstance(r, Finite):
        assert_oracle_parity(r.point.coords, (y, z, x), surface.name, sigma)


@KERNEL_SETTINGS
@given(surfaces, chart_parameters, chart_parameters)
def test_oracle_parity_at_sigma_zero_off_charts(surface, P, Q):
    # sigma = 0 given as an int and as a Fraction, on the chart point and
    # its coordinate permutations
    a = CHARTS[surface.name](P, Q).coords
    for perm in PERMUTATIONS[1:]:
        b = tuple(a[i] for i in perm)
        assert_oracle_parity(a, b, surface.name, 0)
        assert_oracle_parity(a, b, surface.name, Fraction(0))


@pytest.mark.parametrize(
    "p, q, surface, sigma, expected",
    [
        ((0, 0, 0), (0, 0, 0), "fricke", 0, CoincidentPoints),
        ((1, 1, 1), (Fraction(2, 2), 1, Fraction(1)), "nowhere", 0, CoincidentPoints),
        ((1, 2, 3), (1, 2, 3), "double", 0, CoincidentPoints),
        ((0, 0, 0), (1, 2, 3), "fricke", 0, OriginOperand),
        ((1, 2, 3), (0, 0, 0), "double", 5, OriginOperand),
        ((0, 0, 0), (1, 1, 1), "nowhere", 0, OriginOperand),
        ((1, 1, 1), (1, 2, 3), "fricke", 0, OffSurface),
        ((1, 2, 3), (1, 1, 1), "fricke", 0, OffSurface),
        ((1, 1, 1), (1, 2, 5), "fricke", 1, OffSurface),
        ((4, 1, 1), (1, 2, 5), "double", 0, OffSurface),
        ((1, 1, 1), (1, 2, 5), "nowhere", 0, ValueError),
    ],
)
def test_oracle_error_precedence(p, q, surface, sigma, expected):
    with pytest.raises(expected) as exc:
        line_third_intersection(p, q, surface, sigma)
    assert type(exc.value) is expected
    assert outcome(fraction_oracle, p, q, surface, sigma) is expected


# -- line evaluation and the affine charts --------------------------------------


def fraction_line_point(p, q, t):
    t = Fraction(t)
    return tuple(Fraction(qi) + t * (Fraction(pi) - Fraction(qi)) for pi, qi in zip(p, q))


@KERNEL_SETTINGS
@given(
    st.sampled_from(sorted(COORDINATE_KINDS)).flatmap(
        lambda kind: st.lists(COORDINATE_KINDS[kind], min_size=6, max_size=6)
    ),
    st.one_of(integers, rationals),
)
def test_line_point_parity(coords, t):
    p, q = coords[:3], coords[3:]
    got = line_point(p, q, t)
    assert type(got) is tuple
    assert all(type(v) is Fraction for v in got)
    assert got == fraction_line_point(p, q, t)
    assert line_point(p, q, 0) == tuple(map(Fraction, q))
    assert line_point(p, q, Fraction(1)) == tuple(map(Fraction, p))


def fraction_chart(P, Q):
    P, Q = Fraction(P), Fraction(Q)
    s = P * P + Q * Q + 1
    return (s / (3 * Q), s / (3 * P), s / (3 * P * Q))


@KERNEL_SETTINGS
@given(st.one_of(nonzero, chart_parameters), st.one_of(nonzero, chart_parameters))
def test_chart_parity(P, Q):
    point = param_affine(P, Q)
    assert type(point) is FrickePoint and point.surface == FRICKE
    assert all(type(v) is Fraction for v in point.coords)
    assert point.coords == fraction_chart(P, Q)
    square = f2_param_affine(P, Q)
    assert type(square) is F2Point and square.surface == DOUBLE
    assert all(type(v) is Fraction for v in square.coords)
    assert square.coords == tuple(v * v for v in fraction_chart(P, Q))


@pytest.mark.parametrize(
    "P, Q", [(0, 1), (1, 0), (0, 0), (Fraction(0), Fraction(-3, 2)), (Fraction(5, 7), Fraction(0))]
)
@pytest.mark.parametrize("chart", [param_affine, f2_param_affine])
def test_chart_rejects_zero_parameter(chart, P, Q):
    with pytest.raises(ZeroArgument):
        chart(P, Q)


# -- the section chord against its slope form -----------------------------------


def slope_conic(frame):
    """(beta, gamma) of the section conic, from the surface record."""
    s = frame.surface
    return 2 * s.cross - s.kappa * frame.n0, 2 * s.cross * frame.n0


def slope_chord(frame, x0, z0, mu):
    """Second intersection with the section of the line through (x0, z0) of
    slope mu, in Fractions: along (x0 + u, z0 + mu*u) the conic is
    u*(C_x + mu*C_z) + u^2*(1 + beta*mu + mu^2); a vertical line gives the
    other root in z by Vieta."""
    if mu is AT_INFINITY:
        return (x0, frame.surface.other_root(x0, frame.n0, z0))
    beta, gamma = slope_conic(frame)
    lead = 1 + beta * mu + mu * mu
    if lead == 0:
        raise DenominatorVanishes("line parallel to an asymptote")
    u = -(2 * x0 + beta * z0 + gamma + mu * (2 * z0 + beta * x0 + gamma)) / lead
    return (x0 + u, z0 + mu * u)


def fraction_gradient(frame, x, z):
    """(C_x, C_z) of the section conic at (x, z), in Fractions."""
    beta, gamma = slope_conic(frame)
    return 2 * x + beta * z + gamma, 2 * z + beta * x + gamma


def slope_of_tangent(frame, x, z):
    cx, cz = fraction_gradient(frame, x, z)
    if cx == cz == 0:
        raise SingularPoint("a node has no tangent")
    return AT_INFINITY if cz == 0 else -cx / cz


def slope_double(frame, p):
    return slope_chord(frame, frame.m0, frame.k0, slope_of_tangent(frame, p.x, p.z))


def slope_add(frame, p, q):
    if p.xy == q.xy:
        return slope_double(frame, p)
    return slope_chord(frame, frame.m0, frame.k0, slope_between(p.xy, q.xy))


def slope_inverse(frame, p):
    return slope_chord(frame, p.x, p.z, slope_of_tangent(frame, frame.m0, frame.k0))


def shifted(surface, triple):
    """The frame of the triple on the sigma-surface through it."""
    return SectionFrame(*triple, replace(surface, sigma=surface.defect(triple)))


SECTION_FRAMES = {
    "fricke-1-5-2": SectionFrame(1, 5, 2),
    "fricke-2-5-29": SectionFrame(2, 5, 29),
    "fricke-rational": SectionFrame(Fraction(15, 4), Fraction(-3, 4), -6),
    # the chart point at (1/2, 1/3): beta = -49/18, over the form's d = 108
    "fricke-chart": SectionFrame(Fraction(49, 36), Fraction(49, 54), Fraction(49, 18)),
    "double-1-4-25": SectionFrame(1, 4, 25, DOUBLE),
    "double-rational": SectionFrame(
        Fraction(25, 36), Fraction(100, 81), Fraction(625, 324), DOUBLE
    ),
    "fricke-shifted": shifted(FRICKE, (Fraction(2, 3), 5, Fraction(-1, 2))),
    "double-shifted": shifted(DOUBLE, (Fraction(1, 2), -3, Fraction(4, 7))),
    "fricke-ellipse": shifted(FRICKE, (1, Fraction(1, 3), 2)),
    # beta = -2 on both, one asymptotic direction (1, 1).  On a Fricke
    # surface gamma = 0, so this section is the parallel line pair
    # (x - z)^2 = 4; the double frame at n0 = 4/9 is a parabola
    "fricke-parallel-lines": shifted(FRICKE, (1, Fraction(2, 3), 3)),
    "double-parabola": SectionFrame(Fraction(-1, 9), Fraction(4, 9), Fraction(-1, 9), DOUBLE),
}
# line pairs through a node N = (c, c), c = -gamma/(2 + beta), of slopes 2
# and 1/2 (beta = -5/2): the Fricke lines z = 2x, z = x/2 at n0 = 5/6 and
# the double lines through (2, 2) at n0 = 1/2; O lies on the slope-2 line
LINE_PAIRS = {
    "fricke-line-pair": (shifted(FRICKE, (1, Fraction(5, 6), 2)), 0),
    "double-line-pair": (shifted(DOUBLE, (3, Fraction(1, 2), 4)), 2),
}


def chord_points(frame, rng, count):
    """Points of the section: second points of chords through O of seeded
    slopes, each with the partner on its vertical line."""
    points = [frame.origin]
    while len(points) < count:
        mu = random_slope(rng)
        try:
            x, z = slope_chord(frame, frame.m0, frame.k0, mu)
        except DenominatorVanishes:
            continue
        for xz in ((x, z), (x, frame.surface.other_root(x, frame.n0, z))):
            points.append(SectionPoint(*xz, frame))
    return points


def line_pair_points(frame, node, rng, count):
    """The node and points on both lines of a line pair, in vertical pairs."""
    points = [frame.origin, SectionPoint(node, node, frame)]
    while len(points) < count:
        k = small_rational(rng) or 1
        for t in (Fraction(2), Fraction(1, 2)):
            points.append(SectionPoint(node + k, node + t * k, frame))
    return points


def small_rational(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 40))


def random_slope(rng):
    return AT_INFINITY if rng.random() < 0.1 else small_rational(rng)


def section_pool(name, rng):
    if name in LINE_PAIRS:
        frame, node = LINE_PAIRS[name]
        return frame, line_pair_points(frame, node, rng, 30)
    frame = SECTION_FRAMES[name]
    return frame, chord_points(frame, rng, 30)


def section_outcome(fn, *args):
    got = outcome(fn, *args)
    return got.xy if isinstance(got, SectionPoint) else got


@pytest.mark.parametrize("name", [*SECTION_FRAMES, *LINE_PAIRS])
def test_chord_kernel_matches_slope_form(name):
    rng = random.Random(name)
    frame, pool = section_pool(name, rng)
    seen = set()
    pairs = [(p, q) for p in pool for q in pool[:10]]
    for p, q in pairs:
        got = section_outcome(quadric_add, frame, p, q)
        assert got == outcome(slope_add, frame, p, q), (p.xy, q.xy)
        seen.add(got if isinstance(got, type) else "vertical" if p.x == q.x else "point")
    for p in pool:
        assert section_outcome(quadric_double, frame, p) == outcome(slope_double, frame, p)
        assert section_outcome(quadric_inverse, frame, p) == outcome(slope_inverse, frame, p)
    # every frame meets vertical chords; the line pairs also meet chords
    # parallel to an asymptote and the node
    assert "vertical" in seen
    if name in LINE_PAIRS:
        assert {DenominatorVanishes, SingularPoint} <= seen


@KERNEL_SETTINGS
@given(
    surfaces,
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=2, max_size=4),
)
def test_chord_kernel_on_tall_sigma_frames(surface, triple, slopes):
    assume(triple[1] != 0)
    frame = shifted(surface, tuple(triple))
    points = [frame.origin]
    for mu in slopes:
        got = outcome(slope_chord, frame, frame.m0, frame.k0, mu)
        if isinstance(got, tuple):
            points.append(SectionPoint(*got, frame))
    for p in points:
        assert section_outcome(quadric_double, frame, p) == outcome(slope_double, frame, p)
        assert section_outcome(quadric_inverse, frame, p) == outcome(slope_inverse, frame, p)
        for q in points[:4]:
            assert section_outcome(quadric_add, frame, p, q) == outcome(slope_add, frame, p, q)


def integer_directions(frame, pool):
    """Integer chord directions: differences of pool points over their common
    denominator, scaled gradients, and the asymptotic directions, along which
    the chord kernel raises DenominatorVanishes."""
    directions = [(1, 1), (1, 2), (2, 1), (0, 1), (1, 0)]
    for p, q in zip(pool, pool[1:]):
        (x1, z1, x2, z2), _d = common_denominator((p.x, p.z, q.x, q.z))
        if (x1, z1) != (x2, z2):
            directions.append((x2 - x1, z2 - z1))
        got = outcome(_gradient, frame.surface, p.form)
        if isinstance(got, tuple):
            directions.append((got[1], -got[0]))
    return directions


@pytest.mark.parametrize("name", [*SECTION_FRAMES, *LINE_PAIRS])
def test_chord_kernel_is_homogeneous_in_its_direction(name):
    frame, pool = section_pool(name, random.Random(name))
    seen = set()
    for p in pool[:8]:
        for u, w in integer_directions(frame, pool):
            got = section_outcome(_second_point, frame, p.form, u, w)
            seen.add(got if isinstance(got, type) else "point")
            for scale in (-3, 2, 7):
                assert section_outcome(_second_point, frame, p.form, scale * u, scale * w) == got
    assert "point" in seen
    if name in LINE_PAIRS or name in ("fricke-parallel-lines", "double-parabola"):
        assert DenominatorVanishes in seen


@pytest.mark.parametrize("name", [*SECTION_FRAMES, *LINE_PAIRS])
def test_tangent_slope_matches_slope_form(name):
    frame, pool = section_pool(name, random.Random(name))
    for p in pool:
        got = outcome(tangent_slope, frame, p)
        assert got == outcome(slope_of_tangent, frame, p.x, p.z)
        assert got in (AT_INFINITY, SingularPoint) or type(got) is Fraction


# -- the fixed-arity conversion against the generic common denominator ----------


def generic_common_denominator(values):
    """The values as integers over the lcm of their denominators, for any
    number of values: what the fixed-arity conversion must agree with."""
    ratios = [Fraction(v).as_integer_ratio() for v in values]
    d = math.lcm(*[den for _num, den in ratios])
    return [num * (d // den) for num, den in ratios], d


def generic_residual(surface, p):
    """s_d*d^3*(Q(p) - kappa*xyz - sigma) for sigma = s_n/s_d, from the
    generic conversion."""
    (X, Y, Z), d = generic_common_denominator(p)
    s_n, s_d = surface.sigma.as_integer_ratio()
    return (surface.quad(X, Y, Z) * d - surface.kappa * X * Y * Z) * s_d - s_n * d**3


small = st.integers(-10**6, 10**6)
COORDINATES = {
    "int": small,
    "bool": st.booleans(),
    "fraction": st.builds(Fraction, small, st.integers(1, 10**6)),
    "decimal": st.decimals(-10**6, 10**6, places=3),
}
# one denominator shared by all three coordinates, as on chart points over
# their common denominator and on every integral triple
shared_denominator = st.integers(1, 10**6).flatmap(
    lambda d: st.lists(small.filter(lambda n: math.gcd(n, d) == 1), min_size=3, max_size=3).map(
        lambda ns: [Fraction(n, d) for n in ns]
    )
)
triples = st.one_of(
    *(st.lists(kind, min_size=3, max_size=3) for kind in COORDINATES.values()),
    st.lists(st.one_of(*COORDINATES.values()), min_size=3, max_size=3),
    shared_denominator,
)


@KERNEL_SETTINGS
@given(surfaces, st.sampled_from(SIGMAS), triples)
def test_residual_matches_generic_denominator(base, sigma, triple):
    surface = replace(base, sigma=Fraction(sigma))
    ints, d = generic_common_denominator(triple)
    converted = _over_one_denominator(triple)
    assert converted == (*ints, d)
    assert all(isinstance(v, int) for v in converted)
    assert surface._residual(converted) == generic_residual(surface, triple)
    assert _over_one_denominator(tuple(triple)) == converted
    # membership and the defect read that residual
    assert surface.contains(triple) == (plain_defect(surface.name, triple, sigma) == 0)
    assert surface.defect(triple) == plain_defect(surface.name, triple, sigma)


class Ratio(Fraction):
    """A Fraction subclass, which the conversion reads through Fraction(v)."""


fraction_values = st.builds(Fraction, small, st.integers(1, 10**6))
# the triples that the conversion reads by as_integer_ratio directly, or
# next to it: Fractions only, with one denominator or integral among them
FAST_PATH_TRIPLES = {
    "shared-denominator": shared_denominator,
    "integral-fractions": st.lists(small.map(Fraction), min_size=3, max_size=3),
    "fractions": st.lists(fraction_values, min_size=3, max_size=3),
    "int-and-fraction": st.lists(st.one_of(small, fraction_values), min_size=3, max_size=3),
    "bool-and-fraction": st.lists(st.one_of(st.booleans(), fraction_values), min_size=3, max_size=3),
    "fraction-subclass": st.lists(st.one_of(fraction_values, fraction_values.map(Ratio)), min_size=3, max_size=3),
}


@pytest.mark.parametrize("kind", sorted(FAST_PATH_TRIPLES))
@KERNEL_SETTINGS
@given(st.data())
def test_fast_path_matches_generic_denominator(kind, data):
    triple = data.draw(FAST_PATH_TRIPLES[kind])
    ints, d = generic_common_denominator(triple)
    converted = _over_one_denominator(triple)
    assert converted == (*ints, d)
    assert all(type(v) is int for v in converted)
    assert _over_one_denominator(tuple(triple)) == converted


@pytest.mark.parametrize("surface", [FRICKE, DOUBLE, replace(FRICKE, sigma=Fraction(-4))])
@pytest.mark.parametrize(
    "p",
    [
        (),
        (1,),
        (1, 1),
        (Fraction(1, 2), Fraction(1, 3)),
        (1, 1, 1, 1),
        (Fraction(1, 2), 1, 2, 5),
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
        (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)),
    ],
)
def test_contains_rejects_other_arities(surface, p):
    # a point has three coordinates; any other length is the plain
    # ValueError of unpacking the variable-arity conversion into three names,
    # message and all ("not enough values to unpack (expected 3, got 2)")
    with pytest.raises(ValueError) as generic:
        (X, Y, Z), d = generic_common_denominator(p)
    for method in (surface.contains, surface.defect, _over_one_denominator):
        with pytest.raises(ValueError) as exc:
            method(p)
        assert type(exc.value) is ValueError
        assert str(exc.value) == str(generic.value)


@pytest.mark.parametrize("name", [*SECTION_FRAMES, *LINE_PAIRS])
def test_chord_conversions_match_generic_denominator(name, monkeypatch):
    # the chord reads a point's form (X, N, Z, d) as it is: X/d, Z/d and
    # B/d are x, z and beta, and its gradient is d^2 times the conic's
    frame, pool = section_pool(name, random.Random(name))
    beta, _gamma = slope_conic(frame)
    for form, (x, z) in [(frame.form, (frame.m0, frame.k0)), *((p.form, p.xy) for p in pool)]:
        ints, d = generic_common_denominator((x, frame.n0, z))
        assert form == (*ints, d)
        X, Z, d, B, gx, gz = _in_integers(frame.surface, form)
        assert (Fraction(X, d), Fraction(Z, d), Fraction(B, d)) == (x, z, beta)
        assert (gx, gz) == tuple(d * d * c for c in fraction_gradient(frame, x, z))
    # quadric_add hands the chord kernel the base point's form and B - A
    # times both points' denominators, a positive multiple of B - A
    calls = []
    kernel = sections._second_point

    def recording(frame, form, u, w):
        calls.append((form, u, w))
        return kernel(frame, form, u, w)

    monkeypatch.setattr(sections, "_second_point", recording)
    checked = 0
    for p in pool:
        for q in pool[:10]:
            if p.xy == q.xy:
                continue
            del calls[:]
            outcome(sections.quadric_add, frame, p, q)
            [(form, u, w)] = calls
            scale = p.form[3] * q.form[3]
            assert form == frame.form and scale > 0
            assert (u, w) == (scale * (q.x - p.x), scale * (q.z - p.z))
            checked += 1
    assert checked > 100


def test_chord_reads_beta_over_the_forms_denominator():
    # at the chart point (1/2, 1/3) beta = -49/18 in lowest terms, while the
    # form's d = 108 is the lcm of the denominators of (m0, n0, k0)
    frame = SECTION_FRAMES["fricke-chart"]
    assert frame.form == (147, 98, 294, 108)
    X, Z, d, B, gx, gz = _in_integers(frame.surface, frame.form)
    assert (X, Z, d, B) == (147, 294, 108, -294)
    assert Fraction(B, d) == frame.conic[0] == Fraction(-49, 18)
    cx, cz = fraction_gradient(frame, frame.m0, frame.k0)
    assert (gx, gz) == (d * d * cx, d * d * cz)


def fraction_compose(surface, p, q):
    """The finite secant composition in Fractions, from its closed form."""
    (a, b, c), (m, n, k) = p, q
    w = 2 * (surface.bilinear(p, q) - surface.sigma)
    kappa = surface.kappa
    return (
        (kappa * (a * n * k + b * c * m) - w) / (kappa * (b - n) * (c - k)),
        (kappa * (b * m * k + a * c * n) - w) / (kappa * (a - m) * (c - k)),
        (kappa * (c * m * n + a * b * k) - w) / (kappa * (a - m) * (b - n)),
    )


@KERNEL_SETTINGS
@given(surfaces, shared_denominator, st.sampled_from(PERMUTATIONS[1:3]))
def test_compose_on_operands_sharing_one_denominator(base, triple, cycle):
    # a triple over one denominator and its cyclic shift lie on the same
    # sigma-surface and share that denominator in every coordinate
    assume(len(set(triple)) == 3)
    surface = replace(base, sigma=base.defect(triple))
    p = SurfacePoint(*triple, surface)
    q = SurfacePoint(*(triple[i] for i in cycle), surface)
    assert len({v.denominator for v in (*p.coords, *q.coords)}) == 1
    result = assert_matches_oracle(p, q)
    assert isinstance(result, Finite)
    assert result.point.coords == fraction_compose(surface, p.coords, q.coords)


# -- the integer form a point keeps --------------------------------------------

SIGMA_SHIFTED = replace(FRICKE, sigma=Fraction(25, 36))
FORM_POINTS = {
    "fricke": FrickePoint(1, 1, 1),
    "fricke-chart": param_affine(Fraction(2, 3), Fraction(-5, 7)),
    "double": F2Point(1, 4, 25),
    "double-chart": f2_param_affine(Fraction(3, 4), Fraction(7, 2)),
    "sigma-shifted": SurfacePoint(-1, Fraction(1, 2), Fraction(-2, 3), SIGMA_SHIFTED),
    "sigma-shifted-zero": SurfacePoint(0, Fraction(1, 2), Fraction(2, 3), SIGMA_SHIFTED),
}


def assert_form_is_canonical(p: SurfacePoint):
    ints, d = generic_common_denominator(p.coords)
    assert p.form == _over_one_denominator(p.coords) == (*ints, d)
    assert all(type(v) is int for v in p.form)


@pytest.mark.parametrize("name", FORM_POINTS)
def test_stored_form_is_the_points_integer_form(name):
    p = FORM_POINTS[name]
    assert_form_is_canonical(p)
    # a copy keeps the form; replace validates anew and recomputes it
    for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(other) is type(p) and other == p
        assert other.form == p.form
    assert replace(p).form == p.form
    swapped = replace(p, x=p.y, y=p.x)
    assert_form_is_canonical(swapped)
    assert swapped.form == (p.form[1], p.form[0], *p.form[2:])
    with pytest.raises(TypeError, match="no field 'form'"):
        replace(p, form=(0, 0, 0, 1))


@KERNEL_SETTINGS
@given(surfaces, chart_parameters, chart_parameters, shifts)
def test_stored_form_on_tall_and_shifted_points(base, P, Q, shift):
    p = CHARTS[base.name](P, Q)
    assert_form_is_canonical(p)
    # the chart point moved in x lies on the surface shifted by its defect
    coords = (p.x + shift, p.y, p.z)
    shifted = SurfacePoint(*coords, replace(base, sigma=base.defect(coords)))
    assert_form_is_canonical(shifted)
    assert_form_is_canonical(viete(shifted, "L"))


def test_form_leaves_eq_hash_and_repr():
    one = FrickePoint(1, 1, 1)
    spelled = FrickePoint(Fraction(2, 2), 1, 1)
    assert one == spelled and hash(one) == hash(spelled)
    # eq, hash and repr read the four fields x, y, z and surface, as before the
    # form was stored: a point whose form is set wrong is still equal, with the
    # same hash and repr
    points = [one, *FORM_POINTS.values(), FrickePoint(0, 0, 0), SurfacePoint(0, 0, 0, DOUBLE)]
    for p in points:
        assert hash(p) == hash((p.x, p.y, p.z, p.surface))
        for q in points:
            assert (p == q) == (type(p) is type(q) and (p.x, p.y, p.z, p.surface) == (q.x, q.y, q.z, q.surface))
        wrong = copy.copy(p)
        object.__setattr__(wrong, "form", (0, 0, 0, 7))
        assert (wrong, hash(wrong), repr(wrong)) == (p, hash(p), repr(p)) and wrong.form != p.form
    surface = "surface=Surface(name='fricke', kappa=3, cross=0, sigma=Fraction(0, 1))"
    ones = "x=Fraction(1, 1), y=Fraction(1, 1), z=Fraction(1, 1)"
    assert repr(one) == repr(spelled) == f"FrickePoint({ones}, {surface})"
    assert repr(F2Point(1, 4, 25)) == (
        "F2Point(x=Fraction(1, 1), y=Fraction(4, 1), z=Fraction(25, 1), "
        "surface=Surface(name='double', kappa=9, cross=1, sigma=Fraction(0, 1)))"
    )
    assert repr(SurfacePoint(1, 2, 3, replace(FRICKE, sigma=Fraction(-4)))) == (
        "SurfacePoint(x=Fraction(1, 1), y=Fraction(2, 1), z=Fraction(3, 1), "
        "surface=Surface(name='fricke', kappa=3, cross=0, sigma=Fraction(-4, 1)))"
    )


@pytest.mark.parametrize(
    "p, q",
    [
        (FrickePoint(1, 1, 1), FrickePoint(Fraction(2, 2), 1, 1)),
        (FrickePoint(1, 1, 1), FrickePoint(True, decimal.Decimal("1.000"), Fraction(3, 3))),
        (F2Point(1, 4, 25), F2Point(Fraction(4, 4), decimal.Decimal("4.0"), 25)),
        (
            SurfacePoint(-1, Fraction(1, 2), Fraction(-2, 3), SIGMA_SHIFTED),
            SurfacePoint(Fraction(-3, 3), decimal.Decimal("0.5"), Fraction(-4, 6), SIGMA_SHIFTED),
        ),
    ],
)
def test_equal_points_spelled_apart_are_coincident(p, q):
    assert p.form == q.form
    assert compose(p, q) == Undefined("coincident-points")
    assert compose(q, p) == Undefined("coincident-points")


def test_equal_numerators_over_other_denominators_are_not_coincident():
    # the double surface holds the line x + y + z = 0, z = 0 through the
    # origin, so (1, -1, 0) and (1/2, -1/2, 0) share the numerators of their
    # forms; they differ, and the line through them lies on the surface
    p, q = F2Point(1, -1, 0), F2Point(Fraction(1, 2), Fraction(-1, 2), 0)
    assert p.form[:3] == q.form[:3] and p.form != q.form
    for a, b in ((p, q), (q, p)):
        assert assert_matches_oracle(a, b) == Infinite(ProjectivePoint((1, -1, 0, 0)))


# -- the integer form a section frame and a section point keep ------------------


def parent_conic(frame):
    """(beta, gamma) as the frame computed them when it stored them."""
    s, a, b = frame.surface, frame.n0.numerator, frame.n0.denominator
    return Fraction(2 * s.cross * b - s.kappa * a, b), Fraction(2 * s.cross * a, b)


def section_triple(v):
    """(m0, n0, k0) of a frame, (x, n0, z) of a section point."""
    if isinstance(v, SectionFrame):
        return v.m0, v.n0, v.k0
    return v.x, v.frame.n0, v.z


def assert_section_form_is_canonical(v):
    ints, d = generic_common_denominator(section_triple(v))
    assert v.form == _over_one_denominator(section_triple(v)) == (*ints, d)
    assert all(type(c) is int for c in v.form)


# the group-law pools of the acceptance criteria, on integral and rational frames
GROUP_POOLS = {
    "pool-fricke-1-5-2": (SectionFrame(1, 5, 2), section_point_pool),
    "pool-fricke-rational": (SECTION_FRAMES["fricke-rational"], section_point_pool),
    "pool-fricke-chart": (SECTION_FRAMES["fricke-chart"], section_point_pool),
    "pool-double-1-4-25": (F2SectionFrame(1, 4, 25), f2_section_point_pool),
    "pool-double-rational": (SECTION_FRAMES["double-rational"], f2_section_point_pool),
}


@pytest.mark.parametrize("name", [*SECTION_FRAMES, *LINE_PAIRS, *GROUP_POOLS])
def test_section_forms_are_the_integer_forms(name):
    if name in GROUP_POOLS:
        frame, make_pool = GROUP_POOLS[name]
        pool = make_pool(frame, random.Random(name), 20)
    else:
        frame, pool = section_pool(name, random.Random(name))
    assert_section_form_is_canonical(frame)
    for p in pool:
        assert_section_form_is_canonical(p)
    assert frame.conic == parent_conic(frame) == slope_conic(frame)
    assert all(type(v) is Fraction for v in frame.conic)


@KERNEL_SETTINGS
@given(surfaces, st.lists(rationals, min_size=3, max_size=3))
def test_section_forms_on_tall_sigma_frames(surface, triple):
    assume(triple[1] != 0)
    frame = shifted(surface, tuple(triple))
    assert_section_form_is_canonical(frame)
    assert_section_form_is_canonical(frame.origin)
    assert frame.conic == parent_conic(frame)


def test_section_form_leaves_eq_hash_and_repr():
    frame = SectionFrame(1, 5, 2)
    spelled = SectionFrame(Fraction(2, 2), decimal.Decimal("5.0"), 2)
    p, q = SectionPoint(1, 2, frame), SectionPoint(Fraction(3, 3), 2, spelled)
    assert frame == spelled and hash(frame) == hash(spelled)
    assert p == q and hash(p) == hash(q)
    assert p.form == q.form and frame.form == spelled.form
    # the fields compared, hashed and shown are those before the form was stored:
    # a frame or point whose form is set wrong is still equal, with the same hash
    # and repr, and one with other coordinates is not
    assert hash(frame) == hash((frame.m0, frame.n0, frame.k0, frame.surface))
    assert hash(p) == hash((p.x, p.z, p.frame))
    for v in (frame, p):
        wrong = copy.copy(v)
        object.__setattr__(wrong, "form", (0, 0, 0, 7))
        assert (wrong, hash(wrong), repr(wrong)) == (v, hash(v), repr(v)) and wrong.form != v.form
    assert SectionFrame(2, 5, 1) != frame and SectionPoint(29, 2, frame) != SectionPoint(2, 29, frame)
    surface = "surface=Surface(name='fricke', kappa=3, cross=0, sigma=Fraction(0, 1))"
    shown = f"SectionFrame(m0=Fraction(1, 1), n0=Fraction(5, 1), k0=Fraction(2, 1), {surface})"
    assert repr(frame) == repr(spelled) == shown
    assert repr(p) == repr(q) == f"SectionPoint(x=Fraction(1, 1), z=Fraction(2, 1), frame={shown})"
    assert repr(F2SectionFrame(1, 4, 25)) == (
        "F2SectionFrame(m0=Fraction(1, 1), n0=Fraction(4, 1), k0=Fraction(25, 1), "
        "surface=Surface(name='double', kappa=9, cross=1, sigma=Fraction(0, 1)))"
    )
    # a copy keeps the form; replace validates anew and recomputes it
    for v in (frame, p, F2SectionFrame(1, 4, 25), SECTION_FRAMES["fricke-shifted"].origin):
        for other in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(other) is type(v) and other == v
            assert other.form == v.form
        assert replace(v).form == v.form
        with pytest.raises(TypeError, match="no field 'form'"):
            replace(v, form=(0, 0, 0, 1))
