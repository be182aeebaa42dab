"""Property tests of the secant kernels, which compute in integers over one
common denominator per point: ``compose`` against the line-cubic oracle
and ``surface_defect`` against the surface polynomial in plain Fractions."""
from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frickelab import (
    DEGENERATE_CUBIC,
    DOUBLE,
    FRICKE,
    Finite,
    Infinite,
    SurfacePoint,
    compose,
    f2_param_affine,
    line_point,
    line_third_intersection,
    param_affine,
    surface_defect,
)
from frickelab.exact import SURFACES

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
@given(surfaces, st.lists(rationals, min_size=3, max_size=3, unique=True))
def test_compose_on_sigma_surfaces(base, triple):
    # a point fixes sigma, almost always non-integral; its permutations lie
    # on the same sigma-surface, and so do their compositions, whose
    # denominators differ from the operands'
    x, y, z = triple
    sigma = surface_defect(base.name, triple)
    assume(sigma.denominator != 1)
    surf = replace(base, sigma=sigma)
    p = SurfacePoint(x, y, z, surf)
    r = assert_matches_oracle(p, SurfacePoint(z, x, y, surf))
    if isinstance(r, Finite):
        assert_matches_oracle(r.point, SurfacePoint(y, z, x, surf))
        assert_matches_oracle(SurfacePoint(y, x, z, surf), r.point)


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
