"""Values built without re-validation, and the rule that keeps them few.

``tree.generate`` builds the Vieta children of a validated root through
``CanonicalTriple._vieta_child``, the shared-radicand arithmetic of
``exact`` builds quadratic irrationals through
``QuadraticIrrational._squarefree``, ``compose`` and ``viete`` build their
results through ``SurfacePoint._remaining_root``, and the section chord
builds its second point through ``SectionPoint._second_root``; none runs
its class's validation.  These tests hold each to its validating constructor,
and an AST scan keeps their call sites where a law guarantees the skipped
check.  A result of ``compose`` or ``viete`` builds its form on first read;
the tests pin that it is unbuilt until then, read, copied or pickled the same
as a validated point's, and that the laws build no form they do not read.
The chord also builds its point's form by one content gcd over the chord's
one denominator; every chord's form is held to ``_over_one_denominator``.
"""
import ast
import copy
import itertools
import math
import pickle
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frickelab
from frickelab import (
    DOUBLE,
    FRICKE,
    CanonicalTriple,
    F2Point,
    Finite,
    FrickePoint,
    FrickeSurface,
    QuadraticIrrational,
    SectionPoint,
    SurfacePoint,
    canonical,
    compose,
    f2_param_affine,
    fundamental_points,
    generate,
    make_quadratic,
    nielsen,
    param_affine,
    quadric_add,
    quadric_double,
    quadric_inverse,
    replace,
    star,
    viete,
)
from frickelab import fricke, sections
from frickelab.double_fricke import F2SectionFrame
from frickelab.exact import OffSurface, SingularPoint, _over_one_denominator, _square_part, _squarefree_split
from frickelab.sections import DenominatorVanishes, OffSection, SectionFrame, _in_integers, infinity_points
from frickelab.tree import RootOffSurface, TreeNode

# -- trusted tree children ------------------------------------------------------


def validated_generate(root, depth=None, max_component=None):
    """generate's breadth-first order, each node checked with Surface.contains
    and built by the validating constructor."""
    s = root.surface

    def admitted(t):
        return max_component is None or max(map(abs, t)) <= max_component

    if not admitted(root.values):
        return []
    out, seen, frontier, level = [TreeNode(root, None, 0)], {root.values}, [0], 0
    while frontier and (depth is None or level < depth):
        level += 1
        found = {}
        for parent in frontier:
            a, b, c = out[parent].triple.values
            for child, via in (
                ((s.other_root(b, c, a), b, c), "x"),
                ((a, s.other_root(a, c, b), c), "y"),
                ((a, b, s.other_root(a, b, c)), "z"),
            ):
                assert s.contains(child)
                key = tuple(sorted(child))
                if key not in seen and admitted(key):
                    found.setdefault(key, (via, parent))
        seen |= found.keys()
        frontier = list(range(len(out), len(out) + len(found)))
        for key in sorted(found):
            via, parent = found[key]
            out.append(TreeNode(CanonicalTriple(key, s), via, level, parent))
    return out


ROOTS = [
    ((1, 1, 1), FRICKE),
    ((1, 1, 1), DOUBLE),
    ((1, 2, 3), FrickeSurface(-4)),
    ((1, 2, 3), replace(DOUBLE, sigma=Fraction(-18))),
    ((-1, 0, 1), DOUBLE),
    ((-2, 0, 2), DOUBLE),
    ((-5, 0, 5), DOUBLE),
]
ROOT_IDS = ["markov", "double", "fricke-sigma-4", "double-sigma-18", "neg-1", "neg-2", "neg-5"]


@pytest.mark.parametrize("values, surface", ROOTS, ids=ROOT_IDS)
@pytest.mark.parametrize(
    "limits",
    [{"depth": 0}, {"depth": 1}, {"depth": 5}, {"max_component": 10**6}, {"depth": 4, "max_component": 200}],
    ids=["depth0", "depth1", "depth5", "bound", "both"],
)
def test_children_match_validated_reference(values, surface, limits):
    root = canonical(values, surface)
    nodes = generate(root, **limits)
    expected = validated_generate(root, **limits)
    assert nodes == expected
    for node, ref in zip(nodes, expected):
        assert hash(node.triple) == hash(ref.triple)
        assert repr(node.triple) == repr(ref.triple)
        assert node.triple.values == tuple(sorted(node.triple.values))
        assert node.triple.surface is surface
        assert surface.contains(node.triple.values)


def test_public_construction_still_validates():
    with pytest.raises(ValueError, match="not sorted"):
        CanonicalTriple((2, 1, 1))
    with pytest.raises(RootOffSurface):
        canonical((1, 1, 3))
    with pytest.raises(RootOffSurface):
        canonical((1, 1, 1), FrickeSurface(-4))


# -- the quadratic-irrational path ----------------------------------------------


def check_split(p, q):
    d = p * p - 4 * q * q
    s, r = _squarefree_split(p - 2 * q, p + 2 * q)
    assert s == _square_part(d), (p, q)
    assert s * s * r == d, (p, q)


def test_split_every_integral_beta():
    for beta in range(3, 10**4 + 1):
        check_split(beta, 1)
        check_split(-beta, 1)


def test_split_rational_beta():
    for q in range(2, 40):
        for p in range(2 * q + 1, 2 * q + 400):
            if math.gcd(p, q) == 1:
                check_split(p, q)
                check_split(-p, q)


def parent_infinity_points(frame):
    """infinity_points by one make_quadratic on the whole radicand."""
    beta, _gamma = frame.conic
    p, q = beta.numerator, beta.denominator
    d = p * p - 4 * q * q
    hi = make_quadratic(Fraction(-p, 2 * q), Fraction(1, 2 * q), d) if d else -beta / 2
    return (hi.conjugate() if isinstance(hi, QuadraticIrrational) else -beta - hi, hi)


INFINITY_MARKOV = (2, 13, 89, 433, 1597, 6466, 14701, 43261, 96557, 195025)


def markov_frames():
    for n0 in INFINITY_MARKOV:
        for triple in fundamental_points(n0):
            m0, k0, _n0 = triple.values
            yield SectionFrame(m0, n0, k0)


def double_frames():
    for m in (1, 2, 5, 13, 29, 34, 89, 433):
        for triple in fundamental_points(m):
            a, b, _m = triple.values
            yield F2SectionFrame(a * a, m * m, b * b)


def rational_frames():
    for P in (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3)):
        for Q in (Fraction(1, 3), Fraction(-4, 5), Fraction(7, 2)):
            for chart, frame in ((param_affine, SectionFrame), (f2_param_affine, F2SectionFrame)):
                x, y, z = chart(P, Q).coords
                yield frame(x, y, z)


@pytest.mark.parametrize("frames", [markov_frames, double_frames, rational_frames])
def test_infinity_points_match_parent_formula(frames):
    checked = 0
    for frame in frames():
        beta, _gamma = frame.conic
        if beta * beta < 4:
            continue
        got, want = infinity_points(frame), parent_infinity_points(frame)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        for value in got:
            if isinstance(value, QuadraticIrrational):
                assert value == QuadraticIrrational(value.a, value.b, value.d, value.c)
                assert repr(value) == repr(QuadraticIrrational(value.a, value.b, value.d, value.c))
        checked += 1
    assert checked >= 5


def test_shared_radicand_results_equal_validated_ones():
    x, y = make_quadratic(1, 2, 30), make_quadratic(Fraction(3, 4), Fraction(-5, 6), 30)
    for value in (x + y, x - y, x * y, 2 - x, x * Fraction(7, 3), -x, x.conjugate(), 1 + y):
        rebuilt = QuadraticIrrational(value.a, value.b, value.d, value.c)
        assert value == rebuilt and hash(value) == hash(rebuilt)


# -- trusted points: compose, viete and nielsen ---------------------------------

TRUSTED_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


def assert_trusted(p: SurfacePoint) -> SurfacePoint:
    """p is the point that the validating constructor of its class builds
    from its coordinates, and lies on its surface."""
    validated = type(p)(*p.coords, p.surface)
    assert all(type(v) is Fraction for v in p.coords)
    assert p.coords == validated.coords and p.surface is validated.surface
    assert p == validated and hash(p) == hash(validated) and repr(p) == repr(validated)
    assert p.form == validated.form == _over_one_denominator(p.coords)
    assert p.surface.contains(p.coords)
    return p


def trusted_results(p: SurfacePoint, q: SurfacePoint):
    """Every point that viete, nielsen and compose build from p and q, each
    checked by ``assert_trusted``; star's too on the Fricke surface."""
    out = []
    for a in (p, q):
        moved = {g: assert_trusted(viete(a, g)) for g in "LR"}
        out.extend(moved.values())
        if a.surface.cross:
            for generator, g in (("first", "L"), ("second", "R")):
                assert assert_trusted(nielsen(a, generator)) == moved[g]
    for a, b in ((p, q), (q, p)):
        r = compose(a, b)
        if isinstance(r, Finite):
            assert type(r.point) is type(a)
            out.append(assert_trusted(r.point))
    if p.surface == FRICKE:
        r = star(p, q)
        if isinstance(r, Finite):
            out.append(assert_trusted(r.point))
    return out


TALL = 2**512
tall_parameters = st.builds(Fraction, st.integers(-TALL, TALL).filter(bool), st.integers(1, TALL))


@TRUSTED_SETTINGS
@given(st.sampled_from([param_affine, f2_param_affine]), *[tall_parameters] * 4)
@example(param_affine, Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 5))
@example(f2_param_affine, Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 5))
def test_trusted_points_on_tall_charts(chart, P1, Q1, P2, Q2):
    p, q = chart(P1, Q1), chart(P2, Q2)
    assert type(p) is (FrickePoint if chart is param_affine else F2Point)
    trusted_results(p, q)


integral = st.integers(-50, 50)
small_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
PERMUTATIONS = list(itertools.permutations(range(3)))


@TRUSTED_SETTINGS
@given(
    st.sampled_from([(FRICKE, FrickePoint), (DOUBLE, F2Point), (FRICKE, SurfacePoint), (DOUBLE, SurfacePoint)]),
    st.one_of(st.lists(integral, min_size=3, max_size=3), st.lists(small_rationals, min_size=3, max_size=3)),
    st.lists(st.tuples(st.sampled_from("LR"), st.sampled_from(PERMUTATIONS)), min_size=1, max_size=6),
)
@example((FRICKE, FrickePoint), [1, 2, 3], [("L", (1, 2, 0)), ("R", (0, 2, 1))])
@example((FRICKE, FrickePoint), [Fraction(1, 2), Fraction(2, 3), 5], [("R", (2, 0, 1)), ("L", (0, 1, 2))])
@example((DOUBLE, F2Point), [1, 2, -3], [("L", (1, 2, 0)), ("R", (0, 2, 1))])
def test_trusted_points_on_sigma_surfaces(kind, triple, moves):
    # the triple fixes sigma, integral for an integral triple and almost always
    # not for a rational one; chains of Vieta moves and permutations stay on it
    base, cls = kind
    surface = replace(base, sigma=base.defect(triple))
    chain = [cls(*triple, surface)]
    for generator, order in moves:
        moved = viete(chain[-1], generator).coords
        chain.append(cls(*(moved[i] for i in order), surface))
    for p, q in zip(chain, chain[1:]):
        for r in trusted_results(p, q):
            assert r.surface is surface and type(r) is cls


# starts with a zero coordinate, on the double surface and on Fricke
# surfaces with sigma = 2 and sigma = 13/36; Vieta moves keep meeting zeros
ZERO_STARTS = [
    F2Point(-1, 0, 1),
    F2Point(-5, 0, 5),
    F2Point(Fraction(-1, 4), 0, Fraction(1, 4)),
    FrickePoint(1, 1, 0, FrickeSurface(2)),
    FrickePoint(Fraction(1, 2), 0, Fraction(1, 3), FrickeSurface(Fraction(13, 36))),
]


@pytest.mark.parametrize(
    "start", ZERO_STARTS, ids=["double-1", "double-5", "double-1/4", "fricke-sigma-2", "fricke-sigma-13/36"]
)
def test_trusted_points_through_zero_coordinates(start):
    level, seen, zeros = [start], {start.coords}, 0
    for _depth in range(3):
        found = []
        for p in level:
            for order in PERMUTATIONS:
                permuted = type(p)(*(p.coords[i] for i in order), p.surface)
                for generator in "LR":
                    child = assert_trusted(viete(permuted, generator))
                    zeros += 0 in child.coords
                    if child.coords not in seen:
                        seen.add(child.coords)
                        found.append(child)
        level = found
    assert zeros >= 10
    points = sorted(seen, key=lambda c: (max(max(abs(v.numerator), v.denominator) for v in c), c))[:12]
    points = [type(start)(*c, start.surface) for c in points]
    for p, q in itertools.combinations(points, 2):
        trusted_results(p, q)


def test_public_point_construction_still_validates():
    with pytest.raises(OffSurface):
        FrickePoint(1, 1, 3)
    with pytest.raises(OffSurface):
        F2Point(1, 1, 2)
    with pytest.raises(OffSurface):
        SurfacePoint(1, 1, 1, FrickeSurface(-4))
    with pytest.raises(OffSection):
        SectionPoint(1, 3, SectionFrame(1, 5, 2))


# -- trusted points: the form built on first read ----------------------------------

# each builds a fresh result that nothing has read the form of
UNREAD = {
    "compose-fricke": lambda: compose(FrickePoint(2, 1, 1), FrickePoint(1, 2, 5)).point,
    "compose-double": lambda: compose(F2Point(4, 1, 1), F2Point(1, 4, 25)).point,
    "compose-fricke-sigma-4": lambda: compose(
        SurfacePoint(1, 2, 3, FrickeSurface(-4)), SurfacePoint(3, 1, 2, FrickeSurface(-4))
    ).point,
    "viete-L": lambda: viete(FrickePoint(1, 2, 5), "L"),
    "viete-R": lambda: viete(FrickePoint(1, 2, 5), "R"),
    "nielsen-first": lambda: nielsen(F2Point(4, 1, 1), "first"),
    "nielsen-second": lambda: nielsen(F2Point(4, 1, 1), "second"),
    "star-pq": lambda: star(FrickePoint(2, 1, 1), FrickePoint(1, 2, 5)).point,
    "star-qp": lambda: star(FrickePoint(1, 2, 5), FrickePoint(2, 1, 1)).point,
}


def form_unbuilt(p: SurfacePoint) -> bool:
    try:
        SurfacePoint.form.__get__(p, SurfacePoint)
    except AttributeError:
        return True
    return False


@pytest.mark.parametrize("name", UNREAD)
def test_trusted_form_built_on_first_read(name):
    r = UNREAD[name]()
    validated = type(r)(*r.coords, r.surface)
    assert r == validated and r.surface.contains(r.coords)
    assert form_unbuilt(r)
    form = r.form
    assert not form_unbuilt(r)
    assert form == _over_one_denominator(r.coords) == validated.form
    assert r.form is form


@pytest.mark.parametrize("name", UNREAD)
def test_copies_and_pickles_of_an_unread_result_keep_its_form(name):
    expected = UNREAD[name]()
    for duplicate in (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))):
        r = UNREAD[name]()
        other = duplicate(r)
        assert type(other) is type(r) and other == r == expected and repr(other) == repr(r)
        assert not form_unbuilt(other) and other.form == r.form == expected.form


@pytest.mark.parametrize("name", UNREAD)
def test_replace_of_an_unread_result_validates(name):
    r = UNREAD[name]()
    again = replace(r)
    assert type(again) is type(r) and again == r and again is not r
    assert not form_unbuilt(again) and again.form == r.form
    with pytest.raises(OffSurface):
        replace(r, z=r.z + 1)


@pytest.mark.parametrize("name", UNREAD)
def test_form_of_a_result_cannot_be_set_or_deleted(name):
    r = UNREAD[name]()
    for unread in (True, False):
        with pytest.raises(AttributeError, match="cannot assign to field 'form'"):
            r.form = (1, 1, 1, 1)
        with pytest.raises(AttributeError, match="cannot delete field 'form'"):
            del r.form
        assert form_unbuilt(r) == unread
        assert r.form == _over_one_denominator(r.coords)


@pytest.fixture
def form_builds(monkeypatch):
    """The calls to ``_over_one_denominator`` made through ``fricke`` from now on."""
    calls = []
    build = fricke._over_one_denominator

    def counted(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(fricke, "_over_one_denominator", counted)
    return calls


@pytest.mark.parametrize(
    "law, expected",
    [
        (lambda p, q: compose(p, q), 0),
        (lambda p, q: compose(q, p), 0),
        (star, 1),  # the outer composition reads the inner result's form
        (lambda p, q: viete(p, "L"), 0),
        (lambda p, q: viete(q, "R"), 0),
    ],
    ids=["compose", "compose-swapped", "star", "viete-L", "viete-R"],
)
def test_laws_build_only_the_forms_they_read(form_builds, law, expected):
    p, q = FrickePoint(2, 1, 1), FrickePoint(1, 2, 5)
    form_builds.clear()
    law(p, q)
    assert len(form_builds) == expected


@pytest.mark.parametrize("which", ["validated", "unread"])
def test_unknown_attributes_behave_as_on_any_object(which):
    p = FrickePoint(2, 1, 1)
    if which == "unread":
        p = compose(p, FrickePoint(1, 2, 5)).point
    with pytest.raises(AttributeError) as caught:
        p.nope
    assert str(caught.value) == "'FrickePoint' object has no attribute 'nope'"
    assert caught.value.name == "nope" and caught.value.obj is p
    assert not hasattr(p, "nope") and getattr(p, "nope", 0) == 0
    assert form_unbuilt(p) == (which == "unread")


# -- trusted points: the section chord --------------------------------------------


def assert_trusted_on_section(p: SectionPoint, frame: SectionFrame) -> SectionPoint:
    """p is the point that the validating constructor builds on the frame,
    and lies on its section."""
    validated = SectionPoint(p.x, p.z, frame)
    assert type(p) is SectionPoint and p.frame is frame
    assert type(p.x) is Fraction and type(p.z) is Fraction
    assert p == validated and hash(p) == hash(validated) and repr(p) == repr(validated)
    assert p.form == validated.form == _over_one_denominator((p.x, frame.n0, p.z))
    assert frame.contains(p.x, p.z)
    return p


def shifted(surface, triple, frame=SectionFrame):
    return frame(*triple, replace(surface, sigma=surface.defect(triple)))


CHORD_FRAMES = {
    "fricke": SectionFrame(1, 5, 2),
    "double": F2SectionFrame(1, 4, 25),
    "fricke-chart": SectionFrame(*param_affine(Fraction(1, 2), Fraction(1, 3)).coords),
    "fricke-shifted-integral": shifted(FRICKE, (2, 3, -1)),
    "fricke-shifted": shifted(FRICKE, (Fraction(2, 3), 5, Fraction(-1, 2))),
    "double-shifted": shifted(DOUBLE, (Fraction(1, 2), -3, Fraction(4, 7)), F2SectionFrame),
    # beta = 0: an ellipse, on which every chord direction meets the conic again
    "double-ellipse": F2SectionFrame(0, Fraction(2, 9), Fraction(-2, 9)),
    # beta = -2: a parabola at n0 = 4/9 on the double surface; on a Fricke
    # surface gamma = 0 and the section is the line pair (x - z)^2 = 4
    "double-parabola": F2SectionFrame(Fraction(-1, 9), Fraction(4, 9), Fraction(-1, 9)),
    "fricke-parallel-lines": shifted(FRICKE, (1, Fraction(2, 3), 3)),
}


def chord_over_one_denominator(frame, form, u, w):
    """(X', N*lead, Z', D): the chord's second point from the form in the
    direction (u, w), as (x, n0, z) over the chord's one denominator
    D = d*lead, not reduced; D < 0 where lead < 0."""
    X, Z, d, B, cx, cz = _in_integers(frame.surface, form)
    lead = d * (u * u + w * w) + B * u * w
    lin = cx * u + cz * w
    return X * lead - lin * u, form[1] * lead, Z * lead - lin * w, d * lead


def assert_chord_form(frame, form, u, w, p):
    """p, the chord's point from the form in the direction (u, w), is
    (X', Z')/D, and its form is the canonical form of (x, n0, z), over a
    positive denominator; p is checked by ``assert_trusted_on_section``.
    Returns D."""
    X, N, Z, D = chord_over_one_denominator(frame, form, u, w)
    assert (p.x, p.z) == (Fraction(X, D), Fraction(Z, D))
    assert Fraction(N, D) == frame.n0
    assert p.form == _over_one_denominator((p.x, frame.n0, p.z))
    assert p.form[3] > 0
    assert_trusted_on_section(p, frame)
    return D


@contextmanager
def checked_chords():
    """Every call of the chord kernel in the body, the laws' own included,
    checked by ``assert_chord_form``; yields the list of the chords' D."""
    kernel, denominators = sections._second_point, []

    def checked(frame, form, u, w):
        p = kernel(frame, form, u, w)
        denominators.append(assert_chord_form(frame, form, u, w, p))
        return p

    sections._second_point = checked
    try:
        yield denominators
    finally:
        sections._second_point = kernel


def chord_results(frame, directions):
    """The chord's points through O in the integer directions, and every sum,
    double and inverse among them, each checked by ``assert_trusted_on_section``
    and each chord by ``assert_chord_form``; a chord parallel to an asymptote
    or a tangent at a node is skipped.  Returns the points, the results and
    the chords' D."""
    points = [frame.origin]
    results = []
    with checked_chords() as denominators:
        for u, w in directions:
            try:
                points.append(sections._second_point(frame, frame.form, u, w))
            except DenominatorVanishes:
                continue
        for p in points:
            for law, args in [(quadric_double, (p,)), (quadric_inverse, (p,))] + [
                (quadric_add, (p, q)) for q in points[:4]
            ]:
                try:
                    results.append(law(frame, *args))
                except (DenominatorVanishes, SingularPoint):
                    continue
    return points, results, denominators


directions = st.lists(
    st.tuples(st.integers(-2**64, 2**64), st.integers(-2**64, 2**64)).filter(any), min_size=1, max_size=5
)


@TRUSTED_SETTINGS
@given(st.sampled_from(sorted(CHORD_FRAMES)), directions)
def test_trusted_chord_points(name, chords):
    frame = CHORD_FRAMES[name]
    chord_results(frame, chords)


@TRUSTED_SETTINGS
@given(
    st.sampled_from(sorted(CHORD_FRAMES)),
    st.lists(st.tuples(st.integers(-2**256, 2**256), st.integers(-2**256, 2**256)).filter(any), min_size=1, max_size=3),
)
def test_trusted_chord_points_in_tall_directions(name, chords):
    chord_results(CHORD_FRAMES[name], chords)


@pytest.mark.parametrize("name", sorted(CHORD_FRAMES))
def test_trusted_chord_points_in_small_directions(name):
    frame = CHORD_FRAMES[name]
    rng = random.Random(name)
    chords = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(12)]
    points, results, denominators = chord_results(frame, [c for c in chords if any(c)])
    assert len(points) >= 8 and len(results) >= 10
    # D = d*lead = d^2*(u^2 + beta*u*w + w^2) takes both signs exactly on a hyperbola
    beta, _gamma = frame.conic
    assert (min(denominators) < 0) == (beta * beta > 4)


# section-add argv on rational frames whose chord has lead < 0: the frame,
# the two operands and their sum
NEGATIVE_LEAD_SUMS = {
    "fricke": (
        SectionFrame(Fraction(15, 4), Fraction(-3, 4), -6),
        (Fraction(-15, 4), Fraction(39, 16)),
        (Fraction(3, 2), Fraction(-3, 2)),
        (Fraction(-183, 8), Fraction(447, 32)),
    ),
    "double": (
        F2SectionFrame(Fraction(25, 36), Fraction(100, 81), Fraction(625, 324)),
        (Fraction(5, 7), Fraction(1445, 567)),
        (-4, Fraction(-3136, 81)),
        (Fraction(-1445, 252), Fraction(-123245, 2268)),
    ),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_LEAD_SUMS))
def test_chord_of_negative_lead(name):
    frame, a, b, total = NEGATIVE_LEAD_SUMS[name]
    with checked_chords() as denominators:
        r = quadric_add(frame, SectionPoint(*a, frame), SectionPoint(*b, frame))
    assert r.xy == total
    [D] = denominators
    assert D < 0 and r.form[3] > 0


def test_chord_content_limited_by_n0():
    # from the chart point (1/2, 1/3) in the direction (2, 1), X', Z' and D
    # share 18 but N*lead shares only 6 with them: n0 keeps a factor 3
    frame = CHORD_FRAMES["fricke-chart"]
    X, N, Z, D = chord_over_one_denominator(frame, frame.form, 2, 1)
    assert (X, N, Z, D) == (171108, -4704, 74970, -5184)
    assert math.gcd(X, Z, D) == 18 and math.gcd(X, N, Z, D) == 6
    with checked_chords():
        p = sections._second_point(frame, frame.form, 2, 1)
    assert p.form == (-28518, 784, -12495, 864)


@TRUSTED_SETTINGS
@given(
    st.sampled_from([(FRICKE, SectionFrame), (DOUBLE, F2SectionFrame)]),
    st.lists(small_rationals, min_size=3, max_size=3).filter(lambda t: t[1] != 0),
    directions,
)
def test_trusted_chord_points_on_sigma_frames(kind, triple, chords):
    base, frame = kind
    chord_results(shifted(base, triple, frame), chords)


# -- where the private constructors may be called ------------------------------

SOURCES = sorted(Path(frickelab.__file__).parent.glob("*.py"))

# (module, enclosing function) pairs allowed to call each private path
ALLOWED = {
    "_vieta_child": {("tree.py", "generate")},
    "_squarefree": {
        ("exact.py", "_quadratic"),
        ("exact.py", "__neg__"),
        ("exact.py", "conjugate"),
    },
    "_quadratic": {
        ("exact.py", "make_quadratic"),
        ("exact.py", "__add__"),
        ("exact.py", "__mul__"),
        ("sections.py", "infinity_points"),
    },
    "_remaining_root": {("fricke.py", "compose"), ("fricke.py", "viete")},
    "_second_root": {("sections.py", "_second_point")},
}


def private_calls():
    """(private name, module, enclosing function) of every call by name or
    attribute to one of the guarded paths."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    target = node.func
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ALLOWED:
                        found.append((name, path.name, func.name))
    return found


def test_private_paths_called_only_where_allowed():
    calls = private_calls()
    assert {name for name, _m, _f in calls} == set(ALLOWED)
    assert [c for c in calls if (c[1], c[2]) not in ALLOWED[c[0]]] == []


def test_private_paths_not_referenced_elsewhere():
    # a private path passed around by name (not called) would escape the scan above
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ALLOWED and isinstance(node, (ast.Attribute, ast.Name)):
                assert id(node) in calls or isinstance(node.ctx, ast.Store), f"{path.name}:{node.lineno}"
