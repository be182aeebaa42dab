import itertools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frickelab import (
    DEGENERATE_CUBIC,
    QuadraticIrrational,
    format_rational,
    line_point,
    line_third_intersection,
    make_quadratic,
    normalize_projective,
    parse_rational,
    slope_between,
    sqrt_exact,
    surface_defect,
)
from frickelab import exact
from frickelab.exact import (
    AT_INFINITY,
    CoincidentPoints,
    OriginOperand,
    ProjectivePoint,
    ZeroVector,
    _square_part,
)
from frickelab.sections import SectionFrame, infinity_points

from conftest import markov_pair, no_digit_limit

PRIMES = (1009, 7919, 104729, 1299709, 15485863)


class TestNormalizeProjective:
    def test_gcd_and_sign(self):
        assert normalize_projective([2, -4, 6]).coords == (1, -2, 3)

    def test_clears_denominators(self):
        assert normalize_projective([Fraction(1, 2), Fraction(1, 3), 0]).coords == (3, 2, 0)

    def test_sign_rule_four_coords(self):
        assert normalize_projective([-1, 0, 0, 0]).coords == (1, 0, 0, 0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize_projective([0, 0, 0])

    rationals = st.fractions(min_value=-100, max_value=100)

    @given(st.lists(rationals, min_size=3, max_size=4))
    def test_idempotent(self, coords):
        if not any(coords):
            return
        once = normalize_projective(coords)
        assert normalize_projective(once.coords) == once

    @given(
        st.lists(rationals, min_size=3, max_size=3),
        st.fractions(min_value=-20, max_value=20),
    )
    def test_scale_invariant(self, coords, scale):
        if not any(coords) or scale == 0:
            return
        assert normalize_projective([scale * c for c in coords]) == normalize_projective(coords)

    def test_str_form(self):
        assert str(normalize_projective([15, -3, -24])) == "[5:-1:-8]"

    @pytest.mark.parametrize("text", ["[2:-4:6]", "2:-4:6", " [ 2:-4:6 ] ", "[2: -4 :6]"])
    def test_parse_reads_one_optional_pair_of_brackets(self, text):
        assert exact.parse_projective(text).coords == (1, -2, 3)

    @pytest.mark.parametrize(
        "text", ["[[1:1:1]]]", "[[1:1:1]]", "1:1:1]", "[1:1:1", "]1:1:1[", "[1:1:1]]", "[]", "[", "]"]
    )
    def test_parse_rejects_other_brackets(self, text):
        with pytest.raises(ValueError):
            exact.parse_projective(text)


class TestRationalWire:
    def test_format(self):
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(6)) == "6"

    @given(st.fractions(min_value=-10**6, max_value=10**6))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize(
        "text", ["1e3", "1.5", "1e10000000", "1E3", ".5", "1_000", "1 / 2", "+-1", "١", "1/2/3"]
    )
    def test_only_num_over_den(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_sign_and_surrounding_whitespace(self):
        assert parse_rational(" -3/4\n") == Fraction(-3, 4)
        assert parse_rational("+6") == 6
        assert parse_rational("-0/5") == 0

    def test_any_size(self):
        # str() is limited to 4300 digits by default; below it the text is str's
        big = 7**6000  # 5,071 digits
        assert format_rational(Fraction(10**4000 + 1, 3)) == f"{10**4000 + 1}/3"
        text = format_rational(big)
        assert len(text) == 5071
        assert (text[:4], text[-4:]) == (str(big // 10**5067), str(big % 10**4).zfill(4))
        for q in (Fraction(big), Fraction(-big, 2**20000 + 1), Fraction(1, big)):
            assert parse_rational(format_rational(q)) == q
        assert str(ProjectivePoint((big, -1))) == f"[{format_rational(big)}:-1]"
        # parity with str and int under a lifted limit, on both sides of 4,300 digits
        # (10**k - 1 has k digits, 10**k and 10**k + 1 have k + 1) and far past it
        values = [0] + [
            sign * (10**k + d) for k in (4299, 4300, 4301, 50_000) for d in (-1, 0, 1) for sign in (1, -1)
        ]
        with no_digit_limit():
            texts = [str(v) for v in values]
            assert [int(t) for t in texts] == values
        assert {len(t.lstrip("-")) for t in texts} == {1, 4299, 4300, 4301, 4302, 50_000, 50_001}
        assert [format_rational(v) for v in values] == texts
        assert [exact.parse_integer(t) for t in texts] == values
        assert [parse_rational(t) for t in texts] == values
        third = Fraction(-(10**50_000 + 1), 3)
        assert parse_rational(format_rational(third)) == third
        assert format_rational(third) == f"{texts[-1]}/3"

    @pytest.mark.parametrize(
        "text", ["1e3", "1.5", "1_000", "1/2", "3/1", "+-1", "١", "0x10", "", "-"]
    )
    def test_integers_by_the_same_digit_rule(self, text):
        with pytest.raises(ValueError):
            exact.parse_integer(text)

    def test_integers_of_any_size(self):
        assert exact.parse_integer(" -12\n") == -12 and exact.parse_integer("+6") == 6
        assert exact.parse_integer("7" * 4400) == parse_rational("7" * 4400)

    def test_conversions_past_the_limit_keep_it(self, digit_limit):
        sevens = 7 * (10**2000 - 1) // 9  # 2,000 sevens, past the limit of 1,234
        assert format_rational(Fraction(-sevens, 3)) == "-" + "7" * 2000 + "/3"
        assert parse_rational("7" * 2000 + "/" + "7" * 2000) == 1
        assert exact.parse_integer("-" + "7" * 2000) == -sevens
        assert sys.get_int_max_str_digits() == digit_limit

    def test_the_lifted_limit_is_restored_when_the_body_raises(self, digit_limit):
        with pytest.raises(RuntimeError), exact._no_digit_limit():
            assert sys.get_int_max_str_digits() == 0
            raise RuntimeError("in the body")
        assert sys.get_int_max_str_digits() == digit_limit

    def test_threads_converting_at_once_keep_the_limit(self, digit_limit):
        # each conversion lifts the limit; one thread restoring it under another's
        # conversion would make that one raise, and could leave the limit lifted.
        # A short switch interval lets threads interleave between save and restore.
        values = [Fraction(7 * (10**5000 - 1) // 9 + i, 3 + 2 * i) for i in range(40)]

        def round_trip(q):
            return parse_rational(format_rational(q))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(5):
                    assert list(pool.map(round_trip, values)) == values
        finally:
            sys.setswitchinterval(interval)
        assert sys.get_int_max_str_digits() == digit_limit


class TestQuadraticIrrational:
    def test_normalizes_square_part(self):
        t = make_quadratic(3, 1, 32)  # 3 + sqrt(32) = 3 + 4*sqrt(2)
        assert (t.a, t.b, t.d, t.c) == (3, 4, 2, 1)

    def test_rational_collapse(self):
        assert make_quadratic(1, 2, 9) == Fraction(7)
        assert make_quadratic(5, 0, 2) == Fraction(5)

    def test_defining_relation(self):
        t = make_quadratic(Fraction(3, 2), Fraction(1, 2), 5)  # (3 + sqrt 5)/2
        assert t.minimal_quadratic() == (1, -3, 1)
        assert t * t - 3 * t + 1 == 0

    def test_arithmetic_with_rationals(self):
        t = make_quadratic(0, 1, 2)
        assert t * t == 2
        assert (t + 1) * (t - 1) == 1

    def test_str(self):
        assert str(make_quadratic(Fraction(3, 2), Fraction(-1, 2), 5)) == "(3-1√5)/2"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            QuadraticIrrational(1, 1, 4, 1)
        with pytest.raises(ValueError):
            QuadraticIrrational(2, 2, 5, 2)

    def test_sqrt_exact(self):
        assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
        r = sqrt_exact(Fraction(5, 4))
        assert r * r == Fraction(5, 4)

    def test_sqrt_exact_of_square_skips_factoring(self, monkeypatch):
        def no_factoring(n):
            raise AssertionError("sqrt_exact factored a rational square")

        monkeypatch.setattr("frickelab.exact._square_part", no_factoring)
        prime = 2**61 - 1
        root = sqrt_exact(Fraction(prime * prime, 49))
        assert type(root) is Fraction and root == Fraction(prime, 7)
        assert sqrt_exact(0) == 0 and type(sqrt_exact(0)) is Fraction

    def test_radicand_normalized_past_the_cube_root(self):
        t = make_quadratic(0, 1, 1299709**2 * 15485863)
        assert (t.a, t.b, t.d, t.c) == (0, 1299709, 15485863, 1)

    def test_square_factor_above_the_cube_root_rejected(self):
        with pytest.raises(ValueError):
            QuadraticIrrational(1, 1, 1299709**2 * 2, 1)

    def test_squarefree_semiprime_accepted(self):
        d = 1299709 * 15485863
        assert QuadraticIrrational(1, 1, d, 1).d == d


def counting_square_part(monkeypatch) -> list[int]:
    """Wrap exact._square_part; the returned list records each argument."""
    calls = []

    def counted(n):
        calls.append(n)
        return _square_part(n)

    monkeypatch.setattr(exact, "_square_part", counted)
    return calls


class TestRadicandCarried:
    def test_arithmetic_checks_only_the_result(self, monkeypatch):
        x = make_quadratic(1, 2, 5)
        y = make_quadratic(3, -1, 5)
        calls = counting_square_part(monkeypatch)
        for result in (lambda: x + y, lambda: x * y, lambda: x * Fraction(1, 2), lambda: -x):
            calls.clear()
            value = result()
            assert isinstance(value, QuadraticIrrational)
            assert calls == []  # a shared squarefree radicand is not split again
            assert value == QuadraticIrrational(value.a, value.b, value.d, value.c)

    def test_infinity_points_call_count(self, monkeypatch):
        calls = counting_square_part(monkeypatch)
        lo, hi = infinity_points(SectionFrame(2, 195025, 33461))
        # beta^2 - 4 = (beta - 2)(beta + 2) at beta = -585075: one call per odd factor
        assert calls == [585077, 585073]
        for value in (lo, hi):
            assert value == QuadraticIrrational(value.a, value.b, value.d, value.c)

    def test_square_denominator_keeps_the_numerator_radicand(self, monkeypatch):
        calls = counting_square_part(monkeypatch)
        root = sqrt_exact(Fraction(20, 49))  # sqrt(20)/7 = 2*sqrt(5)/7
        assert (root.a, root.b, root.d, root.c) == (0, 2, 5, 7)
        assert calls[0] == 20


def naive_square_part(n: int) -> int:
    """Largest s with s**2 | n, by trying every s up to sqrt(n)."""
    return max(s for s in range(1, math.isqrt(n) + 1) if n % (s * s) == 0)


class TestSquarePart:
    def test_every_small_n(self):
        assert [n for n in range(1, 10**5) if _square_part(n) != naive_square_part(n)] == []

    def test_structured_products(self):
        # products of listed primes, with factors on both sides of the
        # cofactor's cube root (p**3 sits on it), times a small cofactor m
        # coprime to them, whose square part comes from the naive scan
        rng = random.Random(20261018)
        cases = [(p, 1) for p in PRIMES] + [(p**2, p) for p in PRIMES]
        # 15485863**3 alone walks k through ~7.7 million odd trial divisors
        cases += [(p**3, p) for p in PRIMES[:-1]]
        for p, q in rng.sample(list(itertools.permutations(PRIMES, 2)), 8):
            cases += [(p * q, 1), (p**2 * q, p), (p**2 * q**2, p * q)]
        for n, s in cases:
            m = rng.randrange(1, 1000)
            assert _square_part(m * n) == naive_square_part(m) * s, (m, n)

    def test_powers_of_two_and_three(self):
        for e in range(200):
            assert _square_part(2**e) == 2 ** (e // 2)
            assert _square_part(3**e) == 3 ** (e // 2)
            assert _square_part(2**e * 3 ** (e % 7)) == 2 ** (e // 2) * 3 ** (e % 7 // 2)


class TestSlope:
    def test_finite(self):
        assert slope_between((1, 2), (3, 8)) == 3

    def test_vertical(self):
        assert slope_between((1, 2), (1, 5)) is AT_INFINITY

    def test_coincident(self):
        with pytest.raises(CoincidentPoints):
            slope_between((1, 2), (1, 2))


class TestLineOracle:
    def test_fricke_known_pair(self):
        t = line_third_intersection((2, 1, 1), (1, 2, 5), "fricke")
        assert line_point((2, 1, 1), (1, 2, 5), t.t) == (
            Fraction(15, 4),
            Fraction(-3, 4),
            Fraction(-6),
        )

    def test_fricke_second_pair(self):
        t = line_third_intersection((1, 1, 2), (2, 5, 29), "fricke")
        assert line_point((1, 1, 2), (2, 5, 29), t.t) == (
            Fraction(317, 324),
            Fraction(74, 81),
            Fraction(17, 12),
        )

    def test_double_pair(self):
        t = line_third_intersection((4, 1, 1), (1, 4, 25), "double")
        point = line_point((4, 1, 1), (1, 4, 25), t.t)
        assert surface_defect("double", point) == 0
        assert point == (Fraction(361, 72), Fraction(-1, 72), Fraction(-64, 9))

    def test_parametrization_endpoints(self):
        assert line_point((2, 1, 1), (1, 2, 5), 0) == (1, 2, 5)
        assert line_point((2, 1, 1), (1, 2, 5), 1) == (2, 1, 1)

    def test_degenerate_when_a_difference_vanishes(self):
        assert line_third_intersection((1, 1, 2), (1, 2, 5), "fricke") is DEGENERATE_CUBIC

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPoints):
            line_third_intersection((1, 1, 2), (1, 1, 2), "fricke")

    def test_origin_rejected(self):
        with pytest.raises(OriginOperand):
            line_third_intersection((0, 0, 0), (1, 1, 2), "fricke")

    def test_result_on_surface(self, rng):
        from conftest import random_fricke_pair

        for _ in range(25):
            a, b = random_fricke_pair(rng, height=20)
            t = line_third_intersection(a.coords, b.coords, "fricke")
            if t is DEGENERATE_CUBIC:
                continue
            assert surface_defect("fricke", line_point(a.coords, b.coords, t.t)) == 0


# -- messages at any size ------------------------------------------------------

HUGE = 7**6000  # 5,071 digits: past the 4,300 that str() takes by default


def _other_frame_point():
    from frickelab.sections import SectionPoint, quadric_inverse

    b, c = markov_pair(4400)
    quadric_inverse(SectionFrame(1, 2, 5), SectionPoint(b, c, SectionFrame(1, 1, 1)))


def _ellipse():
    from frickelab.fricke import FrickeSurface

    n0 = Fraction(1, HUGE)
    infinity_points(SectionFrame(1, n0, 1, FrickeSurface(exact.FRICKE.defect((1, n0, 1)))))


def _double_node():
    # the node x = z = -2*n0/(4 - 9*n0) of a double section, a base point on
    # the double surface shifted by sigma so that its section is a line pair
    from frickelab import replace
    from frickelab.sections import SectionPoint, tangent_slope

    n0 = Fraction(4, 9) + Fraction(1, HUGE)
    node = -2 * n0 / (4 - 9 * n0)
    surface = replace(exact.DOUBLE, sigma=exact.DOUBLE.defect((node, n0, node)))
    frame = SectionFrame(node, n0, node, surface)
    tangent_slope(frame, SectionPoint(node, node, frame))


def _f2_point(*coords):
    """A point of the double surface shifted by sigma to pass through coords."""
    from frickelab import replace
    from frickelab.double_fricke import F2Point

    return F2Point(*coords, replace(exact.DOUBLE, sigma=exact.DOUBLE.defect(coords)))


def _message_cases():
    from frickelab import double_fricke as df
    from frickelab import sections, tree
    from frickelab.fricke import FrickeSurface

    b, c = markov_pair(4400)
    n0 = Fraction(4, 9) + Fraction(1, HUGE)
    S = HUGE * HUGE + 2  # P^2 + Q^2 + 1 of the chart at (HUGE, 1)
    return [
        ("sections._on_frame", _other_frame_point, sections.OffSection, c),
        ("sections._hyperbola_beta", _ellipse, exact.DomainError, HUGE * HUGE),
        ("sections._gradient", _double_node, exact.SingularPoint, -2 * n0 / (4 - 9 * n0)),
        ("sections.chebyshev_b", lambda: sections.chebyshev_b(-HUGE, 1), sections.IndexZero, HUGE),
        (
            "exact.line_third_intersection coincident",
            lambda: line_third_intersection((HUGE, 1, 1), (HUGE, 1, 1), "fricke"),
            CoincidentPoints,
            HUGE,
        ),
        (
            "exact.line_third_intersection off surface",
            lambda: line_third_intersection((HUGE, 1, 1), (1, 1, 1), "fricke"),
            exact.OffSurface,
            HUGE,
        ),
        (
            "ProjectivePoint primitive",
            lambda: ProjectivePoint((2 * HUGE, 2)),
            ValueError,
            2 * HUGE,
        ),
        ("ProjectivePoint sign", lambda: ProjectivePoint((-HUGE, 1)), ValueError, HUGE),
        (
            "QuadraticIrrational square",
            lambda: QuadraticIrrational(0, 1, HUGE * HUGE, 1),
            ValueError,
            HUGE * HUGE,
        ),
        (
            "QuadraticIrrational squarefree",
            lambda: QuadraticIrrational(0, 1, 7 * HUGE * HUGE, 1),
            ValueError,
            7 * HUGE * HUGE,
        ),
        ("CanonicalTriple sorted", lambda: tree.CanonicalTriple((HUGE, 1, 1)), ValueError, HUGE),
        (
            "CanonicalTriple sigma",
            lambda: tree.CanonicalTriple((1, 1, 1), FrickeSurface(HUGE)),
            tree.RootOffSurface,
            HUGE,
        ),
        ("tree.fundamental_point", lambda: tree.fundamental_point(HUGE), tree.NotAMarkovNumber, HUGE),
        ("df.square_lift", lambda: df.square_lift((HUGE, 1, 1)), exact.OffSurface, HUGE),
        (
            "df.sqrt_descend integer",
            lambda: df.sqrt_descend(df.f2_param_affine(HUGE, 1)),
            df.NotASquare,
            Fraction(S * S, 9 * HUGE * HUGE),
        ),
        (
            "df.sqrt_descend square",
            lambda: df.sqrt_descend(_f2_point(7 * HUGE, 1, 1)),
            df.NotASquare,
            7 * HUGE,
        ),
        (
            "df.sqrt_descend roots",
            lambda: df.sqrt_descend(_f2_point(HUGE * HUGE, 1, 1)),
            df.NotASquare,
            HUGE,
        ),
    ]


@pytest.mark.parametrize(
    "site, raise_, error, value", _message_cases(), ids=[c[0] for c in _message_cases()]
)
def test_message_carries_every_digit(monkeypatch, site, raise_, error, value):
    # no search reaches a 5,071-digit maximum: an empty search stands in for it
    monkeypatch.setattr("frickelab.tree.fundamental_points", lambda n0: [])
    with pytest.raises(error) as info:
        raise_()
    assert format_rational(value) in str(info.value)


def test_quadratic_irrational_prints_every_digit():
    assert str(QuadraticIrrational(3, -1, 5, 2)) == "(3-1√5)/2"
    text = str(QuadraticIrrational(HUGE, 1, 2, 1))
    assert text == f"({format_rational(HUGE)}+1√2)/1"
