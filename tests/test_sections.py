import random
import time
from fractions import Fraction

import pytest

from conftest import f2_section_point_pool, section_point_pool
from frickelab import (
    DOUBLE,
    FRICKE,
    DomainError,
    F2SectionFrame,
    SectionFrame,
    SectionPoint,
    cf_convergent,
    chebyshev_b,
    dihedral,
    infinity_points,
    quadric_add,
    quadric_double,
    quadric_inverse,
    replace,
    slope_between,
    solve_z,
    ta_power,
)
from frickelab.cli import run
from frickelab.fricke import FrickeSurface
from frickelab.exact import SingularPoint, common_denominator
from frickelab.sections import (
    MAX_LUCAS_BITS,
    DenominatorVanishes,
    IndexZero,
    OffSection,
    _lucas,
    tangent_slope,
)

FRAMES = [(1, 1, 1), (1, 1, 2), (1, 2, 5), (2, 5, 29)]
RATIONAL_FRAME = (Fraction(15, 4), Fraction(-3, 4), Fraction(-6))  # n0 = -3/4: q = 4


def frame(triple=(1, 1, 1)) -> SectionFrame:
    return SectionFrame(*triple)


class TestFrame:
    def test_membership_enforced(self):
        with pytest.raises(OffSection):
            SectionFrame(1, 1, 3)
        with pytest.raises(OffSection):
            SectionPoint(3, 1, frame())

    def test_point_of_another_frame_rejected(self):
        # p and q lie on y = 1; on the frame (1, 2, 5) the add used to return (5, 1)
        here, there = frame((1, 2, 5)), frame()
        p, q = SectionPoint(1, 2, there), SectionPoint(2, 1, there)
        laws = [
            lambda: quadric_add(here, p, q),
            lambda: quadric_add(here, here.origin, q),
            lambda: quadric_double(here, p),
            lambda: quadric_inverse(here, p),
            lambda: tangent_slope(here, p),
            lambda: dihedral(here, p, "T"),
            lambda: ta_power(here, p, 2),
        ]
        for law in laws:
            with pytest.raises(OffSection, match="another section frame"):
                law()

    def test_frame_on_another_surface_is_another_frame(self):
        # (1, 4, 25) lies on the double surface and on the Fricke surface shifted
        # to sigma = 1 + 16 + 625 - 3*100 = 342: the same triple, two sections
        double = SectionFrame(1, 4, 25, DOUBLE)
        shifted = SectionFrame(1, 4, 25, FrickeSurface(342))
        with pytest.raises(OffSection, match="another section frame"):
            quadric_double(shifted, double.origin)
        with pytest.raises(OffSection, match="another section frame"):
            dihedral(double, shifted.origin, "T")

    def test_equal_frames_of_either_class_agree(self):
        f2, fr = F2SectionFrame(1, 4, 25), SectionFrame(1, 4, 25, DOUBLE)
        p = dihedral(f2, f2.origin, "TC")
        assert p.xy == (25, 841)
        assert quadric_add(fr, p, fr.origin).xy == p.xy
        assert dihedral(fr, p, "TC").xy == ta_power(f2, fr.origin, 2, "TC").xy == (841, 28561)
        assert quadric_inverse(f2, quadric_inverse(fr, p)).xy == p.xy

    # every law that takes a frame and a point of it, as (frame, point) -> result
    ON_FRAME_LAWS = {
        "add": lambda fr, p: quadric_add(fr, fr.origin, p),
        "double": quadric_double,
        "inverse": quadric_inverse,
        "tangent": tangent_slope,
        "dihedral": lambda fr, p: dihedral(fr, p, "TA"),
        "ta-power": lambda fr, p: ta_power(fr, p, 2),
    }

    @pytest.mark.parametrize("law", ON_FRAME_LAWS.values(), ids=ON_FRAME_LAWS)
    @pytest.mark.parametrize(
        "here, there",
        [
            (lambda: SectionFrame(1, 4, 25, DOUBLE), lambda: F2SectionFrame(1, 4, 25)),
            (lambda: F2SectionFrame(1, 4, 25), lambda: SectionFrame(1, 4, 25, DOUBLE)),
            (
                lambda: SectionFrame(*RATIONAL_FRAME),
                lambda: SectionFrame(*(str(c) for c in RATIONAL_FRAME)),
            ),
        ],
        ids=["subclass", "base-class", "rebuilt"],
    )
    def test_a_point_of_an_equal_frame_is_accepted(self, law, here, there):
        here, there = here(), there()
        assert here is not there
        p = dihedral(there, there.origin, "A")
        assert law(here, p) == law(here, SectionPoint(p.x, p.z, here))

    @pytest.mark.parametrize("law", ON_FRAME_LAWS.values(), ids=ON_FRAME_LAWS)
    @pytest.mark.parametrize(
        "here, there",
        [
            (SectionFrame(1, 5, 2), SectionFrame(2, 5, 1)),
            (SectionFrame(1, 1, 1), SectionFrame(1, 1, 1, DOUBLE)),
        ],
        ids=["other-base-point", "other-surface"],
    )
    def test_a_point_of_another_frame_is_refused(self, law, here, there):
        with pytest.raises(OffSection, match="another section frame"):
            law(here, there.origin)

    def test_fundamental_flag(self):
        assert SectionFrame(1, 2, 1).is_fundamental
        assert not frame((1, 2, 5)).is_fundamental  # max sits in the last slot
        assert SectionFrame(1, 5, 2).is_fundamental


class TestSolveZ:
    def test_two_roots(self):
        assert sorted(p.z for p in solve_z(frame(), 1)) == [1, 2]
        assert sorted(p.z for p in solve_z(frame(), 2)) == [1, 5]

    def test_no_rational_root(self):
        assert solve_z(frame(), 3) == []
        # discriminants 16/5 and 1/20: a square numerator over a non-square denominator
        assert solve_z(frame(), Fraction(6, 5)) == solve_z(frame(), Fraction(9, 10)) == []

    def test_square_root_needs_no_factoring(self, monkeypatch):
        # the discriminant at the x of n*P is a rational square of ~2x the
        # bits of x; its root comes from isqrt, never from trial division
        def no_factoring(n):
            raise AssertionError("sqrt_exact factored a rational square")

        monkeypatch.setattr("frickelab.exact._square_part", no_factoring)
        f = frame((1, 5, 2))
        p = SectionPoint(13, 1, f)
        multiple = p
        for _ in range(14):
            multiple = quadric_add(f, multiple, p)
            assert multiple.xy in [q.xy for q in solve_z(f, multiple.x)]
        assert multiple.x.numerator.bit_length() > 50


class TestInfinityPoints:
    def test_unit_frame(self):
        lo, hi = infinity_points(frame())
        assert (hi.a, hi.b, hi.d, hi.c) == (3, 1, 5, 2)
        assert (lo.a, lo.b, lo.d, lo.c) == (3, -1, 5, 2)

    def test_radicand_normalized(self):
        lo, hi = infinity_points(frame((1, 2, 5)))  # (6 +- sqrt 32)/2 = 3 +- 2*sqrt 2
        assert (hi.a, hi.b, hi.d, hi.c) == (3, 2, 2, 1)

    def test_rational_roots(self):
        # n0 = 5/6: beta^2 - 4 = 9/4, roots 1/2 and 2; the double parabola
        # n0 = 4/9 has beta = -2 and the one double root 1
        shifted = SectionFrame(1, Fraction(5, 6), 2, FrickeSurface(Fraction(25, 36)))
        assert infinity_points(shifted) == (Fraction(1, 2), 2)
        parabola = SectionFrame(Fraction(-1, 9), Fraction(4, 9), Fraction(-1, 9), DOUBLE)
        assert infinity_points(parabola) == (1, 1)

    def test_defining_relation(self):
        for triple in FRAMES:
            fr = frame(triple)
            n0 = fr.n0
            for t in infinity_points(fr):
                assert t * t - 3 * n0 * t + 1 == 0

    @pytest.mark.parametrize(
        "triple, surface",
        [((2, 195025, 33461), FRICKE), ((169, 7453378, 14701), FRICKE), ((25, 187489, 841), DOUBLE)],
        ids=["fricke-195025", "fricke-7453378", "double-187489"],
    )
    def test_markov_frames_scale(self, triple, surface):
        # the time bound catches a return to O(sqrt D) trial division, which
        # takes 1.5 s and 15.5 s on the two Fricke frames
        fr = SectionFrame(*triple, surface)
        beta, _gamma = fr.conic
        start = time.perf_counter()
        lo, hi = infinity_points(fr)
        assert time.perf_counter() - start < 0.5
        assert lo + hi == -beta
        assert lo * hi == 1

    @pytest.mark.parametrize(
        "argv, out",
        [
            (
                ["infinity", "--frame=2,195025,33461"],
                '{"result": ["(585075-1\\u221a342312755621)/2", "(585075+1\\u221a342312755621)/2"]}\n',
            ),
            (
                ["infinity", "--surface", "double", "--frame=25,187489,841"],
                '{"result": ["(1687399-1299\\u221a1687397)/2", "(1687399+1299\\u221a1687397)/2"]}\n',
            ),
        ],
        ids=["fricke-195025", "double-187489"],
    )
    def test_markov_frame_cli_bytes(self, capsys, argv, out):
        assert run(argv) == 0
        assert capsys.readouterr().out == out

    def test_ellipse_section_is_a_domain_error(self):
        # on the double surface, 0 < n0 < 4/9 gives beta^2 < 4: no real asymptotes
        fr = SectionFrame(Fraction(-1, 9), Fraction(1, 9), Fraction(-1, 9), DOUBLE)
        with pytest.raises(DomainError):
            infinity_points(fr)


class TestChebyshev:
    def test_base_values(self):
        assert chebyshev_b(0, 1) == 1
        assert chebyshev_b(1, 1) == 3
        assert chebyshev_b(2, 1) == 8
        # degree forces this to be the index-4 polynomial: 81 - 27 + 1
        assert chebyshev_b(4, 1) == 55

    def test_polynomial_identities(self):
        for n0 in (1, 2, 5, Fraction(7, 3)):
            assert chebyshev_b(2, n0) == 9 * n0 * n0 - 1
            assert chebyshev_b(3, n0) == 27 * n0**3 - 6 * n0
            assert chebyshev_b(4, n0) == 81 * n0**4 - 27 * n0 * n0 + 1

    def test_backward_indices(self):
        assert chebyshev_b(-1, 5) == 0
        assert chebyshev_b(-2, 5) == -1

    def test_rational_n0_against_recurrence(self):
        for n0 in (Fraction(-3, 4), Fraction(7, 3), Fraction(17689, 5184)):
            prev, cur = Fraction(-1), Fraction(0)  # b_{-2}, b_{-1}
            for r in range(-2, 501):
                b = chebyshev_b(r, n0)
                assert b == prev and type(b) is Fraction
                prev, cur = cur, 3 * n0 * cur - prev

    def test_bit_limit(self):
        assert MAX_LUCAS_BITS == 2**19
        # tau = 9: four bits per index, so r + 1 = MAX_LUCAS_BITS/4 is the
        # last index accepted
        last = MAX_LUCAS_BITS // 4 - 1
        big = chebyshev_b(last, 3)
        assert big.denominator == 1 and last < big.numerator.bit_length() <= MAX_LUCAS_BITS
        for r in (last + 1, 10**20):
            with pytest.raises(DomainError, match=f"past the limit of {MAX_LUCAS_BITS} bits"):
                chebyshev_b(r, 3)
        # tau = 3 grows from the first integer past 2 on, and tau = 1/2 is
        # below 2 but not an integer: V_n = 2^(n-1)*U_n grows
        for n0 in (1, Fraction(1, 6)):
            with pytest.raises(DomainError):
                chebyshev_b(MAX_LUCAS_BITS, n0)

    @pytest.mark.parametrize("n0", [0, Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(-2, 3)])
    def test_no_bit_limit_where_the_terms_stay_short(self, n0):
        # an integer tau = 3*n0 with |tau| <= 2: U_n is periodic or +-n, so
        # the bound r*bits(tau) overstates the result and is not applied
        for r in (MAX_LUCAS_BITS, 10**20 + 3):
            got = chebyshev_b(r, n0)
            assert got.denominator == 1 and got.numerator.bit_length() <= r.bit_length() + 1
            if abs(3 * n0) < 2:
                assert got == chebyshev_b(r % 12, n0)
            else:
                assert abs(got) == r + 1

    @pytest.mark.parametrize("tau", [-2, -1, 0, 1, 2])
    def test_lucas_at_integer_tau_matches_the_doubling(self, tau):
        # the doubling as _lucas runs it for every other tau, written out here,
        # and the recurrence itself: at tau = +-2 _lucas takes the closed form
        # U_n = n*(tau/2)^(n-1) in their place
        def doubling(n):
            v, w = 0, 1
            for bit in bin(n)[2:]:
                v, w = v * (2 * w - tau * v), w * w - v * v
                if bit == "1":
                    v, w = w, tau * w - v
            return v, w

        terms = [0, 1]
        while len(terms) < 202:
            terms.append(tau * terms[-1] - terms[-2])
        for n in range(201):
            assert _lucas(Fraction(tau), n) == doubling(n) == (terms[n], terms[n + 1])

    @pytest.mark.parametrize("n0", [Fraction(2, 3), Fraction(-2, 3)])
    def test_ten_thousand_digit_index_at_tau_two(self, n0):
        # b_r = U_{r+1} = (r+1)*(tau/2)^r: a closed form, not 33,000 doublings on
        # numbers as large as r; r is odd
        r = 10**10000 - 1
        start = time.perf_counter()
        assert chebyshev_b(r, n0) == (r + 1) * (1 if n0 > 0 else -1)
        assert chebyshev_b(r - 1, n0) == r
        assert time.perf_counter() - start < 1  # the doubling took 14 s

    def test_bit_limit_on_powers_and_convergents(self):
        fr = frame((1, 5, 2))  # tau = 15: four bits per index
        for r in (2**17 + 1, 10**20):
            with pytest.raises(DomainError, match="past the limit"):
                cf_convergent(fr, r)
            with pytest.raises(DomainError, match="past the limit"):
                ta_power(fr, fr.origin, r)

    def test_matrix_power_identity(self):
        for n0 in (1, 2, 5):
            m = ((3 * n0, -1), (1, 0))
            acc = ((1, 0), (0, 1))
            for r in range(1, 51):
                acc = (
                    (
                        acc[0][0] * m[0][0] + acc[0][1] * m[1][0],
                        acc[0][0] * m[0][1] + acc[0][1] * m[1][1],
                    ),
                    (
                        acc[1][0] * m[0][0] + acc[1][1] * m[1][0],
                        acc[1][0] * m[0][1] + acc[1][1] * m[1][1],
                    ),
                )
                assert acc == (
                    (chebyshev_b(r, n0), -chebyshev_b(r - 1, n0)),
                    (chebyshev_b(r - 1, n0), -chebyshev_b(r - 2, n0)),
                )


class TestConvergents:
    def test_unit_values(self):
        fr = frame()
        assert cf_convergent(fr, 1) == 3
        assert cf_convergent(fr, 2) == Fraction(8, 3)
        assert cf_convergent(fr, 3) == Fraction(21, 8)

    def test_index_zero_rejected(self):
        with pytest.raises(IndexZero):
            cf_convergent(frame(), 0)

    def test_recurrence_ratio_identity(self):
        for triple in ((1, 1, 1), (1, 2, 5), (2, 5, 29), RATIONAL_FRAME):
            fr = frame(triple)
            n0 = fr.n0
            for r in range(1, 20):
                assert cf_convergent(fr, r + 1) == 3 * n0 - 1 / cf_convergent(fr, r)

    def test_quality_strictly_decreasing(self):
        for triple in ((1, 1, 1), (1, 2, 5), (2, 5, 29)):
            fr = frame(triple)
            n0 = fr.n0
            prev = None
            for r in range(1, 21):
                t = cf_convergent(fr, r)
                val = abs(t * t - 3 * n0 * t + 1)
                assert val != 0
                if prev is not None:
                    assert val < prev
                prev = val

    def test_ellipse_section_is_a_domain_error(self):
        # beta^2 = 1 on both: no real points at infinity, and U_3(-beta) = 0
        # used to end in ZeroDivisionError at r = 3
        for fr in (
            SectionFrame(0, Fraction(1, 3), 0, FrickeSurface(Fraction(1, 9))),
            SectionFrame(Fraction(-1, 9), Fraction(1, 9), Fraction(-1, 9), DOUBLE),
        ):
            assert fr.conic[0] ** 2 == 1
            for r in (1, 3):
                with pytest.raises(DomainError, match="ellipse"):
                    cf_convergent(fr, r)


class TestGroupLaw:
    def test_swap_identity(self):
        fr = frame()
        assert quadric_add(fr, SectionPoint(2, 1, fr), SectionPoint(1, 2, fr)).xy == (1, 1)

    def test_doubling(self):
        fr = frame()
        assert quadric_add(fr, SectionPoint(1, 2, fr), SectionPoint(1, 2, fr)).xy == (2, 5)

    def test_order_two_element(self):
        for triple in FRAMES:
            fr = frame(triple)
            neg = SectionPoint(-fr.m0, -fr.k0, fr)
            assert quadric_add(fr, neg, neg).xy == (fr.m0, fr.k0)

    def test_doubling_closed_form(self):
        # tangent-chord doubling agrees with the polynomial closed form
        for triple in FRAMES:
            fr = frame(triple)
            m0, n0, k0 = fr.m0, fr.n0, fr.k0
            for p in section_point_pool(fr, random.Random(5), 12):
                w = p.x * k0 - p.z * m0
                expected = (
                    (p.x**2 * n0**2 + w * w) / (n0 * n0 * m0),
                    (p.z**2 * n0**2 + w * w) / (n0 * n0 * k0),
                )
                assert quadric_double(fr, p).xy == expected

    def test_inverse_golden(self):
        fr = frame()
        inv = quadric_inverse(fr, SectionPoint(2, 1, fr))
        assert inv.xy == (1, 2)
        assert quadric_add(fr, SectionPoint(2, 1, fr), inv).xy == (1, 1)

    def test_inverse_of_origin(self):
        for triple in FRAMES:
            fr = frame(triple)
            assert quadric_inverse(fr, fr.origin).xy == fr.origin.xy

    def test_vertical_chord_on_shifted_frames(self):
        # two points on one vertical line sum to the second point of O's
        # vertical line: the root of the quadratic in z beside k0
        cases = [
            (FRICKE, (1, 2, 4)),
            (FRICKE, (Fraction(2, 3), 5, Fraction(-1, 2))),
            (DOUBLE, (2, 1, 1)),
            (DOUBLE, (Fraction(1, 2), -3, 4)),
        ]
        for surface, triple in cases:
            fr = SectionFrame(*triple, replace(surface, sigma=surface.defect(triple)))
            expected = next(q for q in solve_z(fr, fr.m0) if q.xy != fr.origin.xy)
            acc = expected
            for _ in range(8):
                acc = quadric_add(fr, acc, expected)
                for partner in solve_z(fr, acc.x):
                    if partner.xy != acc.xy:
                        assert quadric_add(fr, acc, partner).xy == expected.xy

    def test_node_of_a_line_pair_has_no_tangent(self):
        # 1 + 25/36 + 4 - 3*(5/6)*2 = 25/36: the section is the line pair
        # z = 2x, z = x/2, crossing at N = (0, 0), where the gradient vanishes
        fr = SectionFrame(1, Fraction(5, 6), 2, FrickeSurface(Fraction(25, 36)))
        node = SectionPoint(0, 0, fr)
        for law in (tangent_slope, quadric_double):
            with pytest.raises(SingularPoint, match=r"singular at \(0, 0\)"):
                law(fr, node)
        # the tangent at a point of a line is the line itself: parallel to an asymptote
        with pytest.raises(DenominatorVanishes):
            quadric_double(fr, SectionPoint(2, 1, fr))
        # a vertical chord meets both lines
        assert quadric_add(fr, SectionPoint(2, 4, fr), SectionPoint(2, 1, fr)).xy == (1, Fraction(1, 2))

    def test_base_point_at_the_node(self):
        # x^2 + z^2 - 3xz = 0: two lines of irrational slope through O = (0, 0)
        fr = SectionFrame(0, 1, 0, FrickeSurface(1))
        for law in (tangent_slope, quadric_double, quadric_inverse):
            with pytest.raises(SingularPoint, match=r"singular at \(0, 0\)"):
                law(fr, fr.origin)
        with pytest.raises(SingularPoint):
            quadric_add(fr, fr.origin, fr.origin)

    def test_group_axioms(self, rng):
        for triple in FRAMES:
            fr = frame(triple)
            O = fr.origin
            pool = section_point_pool(fr, rng, 24)
            for p in pool:
                assert quadric_add(fr, O, p).xy == p.xy
                inv = quadric_inverse(fr, p)
                assert quadric_add(fr, p, inv).xy == O.xy
            for _ in range(20):
                p, q, r = (rng.choice(pool) for _ in range(3))
                assert quadric_add(fr, p, q).xy == quadric_add(fr, q, p).xy
                lhs = quadric_add(fr, quadric_add(fr, p, q), r)
                rhs = quadric_add(fr, p, quadric_add(fr, q, r))
                assert lhs.xy == rhs.xy


class TestDihedral:
    def test_values(self):
        fr = frame()
        p = SectionPoint(1, 1, fr)
        assert dihedral(fr, p, "TA").xy == (2, 1)
        assert dihedral(fr, dihedral(fr, p, "TA"), "TA").xy == (5, 2)

    def test_involutions(self):
        fr = frame((1, 2, 5))
        p = SectionPoint(1, 5, fr)
        for which in ("A", "T", "B"):
            assert dihedral(fr, dihedral(fr, p, which), which).xy == p.xy

    def test_c_is_tat(self):
        fr = frame((1, 2, 5))
        p = SectionPoint(1, 5, fr)
        tat = dihedral(fr, dihedral(fr, dihedral(fr, p, "T"), "A"), "T")
        assert dihedral(fr, p, "C").xy == tat.xy

    def test_integrality_preserved(self):
        fr = frame((2, 5, 29))
        p = fr.origin
        for which in ("A", "TA", "C", "TC", "B", "T"):
            q = dihedral(fr, p, which)
            assert q.x.denominator == 1 and q.z.denominator == 1

    def test_viete_group_law_compatibility(self, rng):
        # P + CP = CO and P + AP = AO
        cases = [(frame(triple), section_point_pool) for triple in FRAMES]
        cases.append((F2SectionFrame(1, 4, 25), f2_section_point_pool))
        for fr, pool in cases:
            O = fr.origin
            for p in pool(fr, rng, 12):
                cp = dihedral(fr, p, "C")
                if cp.xy != p.xy:
                    assert quadric_add(fr, p, cp).xy == dihedral(fr, O, "C").xy
                ap = dihedral(fr, p, "A")
                if ap.xy != p.xy:
                    assert quadric_add(fr, p, ap).xy == dihedral(fr, O, "A").xy


class TestClosedFormPowers:
    def test_single_step(self):
        fr = frame()
        assert ta_power(fr, fr.origin, 1).xy == (2, 1)

    def test_three_steps(self):
        fr = frame()
        assert ta_power(fr, fr.origin, 3).xy == (13, 5)

    def test_matches_iteration(self):
        for triple in ((1, 1, 1), (1, 2, 5), (2, 5, 29), RATIONAL_FRAME):
            fr = frame(triple)
            for family in ("TA", "TC"):
                q = fr.origin
                for r in range(1, 51):
                    q = dihedral(fr, q, family)
                    assert ta_power(fr, fr.origin, r, family).xy == q.xy

    def test_orbit_homomorphism(self):
        for triple in ((1, 1, 1), (1, 2, 5), (2, 5, 29)):
            fr = frame(triple)
            for family in ("TA", "TC"):
                orbit = [ta_power(fr, fr.origin, r, family) for r in range(21)]
                for a in range(11):
                    for b in range(11):
                        assert quadric_add(fr, orbit[a], orbit[b]).xy == orbit[a + b].xy

    def test_parallel_slopes_along_orbit(self):
        for triple in ((1, 1, 1), (1, 2, 5), (2, 5, 29)):
            fr = frame(triple)
            O = fr.origin
            for family in ("TA", "TC"):
                orbit = [ta_power(fr, O, r, family) for r in range(12)]
                assert slope_between(O.xy, orbit[2].xy) == tangent_slope(fr, orbit[1])
                for r in range(3, 12):
                    assert slope_between(O.xy, orbit[r].xy) == slope_between(
                        orbit[1].xy, orbit[r - 1].xy
                    )


class TestDoublingParity:
    """The integer doubling against the plain recurrence at r = 2^k, 2^k +- 1.

    The recurrences run in integers scaled by q per step, with tau = p/q,
    and are read as Fractions at the checked indices only: a Fraction
    recurrence reduces every term, which takes seconds at n0 = 17689/5184.
    """

    CHECKED = sorted({2**k + d for k in range(12) for d in (-1, 0, 1)} | {3000})

    @pytest.fixture(
        params=[(1, 1, 1), (1, 5, 2), RATIONAL_FRAME, (1, Fraction(17689, 5184), 1)],
        ids=["1", "5", "-3/4", "17689/5184"],
    )
    def fr(self, request):
        triple = request.param
        return SectionFrame(*triple, FrickeSurface(FRICKE.defect(triple)))

    def test_b_and_convergents(self, fr):
        tau = 3 * fr.n0
        p, q = tau.numerator, tau.denominator
        prev, cur = 0, 1  # q^(n-1)*U_n at n = 0 and 1
        for n in range(1, self.CHECKED[-1] + 2):
            if n - 1 in self.CHECKED:  # U_n = b_{n-1}
                assert chebyshev_b(n - 1, fr.n0) == Fraction(cur, q ** (n - 1))
                if n > 1:
                    assert cf_convergent(fr, n - 1) == Fraction(cur, q * prev)
            prev, cur = cur, p * cur - q * q * prev

    def test_powers(self, fr):
        tau = 3 * fr.n0
        p, q = tau.numerator, tau.denominator
        # TA: (x, z) -> (tau*x - z, x) and TC: (x, z) -> (z, tau*z - x), over q*den
        steps = {
            "TA": lambda x, z: (p * x - q * z, q * x),
            "TC": lambda x, z: (q * z, p * z - q * x),
        }
        for family, step in steps.items():
            (x, z), den = common_denominator(fr.origin.xy)
            for r in range(self.CHECKED[-1] + 1):
                if r in self.CHECKED:
                    want = (Fraction(x, den), Fraction(z, den))
                    assert ta_power(fr, fr.origin, r, family).xy == want
                x, z = step(x, z)
                den *= q


class TestTransformsOnEitherSurface:
    # (1, 4, 25) lies on the double surface: (1 + 4 + 25)^2 = 900 = 9*1*4*25
    DOUBLE_FRAME = (1, 4, 25, DOUBLE)
    # integral, sigma-shifted, rational and an ellipse (beta^2 = 1)
    DOUBLE_FRAMES = [
        (1, 4, 25, DOUBLE),
        (4, 25, 841, DOUBLE),
        (2, 1, 1, replace(DOUBLE, sigma=DOUBLE.defect((2, 1, 1)))),
        (Fraction(225, 16), Fraction(9, 16), 36, DOUBLE),
        (Fraction(-1, 9), Fraction(1, 9), Fraction(-1, 9), DOUBLE),
    ]

    def test_tc_chain_of_squared_markov_numbers(self):
        fr = SectionFrame(*self.DOUBLE_FRAME)
        chain = [(1, 25), (25, 841), (841, 28561)]
        p = fr.origin
        for r, xz in enumerate(chain):
            assert p.xy == xz
            assert ta_power(fr, fr.origin, r, "TC").xy == xz
            p = dihedral(fr, p, "TC")

    def test_involutions_and_c_is_tat(self, rng):
        fr = F2SectionFrame(1, 4, 25)
        for p in f2_section_point_pool(fr, rng, 16):
            for which in ("A", "C", "T"):
                assert dihedral(fr, dihedral(fr, p, which), which).xy == p.xy
            tat = dihedral(fr, dihedral(fr, dihedral(fr, p, "T"), "A"), "T")
            assert dihedral(fr, p, "C").xy == tat.xy

    def test_a_and_c_are_the_vieta_moves(self, rng):
        # the formulas conftest.f2_section_point_pool writes out
        for triple in ((1, 4, 25), (4, 25, 841)):
            fr = F2SectionFrame(*triple)
            n0 = fr.n0
            for p in f2_section_point_pool(fr, rng, 12):
                x, z = p.xy
                assert dihedral(fr, p, "A").xy == (x, 9 * n0 * x - 2 * n0 - 2 * x - z)
                assert dihedral(fr, p, "C").xy == (9 * n0 * z - 2 * n0 - 2 * z - x, z)

    def test_ta_power_matches_iteration(self):
        for triple in self.DOUBLE_FRAMES:
            fr = SectionFrame(*triple)
            for family in ("TA", "TC"):
                q = fr.origin
                for r in range(1, 40):
                    q = dihedral(fr, q, family)
                    assert ta_power(fr, fr.origin, r, family).xy == q.xy

    def test_cf_convergent_on_double_frame(self):
        fr = SectionFrame(*self.DOUBLE_FRAME)
        beta, _gamma = fr.conic
        assert [cf_convergent(fr, r) for r in (1, 2, 3)] == [
            34,
            Fraction(1155, 34),
            Fraction(39236, 1155),
        ]
        prev = None
        for r in range(1, 21):
            t = cf_convergent(fr, r)
            val = abs(t * t + beta * t + 1)
            assert val != 0
            if prev is not None:
                assert val < prev
            prev = val

    def test_parabola_has_no_ta_power(self):
        # n0 = 4/9: beta = -2 and gamma = 8/9, so TA has no centre
        fr = SectionFrame(Fraction(-1, 9), Fraction(4, 9), Fraction(-1, 9), DOUBLE)
        assert fr.conic == (-2, Fraction(8, 9))
        with pytest.raises(DomainError, match="parabola"):
            ta_power(fr, fr.origin, 2)
        assert dihedral(fr, dihedral(fr, fr.origin, "TA"), "TC").xy == fr.origin.xy

    def test_b_leaves_a_double_section(self):
        fr = SectionFrame(*self.DOUBLE_FRAME)
        with pytest.raises(OffSection):
            dihedral(fr, fr.origin, "B")

    def test_sigma_shifted_fricke_frame_accepted(self):
        # 1 + 4 + 9 - 3*1*2*3 = -4; the Vieta move in z does not involve sigma
        fr = SectionFrame(1, 2, 3, FrickeSurface(-4))
        assert dihedral(fr, fr.origin, "A").xy == (1, 3)
        q = fr.origin
        for r in range(1, 6):
            q = dihedral(fr, q, "TA")
            assert ta_power(fr, fr.origin, r).xy == q.xy
        assert cf_convergent(fr, 2) == cf_convergent(SectionFrame(1, 2, 1), 2)
