import random
from fractions import Fraction

import pytest

from conftest import section_point_pool
from frickelab import (
    DOUBLE,
    DomainError,
    SectionFrame,
    SectionPoint,
    cf_convergent,
    chebyshev_b,
    dihedral,
    infinity_points,
    quadric_add,
    quadric_double,
    quadric_inverse,
    slope_between,
    solve_z,
    ta_power,
)
from frickelab.sections import IndexZero, OffSection, tangent_slope

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


class TestInfinityPoints:
    def test_unit_frame(self):
        lo, hi = infinity_points(frame())
        assert (hi.a, hi.b, hi.d, hi.c) == (3, 1, 5, 2)
        assert (lo.a, lo.b, lo.d, lo.c) == (3, -1, 5, 2)

    def test_radicand_normalized(self):
        lo, hi = infinity_points(frame((1, 2, 5)))  # (6 +- sqrt 32)/2 = 3 +- 2*sqrt 2
        assert (hi.a, hi.b, hi.d, hi.c) == (3, 2, 2, 1)

    def test_defining_relation(self):
        for triple in FRAMES:
            fr = frame(triple)
            n0 = fr.n0
            for t in infinity_points(fr):
                assert t * t - 3 * n0 * t + 1 == 0

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
        for triple in FRAMES:
            fr = frame(triple)
            O = fr.origin
            for p in section_point_pool(fr, rng, 12):
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
