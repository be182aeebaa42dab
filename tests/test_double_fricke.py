from fractions import Fraction

import pytest

from conftest import f2_section_point_pool, random_f2_pair
from frickelab import (
    DEGENERATE_CUBIC,
    F2Point,
    F2SectionFrame,
    F2SectionPoint,
    Finite,
    Infinite,
    Undefined,
    f2_compose,
    f2_infinity_points,
    f2_p2_compose,
    f2_p2_involution,
    f2_p2_viete,
    f2_param_affine,
    f2_phi,
    f2_psi,
    f2_quadric_add,
    f2_quadric_double,
    f2_quadric_inverse,
    line_point,
    line_third_intersection,
    negative_tree,
    nielsen,
    normalize_projective,
    param_affine,
    square_lift,
    sqrt_descend,
    surface_defect,
)
from frickelab.double_fricke import NotASquare, OffSection
from frickelab.fricke import OffSurface


class TestF2Point:
    def test_membership_enforced(self):
        with pytest.raises(OffSurface):
            F2Point(1, 1, 2)

    def test_squared_markov_triples_admitted(self):
        for coords in ((1, 1, 1), (1, 4, 1), (4, 25, 1), (1, 4, 25)):
            assert F2Point(*coords).coords == coords


class TestNielsen:
    def test_first_generator(self):
        assert nielsen(F2Point(1, 1, 1), "first").coords == (1, 4, 1)

    def test_second_generator(self):
        assert nielsen(F2Point(1, 4, 1), "second").coords == (4, 25, 1)

    def test_tracks_squared_viete_tree(self):
        # closure of (1,1,1) under both generators stays in squared triples
        frontier = [F2Point(1, 1, 1)]
        for _ in range(6):
            frontier = [nielsen(p, g) for p in frontier for g in ("first", "second")]
            for p in frontier:
                m, n, k = sqrt_descend(p)
                assert surface_defect("fricke", (m, n, k)) == 0


class TestSquaredCorrespondence:
    def test_lift_values(self):
        assert square_lift((1, 2, 5)).coords == (1, 4, 25)
        assert square_lift((2, 5, 29)).coords == (4, 25, 841)

    def test_lift_rejects_non_markov(self):
        with pytest.raises(OffSurface):
            square_lift((1, 2, 3))

    def test_descend_round_trip(self):
        for triple in ((1, 1, 1), (1, 1, 2), (1, 2, 5), (5, 29, 433)):
            assert sqrt_descend(square_lift(triple)) == triple

    def test_descend_rejects_non_integral(self):
        with pytest.raises(NotASquare):
            sqrt_descend(f2_param_affine(1, Fraction(1, 2)))


class TestF2Compose:
    def test_known_value(self):
        r = f2_compose(F2Point(4, 1, 1), F2Point(1, 4, 25))
        assert isinstance(r, Finite)
        assert r.point.coords == (Fraction(361, 72), Fraction(-1, 72), Fraction(-64, 9))

    def test_commutative(self, rng):
        for _ in range(20):
            a, b = random_f2_pair(rng, height=12)
            assert f2_compose(a, b) == f2_compose(b, a)

    def test_infinite_branch(self):
        r = f2_compose(F2Point(1, 4, 1), F2Point(1, 4, 25))
        assert isinstance(r, Infinite)
        assert r.point.coords[3] == 0

    def test_undefined_branches(self):
        p = F2Point(1, 4, 1)
        assert isinstance(f2_compose(p, p), Undefined)
        assert isinstance(f2_compose(F2Point(0, 0, 0), p), Undefined)

    def test_oracle_equivalence(self, rng):
        for _ in range(40):
            a, b = random_f2_pair(rng, height=15)
            r = f2_compose(a, b)
            oracle = line_third_intersection(a.coords, b.coords, "double")
            if isinstance(r, Finite):
                assert oracle is not DEGENERATE_CUBIC
                assert line_point(a.coords, b.coords, oracle.t) == r.point.coords
            else:
                assert oracle is DEGENERATE_CUBIC

    def test_chart_is_coordinatewise_square(self):
        for p, q in ((1, 2), (Fraction(2, 3), Fraction(-5, 7)), (3, 3)):
            lifted = f2_param_affine(p, q)
            base = param_affine(p, q)
            assert lifted.coords == tuple(c * c for c in base.coords)


class TestNegativeTree:
    def test_small_tree_contents(self):
        tree = negative_tree(1, 4)
        for expected in (
            (-1, 0, 1),
            (-9, -1, 1),
            (-64, -9, 1),
            (-441, -64, 1),
            (-9, -1, 100),
            (-1089, -1, 100),
        ):
            assert expected in tree

    def test_scaling_of_fundamental_solution(self):
        assert (-2, 0, 2) in negative_tree(2, 2)
        assert (-36, -2, 2) in negative_tree(2, 2)

    def test_all_triples_on_surface(self):
        for t in negative_tree(3, 5):
            assert surface_defect("double", t) == 0

    def test_vieta_product_identity(self):
        # replacing a by a' leaves a*a' = (b+c)^2
        for a, b, c in negative_tree(1, 5):
            a2 = 9 * b * c - 2 * b - 2 * c - a
            assert a * a2 == (b + c) ** 2

    def test_deterministic(self):
        assert negative_tree(1, 6) == negative_tree(1, 6)

    def test_max_abs_injective_at_depth(self):
        tree = negative_tree(1, 8)
        tops = [max(abs(v) for v in t) for t in tree]
        assert len(tops) == len(set(tops))


class TestPlaneTransfers:
    def test_phi_values(self):
        assert f2_phi(normalize_projective([1, 1, 1])).coords == (1, 1, 1, 1)
        assert f2_phi(normalize_projective([1, 2, 5])).coords == (32, 64, 160, 45)

    def test_psi_round_trip(self):
        for coords in ((1, 1, 1), (1, 4, 25), (2, 3, 7), (-1, 4, 3)):
            p = normalize_projective(coords)
            assert f2_psi(f2_phi(p)) == p

    def test_viete_transfer_values(self):
        assert f2_p2_viete(normalize_projective([1, 1, 1]), "L").coords == (1, 4, 1)
        assert f2_p2_viete(normalize_projective([1, 4, 1]), "R").coords == (4, 25, 1)

    def test_involutions_are_involutions(self):
        p = normalize_projective([2, 3, 7])
        for which in (1, 2, 3):
            assert f2_p2_involution(f2_p2_involution(p, which), which) == p

    def test_compose_transfer_value(self):
        a = normalize_projective([4, 1, 1])
        b = normalize_projective([1, 4, 25])
        assert f2_p2_compose(a, b).coords == (361, -1, -512)
        # consistent with the affine value scaled by s = 72
        assert normalize_projective([Fraction(361, 72), Fraction(-1, 72), Fraction(-64, 9)]) \
            == normalize_projective([361, -1, -512])

    def test_compose_transfer_compatibility(self, rng):
        done = 0
        while done < 25:
            a = normalize_projective([rng.randint(-9, 9) or 1 for _ in range(3)])
            b = normalize_projective([rng.randint(-9, 9) or 1 for _ in range(3)])
            if a == b:
                continue
            A, B = f2_phi(a), f2_phi(b)
            if A.coords[3] == 0 or B.coords[3] == 0:
                continue
            pa = F2Point(*(Fraction(c, A.coords[3]) for c in A.coords[:3]))
            pb = F2Point(*(Fraction(c, B.coords[3]) for c in B.coords[:3]))
            r = f2_compose(pa, pb)
            if not isinstance(r, Finite):
                continue
            assert f2_p2_compose(a, b) == normalize_projective(r.point.coords)
            done += 1


F2_FRAMES = [(1, 1, 1), (1, 4, 25), (4, 25, 1)]


class TestF2Sections:
    def test_membership_enforced(self):
        with pytest.raises(OffSection):
            F2SectionFrame(1, 1, 2)
        with pytest.raises(OffSection):
            F2SectionPoint(2, 1, F2SectionFrame(1, 1, 1))

    def test_add_golden(self):
        fr = F2SectionFrame(1, 1, 1)
        a = F2SectionPoint(1, 4, fr)
        b = F2SectionPoint(4, 1, fr)
        assert f2_quadric_add(fr, a, b).xy == (1, 1)

    def test_double_golden(self):
        fr = F2SectionFrame(1, 1, 1)
        assert f2_quadric_double(fr, F2SectionPoint(1, 4, fr)).xy == (4, 25)

    def test_horizontal_chord(self):
        fr = F2SectionFrame(1, 1, 1)
        r = f2_quadric_add(fr, F2SectionPoint(1, 4, fr), F2SectionPoint(25, 4, fr))
        assert r.xy == (4, 1)

    def test_vertical_chord(self):
        fr = F2SectionFrame(1, 1, 1)
        r = f2_quadric_add(fr, F2SectionPoint(1, 1, fr), F2SectionPoint(1, 4, fr))
        assert r.xy == (1, 4)

    def test_inverse(self):
        fr = F2SectionFrame(1, 1, 1)
        assert f2_quadric_inverse(fr, fr.origin).xy == fr.origin.xy
        assert f2_quadric_inverse(fr, F2SectionPoint(1, 4, fr)).xy == (4, 1)

    def test_group_axioms(self, rng):
        for triple in F2_FRAMES:
            fr = F2SectionFrame(*triple)
            O = fr.origin
            pool = f2_section_point_pool(fr, rng, 16)
            for p in pool:
                assert f2_quadric_add(fr, O, p).xy == p.xy
                inv = f2_quadric_inverse(fr, p)
                assert f2_quadric_add(fr, p, inv).xy == O.xy
            for _ in range(15):
                p, q, r = (rng.choice(pool) for _ in range(3))
                assert f2_quadric_add(fr, p, q).xy == f2_quadric_add(fr, q, p).xy
                lhs = f2_quadric_add(fr, f2_quadric_add(fr, p, q), r)
                rhs = f2_quadric_add(fr, p, f2_quadric_add(fr, q, r))
                assert lhs.xy == rhs.xy

    def test_infinity_points(self):
        fr = F2SectionFrame(1, 1, 1)
        lo, hi = f2_infinity_points(fr)
        assert (hi.a, hi.b, hi.d, hi.c) == (7, 3, 5, 2)
        assert (lo.a, lo.b, lo.d, lo.c) == (7, -3, 5, 2)
        for t in (lo, hi):
            assert t * t - 7 * t + 1 == 0

    def test_infinity_sum_and_product(self):
        for triple in F2_FRAMES:
            fr = F2SectionFrame(*triple)
            lo, hi = f2_infinity_points(fr)
            assert lo + hi == 9 * fr.n0 - 2
            assert lo * hi == 1


def test_f2_names_bind_the_generic_laws():
    from functools import partial

    from frickelab import double_fricke as df
    from frickelab import fricke, sections
    from frickelab.exact import DOUBLE

    same = {
        "f2_compose": fricke.compose,
        "f2_psi": fricke.psi,
        "f2_tangent_slope": sections.tangent_slope,
        "f2_quadric_add": sections.quadric_add,
        "f2_quadric_double": sections.quadric_double,
        "f2_quadric_inverse": sections.quadric_inverse,
        "f2_infinity_points": sections.infinity_points,
        "F2SectionPoint": sections.SectionPoint,
    }
    for name, law in same.items():
        assert getattr(df, name) is law, name
    bound = {
        "f2_phi": fricke.phi,
        "f2_p2_viete": fricke.p2_viete,
        "f2_p2_involution": fricke.p2_involution,
        "f2_p2_compose": fricke.p2_compose,
    }
    for name, law in bound.items():
        alias = getattr(df, name)
        assert type(alias) is partial, name
        assert (alias.func, alias.args, alias.keywords) == (law, (), {"surface": DOUBLE}), name
