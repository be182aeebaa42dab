import random
from fractions import Fraction

import pytest

from conftest import random_fricke_pair
from frickelab import (
    DEGENERATE_CUBIC,
    Finite,
    FrickePoint,
    FrickeSurface,
    Infinite,
    Undefined,
    compose,
    compose_alternative,
    line_point,
    line_third_intersection,
    normalize_projective,
    p2_compose,
    p2_involution,
    p2_viete,
    param_affine,
    param_affine_inverse,
    phi,
    psi,
    replace,
    star,
    surface_defect,
    viete,
)
from frickelab.exact import DOUBLE, FRICKE, SingularPoint, ZeroArgument
from frickelab.fricke import (
    BasePointUndefined,
    OffSurface,
    SurfacePoint,
    UndefinedImage,
)


def P(*coords):
    return FrickePoint(*coords)


class TestFrickePoint:
    def test_membership_enforced(self):
        with pytest.raises(OffSurface):
            FrickePoint(1, 1, 3)

    def test_sigma_surface(self):
        surf = FrickeSurface(Fraction(4))
        p = FrickePoint(0, 0, 2, surface=surf)
        assert p.z == 2


class TestViete:
    def test_l_generator(self):
        assert viete(P(1, 1, 1), "L").coords == (1, 2, 1)

    def test_r_generator(self):
        assert viete(P(1, 1, 2), "R").coords == (1, 5, 2)

    def test_generates_known_tree_points(self):
        # closure of (1,1,1) under L, R and permutations reaches the small triples
        seen = {(1, 1, 1)}
        frontier = [P(1, 1, 1)]
        for _ in range(3):
            nxt = []
            for p in frontier:
                for g in "LR":
                    q = viete(p, g)
                    key = tuple(sorted(q.coords))
                    if key not in seen:
                        seen.add(key)
                        nxt.append(q)
                # permutations feed back into the generators
                for perm in ((p.y, p.x, p.z), (p.z, p.y, p.x), (p.x, p.z, p.y)):
                    nxt.append(FrickePoint(*perm))
            frontier = nxt
        for expected in ((1, 1, 2), (1, 2, 5), (2, 5, 29), (1, 5, 13)):
            assert expected in seen

    @pytest.mark.parametrize(
        "sigma, start", [(4, (0, 0, 2)), (Fraction(9, 4), (Fraction(1, 2), 1, 2))]
    )
    def test_sigma_surfaces(self, sigma, start):
        # Vieta's move does not depend on sigma: the generators keep their
        # Fricke formulas and stay on the shifted surface
        surf = FrickeSurface(sigma)
        p = FrickePoint(*start, surface=surf)
        for generator in "LRLRLR":
            x, y, z = p.coords
            q = viete(p, generator)
            if generator == "L":
                assert q.coords == (x, 3 * x * y - z, y)
            else:
                assert q.coords == (y, 3 * y * z - x, z)
            assert q.surface == surf
            assert x * x + y * y + z * z - 3 * x * y * z == sigma
            p = q
        x, y, z = p.coords
        assert x * x + y * y + z * z - 3 * x * y * z == sigma


class TestParametrizations:
    def test_phi_unit(self):
        assert phi(normalize_projective([1, 1, 1])).coords == (1, 1, 1, 1)

    def test_phi_sends_axis_to_infinity(self):
        assert phi(normalize_projective([0, 1, 1])).coords == (0, 1, 1, 0)

    def test_phi_direct(self):
        assert phi(normalize_projective([1, 1, 2])).coords == (1, 1, 2, 1)

    def test_phi_image_on_projectivized_surface(self):
        for coords in ((2, 3, 5), (1, -4, 7), (3, 3, 1)):
            x, y, z, s = phi(normalize_projective(coords)).coords
            assert (x * x + y * y + z * z) * s == 3 * x * y * z

    def test_psi_round_trip(self):
        for coords in ((1, 1, 1), (2, 3, 5), (0, 1, 1), (-1, 4, 3)):
            p = normalize_projective(coords)
            assert psi(phi(p)) == p

    def test_psi_singular_rejected(self):
        with pytest.raises(SingularPoint):
            psi(normalize_projective([0, 0, 0, 1]))

    def test_param_affine(self):
        assert param_affine(1, 1).coords == (1, 1, 1)
        assert param_affine(1, 2).coords == (1, 2, 1)

    def test_param_affine_inverse(self):
        assert param_affine_inverse(P(1, 5, 2)) == (Fraction(1, 2), Fraction(5, 2))
        p, q = Fraction(3, 7), Fraction(-2, 5)
        assert param_affine_inverse(param_affine(p, q)) == (p, q)

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            param_affine(0, 1)


class TestCompose:
    def test_known_example(self):
        r = compose(P(2, 1, 1), P(1, 2, 5))
        assert isinstance(r, Finite)
        assert r.point.coords == (Fraction(15, 4), Fraction(-3, 4), Fraction(-6))

    def test_second_example(self):
        r = compose(P(1, 1, 2), P(2, 5, 29))
        assert isinstance(r, Finite)
        assert r.point.coords == (Fraction(317, 324), Fraction(74, 81), Fraction(17, 12))

    def test_infinite_when_first_coordinates_match(self):
        r = compose(P(1, 1, 2), P(1, 2, 5))
        assert isinstance(r, Infinite)
        assert r.point.coords == (0, 1, 3, 0)

    def test_infinite_permuted_patterns(self):
        r = compose(P(1, 1, 2), P(5, 1, 13))
        assert isinstance(r, Infinite)
        assert r.point.coords[1] == 0 and r.point.coords[3] == 0

    def test_coincident_undefined(self):
        r = compose(P(1, 1, 2), P(1, 1, 2))
        assert r == Undefined("coincident-points")

    def test_origin_undefined(self):
        r = compose(P(0, 0, 0), P(1, 1, 2))
        assert r == Undefined("origin-operand")

    def test_commutative(self, rng):
        for _ in range(25):
            a, b = random_fricke_pair(rng, height=15)
            assert compose(a, b) == compose(b, a)

    def test_closure_and_oracle_equivalence(self, rng):
        for _ in range(50):
            a, b = random_fricke_pair(rng, height=20)
            r = compose(a, b)
            oracle = line_third_intersection(a.coords, b.coords, "fricke")
            if isinstance(r, Finite):
                assert oracle is not DEGENERATE_CUBIC
                assert line_point(a.coords, b.coords, oracle.t) == r.point.coords
            else:
                assert oracle is DEGENERATE_CUBIC

    def test_triple_identity(self, rng):
        # alpha o beta = gamma forces alpha o gamma = beta and beta o gamma = alpha
        done = 0
        while done < 25:
            a, b = random_fricke_pair(rng, height=15)
            r = compose(a, b)
            if not isinstance(r, Finite):
                continue
            g = r.point
            if g.coords in (a.coords, b.coords):
                continue
            assert compose(a, g) == Finite(b)
            assert compose(b, g) == Finite(a)
            done += 1

    def test_sigma_family_same_formula(self):
        surf = FrickeSurface(Fraction(4))
        a = FrickePoint(0, Fraction(6, 5), Fraction(8, 5), surface=surf)
        b = FrickePoint(2, 0, 0, surface=surf)
        r = compose(a, b)
        # the result is built without validation: check its membership here
        assert isinstance(r, Finite)
        assert r.point.surface == surf
        assert surf.contains(r.point.coords)

    def test_alternative_factored_form(self, rng):
        done = 0
        while done < 25:
            a, b = random_fricke_pair(rng, height=15)
            r = compose(a, b)
            if not isinstance(r, Finite) or 0 in a.coords or 0 in b.coords:
                continue
            assert compose_alternative(a, b).coords == r.point.coords
            done += 1


class TestStar:
    def test_identity_element(self):
        # points sharing a coordinate with (1,1,1) hit the secant-at-infinity
        # case, so pick one that does not
        p = P(2, 5, 29)
        r = star(P(1, 1, 1), p)
        assert isinstance(r, Finite) and r.point.coords == p.coords

    def test_golden_value(self):
        r = star(P(2, 1, 1), P(1, 2, 5))
        assert isinstance(r, Finite)
        assert r.point.coords == (Fraction(41, 49), Fraction(85, 77), Fraction(109, 77))

    def test_commutative(self, rng):
        for _ in range(15):
            a, b = random_fricke_pair(rng, height=10)
            assert star(a, b) == star(b, a)

    def test_non_associativity_witness(self):
        a, b, c = P(1, 1, 2), P(2, 5, 29), P(1, 2, 5)
        ab = star(a, b)
        bc = star(b, c)
        assert isinstance(ab, Finite) and isinstance(bc, Finite)
        lhs = star(ab.point, c)
        rhs = star(a, bc.point)
        assert isinstance(lhs, Finite) and isinstance(rhs, Finite)
        assert lhs.point.coords != rhs.point.coords

    def test_propagates_undefined(self):
        assert isinstance(star(P(1, 1, 2), P(1, 1, 2)), Undefined)

    @pytest.mark.parametrize(
        "p, q, where",
        [
            # composable pairs of one surface, a coincident pair, and a mixed pair
            (P(1, 1, 1, DOUBLE), P(4, 1, 1, DOUBLE), "double"),
            (P(1, 2, 3, FrickeSurface(-4)), P(2, 3, 1, FrickeSurface(-4)), "fricke with sigma = -4"),
            (P(4, 1, 1, DOUBLE), P(4, 1, 1, DOUBLE), "double"),
            (P(2, 1, 1), P(4, 1, 1, DOUBLE), "double"),
        ],
        ids=["double", "fricke-sigma-4", "double-coincident", "mixed"],
    )
    def test_other_surfaces_are_named_before_composing(self, p, q, where):
        with pytest.raises(ValueError, match=f"^star is a law of the fricke surface, not of {where}$"):
            star(p, q)

    @pytest.mark.parametrize(
        "p, q, where",
        [
            # the factored form: off the Fricke surface on the first pair, 1/0 on the second
            (P(4, 1, 1, DOUBLE), P(1, 4, 25, DOUBLE), "double"),
            (P(1, 2, 3, FrickeSurface(-4)), P(1, 3, 2, FrickeSurface(-4)), "fricke with sigma = -4"),
            (P(2, 1, 1), P(1, 4, 25, DOUBLE), "double"),
        ],
        ids=["double", "fricke-sigma-4", "mixed"],
    )
    def test_compose_alternative_shares_the_fricke_guard(self, p, q, where):
        law = "compose_alternative is a law of the fricke surface"
        with pytest.raises(ValueError, match=f"^{law}, not of {where}$"):
            compose_alternative(p, q)


class TestPlaneTransfers:
    def test_p2_viete_values(self):
        p = normalize_projective([1, 1, 1])
        assert p2_viete(p, "L").coords == (1, 2, 1)
        assert p2_viete(p, "R").coords == (1, 2, 1)
        assert p2_viete(normalize_projective([1, 2, 1]), "L").coords == (1, 5, 2)

    def test_p2_viete_base_points(self):
        with pytest.raises(BasePointUndefined):
            p2_viete(normalize_projective([0, 0, 1]), "L")

    def test_p2_viete_conjugates_viete(self):
        for coords in ((1, 1, 1), (1, 2, 1), (2, 3, 5), (1, -4, 7)):
            p = normalize_projective(coords)
            for g in "LR":
                image = phi(p)
                x, y, z, s = image.coords
                if s == 0:
                    continue
                affine = FrickePoint(Fraction(x, s), Fraction(y, s), Fraction(z, s))
                v = viete(affine, g)
                assert phi(p2_viete(p, g)) == normalize_projective([v.x, v.y, v.z, 1])

    def test_involutions(self):
        p = normalize_projective([1, 1, 1])
        assert p2_involution(p, 1).coords == (1, 1, 2)
        q = normalize_projective([1, 2, 3])
        assert p2_involution(p2_involution(q, 2), 2) == q
        assert p2_involution(normalize_projective([1, 1, 2]), 3).coords == (1, 5, 2)
        for which in (1, 2, 3):
            r = normalize_projective([2, 5, 7])
            assert p2_involution(p2_involution(r, which), which) == r

    def test_p2_compose_values(self):
        a = normalize_projective([2, 1, 1])
        b = normalize_projective([1, 2, 5])
        assert p2_compose(a, b) == normalize_projective([15, -3, -24])
        assert p2_compose(a, b).coords == (5, -1, -8)

    def test_p2_compose_coincident_undefined(self):
        a = normalize_projective([1, 2, 3])
        with pytest.raises(UndefinedImage):
            p2_compose(a, a)

    def test_p2_compose_compatibility(self, rng):
        done = 0
        while done < 25:
            a = normalize_projective([rng.randint(-9, 9) or 1 for _ in range(3)])
            b = normalize_projective([rng.randint(-9, 9) or 1 for _ in range(3)])
            if a == b:
                continue
            A, B = phi(a), phi(b)
            if A.coords[3] == 0 or B.coords[3] == 0:
                continue
            pa = FrickePoint(*(Fraction(c, A.coords[3]) for c in A.coords[:3]))
            pb = FrickePoint(*(Fraction(c, B.coords[3]) for c in B.coords[:3]))
            r = compose(pa, pb)
            if not isinstance(r, Finite):
                continue
            assert p2_compose(a, b) == normalize_projective(r.point.coords)
            done += 1


class TestSigmaSurfaces:
    # the other root of the equation in z, given x and y; sigma drops out
    VIETA = {
        "fricke": lambda x, y, z: 3 * x * y - z,
        "double": lambda x, y, z: 9 * x * y - 2 * (x + y) - z,
    }

    @pytest.mark.parametrize("base", [FRICKE, DOUBLE], ids=lambda s: s.name)
    def test_oracle_equivalence(self, base):
        # a random rational point fixes sigma; its permutations and Viete
        # images lie on the same sigma-surface
        rng = random.Random(20261017)
        done = 0
        while done < 150:
            x, y, z = (Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(3))
            sigma = surface_defect(base.name, (x, y, z))
            surf = replace(base, sigma=sigma)
            images = [(z, x, y), (y, z, x), (y, x, z), (x, y, self.VIETA[base.name](x, y, z))]
            a = SurfacePoint(x, y, z, surf)
            for coords in images:
                b = SurfacePoint(*coords, surf)
                if a == b or a.is_origin:
                    continue
                r = compose(a, b)
                oracle = line_third_intersection(a.coords, b.coords, base.name, sigma)
                if isinstance(r, Finite):
                    assert oracle is not DEGENERATE_CUBIC
                    assert line_point(a.coords, b.coords, oracle.t) == r.point.coords
                else:
                    assert isinstance(r, Infinite) and oracle is DEGENERATE_CUBIC
                done += 1
