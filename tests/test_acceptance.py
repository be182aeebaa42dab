"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Each criterion is a separate test so a red line never
hides the others.
"""
import random
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    f2_section_point_pool,
    random_f2_pair,
    random_fricke_pair,
    section_point_pool,
)
from frickelab import (
    DEGENERATE_CUBIC,
    DOUBLE_ROOT,
    MARKOV_ROOT,
    F2Point,
    F2SectionFrame,
    Finite,
    FrickePoint,
    SectionFrame,
    SectionPoint,
    cf_convergent,
    chebyshev_b,
    compose,
    dihedral,
    f2_compose,
    f2_phi,
    f2_p2_compose,
    f2_quadric_add,
    f2_quadric_inverse,
    frobenius_scan,
    generate,
    line_point,
    line_third_intersection,
    negative_tree,
    normalize_projective,
    p2_compose,
    phi,
    psi,
    quadric_add,
    quadric_inverse,
    star,
    surface_defect,
    ta_power,
)

F_FRAMES = [(1, 1, 1), (1, 2, 5), (2, 5, 29)]
F2_FRAMES = [(1, 1, 1), (1, 4, 25)]


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {label}")
        raise
    print(f"[PASS] criterion {number:2d}: {label}")


def test_criterion_01_fricke_composition_example():
    with criterion(1, "Fricke composition (2,1,1) o (1,2,5)"):
        r = compose(FrickePoint(2, 1, 1), FrickePoint(1, 2, 5))
        assert isinstance(r, Finite)
        assert r.point.coords == (Fraction(15, 4), Fraction(-3, 4), Fraction(-6))


def test_criterion_02_double_composition_example():
    with criterion(2, "double composition (4,1,1) o (1,4,25)"):
        p, q = (4, 1, 1), (1, 4, 25)
        r = f2_compose(F2Point(*p), F2Point(*q))
        assert isinstance(r, Finite)
        assert r.point.coords == (Fraction(361, 72), Fraction(-1, 72), Fraction(-64, 9))
        # the pinned point is the third point where the line pq meets the surface
        assert surface_defect("double", r.point.coords) == 0
        oracle = line_third_intersection(p, q, "double")
        assert r.point.coords == line_point(p, q, oracle.t)
        squared = (Fraction(15, 4) ** 2, Fraction(-3, 4) ** 2, Fraction(-6) ** 2)
        assert r.point.coords != squared


def test_criterion_03_negative_tree_chain():
    with criterion(3, "negative tree of (-1,0,1) reaches the listed points"):
        tree = set(negative_tree(1, 4))
        for listed in (
            (0, 1, -1),
            (-1, -9, 1),
            (1, -64, -9),
            (-9, 100, -1),
            (100, -8281, -9),
        ):
            assert tuple(sorted(listed)) in tree


def test_criterion_04_oracle_equivalence():
    with criterion(4, "closed forms match the line-cubic oracle, 500 pairs each"):
        rng = random.Random(404)
        for surface, sampler, composer in (
            ("fricke", random_fricke_pair, compose),
            ("double", random_f2_pair, f2_compose),
        ):
            for _ in range(500):
                a, b = sampler(rng, height=50)
                r = composer(a, b)
                oracle = line_third_intersection(a.coords, b.coords, surface)
                if isinstance(r, Finite):
                    assert oracle is not DEGENERATE_CUBIC
                    assert line_point(a.coords, b.coords, oracle.t) == r.point.coords
                    g = r.point
                    if g.coords not in (a.coords, b.coords):
                        assert composer(a, g) == Finite(b)
                        assert composer(b, g) == Finite(a)
                else:
                    assert oracle is DEGENERATE_CUBIC


def test_criterion_05_quadric_group_axioms():
    with criterion(5, "conic group axioms on both surfaces, 100 points per frame"):
        rng = random.Random(505)
        jobs = [
            (SectionFrame(*t), section_point_pool, quadric_add, quadric_inverse)
            for t in F_FRAMES
        ] + [
            (F2SectionFrame(*t), f2_section_point_pool, f2_quadric_add, f2_quadric_inverse)
            for t in F2_FRAMES
        ]
        for frame, pool_fn, add, inverse in jobs:
            O = frame.origin
            pool = pool_fn(frame, rng, 100)
            for p in pool:
                assert add(frame, O, p).xy == p.xy
                assert add(frame, p, inverse(frame, p)).xy == O.xy
            for _ in range(40):
                p, q, r = (rng.choice(pool) for _ in range(3))
                assert add(frame, p, q).xy == add(frame, q, p).xy
                assert add(frame, add(frame, p, q), r).xy == add(frame, p, add(frame, q, r)).xy


def test_criterion_06_section_identities():
    with criterion(6, "swap, order-2 and Vieta identities on sections"):
        rng = random.Random(606)
        for triple in F_FRAMES:
            fr = SectionFrame(*triple)
            O = fr.origin
            neg = SectionPoint(-fr.m0, -fr.k0, fr)
            assert quadric_add(fr, neg, neg).xy == O.xy
            co = dihedral(fr, O, "C")
            ao = dihedral(fr, O, "A")
            for p in section_point_pool(fr, rng, 50):
                swapped = SectionPoint(p.z, p.x, fr)
                assert quadric_add(fr, p, swapped).xy == (fr.k0, fr.m0)
                cp = dihedral(fr, p, "C")
                if cp.xy != p.xy:
                    assert quadric_add(fr, p, cp).xy == co.xy
                ap = dihedral(fr, p, "A")
                if ap.xy != p.xy:
                    assert quadric_add(fr, p, ap).xy == ao.xy


def test_criterion_07_closed_form_powers():
    with criterion(7, "closed-form dihedral powers and the matrix identity, r <= 50"):
        for triple in F_FRAMES:
            fr = SectionFrame(*triple)
            for family in ("TA", "TC"):
                q = fr.origin
                for r in range(1, 51):
                    q = dihedral(fr, q, family)
                    assert ta_power(fr, fr.origin, r, family).xy == q.xy
            n0 = fr.n0
            acc = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
            for r in range(1, 51):
                acc = (
                    (3 * n0 * acc[0][0] + acc[0][1], -acc[0][0]),
                    (3 * n0 * acc[1][0] + acc[1][1], -acc[1][0]),
                )
                assert acc == (
                    (chebyshev_b(r, n0), -chebyshev_b(r - 1, n0)),
                    (chebyshev_b(r - 1, n0), -chebyshev_b(r - 2, n0)),
                )


def test_criterion_08_orbit_homomorphism():
    with criterion(8, "P_a + P_b = P_{a+b} on TA- and TC-orbits, a,b <= 10"):
        for triple in F_FRAMES:
            fr = SectionFrame(*triple)
            for family in ("TA", "TC"):
                orbit = [ta_power(fr, fr.origin, r, family) for r in range(21)]
                for a in range(11):
                    for b in range(11):
                        assert quadric_add(fr, orbit[a], orbit[b]).xy == orbit[a + b].xy


def test_criterion_09_squared_triple_theorem():
    with criterion(9, "depth-8 double tree = squared depth-8 Markov tree"):
        markov = {n.triple.values for n in generate(MARKOV_ROOT, depth=8)}
        double = {n.triple.values for n in generate(DOUBLE_ROOT, depth=8)}
        assert double == {tuple(v * v for v in t) for t in markov}


def test_criterion_10_frobenius_scan():
    with criterion(10, "no duplicate largest components up to 10^8"):
        report = frobenius_scan(10**8)
        assert not report.counterexample_found
        assert len(report.by_largest) > 0


def test_criterion_11_convergents():
    with criterion(11, "convergent recurrence and strictly decreasing quality"):
        for triple in F_FRAMES:
            fr = SectionFrame(*triple)
            n0 = fr.n0
            prev = None
            for r in range(1, 21):
                t = cf_convergent(fr, r)
                assert cf_convergent(fr, r + 1) == 3 * n0 - 1 / t
                quality = abs(t * t - 3 * n0 * t + 1)
                assert quality != 0
                if prev is not None:
                    assert quality < prev
                prev = quality


def test_criterion_12_star_non_associativity():
    with criterion(12, "pinned witness for the non-associativity of star"):
        a, b, c = FrickePoint(1, 1, 2), FrickePoint(2, 5, 29), FrickePoint(1, 2, 5)
        ab = star(a, b)
        bc = star(b, c)
        assert isinstance(ab, Finite) and isinstance(bc, Finite)
        lhs = star(ab.point, c)
        rhs = star(a, bc.point)
        assert isinstance(lhs, Finite) and isinstance(rhs, Finite)
        assert lhs.point.coords != rhs.point.coords


def test_criterion_13_transfer_compatibility():
    with criterion(13, "plane transfers commute with composition, 100 pairs each"):
        rng = random.Random(1313)
        for lift, composer, point_cls, plane_compose in (
            (phi, compose, FrickePoint, p2_compose),
            (f2_phi, f2_compose, F2Point, f2_p2_compose),
        ):
            done = 0
            while done < 100:
                a = normalize_projective([rng.randint(-20, 20) or 1 for _ in range(3)])
                b = normalize_projective([rng.randint(-20, 20) or 1 for _ in range(3)])
                if a == b:
                    continue
                A, B = lift(a), lift(b)
                if A.coords[3] == 0 or B.coords[3] == 0:
                    continue
                pa = point_cls(*(Fraction(c, A.coords[3]) for c in A.coords[:3]))
                pb = point_cls(*(Fraction(c, B.coords[3]) for c in B.coords[:3]))
                r = composer(pa, pb)
                if not isinstance(r, Finite):
                    continue
                assert psi(normalize_projective([*r.point.coords, 1])) \
                    == normalize_projective(r.point.coords)
                assert plane_compose(a, b) == normalize_projective(r.point.coords)
                done += 1
