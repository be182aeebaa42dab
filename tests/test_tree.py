from fractions import Fraction

import pytest

from frickelab import (
    DOUBLE,
    DOUBLE_ROOT,
    MARKOV_ROOT,
    CanonicalTriple,
    DomainError,
    FrickeSurface,
    canonical,
    frobenius_scan,
    fundamental_point,
    fundamental_points,
    generate,
    replace,
)
from frickelab import tree
from frickelab.tree import NotAMarkovNumber, RootOffSurface


class TestCanonicalTriple:
    def test_sorting_and_surface(self):
        assert canonical((5, 1, 2)).values == (1, 2, 5)
        assert canonical((25, 1, 4), DOUBLE).largest == 25

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            CanonicalTriple((2, 1, 5))

    def test_off_surface_rejected(self):
        with pytest.raises(RootOffSurface):
            canonical((1, 2, 3))
        with pytest.raises(RootOffSurface):
            canonical((1, 2, 5), DOUBLE)

    def test_non_integral_entry_rejected(self):
        # int() would truncate these to (1, 1, 1) and (1, 2, 5)
        with pytest.raises(DomainError):
            canonical((Fraction(3, 2), 1, 1))
        with pytest.raises(DomainError):
            canonical((Fraction(29, 10), 5, 1))
        assert canonical((Fraction(5), 1, Fraction(2))).values == (1, 2, 5)


class TestGenerate:
    @pytest.mark.parametrize("root", [MARKOV_ROOT, DOUBLE_ROOT, canonical((-2, 0, 2), DOUBLE)])
    def test_budget_is_the_bits_of_the_triples(self, monkeypatch, root):
        # a tree of exactly MAX_TREE_BITS bits is returned; one bit less refuses it
        nodes = generate(root, depth=3)
        bits = sum(v.bit_length() for node in nodes for v in node.triple.values)
        monkeypatch.setattr(tree, "MAX_TREE_BITS", bits)
        assert generate(root, depth=3) == nodes
        monkeypatch.setattr(tree, "MAX_TREE_BITS", bits - 1)
        with pytest.raises(DomainError, match=f"MAX_TREE_BITS = {bits - 1} bits"):
            generate(root, depth=3)

    def test_bounded_markov_tree(self):
        nodes = generate(MARKOV_ROOT, max_component=30)
        assert {n.triple.values for n in nodes} == {
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 5),
            (1, 5, 13),
            (2, 5, 29),
        }

    def test_depth_zero(self):
        nodes = generate(MARKOV_ROOT, depth=0)
        assert len(nodes) == 1 and nodes[0].triple == MARKOV_ROOT

    def test_depth_counts(self):
        # the Markov tree is the root, a stem of length two, then binary
        sizes = [len(generate(MARKOV_ROOT, depth=d)) for d in range(6)]
        assert sizes == [1, 2, 3, 5, 9, 17]

    def test_deterministic(self):
        a = generate(MARKOV_ROOT, depth=6)
        b = generate(MARKOV_ROOT, depth=6)
        assert a == b

    def test_requires_a_limit(self):
        with pytest.raises(ValueError):
            generate(MARKOV_ROOT)

    def test_parent_child_identity_fricke(self):
        # a Vieta move on a sends it to (b^2 + c^2)/a
        for node in generate(MARKOV_ROOT, depth=6):
            a, b, c = node.triple.values
            assert a * (3 * b * c - a) == b * b + c * c

    def test_parent_child_identity_double(self):
        for node in generate(DOUBLE_ROOT, depth=6):
            a, b, c = node.triple.values
            assert a * (9 * b * c - 2 * b - 2 * c - a) == (b + c) ** 2

    def test_double_tree_is_squared_markov_tree(self):
        markov = {n.triple.values for n in generate(MARKOV_ROOT, depth=8)}
        double = {n.triple.values for n in generate(DOUBLE_ROOT, depth=8)}
        assert double == {tuple(v * v for v in t) for t in markov}


# the surfaces written out: Vieta's move in coordinate i, and the polynomial


def fricke_move(t, i):
    return 3 * t[i - 1] * t[i - 2] - t[i]


def double_move(t, i):
    return 9 * t[i - 1] * t[i - 2] - 2 * (t[i - 1] + t[i - 2]) - t[i]


def fricke_poly(x, y, z):
    return x * x + y * y + z * z - 3 * x * y * z


def double_poly(x, y, z):
    return (x + y + z) ** 2 - 9 * x * y * z


def reference_levels(root, move, depth):
    """Canonical triples first reached at each depth, by a plain BFS."""
    levels, seen = [{root}], {root}
    for _ in range(depth):
        reached = set()
        for t in levels[-1]:
            for i in range(3):
                child = list(t)
                child[i] = move(t, i)
                reached.add(tuple(sorted(child)))
        levels.append(reached - seen)
        seen |= reached
    return levels


class TestSigmaTrees:
    @pytest.mark.parametrize(
        "surface, move, poly, root",
        [
            (FrickeSurface(-4), fricke_move, fricke_poly, (1, 2, 3)),
            (replace(DOUBLE, sigma=Fraction(-18)), double_move, double_poly, (1, 2, 3)),
        ],
        ids=["fricke-sigma-4", "double-sigma-18"],
    )
    @pytest.mark.parametrize("depth", range(5))
    def test_matches_reference_bfs(self, surface, move, poly, root, depth):
        assert poly(*root) == surface.sigma
        nodes = generate(canonical(root, surface), depth=depth)
        levels = [set() for _ in range(depth + 1)]
        for node in nodes:
            assert node.triple.surface == surface
            levels[node.depth].add(node.triple.values)
        assert levels == reference_levels(root, move, depth)
        assert len(nodes) == sum(map(len, levels))
        for node in nodes:
            assert poly(*node.triple.values) == surface.sigma
            if node.parent is not None:
                parent = nodes[node.parent].triple.values
                i = "xyz".index(node.via)
                child = list(parent)
                child[i] = move(parent, i)
                assert tuple(sorted(child)) == node.triple.values

    def test_sigma_root_accepted(self):
        # x^2 + y^2 + z^2 - 3xyz = -4 holds at (1, 2, 3), not at sigma = 0
        assert canonical((3, 1, 2), FrickeSurface(-4)).values == (1, 2, 3)
        with pytest.raises(RootOffSurface, match=r"^\(1, 2, 3\) is not on fricke$"):
            canonical((1, 2, 3))
        with pytest.raises(RootOffSurface, match="not on fricke with sigma = -4$"):
            canonical((1, 1, 1), FrickeSurface(-4))


class TestFrobeniusScan:
    def test_no_duplicates_to_a_million(self):
        report = frobenius_scan(10**6)
        assert not report.counterexample_found
        assert report.duplicates == {}

    def test_groups_by_largest(self):
        report = frobenius_scan(100)
        assert sorted(report.by_largest) == [1, 2, 5, 13, 29, 34, 89]
        assert all(len(ts) == 1 for ts in report.by_largest.values())

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            frobenius_scan(1)


class TestFundamentalPoints:
    def test_known_values(self):
        assert fundamental_point(1).values == (1, 1, 1)
        assert fundamental_point(5).values == (1, 2, 5)
        assert fundamental_point(29).values == (2, 5, 29)

    def test_non_markov_number(self):
        with pytest.raises(NotAMarkovNumber):
            fundamental_point(7)
        assert fundamental_points(7) == []
