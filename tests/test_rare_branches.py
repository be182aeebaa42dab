"""Branches that the law tests never reach: argument checks that refuse a
value, the degenerate cases of a solver, and a pair that ``check`` skips.

Each test drives one such statement with an input that takes it, and
checks the answer or the error it gives.
"""
from fractions import Fraction

import pytest

from frickelab import cli
from frickelab.double_fricke import F2Point, negative_tree, nielsen
from frickelab.exact import (
    AT_INFINITY,
    ProjectivePoint,
    QuadraticIrrational,
    ZeroArgument,
    ZeroVector,
    is_rational_square,
    make_quadratic,
    sqrt_exact,
)
from frickelab.fricke import (
    FrickePoint,
    FrickeSurface,
    Infinite,
    UndefinedImage,
    compose,
    p2_involution,
    p2_viete,
    param_affine_inverse,
    viete,
)
from frickelab.sections import OffSection, SectionFrame, dihedral, solve_z, ta_power

ROOT_2 = QuadraticIrrational(0, 1, 2, 1)
ROOT_3 = QuadraticIrrational(0, 1, 3, 1)


class TestExact:
    def test_zero_projective_vector(self):
        with pytest.raises(ZeroVector, match="all projective coordinates are zero"):
            ProjectivePoint((0, 0, 0))

    def test_quadratic_irrational_without_irrational_part(self):
        with pytest.raises(ValueError, match="not a normalized quadratic irrational"):
            QuadraticIrrational(0, 0, 2, 1)

    @pytest.mark.parametrize("other", [ROOT_3, "1"], ids=["other-radicand", "str"])
    def test_mixed_sum_and_product_are_refused(self, other):
        with pytest.raises(TypeError):
            ROOT_2 + other
        with pytest.raises(TypeError):
            ROOT_2 * other

    def test_nonpositive_radicand(self):
        with pytest.raises(ValueError, match="radicand must be positive"):
            make_quadratic(1, 1, -2)
        with pytest.raises(ValueError, match="negative radicand"):
            sqrt_exact(-1)

    def test_root_over_a_nonsquare_denominator(self):
        root = sqrt_exact(Fraction(1, 2))
        assert root == QuadraticIrrational(0, 1, 2, 2)
        assert str(root) == "(0+1√2)/2"

    def test_negative_is_no_rational_square(self):
        assert is_rational_square(-1) is False

    def test_vertical_slope_repr(self):
        assert repr(AT_INFINITY) == "AT_INFINITY"


class TestFricke:
    def test_infinite_point_off_the_lines_at_infinity(self):
        with pytest.raises(ValueError, match=r"is not on a line at infinity"):
            Infinite(ProjectivePoint((1, 1, 1, 1)))

    def test_unknown_generators(self):
        q = ProjectivePoint((1, 1, 1))
        with pytest.raises(ValueError, match="generator must be 'L' or 'R', got 'X'"):
            viete(FrickePoint(1, 1, 1), "X")
        with pytest.raises(ValueError, match="generator must be 'L' or 'R', got 'X'"):
            p2_viete(q, "X")
        with pytest.raises(ValueError, match="which must be 1, 2 or 3"):
            p2_involution(q, 4)

    def test_chart_inverse_at_the_origin(self):
        with pytest.raises(ZeroArgument, match="chart inverse needs z != 0"):
            param_affine_inverse(FrickePoint(0, 0, 0))

    def test_operands_on_different_surfaces(self):
        with pytest.raises(ValueError, match="operands live on different surfaces"):
            compose(FrickePoint(1, 1, 1), F2Point(1, 1, 1))

    def test_involution_undefined_at_a_point(self):
        with pytest.raises(UndefinedImage, match=r"involution 1 is undefined at \[0:0:1\]"):
            p2_involution(ProjectivePoint((0, 0, 1)), 1)


class TestSections:
    def test_section_through_n0_zero(self):
        # (3, 0, 4) lies on x^2 + y^2 + z^2 - 3xyz = 25
        with pytest.raises(OffSection, match="n0 = 0 degenerates the section"):
            SectionFrame(3, 0, 4, FrickeSurface(25))

    def test_frame_contains(self):
        frame = SectionFrame(1, 1, 1)
        assert frame.contains(1, 2) and frame.contains(Fraction(2), 1)
        assert not frame.contains(1, 3)

    def test_tangent_line_meets_the_section_once(self):
        frame = SectionFrame(Fraction(10, 9), Fraction(5, 6), Fraction(25, 18))
        [point] = solve_z(frame, Fraction(10, 9))
        assert point.xy == (Fraction(10, 9), Fraction(25, 18))

    def test_unknown_transform_and_family(self):
        frame = SectionFrame(1, 1, 1)
        with pytest.raises(ValueError, match="transform must be one of"):
            dihedral(frame, frame.origin, "X")
        with pytest.raises(ValueError, match="family must be 'TA' or 'TC', got 'X'"):
            ta_power(frame, frame.origin, 2, "X")


class TestDoubleFricke:
    def test_unknown_nielsen_generator(self):
        with pytest.raises(ValueError, match="generator must be 'first' or 'second'"):
            nielsen(F2Point(1, 1, 1), "third")

    def test_negative_tree_needs_a_positive_n(self):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            negative_tree(0, 1)


class _Scripted:
    """A stand-in for random.Random(seed) that draws ``DRAWS`` in turn."""

    # pair 1 draws the charts (3/4, 5/6) twice; pair 2 draws (3/4, 5/6), (1/2, 7/3)
    DRAWS = [3, 4, 5, 6, 3, 4, 5, 6] + [3, 4, 5, 6, 1, 2, 7, 3]

    def __init__(self, seed):
        self.draws = iter(self.DRAWS)

    def randint(self, lo, hi):
        value = next(self.draws)
        assert lo <= value <= hi
        return value


def test_check_skips_a_pair_drawn_twice(monkeypatch):
    monkeypatch.setattr(cli.random, "Random", _Scripted)
    assert cli._run_check(5, 2) == {"result": "ok", "seed": 5, "pairs-checked": 1}
