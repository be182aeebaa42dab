"""Values built without re-validation, and the rule that keeps them few.

``tree.generate`` builds the Vieta children of a validated root through
``CanonicalTriple._vieta_child``, and the shared-radicand arithmetic of
``exact`` builds quadratic irrationals through
``QuadraticIrrational._squarefree``; neither runs ``__post_init__``.  These
tests hold both to the validating constructors, and an AST scan keeps their
call sites where a law guarantees the skipped check.
"""
import ast
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import frickelab
from frickelab import (
    DOUBLE,
    FRICKE,
    CanonicalTriple,
    FrickeSurface,
    QuadraticIrrational,
    canonical,
    f2_param_affine,
    fundamental_points,
    generate,
    make_quadratic,
    param_affine,
)
from frickelab.double_fricke import F2SectionFrame
from frickelab.exact import _square_part, _squarefree_split
from frickelab.sections import SectionFrame, infinity_points
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
