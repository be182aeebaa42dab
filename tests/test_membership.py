"""Membership is decided in one place: the integer residual that
``Surface.contains`` reads, and that a point reads on its stored form.

``Surface.defect`` returns the exact Fraction Q(p) - kappa*xyz - sigma, for
arithmetic such as the discriminant in ``solve_z``.  No module of the
package may test a point by comparing a ``.defect(...)`` result with 0, or
by its truth value: that is what ``contains`` does in integers.
"""
import ast
from pathlib import Path

import frickelab

SOURCES = sorted(Path(frickelab.__file__).parent.glob("*.py"))


def _is_defect_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "defect"
    )


def _membership_tests(tree: ast.AST) -> list[int]:
    """Lines where a .defect(...) result is compared or used as a truth value."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
            operands = [node.test]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            operands = [node.operand]
        elif isinstance(node, ast.BoolOp):
            operands = node.values
        else:
            continue
        if any(_is_defect_call(op) for op in operands):
            found.append(node.lineno)
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"exact.py", "fricke.py", "sections.py", "tree.py"}


def test_detector_sees_each_form():
    snippets = [
        "if s.defect(p) != 0: pass",
        "ok = 0 == s.defect(p)",
        "ok = not FRICKE.defect(p)",
        "if frame.surface.defect(p): pass",
        "ok = s.defect(p) or other",
    ]
    for code in snippets:
        assert _membership_tests(ast.parse(code)) == [1], code
    # arithmetic on the defect is not a membership test
    assert _membership_tests(ast.parse("disc = lin * lin - 4 * s.defect(p)")) == []


def test_no_membership_by_defect_in_sources():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _membership_tests(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
