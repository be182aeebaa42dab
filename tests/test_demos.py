"""Smoke test of the demos: each script under demos/ runs to completion, and
none of them uses floating point."""
import ast
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_has_no_floating_point(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        assert not (isinstance(node, ast.Name) and node.id in ("float", "complex"))
