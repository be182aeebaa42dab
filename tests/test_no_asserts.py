"""No check in the package depends on ``assert``, which ``python -O`` removes."""
import ast
from pathlib import Path

import frickelab

SOURCES = sorted(Path(frickelab.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "exact.py", "fricke.py"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
