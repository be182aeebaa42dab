"""Integers cross the interpreter's int-str digit limit by one path.

The package lifts the limit only in ``exact._no_digit_limit``, under one lock,
and imports no ``decimal``, which once carried integers across the limit as a
second, slower path.
"""
import ast
from pathlib import Path

import frickelab

SOURCES = sorted(Path(frickelab.__file__).parent.glob("*.py"))


def _functions(path: Path):
    """(name of the top-level function or "<module>", node) for every node in the module."""
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(stmt):
            yield getattr(stmt, "name", "<module>"), node


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "exact.py", "sections.py"}


def test_no_module_imports_decimal():
    found = []
    for path in SOURCES:
        for _, node in _functions(path):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "decimal"]
    assert found == []


def test_the_limit_is_set_only_in_the_one_helper():
    sites = {
        (path.name, function)
        for path in SOURCES
        for function, node in _functions(path)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "set_int_max_str_digits"
    }
    assert sites == {("exact.py", "_no_digit_limit")}
