"""Surface names are resolved in one place: ``cli.run``, which parses ``--surface``.

Every law takes the ``Surface`` record itself, so no module of the package
other than ``exact.py`` (which defines it) and ``cli.py`` may refer to the
name table ``SURFACES``.
"""
import ast
from pathlib import Path

import frickelab

SOURCES = sorted(Path(frickelab.__file__).parent.glob("*.py"))
ALLOWED = {"exact.py", "cli.py"}


def _refers_to_surfaces(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "SURFACES"
    if isinstance(node, ast.Attribute):
        return node.attr == "SURFACES"
    if isinstance(node, ast.alias):
        return node.name == "SURFACES"
    return False


def test_sources_found():
    assert {p.name for p in SOURCES} >= ALLOWED | {"tree.py", "fricke.py"}


def test_surfaces_only_in_exact_and_cli():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in ALLOWED
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _refers_to_surfaces(node)
    ]
    assert found == []


def test_cli_resolves_a_name_at_one_site():
    # ``run`` turns --surface into its record once; handlers read the record
    cli = next(p for p in SOURCES if p.name == "cli.py")
    found = [
        node.lineno
        for node in ast.walk(ast.parse(cli.read_text(), filename=str(cli)))
        if isinstance(node, ast.Subscript) and _refers_to_surfaces(node.value)
    ]
    assert len(found) == 1
