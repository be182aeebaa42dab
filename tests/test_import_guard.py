"""A cold start imports only what its subcommand runs.

The records are plain slotted classes over ``exact.Record``, so no module
of the package imports ``dataclasses`` (which pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``).  The package exports its names lazily and the CLI
binds each law module on first use, so a subcommand imports ``exact`` and the
law modules it runs, and argparse only for help and usage errors.  The child
processes run with ``-S``, so that what the machine's ``site`` imports does
not count, and with ``-X importtime``, which names every module a process
imports.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import frickelab

from conftest import child_env

SOURCES = sorted(Path(frickelab.__file__).parent.glob("*.py"))
BARRED = {"dataclasses", "inspect"}


def test_no_module_imports_dataclasses_or_inspect():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] in BARRED]
    assert SOURCES and found == []


def imported(*args: str) -> set:
    """The modules a fresh ``python -S`` child imports, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


COMPOSE = ("-m", "frickelab.cli", "compose", "2,1,1", "1,2,5")
CHEBYSHEV = ("-m", "frickelab.cli", "chebyshev", "--r", "5", "--n0", "3")
TREE = ("-m", "frickelab.cli", "tree", "--depth", "2")
# a section law's result: its handler returns the point's coordinates, which load nothing
SECTION = ("-m", "frickelab.cli", "section-add", "--frame", "1,5,2", "2,29", "29,433")
HELP = ("-m", "frickelab.cli", "compose", "--help")
IMPORT = ("-c", "import frickelab")
LAWS = {"frickelab.fricke", "frickelab.sections", "frickelab.tree", "frickelab.double_fricke"}


@pytest.mark.parametrize(
    "args",
    [COMPOSE, IMPORT, CHEBYSHEV, TREE, HELP],
    ids=["cli-compose", "import", "cli-chebyshev", "cli-tree", "cli-help"],
)
def test_a_cold_start_imports_neither(args):
    modules = imported(*args)
    assert "frickelab" in modules
    assert modules.isdisjoint(BARRED), sorted(modules & BARRED)


@pytest.mark.parametrize(
    "args, loaded, unloaded",
    [
        (
            COMPOSE,
            {"frickelab.exact", "frickelab.fricke"},
            LAWS - {"frickelab.fricke"} | {"argparse", "random"},
        ),
        (CHEBYSHEV, {"frickelab.exact", "frickelab.sections"}, {"frickelab.fricke", "frickelab.tree"}),
        (TREE, {"frickelab.exact", "frickelab.tree"}, {"frickelab.fricke", "frickelab.sections"}),
        (SECTION, {"frickelab.sections"}, {"frickelab.fricke", "frickelab.tree"}),
        (IMPORT, {"frickelab"}, LAWS | {"frickelab.exact"}),
        (HELP, {"argparse"}, LAWS),
    ],
    ids=["cli-compose", "cli-chebyshev", "cli-tree", "cli-section-add", "import", "cli-help"],
)
def test_a_cold_start_loads_only_what_it_runs(args, loaded, unloaded):
    modules = imported(*args)
    assert loaded <= modules, sorted(loaded - modules)
    assert modules.isdisjoint(unloaded), sorted(modules & unloaded)
