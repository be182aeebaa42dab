"""A cold start imports only what its subcommand runs.

The records are plain slotted classes over ``exact.Record``, so no module
of the package imports ``dataclasses`` (which pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``), nor ``typing`` or ``threading``, which no code
path uses once the import is done.  The package exports its names lazily
and the CLI binds each law module on first use, so a subcommand imports
``exact`` and the law modules it runs, ``random`` only for ``check`` and
argparse only for help and usage errors.  The child processes run with
``-S``, so that what the machine's ``site`` imports does not count, and with
``-X importtime``, which names every module a process imports.
"""
import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

import frickelab

from conftest import child_env
from test_cli_fuzz import PLAIN

SOURCES = sorted(Path(frickelab.__file__).parent.glob("*.py"))
BARRED = {"dataclasses", "inspect", "typing", "threading"}


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


@functools.cache
def imported(*args: str) -> frozenset:
    """The modules a fresh ``python -S`` child imports, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    return frozenset(
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    )


def cli(command: str, options, positionals) -> tuple:
    return ("-m", "frickelab.cli", command, *[t for o in options for t in o], *positionals)


# one child per subcommand, on the valid argv of test_cli_fuzz.PLAIN, with param on
# the Fricke surface; param on the double surface, PLAIN's argv, is a case of its own
CASES = {f"cli-{command}": cli(command, options, positionals) for command, options, positionals in PLAIN}
CASES["cli-param-double"] = CASES["cli-param"]
CASES["cli-param"] = cli("param", [], ["1", "2"])
CASES["cli-help"] = ("-m", "frickelab.cli", "compose", "--help")
CASES["import"] = ("-c", "import frickelab")

EXACT = "frickelab.exact"
FRICKE = {EXACT, "frickelab.fricke"}
SECTIONS = {EXACT, "frickelab.sections"}
TREE = {EXACT, "frickelab.tree"}
# double_fricke imports fricke, sections and tree at module level for its public
# f2_*/F2* names, so what loads double_fricke loads every law module
DOUBLE = FRICKE | SECTIONS | TREE | {"frickelab.double_fricke"}
LOADS = {
    **dict.fromkeys(["compose", "star", "param", "phi", "psi", "p2-viete", "p2-compose"], FRICKE),
    **dict.fromkeys(
        ["section-add", "section-double", "section-inverse", "dihedral", "ta-power",
         "chebyshev", "infinity", "convergent"],
        SECTIONS,
    ),
    **dict.fromkeys(["tree", "frobenius"], TREE),
    "check": FRICKE | {"random"},
    "negative-tree": DOUBLE,
    "param-double": DOUBLE,
    "help": {EXACT, "argparse"},
    "import": set(),
}


@pytest.mark.parametrize("case", CASES)
def test_a_cold_start_imports_neither(case):
    modules = imported(*CASES[case])
    assert "frickelab" in modules
    assert modules.isdisjoint(BARRED), sorted(modules & BARRED)


@pytest.mark.parametrize("case", CASES)
def test_a_cold_start_loads_only_what_it_runs(case):
    # the package's modules, and the two modules of the standard library that a
    # subcommand loads only for itself: argparse for help and random for check
    modules = imported(*CASES[case])
    pinned = {m for m in modules if m.startswith("frickelab.") or m in ("argparse", "random")}
    assert pinned == LOADS[case.removeprefix("cli-")]
