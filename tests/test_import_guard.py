"""A cold start imports neither ``dataclasses`` nor ``inspect``.

The records are plain slotted classes over ``exact.Record``, so no module
of the package imports ``dataclasses`` (which pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``).  The child processes run with ``-S``, so that
what the machine's ``site`` imports does not count, and with
``-X importtime``, which names every module a process imports.
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


@pytest.mark.parametrize(
    "args",
    [("-m", "frickelab.cli", "compose", "2,1,1", "1,2,5"), ("-c", "import frickelab")],
    ids=["cli-compose", "import"],
)
def test_a_cold_start_imports_neither(args):
    modules = imported(*args)
    assert {"frickelab.exact", "frickelab.tree", "fractions"} <= modules
    assert modules.isdisjoint(BARRED), sorted(modules & BARRED)
