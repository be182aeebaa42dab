"""Lazy loading costs one load per process, and the lazy exports keep every name.

``cli`` binds each module it loads on first use in its own globals, so a
second ``cli.run`` of any subcommand imports nothing.  ``frickelab`` resolves
its public names and submodules on first read (PEP 562); the checks of a bare
``import frickelab`` run in a fresh child, where no law module is loaded yet.
"""
import builtins
import contextlib
import importlib
import io
import json
import pickle
import subprocess
import sys

from frickelab import cli
from frickelab.sections import SectionFrame, SectionPoint

from conftest import child_env
from test_cli_fuzz import PLAIN
from test_exports import PUBLIC

# one argv of each subcommand, and param on the Fricke surface, which takes fricke alone
ARGV = [[command, *[t for o in options for t in o], *positionals] for command, options, positionals in PLAIN]
ARGV.append(["param", "1", "2"])


def run_all() -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = [cli.run(list(argv)) for argv in ARGV]
    return codes, out.getvalue()


def test_a_second_run_imports_nothing(monkeypatch):
    first = run_all()
    assert first[0] == [0] * len(ARGV)
    calls = []

    def counting(real):
        def count(name, *args, **kwargs):
            calls.append(name)
            return real(name, *args, **kwargs)

        return count

    # undone before any assert runs; __import__ last, as setattr itself imports inspect
    with monkeypatch.context() as patch:
        patch.setattr(importlib, "import_module", counting(importlib.import_module))
        patch.setattr(builtins, "__import__", counting(builtins.__import__))
        second = run_all()
    assert second == first and calls == []


def child(code: str, stdin: bytes = b"", *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin,
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-800:]
    return proc.stdout.decode()


RESOLVE = """
import sys, types
import frickelab
assert not [m for m in sys.modules if m.startswith("frickelab.")], sorted(sys.modules)
from frickelab import fricke
assert frickelab.compose is fricke.compose
assert isinstance(frickelab.fricke, types.ModuleType) and isinstance(frickelab.tree, types.ModuleType)
print(sorted(m for m in sys.modules if m.startswith("frickelab.")))
"""


def test_names_and_submodules_resolve_after_a_bare_import():
    assert child(RESOLVE) == "['frickelab.exact', 'frickelab.fricke', 'frickelab.tree']\n"


COVER = """
import json, sys
import frickelab
pairs = json.loads(sys.argv[1])
listed = set(dir(frickelab))
star = {}
exec("from frickelab import *", star)
module = lambda name: getattr(frickelab, name)
print(json.dumps({
    "dir": [n for _, n in pairs if n not in listed],
    "star": [n for m, n in pairs if star.get(n) is not getattr(module(m), n)],
}))
"""


def test_dir_and_star_import_cover_every_public_name():
    pairs = [(module.__name__.rpartition(".")[2], name) for module, name in PUBLIC]
    assert json.loads(child(COVER, b"", json.dumps(pairs))) == {"dir": [], "star": []}


UNKNOWN = """
import frickelab
try:
    frickelab.no_such_law
except AttributeError as exc:
    print(exc)
"""


def test_an_unknown_name_is_an_attribute_error():
    assert child(UNKNOWN) == "module 'frickelab' has no attribute 'no_such_law'\n"


UNPICKLE = """
import pickle, sys
assert "frickelab.sections" not in sys.modules
print(repr(pickle.loads(sys.stdin.buffer.read())))
"""


def test_a_pickled_section_point_loads_without_sections_imported():
    point = SectionPoint(2, 29, SectionFrame(1, 5, 2))
    assert child(UNPICKLE, pickle.dumps(point)) == repr(point) + "\n"
