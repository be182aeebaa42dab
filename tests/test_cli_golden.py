"""Replay the golden CLI corpus: same stdout bytes and the same exit code.

The corpus (``tests/golden/cli_corpus.jsonl``) was recorded by
``tests/golden/make_corpus.py`` before the Fricke and double-surface laws
were merged into one implementation driven by a ``Surface`` record.
``CHANGED`` lists the argv whose behaviour was changed on purpose, each
with its reason; every other argv must replay byte for byte.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from frickelab.cli import run

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"

CHANGED = {
    ("compose", "--sigma", "4", "0,6/5,8/5", "2,0,0"):
        "sigma != 0: the composition lacked the -sigma term and returned the operand (2,0,0)",
    ("compose", "--sigma", "-4", "1,2,3", "3,1,2"):
        "sigma != 0: the composition lacked the -sigma term and left the surface (exit 1)",
    ("compose", "--sigma=-1450", "--", "4,9,17", "17,4,9"):
        "sigma != 0: the composition lacked the -sigma term and left the surface (exit 1)",
    ("compose", "--surface", "double", "--sigma", "5", "4,1,1", "1,4,25"):
        "sigma now shifts the double surface too; these points are not on its sigma = 5 member",
    ("compose", "1/0,1,1", "1,1,1"): "a zero denominator is a usage error (exit 2), not a traceback",
    ("compose", "--surface", "fricke", "--", "1/0,1,1", "1,1,1"):
        "a zero denominator is a usage error (exit 2), not a traceback",
    ("star", "--", "1/0,1,1", "1,1,1"): "a zero denominator is a usage error (exit 2), not a traceback",
    ("param", "1/0", "1"): "a zero denominator is a usage error (exit 2), not a traceback",
    ("negative-tree", "--n", "0", "--depth", "2"): "--n takes a positive integer (exit 2), not a traceback",
    ("negative-tree", "--n", "-2", "--depth", "2"):
        "--n takes a positive integer (exit 2), not a traceback",
    ("psi", "[1:2:3]"): "psi takes four coordinates (exit 2), not a traceback",
    ("phi", "[1:2:3:4]"): "phi takes three coordinates (exit 2), not a traceback",
    ("check", "--seed", "459261", "--pairs", "18"):
        "charts (P,Q) and (-P,-Q) give one double-surface point; that pair is skipped, not a crash",
}


def load():
    with CORPUS.open() as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


HEADER, ENTRIES = load()


def replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_changed_argv_are_in_the_corpus():
    recorded = {tuple(e["argv"]) for e in ENTRIES}
    assert set(CHANGED) <= recorded


@pytest.mark.parametrize(
    "entry",
    [e for e in ENTRIES if tuple(e["argv"]) not in CHANGED],
    ids=lambda e: " ".join(e["argv"])[:80],
)
def test_replay(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout = replay(entry["argv"])
    assert code == entry["exit"]
    # help text is formatted by the argparse of the Python that runs it
    if "--help" not in entry["argv"] or list(sys.version_info[:2]) == HEADER["python"]:
        assert stdout == entry["stdout"]
