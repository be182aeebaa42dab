"""Replay the golden CLI corpus: same stdout bytes and the same exit code.

The corpus (``tests/golden/cli_corpus.jsonl``) is a fixed record of about
550 CLI runs, taken before the Fricke and double-surface laws were merged
into one implementation driven by a ``Surface`` record, and it is never
re-recorded.  Its first line names the Python that recorded it, because
``--help`` text is formatted by that version's argparse; every other line
holds one argv, its exit code and its stdout.  The argv cover every
subcommand, both surfaces wherever ``--surface`` is accepted, the three
output formats, and the edge branches: infinite and undefined
compositions, a vertical chord, vertical tangents at the base point,
rational and irrational points at infinity, domain errors (exit 1) and
usage errors (exit 2).  The random pairs are seeded.

A pinned byte changes in one way only: an entry in ``CHANGED`` names the
argv, the exit code and stdout the CLI gives now, and the reason.  The
corpus line of that argv stays as it is, the record of what changed, and
every argv, changed or not, is replayed.  New pins go to ``PINNED`` in
``tests/test_cli.py`` or to a law's own test, not to the corpus.
"""
import contextlib
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from frickelab import DOUBLE, FrickeSurface, compose, line_point, line_third_intersection
from frickelab.cli import run
from frickelab.exact import parse_rational

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"

USAGE = "a usage error (exit 2), not a traceback (exit 1)"

# argv -> (exit code, stdout, reason) for the argv whose behaviour was changed on purpose
CHANGED = {
    ("compose", "--sigma", "4", "0,6/5,8/5", "2,0,0"): (
        0, '{"result": ["61/18", "-5/6", "-10/9"]}\n',
        "sigma != 0: the composition lacked the -sigma term and returned the operand (2,0,0)",
    ),
    ("compose", "--sigma", "-4", "1,2,3", "3,1,2"): (
        0, '{"result": ["10", "-5/2", "-3/2"]}\n',
        "sigma != 0: the composition lacked the -sigma term and left the surface (exit 1)",
    ),
    ("compose", "--sigma=-1450", "--", "4,9,17", "17,4,9"): (
        0, '{"result": ["1607/40", "-511/104", "-342/65"]}\n',
        "sigma != 0: the composition lacked the -sigma term and left the surface (exit 1)",
    ),
    ("compose", "--surface", "double", "--sigma", "5", "4,1,1", "1,4,25"): (
        1, "",
        "sigma now shifts the double surface too; these points are not on its sigma = 5 member",
    ),
    ("compose", "1/0,1,1", "1,1,1"): (2, "", f"a zero denominator is {USAGE}"),
    ("compose", "--surface", "fricke", "--", "1/0,1,1", "1,1,1"):
        (2, "", f"a zero denominator is {USAGE}"),
    ("star", "--", "1/0,1,1", "1,1,1"): (2, "", f"a zero denominator is {USAGE}"),
    ("param", "1/0", "1"): (2, "", f"a zero denominator is {USAGE}"),
    ("negative-tree", "--n", "0", "--depth", "2"):
        (2, "", f"--n takes a positive integer: {USAGE}"),
    ("negative-tree", "--n", "-2", "--depth", "2"):
        (2, "", f"--n takes a positive integer: {USAGE}"),
    ("psi", "[1:2:3]"): (2, "", f"psi takes four coordinates: {USAGE}"),
    ("phi", "[1:2:3:4]"): (2, "", f"phi takes three coordinates: {USAGE}"),
    ("check", "--seed", "459261", "--pairs", "18"): (
        0, '{"pairs-checked": 18, "result": "ok", "seed": 459261}\n',
        "charts (P,Q) and (-P,-Q) give one double-surface point; that pair is skipped, not a crash",
    ),
}


def load():
    with CORPUS.open() as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


HEADER, ENTRIES = load()
RECORDED = {tuple(e["argv"]): (e["exit"], e["stdout"]) for e in ENTRIES}


def replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_changed_argv_are_in_the_corpus():
    assert set(CHANGED) <= set(RECORDED)
    for argv, (code, stdout, _reason) in CHANGED.items():
        assert RECORDED[argv] != (code, stdout), argv


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"])[:80])
def test_replay(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = tuple(entry["argv"])
    expected_code, expected_stdout = CHANGED.get(argv, RECORDED[argv])[:2]
    code, stdout = replay(argv)
    assert code == expected_code
    # help text is formatted by the argparse of the Python that runs it
    if "--help" not in argv or list(sys.version_info[:2]) == HEADER["python"]:
        assert stdout == expected_stdout


# -- each CHANGED value checked against its reason, not only against today's output --

def _point(text):
    return tuple(parse_rational(v) for v in text.split(","))


@pytest.mark.parametrize("argv, sigma", [
    (("compose", "--sigma", "4", "0,6/5,8/5", "2,0,0"), 4),
    (("compose", "--sigma", "-4", "1,2,3", "3,1,2"), -4),
    (("compose", "--sigma=-1450", "--", "4,9,17", "17,4,9"), -1450),
])
def test_shifted_composition_is_the_third_point_of_the_chord(argv, sigma):
    code, stdout, _reason = CHANGED[argv]
    surface = FrickeSurface(sigma)
    p, q = _point(argv[-2]), _point(argv[-1])
    result = tuple(parse_rational(v) for v in json.loads(stdout)["result"])
    assert code == 0
    assert surface.contains(p) and surface.contains(q) and surface.contains(result)
    assert result not in (p, q)
    assert result == line_point(p, q, line_third_intersection(p, q, "fricke", sigma).t)


def test_double_operands_are_off_the_shifted_member():
    argv = ("compose", "--surface", "double", "--sigma", "5", "4,1,1", "1,4,25")
    assert CHANGED[argv][:2] == (1, "")
    shifted = replace(DOUBLE, sigma=Fraction(5))
    assert DOUBLE.contains(_point(argv[-2])) and DOUBLE.contains(_point(argv[-1]))
    assert not shifted.contains(_point(argv[-2])) and not shifted.contains(_point(argv[-1]))


def test_usage_errors_were_tracebacks():
    usage = [argv for argv, (_c, _s, reason) in CHANGED.items() if reason.endswith(USAGE)]
    assert len(usage) == 8
    for argv in usage:
        assert CHANGED[argv][:2] == (2, "") and RECORDED[argv] == (1, ""), argv


def test_check_skips_one_double_pair(monkeypatch):
    argv = ("check", "--seed", "459261", "--pairs", "18")
    surfaces = []

    def counting(a, b):
        surfaces.append(a.surface.name)
        return compose(a, b)

    monkeypatch.setattr("frickelab.cli.fricke.compose", counting)
    assert replay(argv) == CHANGED[argv][:2]
    assert (surfaces.count("fricke"), surfaces.count("double")) == (18, 17)
