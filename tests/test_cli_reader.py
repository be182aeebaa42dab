"""The direct argv reader against argparse.

``cli._read_plain`` reads an argv of plain shape straight from tables built
from ``cli.COMMANDS``, the rows that ``build_parser()`` also reads, and returns
None for any other argv, which ``run`` then hands to argparse.  Over the golden
corpus, the fuzz argv with their shape edge cases, and seeded random token
sequences, every namespace the reader returns must hold the same attributes,
with the same values, as the one ``build_parser().parse_args`` returns, and
wherever argparse exits (a usage error or help) the reader must return None.
Its tables must be what the parser's actions declare, and a plain argv
must build no parser at all.
"""
import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from frickelab import cli
from frickelab.cli import HANDLERS, build_parser

from conftest import child_env
from test_cli_fuzz import EMPTIED, PLAIN, edge_argv, fuzz_argv

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"
SEED = 20261019
COUNT = 3000

OPTIONS = sorted({name for _c, options, _p in PLAIN for name, _v in options} | {"--format"})
NOISE = [
    "--", "--", "-h", "--help", "", "-", "-4", "-1/2", "1", "2/3", "1/0", "x", "1e3", " 3 ",
    "1,1,1", "2,1", "-2,1,1", "[1:1:2]", "1:1:2:1", "fricke", "double", "TA", "L",
    "json", "plain", "xml", "--format=dot", "--=1", "--surf", "--n", "--sigma=-4", "compose", "tree",
]


def golden_argv() -> list[list[str]]:
    with CORPUS.open() as fh:
        fh.readline()  # the header
        return [json.loads(line)["argv"] for line in fh]


def random_argv(seed: int = SEED, count: int = COUNT) -> list[list[str]]:
    """Each PLAIN argv with its options shuffled, some joined by `=`, its positionals
    interleaved or after a `--`, a leading --format now and then, and in half of
    them one to three tokens inserted, dropped or replaced by names, values and
    malformed values."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        command, options, positionals = rng.choice(PLAIN)
        groups = [[f"{n}={v}"] if rng.random() < 0.3 else [n, v] for n, v in rng.sample(options, len(options))]
        if positionals and rng.random() < 0.3:
            tokens = [t for g in groups for t in g] + ["--", *positionals]
        else:
            slots = sorted(rng.randint(0, len(groups)) for _ in positionals)
            for offset, (slot, positional) in enumerate(zip(slots, positionals)):
                groups.insert(slot + offset, [positional])  # in order, among the options
            tokens = [t for g in groups for t in g]
        argv = [command, *tokens]
        if rng.random() < 0.3:
            fmt = rng.choice(("json", "dot", "plain", "xml"))
            argv = (["--format", fmt] if rng.random() < 0.5 else [f"--format={fmt}"]) + argv
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(len(argv) + 1)
                token = rng.choice(NOISE + OPTIONS)
                roll = rng.random()
                if roll < 0.5:
                    argv.insert(k, token)
                elif k < len(argv):
                    argv[k : k + 1] = [] if roll < 0.75 else [token]
        corpus.append(argv)
    return corpus


def argparse_reads(argv):
    """build_parser().parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(list(argv))
        except SystemExit:
            return None


SOURCES = {"golden": golden_argv, "fuzz": fuzz_argv, "random": random_argv}


@pytest.mark.parametrize("source", SOURCES)
def test_reader_agrees_with_argparse(source):
    read, failures = 0, []
    for argv in SOURCES[source]():
        mine, theirs = cli._read_plain(list(argv)), argparse_reads(argv)
        if mine is not None:
            read += 1
            if theirs is None or vars(mine) != vars(theirs):  # None where argparse exits
                failures.append((argv, mine, theirs))
    assert not failures, failures[:5]
    assert read > 0


# values that start like a negative number, given as `--opt value` and as positionals
# without a `--`: argparse reads them as values, and so does the reader
NEGATIVE = [
    ["compose", "--sigma", "-4", "1,2,3", "3,1,2"],
    ["compose", "-1,-1,1", "1,2,5"],
    ["chebyshev", "--r", "-3", "--n0", "-1/2"],
    ["tree", "--root", "-1,-1,1", "--depth", "-1"],
    ["param", "--surface", "double", "-1", "-2/3"],
    ["section-add", "--frame", "1,1,1", "-1,2", "2,-1"],
    ["--format", "plain", "check", "--seed", "-7", "--pairs", "3"],
]


def test_reader_reads_every_plain_argv():
    forms = list(NEGATIVE)
    for command, options, positionals in PLAIN:
        flat = [token for option in options for token in option]
        forms += [[command, *flat, *positionals], ["--format", "plain", command, *positionals, *flat]]
        if positionals:
            forms.append(["--format=dot", command, *[f"{n}={v}" for n, v in options], "--", *positionals])
    for argv in forms:
        mine = cli._read_plain(argv)
        assert mine is not None and vars(mine) == vars(argparse_reads(argv)), argv


def test_reader_reads_every_golden_argv_that_argparse_reads():
    # the reader leaves to argparse only what argparse refuses: --help and usage errors
    for argv in golden_argv():
        assert (cli._read_plain(list(argv)) is None) == (argparse_reads(argv) is None), argv


@pytest.mark.parametrize("argv", EMPTIED + [["compose", "--sigma=--", "1,1,1", "1,1,2"]])
def test_reader_leaves_an_emptied_value_to_argparse(argv):
    assert cli._read_plain(argv) is None


def test_random_argv_are_read_and_refused():
    # the random sequences exercise both paths, on every subcommand
    read = [argv for argv in random_argv() if cli._read_plain(argv) is not None]
    assert 0.2 * COUNT < len(read) < 0.8 * COUNT
    assert {next(t for t in argv if t in HANDLERS) for argv in read} == set(HANDLERS)


def test_edge_cases_off_the_plain_shape_fall_back():
    for argv in edge_argv():
        if "-h" in argv or "" in argv or argv.count("--") > 1 or argv[-1] == "--":
            assert cli._read_plain(argv) is None, argv
    # a `--` before the subcommand
    for argv in (["--", "compose", "2,1,1", "1,2,5"], ["--format", "plain", "--", "check"]):
        assert cli._read_plain(argv) is None, argv


def held(action) -> tuple:
    """An argument as the reader reads it: option strings, dest, type, choices,
    required and default."""
    choices = None if action.choices is None else list(action.choices)
    return action.option_strings, action.dest, action.type, choices, action.required, action.default


def test_tables_are_the_parsers_actions():
    # every argument the reader holds is the matching action of build_parser(), in the
    # same order: both are read from one row per subcommand, and none is declared twice
    parser = build_parser()
    tables = cli._tables()
    (command,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(command.choices) == list(HANDLERS) and set(tables) - {None} == set(HANDLERS)
    # the reader checks no required action of the top parser but the subcommand
    assert [a for a in parser._actions if a.required] == [command]
    for name, sub in [(None, parser), *command.choices.items()]:
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        # the reader's premise: each action stores one value, no two exclude each other,
        # and no string default has a type (argparse would convert it)
        stored = [a for a in actions if a is not command]
        assert all(type(a) is argparse._StoreAction and a.nargs is None for a in stored), name
        assert not sub._mutually_exclusive_groups
        assert not [a for a in actions if isinstance(a.default, str) and a.type is not None], name
        options, positionals, defaults = tables[name]
        assert [(s, held(a)) for s, a in options.items()] == [
            (s, held(a)) for a in actions for s in a.option_strings
        ], name
        assert [held(a) for a in positionals] == [held(a) for a in actions if not a.option_strings]
        assert defaults == {**sub._defaults, **{a.dest: a.default for a in actions}}, name


def test_a_plain_argv_does_not_reach_argparse(monkeypatch, capsys):
    cli._tables()
    calls = []

    def counted():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    assert cli.run(["--format", "plain", "compose", "--surface=fricke", "--", "2,1,1", "1,2,5"]) == 0
    assert capsys.readouterr().out == "['15/4', '-3/4', '-6']\n" and calls == []
    with pytest.raises(SystemExit):
        cli.run(["compose", "-h"])
    assert calls == [1]


# Counts the ArgumentParsers that one cli.run builds, in a fresh process; the count
# goes to stderr after the run's own output.
COUNT_PARSERS = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
from frickelab import cli
try:
    code = cli.run(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(f"parsers built: {len(built)}", file=sys.stderr)
sys.exit(code)
"""


def run_counting_parsers(*argv: str) -> tuple:
    """(exit code, ArgumentParsers built, stdout, stderr) of cli.run(argv) in a child."""
    command = [sys.executable, "-c", COUNT_PARSERS, *argv]
    proc = subprocess.run(command, capture_output=True, text=True, env=child_env(), timeout=60)
    err, _, count = proc.stderr.rpartition("parsers built: ")
    return proc.returncode, int(count), proc.stdout, err


def test_a_plain_argv_builds_no_parser():
    argv = ["--format", "plain", "compose", "--surface=fricke", "--", "2,1,1", "1,2,5"]
    assert run_counting_parsers(*argv) == (0, 0, "['15/4', '-3/4', '-6']\n", "")


def test_help_and_usage_errors_build_the_parser():
    code, built, out, _ = run_counting_parsers("compose", "-h")
    assert (code, built > 0, out.startswith("usage: frickelab compose")) == (0, True, True)
    code, built, _, err = run_counting_parsers("compose", "1/0,1,1", "1,1,1")
    assert (code, built > 0, "zero denominator" in err) == (2, True, True), err
