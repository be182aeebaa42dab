"""One writer turns every CLI payload into text: ``cli._emit``.

It writes JSON with sorted keys or, under ``--format plain``, the repr of
the same value, with integers at any size.  These tests hold it to
``json.dumps`` and ``print`` (run with the interpreter's digit limit
lifted), keep ``json.dumps`` at one call site in ``cli.py``, and keep
every ``print`` to stdout in ``_emit``.
"""
import ast
import io
import json
import sys
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from frickelab import cli

BIG = 7 * (10**5000 - 1) // 9  # 5,000 sevens, built without str()

PAYLOADS = [
    {"result": BIG},
    {"result": -BIG},
    {"result": 0},
    {"result": [BIG, -BIG, 0]},
    {"result": "ok", "seed": -BIG, "pairs-checked": 2},
    {"zeta": {"b": 1, "a": [2, {"y": "1+√5", "x": -3}]}, "alpha": {}, "result": "ok"},
    {"result": "(3+√5)/2"},
    {"result": ["√2", "-1/2"]},
    {"result": {"point": "[0:1:3:0]", "branch": "infinite"}},
    {"result": [], "empty": {}},
    {"result": []},
    {"result": {}},
    {"result": [(1, 2, 3), (BIG, -BIG, 0)]},
    {"result": ((),)},
]


def _listed(value):
    """The value with every tuple a list: the writer prints tuples as lists."""
    if isinstance(value, dict):
        return {k: _listed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_listed(v) for v in value]
    return value


@contextmanager
def _no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _reference(payload, fmt: str) -> str:
    """What json.dumps, or under plain print, writes for the payload."""
    with _no_digit_limit():
        if fmt == "json":
            return json.dumps(payload, sort_keys=True) + "\n"
        value = _listed(payload)
        buffer = io.StringIO()
        print(value["result"] if set(value) == {"result"} else value, file=buffer)
        return buffer.getvalue()


def _emitted(payload, fmt: str) -> str:
    """What _emit prints, under the interpreter's default digit limit."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        cli._emit(payload, fmt)
    return buffer.getvalue()


@pytest.mark.parametrize("fmt", ["json", "plain"])
@pytest.mark.parametrize("payload", PAYLOADS, ids=range(len(PAYLOADS)))
def test_writer_matches_json_and_print(payload, fmt):
    assert _emitted(payload, fmt) == _reference(payload, fmt)


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_frobenius_payload_at_any_size(fmt):
    # keys are printed as strings, sorted as strings in JSON (as json.dumps
    # sorts str(key)) and in insertion order under plain
    duplicates = {5: [(1, 2, 5), (1, 1, 5)], 10: [(1, 3, 10)], BIG: [(1, 1, BIG)]}
    report = {"max-component": BIG, "triples": 3, "duplicates": duplicates}
    with _no_digit_limit():
        keyed = {str(k): [list(t) for t in ts] for k, ts in duplicates.items()}
    expected = _reference({"result": {**report, "duplicates": keyed}}, fmt)
    assert _emitted({"result": report}, fmt) == expected


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_check_echoes_a_5000_digit_seed(capsys, fmt):
    seed = "7" * 5000
    assert cli.run(["--format", fmt, "check", "--seed", seed, "--pairs", "2"]) == 0
    payload = cli._run_check(BIG, 2)
    assert capsys.readouterr().out == _reference(payload, fmt)


# one argv per subcommand; only tree under --format dot returns text
SAMPLES = [
    ["compose", "2,1,1", "1,2,5"],
    ["star", "2,1,1", "1,2,5"],
    ["tree", "--depth", "1"],
    ["frobenius", "--max-component", "30"],
    ["negative-tree", "--depth", "1"],
    ["section-add", "--frame", "1,1,1", "2,1", "1,1"],
    ["section-double", "--frame", "1,1,1", "2,1"],
    ["section-inverse", "--frame", "1,1,1", "2,1"],
    ["dihedral", "--frame", "1,1,1", "--map", "TA", "1,1"],
    ["ta-power", "--frame", "1,1,1", "--r", "3", "1,1"],
    ["chebyshev", "--r", "3", "--n0", "1"],
    ["infinity", "--frame", "1,5,2"],
    ["convergent", "--frame", "1,1,1", "--r", "2"],
    ["param", "1", "2"],
    ["phi", "[1:1:1]"],
    ["psi", "[1:1:2:1]"],
    ["p2-viete", "--generator", "L", "[1:1:1]"],
    ["p2-compose", "[2:1:1]", "[1:2:5]"],
    ["check", "--pairs", "2"],
]


def test_samples_cover_every_subcommand():
    assert [argv[0] for argv in SAMPLES] == list(cli.HANDLERS)


@pytest.mark.parametrize("fmt", ["json", "dot", "plain"])
@pytest.mark.parametrize("argv", SAMPLES, ids=[argv[0] for argv in SAMPLES])
def test_handlers_return_data(fmt, argv):
    args = cli.build_parser().parse_args(["--format", fmt, *argv])
    args.surface = cli.SURFACES[args.surface]
    out = cli.HANDLERS[args.command](args)
    assert isinstance(out, str) == (argv[0] == "tree" and fmt == "dot")


def _call_sites(path: Path, match) -> list[str]:
    """The top-level function around each call in the module that ``match`` accepts."""
    sites = []
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and match(node):
                sites.append(getattr(stmt, "name", "<module>"))
    return sites


def _dumps_sites(path: Path) -> list[str]:
    """The top-level function around each json.dumps call in the module."""
    return _call_sites(
        path, lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == "dumps"
    )


def test_json_dumps_has_one_call_site_in_the_writer():
    source = Path(cli.__file__)
    assert _dumps_sites(source) == ["_text"]
    # and no other spelling of it
    tree = ast.parse(source.read_text(), filename=str(source))
    assert not any(isinstance(n, ast.ImportFrom) and n.module == "json" for n in ast.walk(tree))


def _stdout_print_sites(path: Path) -> list[str]:
    """The top-level function around each print call without file= in the module."""
    return _call_sites(
        path,
        lambda call: getattr(call.func, "id", None) == "print"
        and not any(k.arg == "file" for k in call.keywords),
    )


def test_only_the_writer_prints_to_stdout():
    source = Path(cli.__file__)
    assert _stdout_print_sites(source) == ["_emit"]
    # and run hands it every output, in one call
    assert _call_sites(source, lambda call: getattr(call.func, "id", None) == "_emit") == ["run"]
