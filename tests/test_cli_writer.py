"""One writer turns every CLI payload into text: ``cli._emit``.

It writes JSON with sorted keys or, under ``--format plain``, what ``print``
writes for the same value, with integers at any size: ``cli._text`` calls
``json.dumps`` or ``str`` with the interpreter's digit limit lifted, and
restores the limit before it returns.  A payload therefore holds only str,
int, list and dicts with str keys.  These tests hold the writer to
``json.dumps`` and ``print``, keep the digit limit as ``run`` found it, keep
``json.dumps`` at one call site in ``cli.py``, and keep every ``print`` to
stdout in ``_emit``.
"""
import ast
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from frickelab import cli, fricke, tree
from frickelab.exact import ProjectivePoint, QuadraticIrrational

from conftest import child_env, no_digit_limit

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
    {"result": [[1, 2, 3], [BIG, -BIG, 0]]},
    {"result": [[]]},
]


def _reference(payload, fmt: str) -> str:
    """What json.dumps, or under plain print, writes for the payload."""
    with no_digit_limit():
        if fmt == "json":
            return json.dumps(payload, sort_keys=True) + "\n"
        buffer = io.StringIO()
        print(payload["result"] if set(payload) == {"result"} else payload, file=buffer)
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
def test_frobenius_payload_at_any_size(capsys, monkeypatch, fmt):
    # keys are printed as strings, sorted as strings in JSON (as json.dumps
    # sorts str(key)) and in increasing order under plain
    duplicates = {BIG: [(1, 1, BIG)], 10: [(1, 3, 10)], 5: [(1, 2, 5), (1, 1, 5)]}
    triples = {k: [SimpleNamespace(values=t) for t in ts] for k, ts in duplicates.items()}
    report = tree.FrobeniusReport(BIG, triples, triples)
    monkeypatch.setattr(tree, "frobenius_scan", lambda max_component: report)
    assert cli.run(["--format", fmt, "frobenius", "--max-component", "30"]) == 0
    with no_digit_limit():
        keyed = {str(k): [list(t) for t in duplicates[k]] for k in sorted(duplicates)}
    result = {"max-component": BIG, "triples": 3, "duplicates": keyed}
    assert capsys.readouterr().out == _reference({"result": result}, fmt)


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_check_echoes_a_5000_digit_seed(capsys, fmt):
    seed = "7" * 5000
    assert cli.run(["--format", fmt, "check", "--seed", seed, "--pairs", "2"]) == 0
    payload = cli._run_check(BIG, 2)
    assert capsys.readouterr().out == _reference(payload, fmt)


SEED_ARGV = ["check", "--seed", "7" * 5000, "--pairs", "2"]


def test_run_keeps_the_digit_limit_on_exit_0(capsys, digit_limit):
    assert cli.run(SEED_ARGV) == 0
    assert capsys.readouterr().out.endswith("7" * 5000 + "}\n")
    assert sys.get_int_max_str_digits() == digit_limit


def test_run_keeps_the_digit_limit_on_exit_1(capsys, monkeypatch, digit_limit):
    # check's message writes the failed composition's payload
    monkeypatch.setattr(fricke, "compose", lambda p, q: fricke.Undefined("wrong law"))
    assert cli.run(SEED_ARGV) == 1
    assert '{"reason": "wrong law", "result": "undefined"}' in capsys.readouterr().err
    assert sys.get_int_max_str_digits() == digit_limit


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise OSError("stdout is closed")


def test_run_keeps_the_digit_limit_when_print_raises(digit_limit):
    with redirect_stdout(_ClosedStdout()), pytest.raises(OSError):
        cli.run(SEED_ARGV)
    assert sys.get_int_max_str_digits() == digit_limit


def test_writer_keeps_the_digit_limit_when_it_raises(digit_limit):
    with pytest.raises(TypeError):
        cli._text({"result": object()}, plain=False)
    assert sys.get_int_max_str_digits() == digit_limit


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# (1, F(2k-1), F(2k+1)) is a Markov triple; F(3351) has 700 digits, F(3353) 701
F, G = _fibonacci(3351), _fibonacci(3353)


def _child(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a child Python whose int-to-str limit is the least it takes, 640."""
    command = [sys.executable, "-X", "int_max_str_digits=640", "-m", "frickelab.cli", *argv]
    return subprocess.run(command, capture_output=True, text=True, env=child_env())


@pytest.mark.parametrize(
    "fmt, template",
    [
        ("json", '{{"result": [[1, {F}, {G}]]}}\n'),
        ("plain", "[[1, {F}, {G}]]\n"),
        ("dot", 'digraph markov {{\n  n0 [label="(1,{F},{G})"];\n}}\n'),
    ],
    ids=["json", "plain", "dot"],
)
def test_child_at_the_least_digit_limit_prints_700_digits(fmt, template):
    with no_digit_limit():
        f, g = str(F), str(G)
    assert (len(f), len(g)) == (700, 701)
    proc = _child("--format", fmt, "tree", "--root", f"1,{f},{g}", "--depth", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, template.format(F=f, G=g), "")


def test_child_at_the_least_digit_limit_names_700_digits_in_an_error():
    with no_digit_limit():
        g = str(G)
    proc = _child("tree", "--root", f"1,1,{g}", "--depth", "0")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and g in proc.stderr
    assert "Traceback" not in proc.stderr


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


def _handler_out(fmt: str, argv: list[str]):
    """What the subcommand's handler returns for the argv under the format."""
    args = cli.build_parser().parse_args(["--format", fmt, *argv])
    args.surface = cli.SURFACES[args.surface]
    return cli.HANDLERS[args.command](args)


@pytest.mark.parametrize("fmt", ["json", "dot", "plain"])
@pytest.mark.parametrize("argv", SAMPLES, ids=[argv[0] for argv in SAMPLES])
def test_handlers_return_data(fmt, argv):
    out = _handler_out(fmt, argv)
    assert isinstance(out, str) == (argv[0] == "tree" and fmt == "dot")


def _leaves(value):
    """The values in a handler's return value that are no tuple, list or dict."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, (tuple, list)):
        yield value
        return
    for v in value:
        yield from _leaves(v)


@pytest.mark.parametrize("fmt", ["json", "dot", "plain"])
@pytest.mark.parametrize("argv", SAMPLES, ids=[argv[0] for argv in SAMPLES])
def test_handlers_return_a_law_point_as_its_coordinates(fmt, argv):
    # no SurfacePoint or SectionPoint: only leaves that _ser writes by their exact type,
    # in tuples and lists that it writes by recursion
    leaves = list(_leaves(_handler_out(fmt, argv)))
    exact = (str, int, Fraction, QuadraticIrrational, ProjectivePoint)
    assert all(isinstance(v, exact) for v in leaves), leaves


def _json_data(value) -> bool:
    """Whether the value holds only str, int, list and dicts with str keys."""
    if type(value) is dict:
        return all(type(k) is str and _json_data(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_json_data, value))
    return type(value) in (str, int)


@pytest.mark.parametrize("fmt", ["json", "dot", "plain"])
@pytest.mark.parametrize("argv", SAMPLES, ids=[argv[0] for argv in SAMPLES])
def test_payloads_hold_only_json_data(capsys, monkeypatch, fmt, argv):
    written, text = [], cli._text

    def spy(value, plain):
        written.append(value)
        return text(value, plain)

    monkeypatch.setattr(cli, "_text", spy)
    assert cli.run(["--format", fmt, *argv]) == 0
    # under dot, tree's text and under plain a lone string result print as they are
    assert len(written) == 1 if fmt == "json" else len(written) <= 1
    assert all(map(_json_data, written))


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
