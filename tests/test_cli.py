import json
import re
import subprocess
import sys

import pytest

from frickelab import canonical, generate, negative_tree
from frickelab.cli import HANDLERS, build_parser, run
from frickelab.exact import (
    DEGENERATE_CUBIC,
    DOUBLE,
    FRICKE,
    ProjectivePoint,
    format_rational,
    parse_rational,
)
from frickelab.sections import MAX_LUCAS_BITS, chebyshev_b
from frickelab.tree import MAX_TREE_BITS
from frickelab.double_fricke import f2_param_affine
from frickelab.fricke import (
    Finite,
    Infinite,
    Undefined,
    compose,
    param_affine,
    param_affine_inverse,
)

from conftest import child_env, markov_pair


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def emptied_value_message(message_313: str) -> str:
    """The usage error of a `--opt=--` value on this interpreter: argparse empties it
    before CPython 3.13, and from 3.13 the option's type or choices refuses `--`."""
    return "expected one argument" if sys.version_info < (3, 13) else message_313


def invoke_usage(capsys, *argv):
    """run() on argv that argparse rejects: its exit code, stdout and stderr."""
    with pytest.raises(SystemExit) as exit_info:
        run(list(argv))
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


class TestCompose:
    def test_fricke_example(self, capsys):
        payload = invoke_json(capsys, "compose", "--surface", "fricke", "2,1,1", "1,2,5")
        assert payload == {"result": ["15/4", "-3/4", "-6"]}

    def test_double_surface(self, capsys):
        payload = invoke_json(capsys, "compose", "--surface", "double", "4,1,1", "1,4,25")
        assert payload == {"result": ["361/72", "-1/72", "-64/9"]}

    def test_undefined_is_an_answer(self, capsys):
        payload = invoke_json(capsys, "compose", "1,1,2", "1,1,2")
        assert payload == {"result": "undefined", "reason": "coincident-points"}

    def test_infinite(self, capsys):
        payload = invoke_json(capsys, "compose", "1,1,2", "1,2,5")
        assert payload == {"result": "infinite", "point": "[0:1:3:0]"}

    def test_rational_inputs(self, capsys):
        payload = invoke_json(capsys, "compose", "15/4,-3/4,-6", "2,1,1")
        assert payload == {"result": ["1", "2", "5"]}

    def test_off_surface_is_domain_error(self, capsys):
        code, out, err = invoke(capsys, "compose", "1,2,3", "1,1,1")
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["compose", "1,2", "1,1,1"])
        assert exc.value.code == 2


class TestStar:
    def test_value(self, capsys):
        payload = invoke_json(capsys, "star", "2,1,1", "1,2,5")
        assert payload == {"result": ["41/49", "85/77", "109/77"]}


class TestTree:
    def test_bounded(self, capsys):
        payload = invoke_json(capsys, "tree", "--max-component", "30")
        assert payload == {
            "result": [[1, 1, 1], [1, 1, 2], [1, 2, 5], [1, 5, 13], [2, 5, 29]]
        }

    def test_dot_format(self, capsys):
        code, out, _err = invoke(capsys, "--format", "dot", "tree", "--depth", "2")
        assert code == 0
        assert out.startswith("digraph markov {")
        assert 'n0 [label="(1,1,1)"]' in out
        assert "->" in out

    def test_byte_deterministic(self, capsys):
        _, first, _ = invoke(capsys, "tree", "--depth", "5")
        _, second, _ = invoke(capsys, "tree", "--depth", "5")
        assert first == second


class TestFrobenius:
    def test_scan(self, capsys):
        payload = invoke_json(capsys, "frobenius", "--max-component", "1000")
        assert payload["result"]["duplicates"] == {}
        assert payload["result"]["max-component"] == 1000


class TestNegativeTree:
    def test_values(self, capsys):
        payload = invoke_json(capsys, "negative-tree", "--n", "1", "--depth", "1")
        assert payload == {"result": [[-9, -1, 1], [-1, 0, 1]]}


class TestSections:
    def test_add(self, capsys):
        payload = invoke_json(
            capsys, "section-add", "--frame", "1,1,1", "2,1", "1,2"
        )
        assert payload == {"result": ["1", "1"]}

    def test_double(self, capsys):
        payload = invoke_json(capsys, "section-double", "--frame", "1,1,1", "1,2")
        assert payload == {"result": ["2", "5"]}

    def test_inverse(self, capsys):
        payload = invoke_json(capsys, "section-inverse", "--frame", "1,1,1", "2,1")
        assert payload == {"result": ["1", "2"]}

    def test_double_surface_add(self, capsys):
        payload = invoke_json(
            capsys, "section-add", "--surface", "double", "--frame", "1,1,1", "1,4", "4,1"
        )
        assert payload == {"result": ["1", "1"]}

    def test_off_section_is_domain_error(self, capsys):
        code, _out, err = invoke(capsys, "section-double", "--frame", "1,1,1", "3,1")
        assert code == 1 and "error" in err


class TestDihedralAndPowers:
    def test_dihedral(self, capsys):
        payload = invoke_json(
            capsys, "dihedral", "--frame", "1,1,1", "--map", "TA", "1,1"
        )
        assert payload == {"result": ["2", "1"]}

    def test_ta_power(self, capsys):
        payload = invoke_json(
            capsys, "ta-power", "--frame", "1,1,1", "--r", "3", "1,1"
        )
        assert payload == {"result": ["13", "5"]}

    def test_chebyshev(self, capsys):
        payload = invoke_json(capsys, "chebyshev", "--r", "4", "--n0", "1")
        assert payload == {"result": "55"}

    def test_convergent(self, capsys):
        payload = invoke_json(capsys, "convergent", "--frame", "1,1,1", "--r", "2")
        assert payload == {"result": "8/3"}

    def test_infinity(self, capsys):
        payload = invoke_json(capsys, "infinity", "--frame", "1,1,1")
        assert payload == {"result": ["(3-1√5)/2", "(3+1√5)/2"]}


class TestChartsAndTransfers:
    def test_param(self, capsys):
        payload = invoke_json(capsys, "param", "1", "2")
        assert payload == {"result": ["1", "2", "1"]}

    def test_phi_psi(self, capsys):
        payload = invoke_json(capsys, "phi", "[1:1:2]")
        assert payload == {"result": "[1:1:2:1]"}
        payload = invoke_json(capsys, "psi", "[1:1:2:1]")
        assert payload == {"result": "[1:1:2]"}

    def test_p2_viete(self, capsys):
        payload = invoke_json(capsys, "p2-viete", "--generator", "L", "[1:1:1]")
        assert payload == {"result": "[1:2:1]"}

    def test_p2_compose(self, capsys):
        payload = invoke_json(capsys, "p2-compose", "[2:1:1]", "[1:2:5]")
        assert payload == {"result": "[5:-1:-8]"}

    @pytest.mark.parametrize("point", ["[[1:1:1]]]", "1:1:1]", "[1:1:1", "[[1:1:1]]"])
    def test_unmatched_brackets_are_a_usage_error(self, capsys, point):
        code, out, err = invoke_usage(capsys, "phi", point)
        assert code == 2 and out == ""
        bad = {"[[1:1:1]]]": "[1", "1:1:1]": "1]", "[1:1:1": "[1", "[[1:1:1]]": "[1"}[point]
        assert f"argument p: not of the form num[/den]: {bad!r}" in err


class TestCheck:
    def test_seeded_check(self, capsys):
        payload = invoke_json(capsys, "check", "--seed", "7", "--pairs", "20")
        assert payload["result"] == "ok"
        assert payload["seed"] == 7
        assert payload["pairs-checked"] > 0

    @pytest.mark.parametrize("pairs", ["0", "-5", "-0"])
    def test_pairs_must_be_positive(self, capsys, pairs):
        # a check of no pairs would print "ok" having verified nothing
        code, out, err = invoke_usage(capsys, "check", "--pairs", pairs)
        assert code == 2 and out == ""
        assert f"argument --pairs: expected a positive integer: {pairs!r}" in err


class TestPlainFormat:
    def test_plain_result_only(self, capsys):
        code, out, _err = invoke(
            capsys, "--format", "plain", "chebyshev", "--r", "2", "--n0", "1"
        )
        assert code == 0 and out == "8\n"


# stdout and exit code of --format plain and dot for the subcommands the golden
# corpus covers in JSON only, recorded before the handlers took one shape; then
# argv whose trailing `--` leaves the last positional empty, which ended in a
# traceback (exit 1) and are usage errors (exit 2); last, values that start like a
# negative number, which were read as unknown options (exit 2)
PINNED = [
    (('--format', 'plain', 'compose', '2,1,1', '1,2,5'), 0, "['15/4', '-3/4', '-6']\n"),
    (('--format', 'plain', 'compose', '1,1,2', '1,2,5'), 0, "{'result': 'infinite', 'point': '[0:1:3:0]'}\n"),
    (('--format', 'plain', 'compose', '1,1,2', '1,1,2'), 0, "{'result': 'undefined', 'reason': 'coincident-points'}\n"),
    (('--format', 'plain', 'star', '2,1,1', '1,2,5'), 0, "['41/49', '85/77', '109/77']\n"),
    (('--format', 'plain', 'negative-tree', '--n', '1', '--depth', '1'), 0, '[[-9, -1, 1], [-1, 0, 1]]\n'),
    (('--format', 'plain', 'section-inverse', '--frame', '1,1,1', '2,1'), 0, "['1', '2']\n"),
    (('--format', 'plain', 'dihedral', '--frame', '1,1,1', '--map', 'TA', '1,1'), 0, "['2', '1']\n"),
    (('--format', 'plain', 'ta-power', '--frame', '1,1,1', '--r', '3', '1,1'), 0, "['13', '5']\n"),
    (('--format', 'plain', 'convergent', '--frame', '1,1,1', '--r', '2'), 0, '8/3\n'),
    (('--format', 'plain', 'param', '1', '2'), 0, "['1', '2', '1']\n"),
    (('--format', 'plain', 'psi', '[1:1:2:1]'), 0, '[1:1:2]\n'),
    (('--format', 'plain', 'p2-viete', '--generator', 'L', '[1:1:1]'), 0, '[1:2:1]\n'),
    (('--format', 'plain', 'p2-compose', '[2:1:1]', '[1:2:5]'), 0, '[5:-1:-8]\n'),
    (('--format', 'dot', 'compose', '2,1,1', '1,2,5'), 0, '{"result": ["15/4", "-3/4", "-6"]}\n'),
    (('--format', 'dot', 'compose', '1,1,2', '1,2,5'), 0, '{"point": "[0:1:3:0]", "result": "infinite"}\n'),
    (('--format', 'dot', 'compose', '1,1,2', '1,1,2'), 0, '{"reason": "coincident-points", "result": "undefined"}\n'),
    (('--format', 'dot', 'star', '2,1,1', '1,2,5'), 0, '{"result": ["41/49", "85/77", "109/77"]}\n'),
    (('--format', 'dot', 'negative-tree', '--n', '1', '--depth', '1'), 0, '{"result": [[-9, -1, 1], [-1, 0, 1]]}\n'),
    (('--format', 'dot', 'section-inverse', '--frame', '1,1,1', '2,1'), 0, '{"result": ["1", "2"]}\n'),
    (('--format', 'dot', 'dihedral', '--frame', '1,1,1', '--map', 'TA', '1,1'), 0, '{"result": ["2", "1"]}\n'),
    (('--format', 'dot', 'ta-power', '--frame', '1,1,1', '--r', '3', '1,1'), 0, '{"result": ["13", "5"]}\n'),
    (('--format', 'dot', 'convergent', '--frame', '1,1,1', '--r', '2'), 0, '{"result": "8/3"}\n'),
    (('--format', 'dot', 'param', '1', '2'), 0, '{"result": ["1", "2", "1"]}\n'),
    (('--format', 'dot', 'psi', '[1:1:2:1]'), 0, '{"result": "[1:1:2]"}\n'),
    (('--format', 'dot', 'p2-viete', '--generator', 'L', '[1:1:1]'), 0, '{"result": "[1:2:1]"}\n'),
    (('--format', 'dot', 'p2-compose', '[2:1:1]', '[1:2:5]'), 0, '{"result": "[5:-1:-8]"}\n'),
    (('compose', '1,1,1', '--', '--'), 2, ''),
    (('star', '--', '1,1,1', '--'), 2, ''),
    (('param', '1', '--', '--'), 2, ''),
    (('section-add', '--frame', '1,1,1', '--', '1,1', '--'), 2, ''),
    (('p2-compose', '--', '[1:1:1]', '--'), 2, ''),
    (('compose', '-1,-1,1', '1,2,5'), 0, '{"result": ["-37/36", "-25/24", "17/18"]}\n'),
    (('chebyshev', '--r', '3', '--n0', '-1/2'), 0, '{"result": "-3/8"}\n'),
    (('compose', '-2,1,1', '1,2,5'), 1, ''),
]


@pytest.mark.parametrize("argv, exit_code, stdout", PINNED, ids=[" ".join(a) for a, *_ in PINNED])
def test_plain_and_dot_bytes(capsys, argv, exit_code, stdout):
    try:
        code = run(list(argv))
    except SystemExit as exc:  # a usage error
        code = exc.code
    assert (code, capsys.readouterr().out) == (exit_code, stdout)


def test_every_subcommand_has_one_handler():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(HANDLERS) == set(sub.choices)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "frickelab.cli", "compose", "2,1,1", "1,2,5"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"result": ["15/4", "-3/4", "-6"]}


class TestExitContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", "[1:2:3]"],
            ["phi", "[1:2:3:4]"],
            ["tree"],
            ["frobenius", "--max-component", "1"],
            ["negative-tree", "--n", "0", "--depth", "2"],
            ["compose", "1/0,1,1", "1,1,1"],
            ["infinity", "--surface", "double", "--frame=-1/9,1/9,-1/9"],
            ["tree", "--root", "3/2,1,1", "--depth", "1"],
        ],
    )
    def test_bad_input_exits_without_traceback(self, capsys, argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["1e3", "1.5", "1e10000000"])
    def test_only_num_over_den_is_read(self, capsys, number):
        with pytest.raises(SystemExit) as exc:
            run(["chebyshev", "--r", "3", "--n0", number])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compose", "1/0,1,1", "1,1,1"], "argument p: zero denominator: '1/0'"),
            (["compose", "--sigma", "1/0", "1,1,1", "1,1,2"], "argument --sigma: zero denominator: '1/0'"),
            (["star", "1,1,1", "1,x,1"], "argument q: not of the form num[/den]: 'x'"),
            (["tree", "--root", "1,1,1.5"], "argument --root: not of the form num[/den]: '1.5'"),
            (["infinity", "--frame", "1,,1"], "argument --frame: not of the form num[/den]: ''"),
            (["section-add", "--frame", "1,1,1", "1,1", "1/0,1"], "argument q: zero denominator: '1/0'"),
            (["chebyshev", "--r", "2", "--n0", "1e3"], "argument --n0: not of the form num[/den]: '1e3'"),
            (["param", "1/0", "1"], "argument P: zero denominator: '1/0'"),
            (["param", "1", "q"], "argument Q: not of the form num[/den]: 'q'"),
            (["phi", "[1:1:1"], "argument p: not of the form num[/den]: '[1'"),
            (["phi", "[0:0:0]"], "argument p: all projective coordinates are zero"),
            (["psi", "[1:1:1/0:1]"], "argument p: zero denominator: '1/0'"),
            (["p2-compose", "[1:1:1]", "1,1,-"], "argument q: not of the form num[/den]: '-'"),
            # arity is checked after every number is read, with its own message
            (["compose", "1,1", "1,1,1"], "argument p: expected 3 values: '1,1'"),
            (["p2-viete", "--generator", "L", "1:1"], "argument p: expected 3 coordinates: '1:1'"),
        ],
    )
    def test_malformed_numbers_keep_their_reason(self, capsys, argv, message):
        code, out, err = invoke_usage(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(f": error: {message}\n") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compose", "1,1,1", "--", "--"], "frickelab compose: error: argument q: expected one argument"),
            (["param", "1", "--", "--"], "frickelab param: error: argument Q: expected one argument"),
            # the value after `=` is the `--` that argparse drops before CPython 3.13 (and
            # --sigma=-- printed an answer); 3.13 hands it to the type or the choices
            (["compose", "--sigma=--", "1,1,1", "1,1,2"], "frickelab compose: error: argument --sigma: " + emptied_value_message("not of the form num[/den]: '--'")),
            (["infinity", "--surface=--", "--frame", "1,1,1"], "frickelab infinity: error: argument --surface: " + emptied_value_message("invalid choice: '--' (choose from 'fricke', 'double')")),
            (["--format=--", "tree", "--depth", "1"], "frickelab: error: argument --format: " + emptied_value_message("invalid choice: '--' (choose from 'json', 'dot', 'plain')")),
        ],
    )
    def test_an_emptied_value_is_a_usage_error(self, capsys, argv, message):
        code, out, err = invoke_usage(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(f"\n{message}\n") and "Traceback" not in err

    def test_sigma_composition(self, capsys):
        payload = invoke_json(capsys, "compose", "--sigma", "-4", "1,2,3", "3,1,2")
        assert payload == {"result": ["10", "-5/2", "-3/2"]}


SURFACE_SUBCOMMANDS = [
    "compose",
    "tree",
    "section-add",
    "section-double",
    "section-inverse",
    "infinity",
    "param",
    "phi",
    "psi",
    "p2-viete",
    "p2-compose",
]


class TestUnknownSurface:
    """A surface name is resolved by the CLI alone; an unknown one is a usage error."""

    def test_every_surface_subcommand_listed(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        taking = [
            name
            for name, p in sub.choices.items()
            if any("--surface" in a.option_strings for a in p._actions)
        ]
        assert taking == SURFACE_SUBCOMMANDS

    @pytest.mark.parametrize("command", SURFACE_SUBCOMMANDS)
    def test_unknown_surface_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--surface", "cayley"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'cayley'" in captured.err
        assert "Traceback" not in captured.err

class TestCheckCoincidentSquares:
    def test_charts_with_one_squared_point(self, capsys):
        # charts (P, Q) and (-P, -Q) give one double-surface point here
        payload = invoke_json(capsys, "check", "--seed", "459261", "--pairs", "18")
        assert payload == {"result": "ok", "seed": 459261, "pairs-checked": 18}


class TestCheckCharts:
    def test_each_draw_composes_its_chart_points_on_both_surfaces(self, capsys, monkeypatch):
        # one Fricke chart pair per draw, and on the double surface its squares:
        # points of the FRICKE and DOUBLE records at the charts' coordinates
        calls = []

        def recording(p, q):
            calls.append((p, q))
            return compose(p, q)

        monkeypatch.setattr("frickelab.fricke.compose", recording)
        payload = invoke_json(capsys, "check", "--seed", "7", "--pairs", "20")
        assert payload == {"result": "ok", "seed": 7, "pairs-checked": 20}
        assert len(calls) == 40
        for fricke_pair, double_pair in zip(calls[::2], calls[1::2]):
            for p, square in zip(fricke_pair, double_pair):
                assert p.surface is FRICKE and square.surface is DOUBLE
                P, Q = param_affine_inverse(p)
                assert p.coords == param_affine(P, Q).coords
                assert square.coords == f2_param_affine(P, Q).coords


class TestCheckMismatch:
    """A law that disagrees with the oracle fails ``check`` with exit 1."""

    @pytest.mark.parametrize(
        "wrong",
        [
            pytest.param(lambda p, q: Finite(p), id="finite-at-an-operand"),
            pytest.param(
                lambda p, q: Infinite(ProjectivePoint((0, 1, 3, 0))), id="infinite-on-finite-pair"
            ),
            pytest.param(lambda p, q: Undefined("coincident-points"), id="undefined"),
        ],
    )
    def test_wrong_law_exits_1(self, capsys, monkeypatch, wrong):
        monkeypatch.setattr("frickelab.fricke.compose", wrong)
        code, out, err = invoke(capsys, "check", "--seed", "7", "--pairs", "20")
        assert code == 1
        assert out == ""
        assert err.startswith("error: check failed on the fricke surface at the charts (")
        assert "Traceback" not in err

    def test_finite_at_an_operand_message_in_full(self, capsys, monkeypatch):
        # the failed composition's payload as compose writes it, the point by its coordinates
        monkeypatch.setattr("frickelab.fricke.compose", lambda p, q: Finite(p))
        code, _out, err = invoke(capsys, "check", "--seed", "7", "--pairs", "20")
        assert code == 1
        assert err == (
            "error: check failed on the fricke surface at the charts (-9/10, 1) and"
            ' (-44/5, 18/7): compose gives {"result": ["281/300", "-281/270", "-281/270"]},'
            " the line-cubic oracle t = -289384746311041/2135218101229525\n"
        )

    def test_swapped_coordinates_exit_1(self, capsys, monkeypatch):
        # the true result with x and y swapped: on the surface, whose equation is
        # symmetric, but off the line through the operands
        def swapped(p, q):
            res = compose(p, q)
            x, y, z = res.point.coords
            return Finite(type(res.point)(y, x, z, res.point.surface))

        monkeypatch.setattr("frickelab.fricke.compose", swapped)
        code, out, err = invoke(capsys, "check", "--seed", "7", "--pairs", "20")
        assert code == 1
        assert out == ""
        assert err.startswith("error: check failed on the fricke surface at the charts (")
        assert "Traceback" not in err

    def test_finite_on_a_degenerate_pair_exits_1(self, capsys, monkeypatch):
        # the oracle answers a degenerate cubic on every pair: no Finite fits
        monkeypatch.setattr(
            "frickelab.cli.line_third_intersection", lambda p, q, surface: DEGENERATE_CUBIC
        )
        code, _out, err = invoke(capsys, "check", "--seed", "7", "--pairs", "20")
        assert code == 1
        assert err.startswith("error: check failed") and "DEGENERATE_CUBIC" in err

    def test_mismatch_exits_1_under_optimization(self, tmp_path):
        # `python -O` drops assert statements; the check must still fail
        script = (
            "import sys\n"
            "from frickelab import cli, fricke\n"
            "fricke.compose = lambda p, q: fricke.Finite(p)\n"
            "sys.exit(cli.run(['check', '--seed', '7', '--pairs', '20']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: check failed")


HUGE = "7" * 5000  # past the 4300 digits that str() and int() take by default


class TestAnySize:
    def test_chebyshev_round_trips(self, capsys):
        payload = invoke_json(capsys, "chebyshev", "--r", "5000", "--n0", "3")
        assert len(payload["result"]) == 4744
        assert parse_rational(payload["result"]) == chebyshev_b(5000, 3)

    def test_result_past_the_bit_limit_exits_1_at_once(self):
        # r = 10^20 at tau = 9: about 4*10^20 bits, refused before any arithmetic
        proc = subprocess.run(
            [sys.executable, "-m", "frickelab.cli", "chebyshev", "--r", "1" + "0" * 20, "--n0", "3"],
            capture_output=True,
            text=True,
            timeout=30,
            env=child_env(),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and f"past the limit of {MAX_LUCAS_BITS} bits" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["chebyshev", "--r", "131072", "--n0", "3"],
            ["chebyshev", "--r", HUGE, "--n0", "1/6"],
            ["ta-power", "--frame", "1,5,2", "--r", "131073", "1,2"],
            ["convergent", "--frame", "1,5,2", "--r", "131073"],
            ["convergent", "--frame", "1,5,2", "--r", HUGE],
        ],
    )
    def test_results_past_the_bit_limit_are_refused(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and f"past the limit of {MAX_LUCAS_BITS} bits" in err

    def test_short_results_are_not_refused(self, capsys):
        # tau = 0 and tau = 2: U_r is periodic or r, whatever the size of r
        assert invoke_json(capsys, "chebyshev", "--r", "600000", "--n0", "0")["result"] == "1"
        assert invoke_json(capsys, "chebyshev", "--r", "1" + "0" * 20, "--n0", "2/3")["result"] == "1" + "0" * 19 + "1"

    def test_huge_input_is_read(self, capsys):
        payload = invoke_json(capsys, "phi", f"[{HUGE}:1:1]")
        assert payload["result"].startswith("[") and len(payload["result"]) > 3 * 5000

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", f"{HUGE},1,1", "1,2,5"],
            ["section-add", "--frame", "1,1,1", f"{HUGE},1", "1,1"],
            ["infinity", "--frame", f"1,{HUGE},1"],
            ["tree", "--root", f"1,1,{HUGE}", "--depth", "1"],
            ["tree", "--root", f"1,1,1/{HUGE}", "--depth", "1"],
        ],
    )
    def test_huge_value_in_an_error_message(self, capsys, argv):
        code, _out, err = invoke(capsys, *argv)
        assert code == 1 and HUGE in err and "Traceback" not in err


class TestTreeBudget:
    """A tree past tree.MAX_TREE_BITS is refused once its triples pass the limit, so
    each of these argv stops after at most the budget's work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "--depth", "1000000"],
            ["negative-tree", "--depth", "1000000"],
            ["frobenius", "--max-component", "1" + "0" * 3999],
        ],
        ids=["tree", "negative-tree", "frobenius"],
    )
    def test_refused_past_the_budget(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "frickelab.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error:") and f"MAX_TREE_BITS = {MAX_TREE_BITS}" in proc.stderr
        assert "Traceback" not in proc.stderr


def _numbers(text: str) -> list:
    # json.loads has the same 4,300-digit limit as int(); parse_rational has none
    return [parse_rational(n) for n in re.findall(r"-?[0-9]+", text)]


class TestTreesAnySize:
    """Trees print triples of any size as JSON and plain text."""

    @pytest.mark.parametrize("fmt, head", [("json", '{"result": [[1, '), ("plain", "[[1, ")])
    def test_tree(self, capsys, fmt, head):
        b, c = markov_pair(4400)
        root = f"1,{format_rational(b)},{format_rational(c)}"
        code, out, err = invoke(capsys, "--format", fmt, "tree", "--root", root, "--depth", "1")
        assert code == 0, err
        assert out.startswith(head) and out.endswith("]]}\n" if fmt == "json" else "]]\n")
        nodes = generate(canonical((1, b, c)), depth=1)
        assert _numbers(out) == [v for node in nodes for v in node.triple.values]

    @pytest.mark.parametrize("fmt, head", [("json", '{"result": [['), ("plain", "[[")])
    def test_negative_tree(self, capsys, fmt, head):
        n = "7" * 3000  # its triples reach 6,000 digits
        code, out, err = invoke(capsys, "--format", fmt, "negative-tree", "--n", n, "--depth", "1")
        assert code == 0, err
        assert out.startswith(head) and out.endswith("]]}\n" if fmt == "json" else "]]\n")
        assert _numbers(out) == [v for t in negative_tree(int(n), 1) for v in t]


class TestIntegerOptions:
    """Integer options are read by parse_rational's digit rule, at any length."""

    def test_negative_tree_past_the_digit_limit(self, capsys):
        n = "7" * 4400
        code, out, err = invoke(capsys, "negative-tree", "--n", n, "--depth", "0")
        assert code == 0, err
        assert _numbers(out) == [v for t in negative_tree(parse_rational(n), 0) for v in t]

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    @pytest.mark.parametrize("seed", ["7", "-" + "7" * 4400])
    def test_check_echoes_its_seed(self, capsys, fmt, seed):
        code, out, err = invoke(capsys, "--format", fmt, "check", "--seed", seed, "--pairs", "2")
        assert code == 0, err
        if fmt == "plain":
            assert out == f"{{'result': 'ok', 'seed': {seed}, 'pairs-checked': 2}}\n"
        else:
            assert out == f'{{"pairs-checked": 2, "result": "ok", "seed": {seed}}}\n'
        if len(seed) < 10:  # the JSON and the repr of the payload dict
            payload = {"result": "ok", "seed": int(seed), "pairs-checked": 2}
            assert out == (str(payload) if fmt == "plain" else json.dumps(payload, sort_keys=True)) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "--depth", HUGE, "--max-component", "5"],
            ["tree", "--depth", "1", "--max-component", HUGE],
            ["ta-power", "--frame", "1,1,1", "--r", "-" + HUGE, "1,1"],
            ["chebyshev", "--r", "-" + HUGE, "--n0", "3"],
            ["convergent", "--r", "-" + HUGE, "--frame", "1,5,2"],
        ],
    )
    def test_long_integer_options_are_read(self, capsys, argv):
        code, _out, err = invoke(capsys, *argv)
        assert code in (0, 1) and "usage" not in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["x", "1.5", "1/2", "1_000", "0x10", "", "+", " 1 2"])
    @pytest.mark.parametrize("option", ["--r", "--n"])
    def test_malformed_integers_are_usage_errors(self, capsys, option, value):
        argv = ["chebyshev", "--n0", "3"] if option == "--r" else ["negative-tree", "--depth", "0"]
        code, out, err = invoke_usage(capsys, *argv, option, value)
        assert code == 2 and out == ""
        assert err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")

    def test_signs_and_spaces_as_before(self, capsys):
        assert invoke_json(capsys, "chebyshev", "--r", " +3 ", "--n0", "1") == {"result": "21"}
        code, _out, err = invoke_usage(capsys, "negative-tree", "--n", "-0", "--depth", "0")
        assert code == 2 and "expected a positive integer: '-0'" in err
