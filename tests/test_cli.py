import json
import subprocess
import sys

import pytest

from frickelab.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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


class TestCheck:
    def test_seeded_check(self, capsys):
        payload = invoke_json(capsys, "check", "--seed", "7", "--pairs", "20")
        assert payload["result"] == "ok"
        assert payload["seed"] == 7
        assert payload["pairs-checked"] > 0


class TestPlainFormat:
    def test_plain_result_only(self, capsys):
        code, out, _err = invoke(
            capsys, "--format", "plain", "chebyshev", "--r", "2", "--n0", "1"
        )
        assert code == 0 and out == "8\n"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "frickelab.cli", "compose", "2,1,1", "1,2,5"],
            capture_output=True,
            text=True,
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
        ],
    )
    def test_bad_input_exits_without_traceback(self, capsys, argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (1, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_sigma_composition(self, capsys):
        payload = invoke_json(capsys, "compose", "--sigma", "-4", "1,2,3", "3,1,2")
        assert payload == {"result": ["10", "-5/2", "-3/2"]}


class TestCheckCoincidentSquares:
    def test_charts_with_one_squared_point(self, capsys):
        # charts (P, Q) and (-P, -Q) give one double-surface point here
        payload = invoke_json(capsys, "check", "--seed", "459261", "--pairs", "18")
        assert payload == {"result": "ok", "seed": 459261, "pairs-checked": 18}
