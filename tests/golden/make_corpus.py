"""Record a golden corpus of CLI runs: argv, exit code and stdout.

Run from the repository root with the frickelab to record on the path:

    PYTHONPATH=src python tests/golden/make_corpus.py > tests/golden/cli_corpus.jsonl

Each argv is run in process through ``cli.run``; an argparse exit is
recorded with its code, and an exception that escapes ``run`` is recorded
as exit 1, what the process would exit with after printing a traceback.
The first line names the Python version, because ``--help`` text is
formatted by that version's argparse.  ``tests/test_cli_golden.py``
replays the corpus.

The argv cover every subcommand, both surfaces wherever ``--surface`` is
accepted, the three output formats, and the edge branches: infinite and
undefined compositions, a vertical chord, vertical tangents at the base
point, rational and irrational points at infinity, domain errors (exit
1) and usage errors (exit 2).  The random pairs are seeded.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

from frickelab import cli, f2_param_affine, param_affine

SUBCOMMANDS = (
    "compose", "star", "tree", "frobenius", "negative-tree", "section-add",
    "section-double", "section-inverse", "dihedral", "ta-power", "chebyshev",
    "infinity", "convergent", "param", "phi", "psi", "p2-viete", "p2-compose",
    "check",
)

# Section frames (x, y, z) read as (m0, n0, k0).  The rational ones have a
# square 9*n0^2 - 4 (Fricke) or (9*n0 - 2)^2 - 4 (double): rational points
# at infinity and a vertical tangent at the base point O.
FRICKE_FRAMES = ("1,1,1", "1,2,5", "2,5,29", "5,13,194", "10/9,5/6,25/18", "-10/9,-5/6,25/18")
DOUBLE_FRAMES = ("1,1,1", "1,4,25", "4,25,1", "100/81,25/36,625/324", "25/36,100/81,625/324")


def fmt(value) -> str:
    q = Fraction(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def triple(point) -> str:
    return ",".join(fmt(c) for c in point.coords)


def random_pairs(rng: random.Random, chart, bits: int, count: int):
    def rat():
        num = rng.getrandbits(bits) | 1
        return Fraction(rng.choice((1, -1)) * num, rng.getrandbits(bits) | 1)

    return [(triple(chart(rat(), rat())), triple(chart(rat(), rat()))) for _ in range(count)]


def argvs() -> list[list[str]]:
    rng = random.Random(20261017)
    out: list[list[str]] = [["--help"]] + [[cmd, "--help"] for cmd in SUBCOMMANDS]

    # secant composition and the star law
    fricke_pairs = [
        ("2,1,1", "1,2,5"), ("1,1,2", "2,5,29"), ("15/4,-3/4,-6", "2,1,1"),
        ("1,1,2", "1,2,5"), ("1,1,2", "5,1,13"), ("2,1,1", "2,5,1"),
        ("1,1,2", "1,1,2"), ("0,0,0", "1,1,2"), ("1,2,3", "1,1,1"), ("1,2", "1,1,1"),
        ("1/0,1,1", "1,1,1"),
    ]
    double_pairs = [
        ("4,1,1", "1,4,25"), ("1,4,1", "1,4,25"), ("1,1,1", "4,1,1"), ("1,4,1", "1,4,1"),
        ("0,0,0", "1,4,1"), ("1,1,2", "1,1,1"),
    ]
    for bits in (4, 32):
        fricke_pairs += random_pairs(rng, param_affine, bits, 3)
        double_pairs += random_pairs(rng, f2_param_affine, bits, 3)
    for p, q in fricke_pairs:
        out.append(["compose", p, q])
        out.append(["compose", "--surface", "fricke", "--", p, q])
        out.append(["star", "--", p, q])
    for p, q in double_pairs:
        out.append(["compose", "--surface", "double", "--", p, q])
    out += [
        ["compose", "--sigma", "4", "0,6/5,8/5", "2,0,0"],
        ["compose", "--sigma", "-4", "1,2,3", "3,1,2"],
        ["compose", "--sigma=-1450", "--", "4,9,17", "17,4,9"],
        ["compose", "--sigma", "0", "2,1,1", "1,2,5"],
        ["compose", "--surface", "double", "--sigma", "5", "4,1,1", "1,4,25"],
        ["star", "2,1,1", "1,1,1"],
        ["star", "1,1,1", "2,5,29"],
    ]

    # trees
    for depth in range(0, 7):
        out.append(["tree", "--depth", str(depth)])
        out.append(["tree", "--surface", "double", "--depth", str(depth)])
    for depth in (1, 3, 6, 9):
        out.append(["--format", "dot", "tree", "--depth", str(depth)])
        out.append(["--format", "dot", "tree", "--surface", "double", "--depth", str(depth)])
    out += [
        ["tree", "--max-component", "30"],
        ["tree", "--max-component", "0"],
        ["tree", "--surface", "double", "--max-component", "1000"],
        ["tree", "--depth", "4", "--max-component", "200"],
        ["tree", "--root", "1,2,5", "--depth", "3"],
        ["tree", "--surface", "double", "--root", "1,4,25", "--depth", "2"],
        ["tree", "--root", "1,2,3", "--depth", "1"],
        ["tree", "--depth", "-1"],
        ["--format", "dot", "tree", "--max-component", "1000"],
        ["--format", "plain", "tree", "--depth", "2"],
        ["tree"],
        ["frobenius", "--max-component", "2"],
        ["frobenius", "--max-component", "100"],
        ["frobenius", "--max-component", "100000"],
        ["--format", "plain", "frobenius", "--max-component", "30"],
        ["frobenius", "--max-component", "1"],
        ["frobenius"],
    ]
    for n in (1, 2, 3, 7):
        for depth in (0, 1, 3):
            out.append(["negative-tree", "--n", str(n), "--depth", str(depth)])
    out += [
        ["negative-tree", "--depth", "4"],
        ["negative-tree", "--n", "0", "--depth", "2"],
        ["negative-tree", "--n", "-2", "--depth", "2"],
        ["negative-tree", "--n", "1"],
    ]

    # the section group law: points reached from O by chords of small slope
    from frickelab import F2SectionFrame, SectionFrame
    from frickelab.exact import parse_rational

    for surface, frames, frame_cls in (
        ("fricke", FRICKE_FRAMES, SectionFrame),
        ("double", DOUBLE_FRAMES, F2SectionFrame),
    ):
        for text in frames:
            frame = frame_cls(*(parse_rational(v) for v in text.split(",")))
            pts = section_points(frame, surface)
            base = ["--surface", surface, "--frame=" + text]
            o = fmt(frame.m0) + "," + fmt(frame.k0)
            for i, p in enumerate(pts):
                q = pts[(i + 1) % len(pts)]
                out.append(["section-add", *base, "--", p, q])
                out.append(["section-double", *base, "--", p])
                out.append(["section-inverse", *base, "--", p])
            out.append(["section-add", *base, "--", o, pts[0]])
            out.append(["section-add", *base, "--", pts[0], pts[0]])
            out.append(["section-inverse", *base, "--", o])
            out.append(["section-double", *base, "--", o])
            out.append(["infinity", "--surface", surface, "--frame=" + text])
    out += [
        # a vertical chord: both points share x = 1
        ["section-add", "--frame", "1,1,1", "1,1", "1,2"],
        ["section-add", "--frame", "1,1,1", "2,1", "1,2"],
        ["section-add", "--surface", "double", "--frame", "1,1,1", "1,1", "1,4"],
        ["section-add", "--surface", "double", "--frame", "1,1,1", "1,4", "25,4"],
        ["section-double", "--frame", "1,1,1", "3,1"],
        ["section-double", "--frame", "1,1,3", "1,1"],
        ["section-inverse", "--frame", "1,0,1", "1,1"],
        ["--format", "plain", "section-add", "--frame", "1,1,1", "2,1", "1,2"],
        ["--format", "dot", "section-double", "--surface", "double", "--frame", "1,1,1", "1,4"],
        ["section-add", "--frame", "1,1,1", "2,1"],
        ["infinity", "--frame", "1,1,1"],
        ["infinity", "--frame", "1,1,3"],
        ["--format", "plain", "infinity", "--frame", "1,2,5"],
    ]

    # dihedral transforms, powers and recurrences (Fricke sections only)
    for which in ("A", "TA", "C", "TC", "B", "T"):
        out.append(["dihedral", "--frame", "1,1,1", "--map", which, "1,2"])
        out.append(["dihedral", "--frame", "2,5,29", "--map", which, "2,29"])
    for r in range(0, 6):
        out.append(["ta-power", "--frame", "1,1,1", "--r", str(r), "1,1"])
        out.append(["ta-power", "--frame", "1,2,5", "--r", str(r), "--family", "TC", "1,5"])
        out.append(["convergent", "--frame", "1,2,5", "--r", str(r)])
    for r in (-3, -2, -1, 0, 1, 2, 7, 40):
        out.append(["chebyshev", "--r", str(r), "--n0", "1"])
        out.append(["chebyshev", "--r", str(r), "--n0", "5/6"])
    out += [
        ["ta-power", "--frame", "1,1,1", "--r", "-1", "1,1"],
        ["dihedral", "--frame", "1,1,1", "--map", "TA", "1,3"],
        ["dihedral", "--frame", "1,1,1", "--map", "X", "1,2"],
        ["convergent", "--frame", "1,1,1", "--r", "12"],
        ["--format", "plain", "chebyshev", "--r", "2", "--n0", "1"],
        ["--format", "dot", "chebyshev", "--r", "3", "--n0", "2/3"],
    ]

    # charts and plane transfers on both surfaces
    for surface in ("fricke", "double"):
        s = ["--surface", surface]
        for P, Q in (("1", "1"), ("1", "2"), ("2/3", "-5/7"), ("-3", "1/2"), ("0", "1")):
            out.append(["param", *s, "--", P, Q])
        for p in ("[1:1:1]", "[1:2:5]", "[0:1:1]", "[2:-3:7]", "1,1,2", "[1:-1:0]"):
            out.append(["phi", *s, p])
            for gen in ("L", "R"):
                out.append(["p2-viete", *s, "--generator", gen, p])
        for p in ("[1:1:1:1]", "[32:64:160:45]", "[0:1:1:0]", "[0:0:0:1]", "[1:1:2:1]"):
            out.append(["psi", *s, p])
        for p, q in (("[2:1:1]", "[1:2:5]"), ("[4:1:1]", "[1:4:25]"), ("[1:2:3]", "[1:2:3]"),
                     ("[1:0:0]", "[0:1:0]"), ("[2:3:-1]", "[5:-7:4]")):
            out.append(["p2-compose", *s, p, q])
        out.append(["p2-viete", *s, "--generator", "L", "[0:0:1]"])
        out.append(["--format", "plain", "phi", *s, "[1:1:2]"])
    out += [
        ["psi", "[1:2:3]"],
        ["phi", "[1:2:3:4]"],
        ["phi", "[0:0:0]"],
        ["param", "1/0", "1"],
    ]

    # the seeded self-check
    for seed in range(6):
        out.append(["check", "--seed", str(seed), "--pairs", "20"])
    out += [
        ["check"],
        ["check", "--seed", "7", "--pairs", "200"],
        ["check", "--seed", "459261", "--pairs", "18"],
        ["--format", "plain", "check", "--seed", "1", "--pairs", "5"],
    ]
    return out


def section_points(frame, surface: str) -> list[str]:
    """A few section points: second hits of chords through O of small slope."""
    from frickelab.exact import DomainError

    out = []
    for num, den in ((1, 1), (-1, 1), (3, 1), (1, 3), (-2, 5), (7, 2)):
        mu = Fraction(num, den)
        u_num, lead = _chord(frame, surface, mu)
        if lead == 0:
            continue
        u = -u_num / lead
        x, z = frame.m0 + u, frame.k0 + mu * u
        try:
            type(frame.origin)(x, z, frame)
        except DomainError:
            continue
        out.append(fmt(x) + "," + fmt(z))
    return out


def _chord(frame, surface: str, mu: Fraction):
    """(C_x + mu*C_z at O, q(1, mu)) for the section conic of the surface."""
    m0, n0, k0 = frame.m0, frame.n0, frame.k0
    if surface == "fricke":
        beta, gamma = -3 * n0, 0
    else:
        beta, gamma = 2 - 9 * n0, 2 * n0
    cx = 2 * m0 + beta * k0 + gamma
    cz = 2 * k0 + beta * m0 + gamma
    return cx + mu * cz, 1 + beta * mu + mu * mu


def record(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue()}


def main() -> None:
    os.environ["COLUMNS"] = "80"
    print(json.dumps({"python": list(sys.version_info[:2])}))
    for argv in argvs():
        print(json.dumps(record(argv), sort_keys=True))


if __name__ == "__main__":
    main()
