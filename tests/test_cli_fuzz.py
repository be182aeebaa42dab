"""Seeded argv fuzz of the CLI exit contract.

Every argv must end in exit 0, 1 or 2 and leave no traceback on stderr.
The generator covers every subcommand, both surfaces and every
``--format``; it mixes valid inputs with malformed numbers and wrong
arities.  Sizes stay small (r <= 40, depth <= 4, max-component <= 200,
pairs <= 30) so that the whole corpus runs in a few seconds.
"""
import contextlib
import io
import random
from fractions import Fraction

from frickelab.cli import HANDLERS, run

SEED = 20261018
COUNT = 600

BAD_NUMBERS = ["1/0", "abc", "", "1//2", "0x10", "nan", "inf", "-", "1/-2", "2/", "/3", "1,"]
FRICKE_FRAMES = ["1,1,1", "1,2,5", "2,5,29", "1,5,2", "5,13,194", "15/4,-3/4,-6"]
DOUBLE_FRAMES = ["1,4,25", "4,1,1", "-1/9,1/9,-1/9", "25/36,100/81,625/324"]


def number(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(BAD_NUMBERS)
    num = rng.randint(-12, 12)
    return str(num) if roll < 0.5 else f"{num}/{rng.randint(1, 12)}"


def numbers(rng: random.Random, arity: int) -> str:
    """``arity`` comma-separated numbers, and now and then one too few or too many."""
    if rng.random() < 0.1:
        arity = rng.choice([n for n in (1, 2, 3, 4) if n != arity])
    return ",".join(number(rng) for _ in range(arity))


def triple(rng: random.Random, surface: str) -> str:
    if rng.random() < 0.6:
        return rng.choice(FRICKE_FRAMES if surface == "fricke" else DOUBLE_FRAMES)
    return numbers(rng, 3)


def section_point(rng: random.Random, frame: str) -> str:
    """The base point of a known frame, its mirror, its image under A, or noise."""
    if frame not in FRICKE_FRAMES + DOUBLE_FRAMES or rng.random() < 0.3:
        return numbers(rng, 2)
    m0, n0, k0 = (Fraction(v) for v in frame.split(","))
    x, z = rng.choice([(m0, k0), (k0, m0), (m0, 3 * m0 * n0 - k0)])
    return f"{x},{z}"


def projective(rng: random.Random, arity: int) -> str:
    if rng.random() < 0.15:
        arity = rng.choice((2, 3, 4, 5))
    coords = [str(rng.randint(-5, 5)) for _ in range(arity)]
    if rng.random() < 0.1:
        coords[rng.randrange(arity)] = rng.choice(BAD_NUMBERS)
    return ("[" + ":".join(coords) + "]") if rng.random() < 0.7 else ",".join(coords)


def small_int(rng: random.Random, high: int) -> str:
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(BAD_NUMBERS)
    if roll < 0.2:
        return str(rng.randint(-3, 0))
    return str(rng.randint(1, high))


def surface_opt(rng: random.Random, surface: str) -> list[str]:
    return [] if surface == "fricke" and rng.random() < 0.5 else ["--surface", surface]


def section_args(rng: random.Random, command: str, surface: str) -> list[str]:
    frame = triple(rng, surface)
    argv = [command, *surface_opt(rng, surface), f"--frame={frame}", "--"]
    argv.append(section_point(rng, frame))
    if command == "section-add":
        argv.append(section_point(rng, frame))
    return argv


def fricke_frame_args(rng: random.Random, command: str) -> list[str]:
    frame = triple(rng, "fricke")
    argv = [command, f"--frame={frame}"]
    if command == "dihedral":
        argv += ["--map", rng.choice(("A", "TA", "C", "TC", "B", "T", "X"))]
    if command == "ta-power":
        argv += ["--r", small_int(rng, 40), "--family", rng.choice(("TA", "TC", "TA", "TC", "A"))]
    return argv + ["--", section_point(rng, frame)]


def subcommand_args(rng: random.Random, command: str, surface: str) -> list[str]:
    if command in ("compose", "star"):
        opts = surface_opt(rng, surface) if command == "compose" else []
        if command == "compose" and rng.random() < 0.3:
            opts += [f"--sigma={number(rng)}"]
        return [command, *opts, "--", triple(rng, surface), triple(rng, surface)]
    if command == "tree":
        argv = ["tree", *surface_opt(rng, surface)]
        if rng.random() < 0.3:
            argv.append(f"--root={triple(rng, surface)}")
        if rng.random() < 0.7:
            argv += ["--depth", small_int(rng, 4)]
        if rng.random() < 0.5:
            argv += ["--max-component", small_int(rng, 200)]
        return argv
    if command == "frobenius":
        return ["frobenius", "--max-component", small_int(rng, 200)]
    if command == "negative-tree":
        return ["negative-tree", "--n", small_int(rng, 200), "--depth", small_int(rng, 4)]
    if command.startswith("section-"):
        return section_args(rng, command, surface)
    if command in ("dihedral", "ta-power"):
        return fricke_frame_args(rng, command)
    if command == "chebyshev":
        return ["chebyshev", "--r", small_int(rng, 40), f"--n0={number(rng)}"]
    if command == "infinity":
        return ["infinity", *surface_opt(rng, surface), f"--frame={triple(rng, surface)}"]
    if command == "convergent":
        return ["convergent", "--r", small_int(rng, 40), f"--frame={triple(rng, 'fricke')}"]
    if command == "param":
        return ["param", *surface_opt(rng, surface), "--", number(rng), number(rng)]
    if command in ("phi", "psi"):
        return [command, *surface_opt(rng, surface), projective(rng, 3 if command == "phi" else 4)]
    if command == "p2-viete":
        generator = ["--generator", rng.choice(("L", "R", "M"))]
        return ["p2-viete", *surface_opt(rng, surface), *generator, projective(rng, 3)]
    if command == "p2-compose":
        return ["p2-compose", *surface_opt(rng, surface), projective(rng, 3), projective(rng, 3)]
    return ["check", "--seed", str(rng.randint(0, 10**6)), "--pairs", small_int(rng, 30)]


def fuzz_argv(seed: int = SEED, count: int = COUNT) -> list[list[str]]:
    rng = random.Random(seed)
    commands = sorted(HANDLERS)
    corpus = []
    for i in range(count):
        command = commands[i % len(commands)]
        surface = rng.choice(("fricke", "double"))
        argv = subcommand_args(rng, command, surface)
        if rng.random() < 0.5:
            argv = ["--format", rng.choice(("json", "dot", "plain", "xml"))] + argv
        if rng.random() < 0.05:  # drop one argument: a wrong arity at the argv level
            del argv[rng.randrange(len(argv))]
        corpus.append(argv)
    return corpus


def exit_code(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_corpus_covers_every_subcommand_surface_and_format():
    corpus = fuzz_argv()
    assert {cmd for argv in corpus for cmd in argv if cmd in HANDLERS} == set(HANDLERS)
    surfaces = {a[i + 1] for a in corpus for i, arg in enumerate(a[:-1]) if arg == "--surface"}
    assert {"fricke", "double"} <= surfaces
    assert {argv[1] for argv in corpus if argv[0] == "--format"} >= {"json", "dot", "plain"}


def test_every_argv_exits_0_1_or_2_without_traceback():
    failures = []
    for argv in fuzz_argv():
        try:
            code, err = exit_code(argv)
        except Exception as exc:  # an escaping exception is a traceback at the shell
            failures.append((argv, repr(exc)))
            continue
        if code not in (0, 1, 2) or "Traceback" in err:
            failures.append((argv, code))
    assert not failures, failures[:5]
