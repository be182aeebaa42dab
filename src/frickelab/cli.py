"""Command-line front end.

Every number crossing the boundary is an exact "num/den" string; triples
are comma-separated coordinate lists; projective points use the bracket
form "[p:q:r]".  Output is JSON by default, DOT or plain text on request,
and byte-identical across runs for identical inputs.

Exit codes: 0 on success (an undefined composition is an answer, not a
failure), 1 on domain errors, 2 on usage errors.
"""
from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .exact import (
    DEGENERATE_CUBIC,
    DOUBLE,
    FRICKE,
    SURFACES,
    DomainError,
    ProjectivePoint,
    QuadraticIrrational,
    _digits,
    _no_digit_limit,
    format_rational,
    line_third_intersection,
    parse_integer,
    parse_projective,
    parse_rational,
    replace,
)


class _Lazy:
    """A module that this process has not used yet, bound under ``alias`` in this
    module's globals.  Its first attribute read imports the module and binds it there
    in place of this stand-in, so every later use is a plain global lookup: a process
    loads only what its subcommand runs, and only once."""

    __slots__ = ("alias", "module")

    def __init__(self, alias: str, module: str) -> None:
        self.alias, self.module = alias, module

    def __getattr__(self, name: str):
        __import__(self.module)  # as an import statement does, which -X importtime reports
        module = globals()[self.alias] = sys.modules[self.module]
        return getattr(module, name)


fricke = _Lazy("fricke", f"{__package__}.fricke")
sections = _Lazy("sections", f"{__package__}.sections")
tree = _Lazy("tree", f"{__package__}.tree")
df = _Lazy("df", f"{__package__}.double_fricke")
random = _Lazy("random", "random")  # for check alone
argparse = _Lazy("argparse", "argparse")  # for --help and usage errors, a type's refusal too


# A token that starts like a negative number is a value, never an option: argparse's
# own rule, which takes "-4" and "-.5", widened to "-1/2" and "-1,-1,1".
_NEGATIVE = re.compile(r"-\.?[0-9]")


def _reader(parse):
    """An argparse type over ``parse``: its ValueError is a usage error that
    keeps the reason (argparse alone prints only the function's name)."""

    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


def _parse_rationals(count: int):
    """Parser of ``count`` comma-separated exact rationals."""

    def parse(text: str) -> tuple[Fraction, ...]:
        parts = tuple(parse_rational(p) for p in text.split(","))
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} values: {text!r}")
        return parts

    return _reader(parse)


def _parse_p2(arity: int):
    """Parser of a projective point "[p:q:...]" with ``arity`` coordinates."""

    def parse(text: str) -> ProjectivePoint:
        point = parse_projective(text if ":" in text else text.replace(",", ":"))
        if len(point.coords) != arity:
            raise argparse.ArgumentTypeError(f"expected {arity} coordinates: {text!r}")
        return point

    return _reader(parse)


def _integer(text: str) -> int:
    """An integer option of any length, by parse_rational's digit rule; a usage
    error reads as argparse's own for type=int."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {text!r}")
    return value


def _ser(value):
    """An exact value in a JSON-friendly form: an int or a Fraction as its "num/den"
    string, a QuadraticIrrational or a ProjectivePoint as its str, and a tuple or a
    list of these, a law point's coordinates among them, as a list, element by element."""
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, (QuadraticIrrational, ProjectivePoint)):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_ser(v) for v in value]
    return value


def _compose_payload(result) -> dict:
    if isinstance(result, fricke.Undefined):
        return {"result": "undefined", "reason": result.reason}
    if isinstance(result, fricke.Infinite):
        return {"result": "infinite", "point": str(result.point)}
    return {"result": _ser(result.point.coords)}


def _text(value, plain: bool) -> str:
    """A payload (str, int, list, or dict with str keys) as JSON with sorted keys,
    or if ``plain`` as print writes it.  Integers print at any size: the
    interpreter's limit on int-to-str digits is lifted for the call only."""
    with _no_digit_limit():
        return str(value) if plain else json.dumps(value, sort_keys=True)


def _emit(out, fmt: str) -> None:
    """Print what a handler returns: text (a str) as it is; a payload (a dict) as JSON,
    or under --format plain its repr, where a lone {"result": x} prints x as print(x)
    does; and any other value, a law's value that _ser writes, as {"result": _ser(value)}.
    A law point reaches it as its coordinates, never as the point."""
    if not isinstance(out, (str, dict)):
        out = {"result": _ser(out)}
    if fmt == "plain" and set(out) == {"result"}:
        out = out["result"]
    print(out if isinstance(out, str) else _text(out, fmt == "plain"))


def _tree_dot(nodes: list[tree.TreeNode]) -> str:
    labels, edges = ["digraph markov {"], []
    for i, node in enumerate(nodes):
        labels.append(f'  n{i} [label="({",".join(map(_digits, node.triple.values))})"];')
        if node.parent is not None:
            edges.append(f'  n{node.parent} -> n{i} [label="{node.via}"];')
    return "\n".join(labels + edges + ["}"])


@functools.cache  # built on first use, then reused by every run in the process
def build_parser() -> argparse.ArgumentParser:
    """argparse's parser of the rows of COMMANDS; it alone writes --help, usage and errors."""
    top = argparse.ArgumentParser(prog="frickelab", description=__doc__)
    top.add_argument(_FORMAT[0], **_FORMAT[1])
    top.set_defaults(**_TOP_DEFAULTS)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_, _handler, arguments) in COMMANDS.items():
        parser = sub.add_parser(command, help=help_)
        for name, keywords in arguments:
            parser.add_argument(name, **keywords)
    for parser in (top, *sub.choices.values()):
        parser._negative_number_matcher = _NEGATIVE
    return top


# -- the direct reader: an argv of plain shape read from the rows of COMMANDS --
# It skips argparse's general machinery (the pass to the subparser, nargs patterns,
# prefix matching); any other argv, and any value its type or choices refuse, goes
# to argparse, which alone writes --help, usage and errors.


class _Argument:
    """An argument of a row of COMMANDS as the direct reader reads it: the fields of
    the action argparse stores for it (tests/test_cli_reader.py compares the two)."""

    __slots__ = ("option_strings", "dest", "type", "choices", "required", "default")

    def __init__(self, option_strings, dest, type=None, choices=None, required=False, default=None):
        self.option_strings, self.dest, self.type = option_strings, dest, type
        self.choices, self.required, self.default = choices, required, default


@functools.cache
def _tables() -> dict:
    """Each parser as the direct reader reads it, by subcommand name and under None the
    top parser, whose one positional is the subcommand: (options by string, positionals
    in argv order, defaults)."""

    def table(arguments, defaults: dict) -> tuple:
        options, positionals = {}, []
        for name, keywords in arguments:
            strings = [name] if name.startswith("-") else []
            dest = name.lstrip("-").replace("-", "_")
            arg = _Argument(strings, dest, **{"required": not strings, **keywords})
            defaults[dest] = arg.default
            if strings:
                options[name] = arg
            else:
                positionals.append(arg)
        return options, tuple(positionals), defaults

    top = table([_FORMAT, ("command", {"choices": COMMANDS})], dict(_TOP_DEFAULTS))
    rows = COMMANDS.items()
    return {None: top, **{name: table(arguments, {}) for name, (_, _, arguments) in rows}}


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The attributes of build_parser().parse_args(argv) for an argv of plain shape,
    else None.

    Plain: an optional ``--format``, the subcommand, exact long options each given once
    as ``--opt=value`` or ``--opt value``, at most one ``--`` with only (and at least
    one) positionals after it, every positional and required option present, and every
    value accepted by its type and choices, starting with "-" only as a negative number
    does (_NEGATIVE); each is converted where it is read, in argv order as in argparse."""
    tables = _tables()
    options, positionals, defaults = tables[None]
    (command,) = positionals
    namespace, given, taken, dashed, i = dict(defaults), set(), 0, False, 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--":
            if dashed or namespace["command"] is None or i == len(argv):
                return None
            dashed = True
            continue
        if dashed or token[:1] != "-" or _NEGATIVE.match(token):
            if taken == len(positionals):
                return None
            action, text = positionals[taken], token
            taken += 1
        else:
            name, eq, text = token.partition("=")
            action = options.get(name)
            if action is None or action in given:
                return None
            given.add(action)
            if not eq:
                if i == len(argv) or argv[i][:1] == "-" and not _NEGATIVE.match(argv[i]):
                    return None
                text = argv[i]
                i += 1
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # as in argparse's _get_value
            return None
        if action.choices is not None and value not in action.choices:
            return None
        namespace[action.dest] = value
        if action is command:  # read on by the subcommand's own table
            options, positionals, defaults = tables[value]
            namespace.update(defaults)
            taken = 0
    # the subcommand's positionals and required options; before it, the subcommand itself
    if taken < len(positionals) or any(a.required and a not in given for a in options.values()):
        return None
    return SimpleNamespace(**namespace)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argparse's reading of argv.  CPython 3.11 drops a ``--`` and then hands an
    action an empty list (``compose 1,1,1 -- --``, ``--surface=--``) without calling
    its type; that is a usage error here, from the action's own parser."""
    top = build_parser()
    args = top.parse_args(argv)
    (command,) = [a for a in top._actions if a.dest == "command"]
    for parser in (top, command.choices[args.command]):
        for action in parser._actions:
            if action.nargs is None and isinstance(getattr(args, action.dest, None), list):
                parser.error(str(argparse.ArgumentError(action, "expected one argument")))
    return args


class CheckFailed(Exception):
    """A law disagreed with the line-cubic oracle in ``check``."""


def _on_line(r, a, b, t: Fraction) -> bool:
    """Whether the point r is b + t*(a - b), in integers on the operands' stored forms
    (A1, A2, A3)/da and (B1, B2, B3)/db and on r's coordinates X_i/e_i in lowest terms:
    with t = tn/td, X_i*da*db*td == e_i*(B_i*da*td + tn*(A_i*db - B_i*da)) for each i.
    Every denominator is positive, so this is exact; it takes no gcd and does not
    read r's form, which a result of ``compose`` builds only when read."""
    A1, A2, A3, da = a.form
    B1, B2, B3, db = b.form
    X, e1 = r.x.as_integer_ratio()
    Y, e2 = r.y.as_integer_ratio()
    Z, e3 = r.z.as_integer_ratio()
    tn, td = t.numerator, t.denominator
    dt = da * td
    scale = db * dt
    return (
        X * scale == e1 * (B1 * dt + tn * (A1 * db - B1 * da))
        and Y * scale == e2 * (B2 * dt + tn * (A2 * db - B2 * da))
        and Z * scale == e3 * (B3 * dt + tn * (A3 * db - B3 * da))
    )


def _run_check(seed: int, pairs: int) -> dict:
    """Randomized oracle-equivalence check on both surfaces.

    Each composition of two distinct chart points must agree with the
    oracle: a Finite point lies at the oracle's parameter, an Infinite one
    answers a degenerate cubic, and an Undefined one is always a mismatch.
    Returns check's payload, with the number of chart pairs checked.
    """
    rng = random.Random(seed)

    def rand_rat():
        num = rng.randint(-50, 50)
        den = rng.randint(1, 50)
        return Fraction(num, den) if num else Fraction(1)

    checked = 0
    for _ in range(pairs):
        p1, q1 = rand_rat(), rand_rat()
        p2, q2 = rand_rat(), rand_rat()
        if (p1, q1) == (p2, q2):
            continue
        # the Fricke charts once per draw; the double charts are their squares
        charts = fricke._chart_coords(p1, q1), fricke._chart_coords(p2, q2)
        squares = [[c**2 for c in chart] for chart in charts]
        for surface, (one, two) in ((FRICKE, charts), (DOUBLE, squares)):
            a, b = fricke.SurfacePoint(*one, surface), fricke.SurfacePoint(*two, surface)
            if a.form == b.form:  # (P, Q) and (-P, -Q) give one double-surface point
                continue
            res = fricke.compose(a, b)
            oracle = line_third_intersection(a.coords, b.coords, surface.name)
            if isinstance(res, fricke.Finite):
                ok = oracle is not DEGENERATE_CUBIC and _on_line(res.point, a, b, oracle.t)
            else:  # Undefined never fits two distinct chart points
                ok = isinstance(res, fricke.Infinite) and oracle is DEGENERATE_CUBIC
            if not ok:
                expected = oracle if oracle is DEGENERATE_CUBIC else f"t = {oracle.t}"
                raise CheckFailed(
                    f"check failed on the {surface.name} surface at the charts ({p1}, {q1})"
                    f" and ({p2}, {q2}): compose gives"
                    f" {_text(_compose_payload(res), plain=False)},"
                    f" the line-cubic oracle {expected}"
                )
        checked += 1
    return {"result": "ok", "seed": seed, "pairs-checked": checked}


# -- one handler per subcommand, with args.surface resolved to its record ----
# A handler returns what its law returns, a law point as its coordinates (a tuple);
# compose, star, the tree commands, frobenius and check return their own payload (a
# dict of str, int, list and str-keyed dicts, as json.dumps and print write them), and
# tree --format dot its text (a str).  ``run`` hands it to ``_emit``, which writes all
# of stdout.


def _compose(args) -> dict:
    surface = replace(args.surface, sigma=args.sigma)
    p = fricke.SurfacePoint(*args.p, surface)
    q = fricke.SurfacePoint(*args.q, surface)
    return _compose_payload(fricke.compose(p, q))


def _star(args) -> dict:
    p, q = fricke.FrickePoint(*args.p), fricke.FrickePoint(*args.q)
    return _compose_payload(fricke.star(p, q))


def _tree(args) -> dict | str:
    root = tree.canonical(args.root, args.surface)
    nodes = tree.generate(root, depth=args.depth, max_component=args.max_component)
    if args.format == "dot":
        return _tree_dot(nodes)
    return {"result": [list(n.triple.values) for n in nodes]}


def _frobenius(args) -> dict:
    report = tree.frobenius_scan(args.max_component)
    duplicates = {
        _digits(key): [list(t.values) for t in ts] for key, ts in sorted(report.duplicates.items())
    }
    return {
        "result": {
            "max-component": report.max_component,
            "triples": len(report.by_largest),
            "duplicates": duplicates,
        }
    }


def _section(args, *points) -> tuple:
    """The section frame of --frame on the surface, then ``points`` on it."""
    frame = sections.SectionFrame(*args.frame, args.surface)
    return (frame, *(sections.SectionPoint(*p, frame) for p in points))


# -- one row per subcommand: its help, its handler and its arguments ---------------
# An argument is its name and its add_argument keywords, in the order argparse lists
# them.  build_parser hands each pair to argparse unchanged, _tables reads the same
# pairs for the direct reader, and HANDLERS holds the rows' handlers.

_INT = {"type": _integer}
_RATIONAL = {"type": _reader(parse_rational)}
_TRIPLE = {"type": _parse_rationals(3)}
_PAIR = {"type": _parse_rationals(2)}
_PLANE = {"type": _parse_p2(3)}
_SURFACE = ("--surface", {"choices": tuple(SURFACES), "default": "fricke"})
_FRAME = ("--frame", {**_TRIPLE, "required": True})
_R = ("--r", {**_INT, "required": True})
# the top parser's: --format, and the surface of every subcommand without --surface
_FORMAT = ("--format", {"choices": ("json", "dot", "plain"), "default": "json"})
_TOP_DEFAULTS = {"surface": "fricke"}

COMMANDS = {  # name: (help, handler, arguments)
    "compose": ("secant composition of two surface points", _compose,
                [_SURFACE, ("--sigma", {**_RATIONAL, "default": Fraction(0)}),
                 ("p", _TRIPLE), ("q", _TRIPLE)]),
    "star": ("(1,1,1) o (p o q) on the Fricke surface", _star, [("p", _TRIPLE), ("q", _TRIPLE)]),
    "tree": ("Vieta tree enumeration", _tree,
             [_SURFACE, ("--root", {**_TRIPLE, "default": (1, 1, 1)}), ("--depth", _INT),
              ("--max-component", _INT)]),
    "frobenius": ("largest-component uniqueness scan", _frobenius,
                  [("--max-component", {**_INT, "required": True})]),
    "negative-tree": ("F^2 tree from (-n, 0, n)",
                      lambda args: {
                          "result": [list(t) for t in df.negative_tree(args.n, args.depth)]
                      },
                      [("--n", {"type": _positive_int, "default": 1}),
                       ("--depth", {**_INT, "required": True})]),
    "section-add": ("add in the section group",
                    lambda args: sections.quadric_add(*_section(args, args.p, args.q)).xy,
                    [_SURFACE, _FRAME, ("p", _PAIR), ("q", _PAIR)]),
    "section-double": ("double in the section group",
                       lambda args: sections.quadric_double(*_section(args, args.p)).xy,
                       [_SURFACE, _FRAME, ("p", _PAIR)]),
    "section-inverse": ("inverse in the section group",
                        lambda args: sections.quadric_inverse(*_section(args, args.p)).xy,
                        [_SURFACE, _FRAME, ("p", _PAIR)]),
    "dihedral": ("A/TA/C/TC/B/T transform of a section point",
                 lambda args: sections.dihedral(*_section(args, args.p), args.map).xy,
                 [_FRAME, ("--map", {"choices": ("A", "TA", "C", "TC", "B", "T"),
                                     "required": True}), ("p", _PAIR)]),
    "ta-power": ("closed-form r-th power of TA or TC",
                 lambda args: sections.ta_power(*_section(args, args.p), args.r, args.family).xy,
                 [_FRAME, _R, ("--family", {"choices": ("TA", "TC"), "default": "TA"}),
                  ("p", _PAIR)]),
    "chebyshev": ("b_r(n0)", lambda args: sections.chebyshev_b(args.r, args.n0),
                  [_R, ("--n0", {**_RATIONAL, "required": True})]),
    "infinity": ("section points at infinity",
                 lambda args: sections.infinity_points(*_section(args)), [_SURFACE, _FRAME]),
    "convergent": ("minus-continued-fraction convergent b_r/b_{r-1}",
                   lambda args: sections.cf_convergent(*_section(args), args.r), [_R, _FRAME]),
    "param": ("affine chart (P,Q) -> surface point",
              lambda args: (df.f2_param_affine if args.surface.cross else fricke.param_affine)(
                  args.P, args.Q
              ).coords,
              [_SURFACE, ("P", _RATIONAL), ("Q", _RATIONAL)]),
    "phi": ("plane -> projectivized surface", lambda args: fricke.phi(args.p, args.surface),
            [_SURFACE, ("p", _PLANE)]),
    "psi": ("projectivized surface -> plane", lambda args: fricke.psi(args.p),
            [_SURFACE, ("p", {"type": _parse_p2(4)})]),
    "p2-viete": ("transferred Viete generator on the plane",
                 lambda args: fricke.p2_viete(args.p, args.generator, args.surface),
                 [_SURFACE, ("--generator", {"choices": ("L", "R"), "required": True}),
                  ("p", _PLANE)]),
    "p2-compose": ("transferred composition on the plane",
                   lambda args: fricke.p2_compose(args.p, args.q, args.surface),
                   [_SURFACE, ("p", _PLANE), ("q", _PLANE)]),
    "check": ("seeded randomized property check", lambda args: _run_check(args.seed, args.pairs),
              [("--seed", {**_INT, "default": 0}),
               ("--pairs", {"type": _positive_int, "default": 50})]),
}
HANDLERS = {name: handler for name, (_help, handler, _arguments) in COMMANDS.items()}


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        args = _parse_args(argv)
    args.surface = SURFACES[args.surface]
    try:
        out = HANDLERS[args.command](args)
    except (DomainError, CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(out, args.format)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
