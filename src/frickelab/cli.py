"""Command-line front end.

Every number crossing the boundary is an exact "num/den" string; triples
are comma-separated coordinate lists; projective points use the bracket
form "[p:q:r]".  Output is JSON by default, DOT or plain text on request,
and byte-identical across runs for identical inputs.

Exit codes: 0 on success (an undefined composition is an answer, not a
failure), 1 on domain errors, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

from . import double_fricke as df
from . import fricke, sections, tree
from .exact import (
    DEGENERATE_CUBIC,
    SURFACES,
    DomainError,
    ProjectivePoint,
    QuadraticIrrational,
    Surface,
    _digits,
    format_rational,
    line_point,
    line_third_intersection,
    parse_integer,
    parse_projective,
    parse_rational,
)


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
    """Serialize exact values recursively into JSON-friendly forms."""
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, (QuadraticIrrational, ProjectivePoint)):
        return str(value)
    if isinstance(value, fricke.SurfacePoint):
        return [_ser(c) for c in value.coords]
    if isinstance(value, sections.SectionPoint):
        return [_ser(value.x), _ser(value.z)]
    if isinstance(value, (tuple, list)):
        return [_ser(v) for v in value]
    return value


def _compose_payload(result) -> dict:
    if isinstance(result, fricke.Undefined):
        return {"result": "undefined", "reason": result.reason}
    if isinstance(result, fricke.Infinite):
        return {"result": "infinite", "point": str(result.point)}
    return {"result": _ser(result.point)}


def _text(value, plain: bool) -> str:
    """A payload value (str, int, dict, list or tuple) as JSON with sorted keys,
    or if ``plain`` as its repr with dicts in insertion order; in both,
    integers at any size, tuples as lists and integer keys as strings."""
    if isinstance(value, int):
        return _digits(value)
    if isinstance(value, str):
        return repr(value) if plain else json.dumps(value)
    if isinstance(value, dict):
        items = [(k if isinstance(k, str) else _digits(k), v) for k, v in value.items()]
        if not plain:
            items.sort(key=lambda item: item[0])
        return "{" + ", ".join([f"{_text(k, plain)}: {_text(v, plain)}" for k, v in items]) + "}"
    return "[" + ", ".join([_text(v, plain) for v in value]) + "]"


def _emit(out, fmt: str) -> None:
    """Print what a handler returns: text as it is, a law's value as {"result":
    _ser(value)}, and a payload as JSON or under --format plain its repr, where
    a lone {"result": x} prints x as print(x) does."""
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


def _chart(surface: Surface, P: Fraction, Q: Fraction) -> fricke.SurfacePoint:
    """The affine chart of the surface: Fricke's, or its coordinatewise square."""
    return (df.f2_param_affine if surface.cross else fricke.param_affine)(P, Q)


@functools.cache  # built on first use, then reused by every run in the process
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="frickelab", description=__doc__)
    top.add_argument("--format", choices=("json", "dot", "plain"), default="json")
    top.set_defaults(surface="fricke")  # subcommands without --surface act on the Fricke surface
    sub = top.add_subparsers(dest="command", required=True)

    rational = _reader(parse_rational)

    def surface_opt(p):
        p.add_argument("--surface", choices=tuple(SURFACES), default="fricke")

    p = sub.add_parser("compose", help="secant composition of two surface points")
    surface_opt(p)
    p.add_argument("--sigma", type=rational, default=Fraction(0))
    p.add_argument("p", type=_parse_rationals(3))
    p.add_argument("q", type=_parse_rationals(3))

    p = sub.add_parser("star", help="(1,1,1) o (p o q) on the Fricke surface")
    p.add_argument("p", type=_parse_rationals(3))
    p.add_argument("q", type=_parse_rationals(3))

    p = sub.add_parser("tree", help="Vieta tree enumeration")
    surface_opt(p)
    p.add_argument("--root", type=_parse_rationals(3), default=(1, 1, 1))
    p.add_argument("--depth", type=_integer)
    p.add_argument("--max-component", type=_integer)

    p = sub.add_parser("frobenius", help="largest-component uniqueness scan")
    p.add_argument("--max-component", type=_integer, required=True)

    p = sub.add_parser("negative-tree", help="F^2 tree from (-n, 0, n)")
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--depth", type=_integer, required=True)

    for name in ("section-add", "section-double", "section-inverse"):
        p = sub.add_parser(name, help=f"{name.split('-')[1]} in the section group")
        surface_opt(p)
        p.add_argument("--frame", type=_parse_rationals(3), required=True)
        p.add_argument("p", type=_parse_rationals(2))
        if name == "section-add":
            p.add_argument("q", type=_parse_rationals(2))

    p = sub.add_parser("dihedral", help="A/TA/C/TC/B/T transform of a section point")
    p.add_argument("--frame", type=_parse_rationals(3), required=True)
    p.add_argument("--map", choices=("A", "TA", "C", "TC", "B", "T"), required=True)
    p.add_argument("p", type=_parse_rationals(2))

    p = sub.add_parser("ta-power", help="closed-form r-th power of TA or TC")
    p.add_argument("--frame", type=_parse_rationals(3), required=True)
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--family", choices=("TA", "TC"), default="TA")
    p.add_argument("p", type=_parse_rationals(2))

    p = sub.add_parser("chebyshev", help="b_r(n0)")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--n0", type=rational, required=True)

    p = sub.add_parser("infinity", help="section points at infinity")
    surface_opt(p)
    p.add_argument("--frame", type=_parse_rationals(3), required=True)

    p = sub.add_parser("convergent", help="minus-continued-fraction convergent b_r/b_{r-1}")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--frame", type=_parse_rationals(3), required=True)

    p = sub.add_parser("param", help="affine chart (P,Q) -> surface point")
    surface_opt(p)
    p.add_argument("P", type=rational)
    p.add_argument("Q", type=rational)

    p = sub.add_parser("phi", help="plane -> projectivized surface")
    surface_opt(p)
    p.add_argument("p", type=_parse_p2(3))

    p = sub.add_parser("psi", help="projectivized surface -> plane")
    surface_opt(p)
    p.add_argument("p", type=_parse_p2(4))

    p = sub.add_parser("p2-viete", help="transferred Viete generator on the plane")
    surface_opt(p)
    p.add_argument("--generator", choices=("L", "R"), required=True)
    p.add_argument("p", type=_parse_p2(3))

    p = sub.add_parser("p2-compose", help="transferred composition on the plane")
    surface_opt(p)
    p.add_argument("p", type=_parse_p2(3))
    p.add_argument("q", type=_parse_p2(3))

    p = sub.add_parser("check", help="seeded randomized property check")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--pairs", type=_positive_int, default=50)

    return top


class CheckFailed(Exception):
    """A law disagreed with the line-cubic oracle in ``check``."""


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
        for surface in SURFACES.values():
            a, b = _chart(surface, p1, q1), _chart(surface, p2, q2)
            if a == b:  # (P, Q) and (-P, -Q) give one double-surface point
                continue
            res = fricke.compose(a, b)
            oracle = line_third_intersection(a.coords, b.coords, surface.name)
            if isinstance(res, fricke.Finite):
                ok = (
                    oracle is not DEGENERATE_CUBIC
                    and line_point(a.coords, b.coords, oracle.t) == res.point.coords
                )
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
# A handler returns what its law returns; compose, star, the tree commands, frobenius
# and check return their own payload (a dict), and tree --format dot its text (a str).
# ``run`` hands it to ``_emit``, which writes all of stdout.


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
    return {"result": [n.triple.values for n in nodes]}


def _frobenius(args) -> dict:
    report = tree.frobenius_scan(args.max_component)
    duplicates = {key: [t.values for t in ts] for key, ts in sorted(report.duplicates.items())}
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


HANDLERS = {
    "compose": _compose,
    "star": _star,
    "tree": _tree,
    "frobenius": _frobenius,
    "negative-tree": lambda args: {"result": df.negative_tree(args.n, args.depth)},
    "section-add": lambda args: sections.quadric_add(*_section(args, args.p, args.q)),
    "section-double": lambda args: sections.quadric_double(*_section(args, args.p)),
    "section-inverse": lambda args: sections.quadric_inverse(*_section(args, args.p)),
    "dihedral": lambda args: sections.dihedral(*_section(args, args.p), args.map),
    "ta-power": lambda args: sections.ta_power(*_section(args, args.p), args.r, args.family),
    "chebyshev": lambda args: sections.chebyshev_b(args.r, args.n0),
    "infinity": lambda args: sections.infinity_points(*_section(args)),
    "convergent": lambda args: sections.cf_convergent(*_section(args), args.r),
    "param": lambda args: _chart(args.surface, args.P, args.Q),
    "phi": lambda args: fricke.phi(args.p, args.surface),
    "psi": lambda args: fricke.psi(args.p),
    "p2-viete": lambda args: fricke.p2_viete(args.p, args.generator, args.surface),
    "p2-compose": lambda args: fricke.p2_compose(args.p, args.q, args.surface),
    "check": lambda args: _run_check(args.seed, args.pairs),
}


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
