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
    format_rational,
    line_point,
    line_third_intersection,
    parse_projective,
    parse_rational,
)


def _parse_rationals(count: int):
    """Parser of ``count`` comma-separated exact rationals."""

    def parse(text: str) -> tuple[Fraction, ...]:
        parts = tuple(parse_rational(p) for p in text.split(","))
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} values: {text!r}")
        return parts

    return parse


def _parse_p2(arity: int):
    """Parser of a projective point "[p:q:...]" with ``arity`` coordinates."""

    def parse(text: str) -> ProjectivePoint:
        point = parse_projective(text if ":" in text else text.replace(",", ":"))
        if len(point.coords) != arity:
            raise argparse.ArgumentTypeError(f"expected {arity} coordinates: {text!r}")
        return point

    return parse


def _positive_int(text: str) -> int:
    value = int(text)
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


def _emit(payload, fmt: str) -> None:
    if fmt == "plain":
        if isinstance(payload, dict) and set(payload) == {"result"}:
            print(payload["result"])
        else:
            print(payload)
    else:
        print(json.dumps(payload, sort_keys=True))


def _tree_dot(nodes: list[tree.TreeNode]) -> str:
    lines = ["digraph markov {"]
    for i, node in enumerate(nodes):
        label = ",".join(str(v) for v in node.triple.values)
        lines.append(f'  n{i} [label="({label})"];')
    for i, node in enumerate(nodes):
        if node.parent is not None:
            lines.append(f'  n{node.parent} -> n{i} [label="{node.via}"];')
    lines.append("}")
    return "\n".join(lines)


def _chart(surface: str, P: Fraction, Q: Fraction) -> fricke.SurfacePoint:
    """The affine chart of the surface: Fricke's, or its coordinatewise square."""
    return {"fricke": fricke.param_affine, "double": df.f2_param_affine}[surface](P, Q)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="frickelab", description=__doc__)
    top.add_argument("--format", choices=("json", "dot", "plain"), default="json")
    top.set_defaults(surface="fricke")  # dihedral, ta-power, convergent: Fricke sections
    sub = top.add_subparsers(dest="command", required=True)

    def surface_opt(p, default="fricke"):
        p.add_argument("--surface", choices=("fricke", "double"), default=default)

    p = sub.add_parser("compose", help="secant composition of two surface points")
    surface_opt(p)
    p.add_argument("--sigma", type=parse_rational, default=Fraction(0))
    p.add_argument("p", type=_parse_rationals(3))
    p.add_argument("q", type=_parse_rationals(3))

    p = sub.add_parser("star", help="(1,1,1) o (p o q) on the Fricke surface")
    p.add_argument("p", type=_parse_rationals(3))
    p.add_argument("q", type=_parse_rationals(3))

    p = sub.add_parser("tree", help="Vieta tree enumeration")
    surface_opt(p)
    p.add_argument("--root", type=_parse_rationals(3), default=(1, 1, 1))
    p.add_argument("--depth", type=int)
    p.add_argument("--max-component", type=int)

    p = sub.add_parser("frobenius", help="largest-component uniqueness scan")
    p.add_argument("--max-component", type=int, required=True)

    p = sub.add_parser("negative-tree", help="F^2 tree from (-n, 0, n)")
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--depth", type=int, required=True)

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
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--family", choices=("TA", "TC"), default="TA")
    p.add_argument("p", type=_parse_rationals(2))

    p = sub.add_parser("chebyshev", help="b_r(n0)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n0", type=parse_rational, required=True)

    p = sub.add_parser("infinity", help="section points at infinity")
    surface_opt(p)
    p.add_argument("--frame", type=_parse_rationals(3), required=True)

    p = sub.add_parser("convergent", help="minus-continued-fraction convergent b_r/b_{r-1}")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--frame", type=_parse_rationals(3), required=True)

    p = sub.add_parser("param", help="affine chart (P,Q) -> surface point")
    surface_opt(p)
    p.add_argument("P", type=parse_rational)
    p.add_argument("Q", type=parse_rational)

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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=50)

    return top


def _run_check(seed: int, pairs: int) -> dict:
    """Randomized oracle-equivalence check on both surfaces."""
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
        for surface in SURFACES:
            a, b = _chart(surface, p1, q1), _chart(surface, p2, q2)
            if a == b:  # (P, Q) and (-P, -Q) give one double-surface point
                continue
            res = fricke.compose(a, b)
            oracle = line_third_intersection(a.coords, b.coords, surface)
            if isinstance(res, fricke.Finite):
                assert oracle is not DEGENERATE_CUBIC
                assert line_point(a.coords, b.coords, oracle.t) == res.point.coords
        checked += 1
    return {"result": "ok", "seed": seed, "pairs-checked": checked}


# -- one handler per subcommand: args -> JSON payload, or DOT text ------------


def _compose(args) -> dict:
    surface = replace(SURFACES[args.surface], sigma=args.sigma)
    p = fricke.SurfacePoint(*args.p, surface)
    q = fricke.SurfacePoint(*args.q, surface)
    return _compose_payload(fricke.compose(p, q))


def _star(args) -> dict:
    p, q = fricke.FrickePoint(*args.p), fricke.FrickePoint(*args.q)
    return _compose_payload(fricke.star(p, q))


def _tree(args):
    root = tree.canonical(args.root, args.surface)
    nodes = tree.generate(
        args.surface, root, depth=args.depth, max_component=args.max_component
    )
    if args.format == "dot":
        return _tree_dot(nodes)
    return {"result": [list(n.triple.values) for n in nodes]}


def _frobenius(args) -> dict:
    report = tree.frobenius_scan(args.max_component)
    duplicates = {
        str(key): [list(t.values) for t in ts] for key, ts in sorted(report.duplicates.items())
    }
    return {
        "result": {
            "max-component": report.max_component,
            "triples": len(report.by_largest),
            "duplicates": duplicates,
        }
    }


def _frame(args) -> sections.SectionFrame:
    return sections.SectionFrame(*args.frame, SURFACES[args.surface])


def _on_point(law):
    """Handler applying ``law(frame, p, args)`` to the frame and the point given."""

    def handle(args) -> dict:
        frame = _frame(args)
        return {"result": _ser(law(frame, sections.SectionPoint(*args.p, frame), args))}

    return handle


def _transfer(law):
    """Handler printing ``law(args, surface)``, a plane or surface point, as a string."""
    return lambda args: {"result": str(law(args, SURFACES[args.surface]))}


HANDLERS = {
    "compose": _compose,
    "star": _star,
    "tree": _tree,
    "frobenius": _frobenius,
    "negative-tree": lambda args: {
        "result": [list(t) for t in df.negative_tree(args.n, args.depth)]
    },
    "section-add": _on_point(
        lambda fr, p, args: sections.quadric_add(fr, p, sections.SectionPoint(*args.q, fr))
    ),
    "section-double": _on_point(lambda fr, p, args: sections.quadric_double(fr, p)),
    "section-inverse": _on_point(lambda fr, p, args: sections.quadric_inverse(fr, p)),
    "dihedral": _on_point(lambda fr, p, args: sections.dihedral(fr, p, args.map)),
    "ta-power": _on_point(lambda fr, p, args: sections.ta_power(fr, p, args.r, args.family)),
    "chebyshev": lambda args: {"result": _ser(sections.chebyshev_b(args.r, args.n0))},
    "infinity": lambda args: {"result": _ser(sections.infinity_points(_frame(args)))},
    "convergent": lambda args: {"result": _ser(sections.cf_convergent(_frame(args), args.r))},
    "param": lambda args: {"result": _ser(_chart(args.surface, args.P, args.Q))},
    "phi": _transfer(lambda args, surface: fricke.phi(args.p, surface)),
    "psi": _transfer(lambda args, surface: fricke.psi(args.p)),
    "p2-viete": _transfer(lambda args, surface: fricke.p2_viete(args.p, args.generator, surface)),
    "p2-compose": _transfer(lambda args, surface: fricke.p2_compose(args.p, args.q, surface)),
    "check": lambda args: _run_check(args.seed, args.pairs),
}


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = HANDLERS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(out, str):
        print(out)
    else:
        _emit(out, args.format)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
