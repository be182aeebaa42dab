"""The benchmark's three workloads: seeded op pools, the ops, and their checks.

A pool is a list of ops ``(kind, run, args)``, generated from the seed with
the reference arithmetic in ``ref`` alone; the library is first called when
an op runs.  ``run(*args)`` calls frickelab through module attributes looked
up at call time, so the tracer's wrappers see every call.  ``CHECKS[kind]``
checks an output against the benchmark's own references.

Driving parameters are drawn stratified (one draw per equal-width slice of
their range, then shuffled) so that every seed gives the same cost profile
and run-to-run spread stays small; the seed still picks every value.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction

from frickelab import cli, exact, fricke, sections
from frickelab import double_fricke as df

import ref

# ---------------------------------------------------------------------------
# plain values: library objects -> tuples the checks and the digest read


def plain(obj):
    name = type(obj).__name__
    if isinstance(obj, (int, Fraction, str)) or obj is None:
        return obj
    if isinstance(obj, (tuple, list)):
        return tuple(plain(v) for v in obj)
    if name == "Finite":
        return ("finite", plain(obj.point))
    if name == "Infinite":
        return ("infinite", obj.point.coords)
    if name == "Undefined":
        return ("undefined", obj.reason)
    if name in ("FrickePoint", "F2Point", "ProjectivePoint"):
        return tuple(obj.coords)
    if name in ("SectionPoint", "F2SectionPoint"):
        return (obj.x, obj.z)
    if name == "QuadraticIrrational":
        return (obj.a, obj.b, obj.d, obj.c)
    if name == "LineParameter":
        return obj.t
    if name == "_Degenerate":
        return "degenerate"
    return ("unknown", name)


class Raised(tuple):
    """An op that raised; compares equal across passes by exception type."""

    def __new__(cls, exc: BaseException):
        return super().__new__(cls, ("raised", type(exc).__name__))


def branch(kind: str, out) -> str | None:
    """Composition branch a compose-like op took, for the branch counts."""
    if kind in ("cli.compose", "cli.star"):
        doc = ref.payload(out[1]) if out[0] == 0 else None
        if not isinstance(doc, dict):
            return "failed"
        result = doc.get("result")
        return result if result in ("infinite", "undefined") else "finite"
    if kind in ("compose", "f2_compose", "star"):
        return plain(out)[0]
    return None


# ---------------------------------------------------------------------------
# the ops: each calls the library through module attributes


def run_compose(a, b):
    return fricke.compose(fricke.FrickePoint(*a), fricke.FrickePoint(*b))


def run_f2_compose(a, b):
    return df.f2_compose(df.F2Point(*a), df.F2Point(*b))


def run_star(a, b):
    return fricke.star(fricke.FrickePoint(*a), fricke.FrickePoint(*b))


def run_p2_compose(p, q):
    return fricke.p2_compose(exact.ProjectivePoint(p), exact.ProjectivePoint(q))


def run_f2_p2_compose(p, q):
    return df.f2_p2_compose(exact.ProjectivePoint(p), exact.ProjectivePoint(q))


def run_phi(p):
    return fricke.phi(exact.ProjectivePoint(p))


def run_psi(p):
    return fricke.psi(exact.ProjectivePoint(p))


def run_viete(a, generator):
    return fricke.viete(fricke.FrickePoint(*a), generator)


def run_nielsen(a, generator):
    return df.nielsen(df.F2Point(*a), generator)


def run_oracle(a, b, surface):
    return exact.line_third_intersection(a, b, surface)


def _fricke_section(frame, *points):
    fr = sections.SectionFrame(*frame)
    return fr, [sections.SectionPoint(x, z, fr) for x, z in points]


def _double_section(frame, *points):
    fr = df.F2SectionFrame(*frame)
    return fr, [df.F2SectionPoint(x, z, fr) for x, z in points]


def run_add(frame, p1, p2):
    fr, (a, b) = _fricke_section(frame, p1, p2)
    return sections.quadric_add(fr, a, b)


def run_double(frame, p1):
    fr, (a,) = _fricke_section(frame, p1)
    return sections.quadric_double(fr, a)


def run_inverse(frame, p1):
    fr, (a,) = _fricke_section(frame, p1)
    return sections.quadric_inverse(fr, a)


def run_f2_add(frame, p1, p2):
    fr, (a, b) = _double_section(frame, p1, p2)
    return df.f2_quadric_add(fr, a, b)


def run_f2_double(frame, p1):
    fr, (a,) = _double_section(frame, p1)
    return df.f2_quadric_double(fr, a)


def run_f2_inverse(frame, p1):
    fr, (a,) = _double_section(frame, p1)
    return df.f2_quadric_inverse(fr, a)


def run_chebyshev(r, n0):
    return sections.chebyshev_b(r, n0)


def run_ta_power(frame, p1, r, family):
    fr, (a,) = _fricke_section(frame, p1)
    return sections.ta_power(fr, a, r, family)


def run_convergent(frame, r):
    return sections.cf_convergent(sections.SectionFrame(*frame), r)


def run_infinity(frame):
    return sections.infinity_points(sections.SectionFrame(*frame))


def run_f2_infinity(frame):
    return df.f2_infinity_points(df.F2SectionFrame(*frame))


def run_cli(argv, _spec=None):
    """cli.run in process: (exit code, stdout, whether an exception escaped)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
            traceback = False
        except SystemExit as exc:  # argparse usage errors
            code, traceback = exc.code, False
        except Exception:  # what a real process would print as a traceback
            code, traceback = 1, True
    return (code, out.getvalue(), traceback)


# ---------------------------------------------------------------------------
# checks: (args, plain output) -> bool, from the references in ``ref``


def _compose_check(surface):
    return lambda args, out: out == ref.third(surface, args[0], args[1])


def _group_check(surface, op):
    def check(args, out):
        frame, p1 = args[0], args[1]
        p2 = args[2] if op == "add" else None
        return ref.check_group(surface, op, frame, p1, p2, out)

    return check


def _check_p2(surface):
    def check(args, out):
        want = ref.p2_compose(surface, args[0], args[1])
        return out == (want if want is not None else ("raised", "UndefinedImage"))

    return check


def _check_oracle(args, out):
    t = ref.line_parameter(args[2], args[0], args[1])
    return out == ("degenerate" if t is None else t)


def _check_infinity(surface):
    return lambda args, out: ref.infinity_ok(surface, args[0][1], out)


def _check_ta(args, out):
    frame, p1, r, _family = args
    want = ref.ta_power(frame, p1, r, args[3])
    return out == want and ref.on_surface("fricke", (out[0], frame[1], out[1]))


CHECKS = {
    "compose": _compose_check("fricke"),
    "f2_compose": _compose_check("double"),
    "star": lambda args, out: out == ref.star(args[0], args[1]),
    "p2_compose": _check_p2("fricke"),
    "f2_p2_compose": _check_p2("double"),
    "phi": lambda args, out: out == ref.phi("fricke", args[0])
    and ref.on_projective_surface("fricke", out),
    "psi": lambda args, out: out == ref.normalize(args[0][:3]),
    "viete": lambda args, out: out == ref.vieta("fricke", args[0], args[1] == "L")
    and ref.on_surface("fricke", out),
    "nielsen": lambda args, out: out == ref.vieta("double", args[0], args[1] == "first")
    and ref.on_surface("double", out),
    "oracle": _check_oracle,
    "add": _group_check("fricke", "add"),
    "double": _group_check("fricke", "double"),
    "inverse": _group_check("fricke", "inverse"),
    "f2_add": _group_check("double", "add"),
    "f2_double": _group_check("double", "double"),
    "f2_inverse": _group_check("double", "inverse"),
    "chebyshev": lambda args, out: ref.cheb_ok(args[0], args[1], out),
    "ta_power": _check_ta,
    "convergent": lambda args, out: out
    == ref.cheb(args[1], args[0][1])[0] / ref.cheb(args[1], args[0][1])[1],
    "infinity": _check_infinity("fricke"),
    "f2_infinity": _check_infinity("double"),
}


# ---------------------------------------------------------------------------
# seeded generation (reference arithmetic only)


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one uniform draw in each of n equal slices of [lo, hi], shuffled."""
    out = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(out)
    return out


def log_int(x: float) -> int:
    return max(1, round(math.exp(x)))


def rand_rat(rng: random.Random, h: int) -> Fraction:
    """A rational whose numerator and denominator both have h bits."""
    num = rng.getrandbits(h) | (1 << (h - 1))
    den = rng.getrandbits(h) | (1 << (h - 1))
    return Fraction(rng.choice((1, -1)) * num, den)


def rand_int(rng: random.Random, h: int) -> int:
    return (rng.getrandbits(h) | (1 << (h - 1))) * rng.choice((1, -1))


def chart_point(rng, surface, h):
    return ref.chart(surface, rand_rat(rng, h), rand_rat(rng, h))


def plane_point(rng, surface, h):
    """A primitive plane point whose phi-image is an affine, nonsingular point."""
    while True:
        p = [rand_int(rng, h) for _ in range(3)]
        if surface == "double" and sum(p) == 0:
            continue
        return ref.normalize(p)


def surface_pair(rng, surface, h, slot, edge_cases=True):
    """Two chart points of height ~2^h; some slots hit the degenerate branches.

    Slots 0-1 pair a point with its Vieta image (a shared coordinate: the
    infinite branch), slot 2 repeats the point and slot 3 uses the origin
    (the undefined branches).
    """
    a = chart_point(rng, surface, h)
    b = chart_point(rng, surface, h)
    if slot in (0, 1):
        b = ref.vieta(surface, a, slot == 0)
    elif edge_cases and slot == 2:
        b = a
    elif edge_cases and slot == 3:
        a = (Fraction(0),) * 3
    return a, b


SECANT_MIX = {  # op kind -> ops per pass, in units of SECANT_OPS / 100
    "compose": 24,
    "f2_compose": 18,
    "star": 8,
    "p2_compose": 6,
    "f2_p2_compose": 6,
    "phi": 4,
    "psi": 4,
    "viete": 5,
    "nielsen": 5,
    "oracle": 10,
    "f2_oracle": 10,
}
SECANT_OPS = 3000
SECANT_BITS = (4, 128)


def secant_pool(rng: random.Random):
    pool, params = [], []
    for kind, share in SECANT_MIX.items():
        n = SECANT_OPS * share // 100
        heights = [round(h) for h in strata(rng, n, *SECANT_BITS)]
        for j, h in enumerate(heights):
            slot = j % 20
            if kind in ("compose", "f2_compose", "star"):
                surface = "double" if kind == "f2_compose" else "fricke"
                run = {"compose": run_compose, "f2_compose": run_f2_compose, "star": run_star}[kind]
                args = surface_pair(rng, surface, h, slot)
            elif kind in ("oracle", "f2_oracle"):
                surface = "double" if kind == "f2_oracle" else "fricke"
                a, b = surface_pair(rng, surface, h, slot, edge_cases=False)
                run, args, kind = run_oracle, (a, b, surface), "oracle"
            elif kind in ("p2_compose", "f2_p2_compose"):
                surface = "double" if kind == "f2_p2_compose" else "fricke"
                run = run_f2_p2_compose if surface == "double" else run_p2_compose
                p = plane_point(rng, surface, h)
                q = plane_point(rng, surface, h)
                args = (p, q)
            elif kind == "phi":
                run, args = run_phi, (plane_point(rng, "fricke", h),)
            elif kind == "psi":
                run, args = run_psi, (ref.phi("fricke", plane_point(rng, "fricke", h)),)
            elif kind == "viete":
                run, args = run_viete, (chart_point(rng, "fricke", h), "LR"[slot % 2])
            else:
                gen = ("first", "second")[slot % 2]
                run, args = run_nielsen, (chart_point(rng, "double", h), gen)
            pool.append((kind, run, args))
            params.append(h)
    rng.shuffle(pool)
    return pool, {"bits": params}


# sections-recurrences ---------------------------------------------------------

SECTION_CHEAP = {"add": 1000, "double": 800, "inverse": 800, "f2_add": 1000, "f2_double": 800, "f2_inverse": 800}
SECTION_SLOPE_BITS = (1, 20)
RECURRENCE = {"chebyshev": 40, "ta_power": 40, "convergent": 30}
RECURRENCE_R = (2, 3000)
SMALL_MARKOV = (1, 2, 5, 13, 29, 34, 89)
# Fixed n0 so the cost of the O(sqrt D) square-part search, which depends on
# how 9*n0^2 - 4 factors, is the same for every seed.
INFINITY_MARKOV = (2, 13, 89, 433, 1597, 6466, 14701, 43261, 96557, 195025)
F2_INFINITY_MARKOV = (1, 2, 5, 13, 29, 34, 89)  # n0 = m^2 <= ~10^4
RATIONAL_SHARE = 4  # one op in RATIONAL_SHARE takes a non-integral n0


def markov_frame(rng, triples, n0=None):
    """(m0, n0, k0) on the Fricke surface from a Markov triple containing n0."""
    t = list(rng.choice([t for t in triples if n0 is None or n0 in t]))
    if n0 is None:
        n0 = rng.choice(t)
    t.remove(n0)
    rng.shuffle(t)
    return (Fraction(t[0]), Fraction(n0), Fraction(t[1]))


SMALL_PQ = tuple(Fraction(v) for v in ("1/3", "1/2", "2/3", "3/2", "2", "3"))


def small_rational_frame(surface, j):
    """The j-th (cyclically) chart point with small P, Q and a non-integral y = n0.

    The recurrences and the O(sqrt D) square-part search grow with the
    height of n0, so only small heights keep one op within a pass, and a
    fixed cycle keeps the cost of a pass the same for every seed.
    """
    frames = [ref.chart(surface, P, Q) for P in SMALL_PQ for Q in SMALL_PQ]
    frames = [f for f in frames if f[1].denominator != 1]
    return frames[j % len(frames)]


def section_points(rng, surface, frame, h, count):
    """Points on the section from rational slopes of height ~2^h through O."""
    out = []
    while len(out) < count:
        pt = ref.section_point(surface, frame, rand_rat(rng, h))
        if pt is not None:
            out.append(pt)
    return out


SMALL_TRIPLES = ref.markov_triples(433)
SECTION_RUNS = {
    "add": run_add,
    "double": run_double,
    "inverse": run_inverse,
    "f2_add": run_f2_add,
    "f2_double": run_f2_double,
    "f2_inverse": run_f2_inverse,
    "chebyshev": run_chebyshev,
    "ta_power": run_ta_power,
    "convergent": run_convergent,
}


def sections_pool(rng: random.Random):
    triples = SMALL_TRIPLES
    square = lambda fr: tuple(c * c for c in fr)  # noqa: E731
    pool, params = [], {"bits": [], "r": [], "n0": []}
    for kind, n in SECTION_CHEAP.items():
        surface = "double" if kind.startswith("f2_") else "fricke"
        run = SECTION_RUNS[kind]
        for j, h in enumerate(strata(rng, n, *SECTION_SLOPE_BITS)):
            if j % RATIONAL_SHARE == 0:
                frame = chart_point(rng, surface, 4)
            elif surface == "fricke":
                frame = markov_frame(rng, triples)
            else:
                frame = square(markov_frame(rng, triples[:8]))
            pts = section_points(rng, surface, frame, round(h), 2)
            args = (frame, pts[0], pts[1]) if kind.endswith("add") else (frame, pts[0])
            pool.append((kind, run, args))
            params["bits"].append(round(h))
    # The p99 falls among these ops, so their cost is the same for every
    # seed: r is the j-th of n log-spaced values and j fixes n0; the seed
    # picks frames and points.
    lo, hi = math.log(RECURRENCE_R[0]), math.log(RECURRENCE_R[1])
    for kind, n in RECURRENCE.items():
        for j in range(n):
            r = log_int(lo + (j + 0.5) * (hi - lo) / n)
            if j % RATIONAL_SHARE == 0:
                frame = small_rational_frame("fricke", j // RATIONAL_SHARE)
            else:
                frame = markov_frame(rng, triples, SMALL_MARKOV[j % len(SMALL_MARKOV)])
            if kind == "chebyshev":
                args = (r, frame[1])
            elif kind == "ta_power":
                pt = section_points(rng, "fricke", frame, 3, 1)[0]
                args = (frame, pt, r, ("TA", "TC")[j % 2])
            else:
                args = (frame, r)
            pool.append((kind, SECTION_RUNS[kind], args))
            params["r"].append(r)
    big = ref.markov_triples(max(INFINITY_MARKOV))
    for n0 in INFINITY_MARKOV:
        pool.append(("infinity", run_infinity, (markov_frame(rng, big, n0),)))
        params["n0"].append(n0)
    for m in F2_INFINITY_MARKOV:
        pool.append(("f2_infinity", run_f2_infinity, (square(markov_frame(rng, big, m)),)))
        params["n0"].append(m * m)
    for surface in ("fricke", "double"):
        for j in range(5):
            frame = small_rational_frame(surface, 7 * j)
            run = run_infinity if surface == "fricke" else run_f2_infinity
            pool.append(("infinity" if surface == "fricke" else "f2_infinity", run, (frame,)))
            params["n0"].append(frame[1])
    rng.shuffle(pool)
    return pool, params


# ---------------------------------------------------------------------------
# cli-mixed: argv built from the same generators, checked by parsing the JSON


def fmt(value) -> str:
    q = Fraction(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt_tuple(values) -> str:
    return ",".join(fmt(v) for v in values)


def fmt_p2(values) -> str:
    return "[" + ":".join(str(v) for v in values) + "]"


def _numbers(values):
    return tuple(ref.parse_number(v) for v in values)


def _compose_payload(want):
    kind, value = want
    if kind == "finite":
        return {"result": [fmt(v) for v in value]}
    if kind == "infinite":
        return {"result": "infinite", "point": fmt_p2(value)}
    return {"result": "undefined", "reason": value}


def check_cli(spec, out) -> bool:
    """Exit 0, and the parsed JSON (or DOT) agrees with the reference."""
    code, stdout, traceback = out
    what, data = spec
    if what == "group" and code == 1 and not traceback:  # an asymptotic chord
        return ref.check_group(*data, ("raised", "DenominatorVanishes"))
    if what == "error":  # no image: a domain error, exit 1
        return not traceback and code == 1
    if traceback or code != 0:
        return False
    if what == "dot":
        surface, root, depth = data
        triples, ok = ref.dot_triples(stdout)
        count = len(ref.tree(surface, root, depth))
        return ok and ref.triples_ok(surface, triples, root) and len(triples) == count
    doc = ref.payload(stdout)
    if not isinstance(doc, dict):
        return False
    if what == "exact":
        return doc == data
    result = doc.get("result")
    if what == "tree":
        surface, root, depth, maxc = data
        count = len(ref.tree(surface, root, depth, maxc))
        return ref.triples_ok(surface, result, root) and len(result) == count
    if what == "negative-tree":
        n, depth = data
        count = len(ref.tree("double", (-n, 0, n), depth))
        return ref.triples_ok("double", result) and len(result) == count
    if what == "group":
        surface, op, frame, p1, p2 = data
        return ref.check_group(surface, op, frame, p1, p2, _numbers(result))
    if what == "infinity":
        surface, n0 = data
        return ref.infinity_ok(surface, n0, _numbers(result))
    if what == "phi":
        surface = data[0]
        coords = ref.parse_projective(result)
        return coords == ref.phi(surface, data[1]) and ref.on_projective_surface(surface, coords)
    if what == "check":
        seed, pairs = data
        return (
            result == "ok"
            and doc.get("seed") == seed
            and 0 < doc.get("pairs-checked", 0) <= pairs
        )
    raise ValueError(what)


CLI_MIX = {  # argv kind -> ops per pass, in units of CLI_OPS / 100
    "compose": 8,
    "compose-double": 6,
    "star": 4,
    "tree": 7,
    "tree-dot": 7,
    "tree-double": 3,
    "frobenius": 3,
    "negative-tree": 3,
    "section": 12,
    "dihedral": 3,
    "ta-power": 4,
    "chebyshev": 4,
    "infinity": 4,
    "convergent": 3,
    "param": 4,
    "phi": 3,
    "psi": 3,
    "p2-viete": 3,
    "p2-compose": 4,
    "check": 2,
    "probe": 4,
}
CLI_OPS = 1200
CLI_BITS = (1, 8)
CLI_TREE_DEPTH = (2, 8)

# Arguments that end in a Python traceback at the parent commit of this
# benchmark; each should exit 1 or 2 without one.
TRACEBACK_PROBES = (
    ["psi", "[1:2:3]"],
    ["phi", "[1:2:3:4]"],
    ["tree"],
    ["frobenius", "--max-component", "1"],
    ["negative-tree", "--n", "0", "--depth", "2"],
    ["compose", "1/0,1,1", "1,1,1"],
)


def _sigma_probe(rng):
    """Compose two permutations of one integer triple on the sigma-surface they share."""
    a, b, c = rng.sample(range(1, 40), 3)
    sigma = a * a + b * b + c * c - 3 * a * b * c
    p, q = (a, b, c), (c, a, b)
    argv = ["compose", f"--sigma={sigma}", "--", fmt_tuple(p), fmt_tuple(q)]
    return argv, ("exact", _compose_payload(ref.third("fricke", p, q)))


def cli_argv(rng, kind, x, j):
    """One argv of the given kind at size parameter x in [0, 1), and its check spec."""
    h = CLI_BITS[0] + round(x * (CLI_BITS[1] - CLI_BITS[0]))
    surface = ("fricke", "double")[j % 2]
    triples = SMALL_TRIPLES
    if kind in ("compose", "compose-double", "star"):
        surf = "double" if kind == "compose-double" else "fricke"
        a, b = surface_pair(rng, surf, h, j % 10)
        argv = ["compose", "--surface", surf] if kind != "star" else ["star"]
        want = ref.third(surf, a, b) if kind != "star" else ref.star(a, b)
        return argv + ["--", fmt_tuple(a), fmt_tuple(b)], ("exact", _compose_payload(want))
    if kind.startswith("tree"):
        surf = "double" if kind == "tree-double" else "fricke"
        depth = CLI_TREE_DEPTH[0] + round(x * (CLI_TREE_DEPTH[1] - CLI_TREE_DEPTH[0]))
        root = (1, 1, 1)
        if kind == "tree-dot":
            return ["--format", "dot", "tree", "--depth", str(depth)], ("dot", ("fricke", root, depth))
        if kind == "tree" and j % 3 == 0:
            maxc = log_int(x * math.log(10**6))
            spec = ("tree", (surf, root, None, maxc))
            return ["tree", "--max-component", str(maxc)], spec
        argv = ["tree", "--surface", surf, "--depth", str(depth)]
        return argv, ("tree", (surf, root, depth, None))
    if kind == "frobenius":
        maxc = 2 + log_int(x * math.log(10**5))
        found = ref.markov_triples(maxc)
        groups = {}
        for t in found:
            groups.setdefault(t[2], []).append(list(t))
        dup = {str(k): v for k, v in sorted(groups.items()) if len(v) > 1}
        want = {"result": {"max-component": maxc, "triples": len(groups), "duplicates": dup}}
        return ["frobenius", "--max-component", str(maxc)], ("exact", want)
    if kind == "negative-tree":
        n, depth = 1 + j % 5, 1 + round(x * 3)
        argv = ["negative-tree", "--n", str(n), "--depth", str(depth)]
        return argv, ("negative-tree", (n, depth))
    if kind == "section":
        op = ("add", "double", "inverse")[j % 3]
        if j % 4 == 0:
            frame = chart_point(rng, surface, 3)
        elif surface == "fricke":
            frame = markov_frame(rng, triples)
        else:
            frame = tuple(c * c for c in markov_frame(rng, triples[:6]))
        p1, p2 = section_points(rng, surface, frame, h, 2)
        argv = ["section-" + op, "--surface", surface, "--frame=" + fmt_tuple(frame), "--", fmt_tuple(p1)]
        argv += [fmt_tuple(p2)] if op == "add" else []
        return argv, ("group", (surface, op, frame, p1, p2))
    if kind in ("dihedral", "ta-power", "convergent"):
        frame = markov_frame(rng, triples, rng.choice(SMALL_MARKOV))
        p1 = section_points(rng, "fricke", frame, h, 1)[0]
        r = 2 + round(x * 60)
        if kind == "dihedral":
            which = ("A", "TA", "C", "TC", "B", "T")[j % 6]
            want = {"result": [fmt(v) for v in ref.dihedral(frame[1], p1, which)]}
            argv = ["dihedral", "--frame=" + fmt_tuple(frame), "--map", which, "--", fmt_tuple(p1)]
            return argv, ("exact", want)
        if kind == "ta-power":
            family = ("TA", "TC")[j % 2]
            want = {"result": [fmt(v) for v in ref.ta_power(frame, p1, r, family)]}
            argv = ["ta-power", "--frame=" + fmt_tuple(frame), "--r", str(r), "--family", family]
            return argv + ["--", fmt_tuple(p1)], ("exact", want)
        b_r, b_prev = ref.cheb(r, frame[1])
        want = {"result": fmt(b_r / b_prev)}
        return ["convergent", "--r", str(r), "--frame=" + fmt_tuple(frame)], ("exact", want)
    if kind == "chebyshev":
        n0 = rng.choice(SMALL_MARKOV) if j % 4 else chart_point(rng, "fricke", 3)[1]
        r = 2 + round(x * 200)
        want = {"result": fmt(ref.cheb(r, n0)[0])}
        return ["chebyshev", "--r", str(r), "--n0=" + fmt(n0)], ("exact", want)
    if kind == "infinity":
        if surface == "fricke":
            frame = markov_frame(rng, triples, rng.choice(INFINITY_MARKOV[:4]))
        else:
            frame = tuple(c * c for c in markov_frame(rng, triples, rng.choice(SMALL_MARKOV[:5])))
        argv = ["infinity", "--surface", surface, "--frame=" + fmt_tuple(frame)]
        return argv, ("infinity", (surface, frame[1]))
    if kind == "param":
        P, Q = rand_rat(rng, h), rand_rat(rng, h)
        want = {"result": [fmt(v) for v in ref.chart(surface, P, Q)]}
        return ["param", "--surface", surface, "--", fmt(P), fmt(Q)], ("exact", want)
    if kind in ("phi", "psi", "p2-viete", "p2-compose"):
        p = plane_point(rng, surface, h)
        if kind == "phi":
            return ["phi", "--surface", surface, fmt_p2(p)], ("phi", (surface, p))
        if kind == "psi":
            image = ref.phi(surface, p)
            want = {"result": fmt_p2(ref.normalize(image[:3]))}
            return ["psi", "--surface", surface, fmt_p2(image)], ("exact", want)
        if kind == "p2-viete":
            gen = ("L", "R")[j // 2 % 2]
            want = ref.p2_viete(surface, p, gen)
            spec = ("exact", {"result": fmt_p2(want)}) if want else ("error", None)
            return ["p2-viete", "--surface", surface, "--generator", gen, fmt_p2(p)], spec
        q = plane_point(rng, surface, h)
        want = ref.p2_compose(surface, p, q)
        spec = ("exact", {"result": fmt_p2(want)}) if want else ("error", None)
        return ["p2-compose", "--surface", surface, fmt_p2(p), fmt_p2(q)], spec
    if kind == "check":
        seed, pairs = rng.randrange(10**6), 2 + round(x * 18)
        return ["check", "--seed", str(seed), "--pairs", str(pairs)], ("check", (seed, pairs))
    raise ValueError(kind)


def cli_pool(rng: random.Random):
    pool, params = [], {"bits": [], "depth": []}
    for kind, share in CLI_MIX.items():
        n = CLI_OPS * share // 100
        for j, x in enumerate(strata(rng, n, 0.0, 1.0)):
            if kind == "probe":
                if j % 2:
                    argv, spec = list(TRACEBACK_PROBES[j // 2 % len(TRACEBACK_PROBES)]), ("exit", None)
                else:
                    argv, spec = _sigma_probe(rng)
                pool.append(("cli.probe", run_cli, (argv, spec)))
                continue
            argv, spec = cli_argv(rng, kind, min(x, 0.999), j)
            name = "cli." + argv[argv.index("--format") + 2 if "--format" in argv else 0]
            pool.append((name, run_cli, (argv, spec)))
            if "--depth" in argv:
                params["depth"].append(int(argv[argv.index("--depth") + 1]))
            else:
                params["bits"].append(CLI_BITS[0] + round(x * (CLI_BITS[1] - CLI_BITS[0])))
    rng.shuffle(pool)
    return pool, params


# Ops reported apart from the workload's failures: the traceback and sigma
# probes above, and `check`, whose double-surface oracle raises
# CoincidentPoints (exit 1) when two random charts (P, Q) and (-P, -Q) give
# one squared point.
PROBE_KINDS = ("cli.probe", "cli.check")


def probe_ok(spec, out) -> bool:
    """A defect probe passes when the CLI keeps its exit contract (and is right)."""
    code, _stdout, traceback = out
    if spec[0] == "exit":
        return not traceback and code in (1, 2)
    return check_cli(spec, out)


def check(kind: str, args, out) -> bool:
    if kind in PROBE_KINDS:
        return probe_ok(args[1], out)
    if kind.startswith("cli."):
        return check_cli(args[1], out)
    return CHECKS[kind](args, plain(out))


POOLS = {
    "secant-heights": secant_pool,
    "sections-recurrences": sections_pool,
    "cli-mixed": cli_pool,
}


def cold_start_argvs(rng: random.Random, count: int):
    """Small (argv, check spec) for the subprocess sample, over all three workloads' ops."""
    kinds = ("compose", "star", "section", "chebyshev", "param", "phi", "tree", "infinity")
    return [cli_argv(rng, kinds[i % len(kinds)], rng.random() / 2, i) for i in range(count)]
