"""Reference arithmetic for the benchmark's output checks and input generation.

Everything here is computed from the definitions with the standard
library's integers and fractions.  This module never imports frickelab:
the references must not come from the code under test.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# the surface id -> the constant k of x^2+y^2+z^2 = kxyz / (x+y+z)^2 = kxyz
K = {"fricke": 3, "double": 9}


# -- integers and projective vectors --------------------------------------------


def common(values) -> tuple[list[int], int]:
    """Integer numerators over one common denominator w > 0."""
    fr = [Fraction(v) for v in values]
    w = math.lcm(*(f.denominator for f in fr))
    return [f.numerator * (w // f.denominator) for f in fr], w


def normalize(values) -> tuple[int, ...]:
    """Primitive integer vector, first nonzero entry positive."""
    ints, _w = common(values)
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    first = next(c for c in ints if c)
    return tuple(-c for c in ints) if first < 0 else tuple(ints)


def on_surface(surface: str, point, sigma=0) -> bool:
    """Zero surface defect, evaluated on integers over a common denominator."""
    (x, y, z), w = common(point)
    if surface == "fricke":
        s = Fraction(sigma)
        return (x * x + y * y + z * z) * w * s.denominator == (
            3 * x * y * z * s.denominator + s.numerator * w**3
        )
    return (x + y + z) ** 2 * w == 9 * x * y * z


def on_projective_surface(surface: str, coords) -> bool:
    """[x:y:z:s] on the projectivized surface: (x^2+y^2+z^2)s = 3xyz, or the double."""
    x, y, z, s = coords
    if surface == "fricke":
        return (x * x + y * y + z * z) * s == 3 * x * y * z
    return (x + y + z) ** 2 * s == 9 * x * y * z


def bits(value) -> int:
    """Largest bit length of any integer, numerator or denominator inside value."""
    if isinstance(value, bool) or value is None:
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, str):
        digits = max((len(d) for d in re.findall(r"\d+", value)), default=0)
        return math.ceil(digits * math.log2(10))
    if isinstance(value, (tuple, list)):
        return max((bits(v) for v in value), default=0)
    slots = getattr(type(value), "__slots__", ())
    return max((bits(getattr(value, name, None)) for name in slots), default=0)


# -- surfaces: charts, Vieta moves, the line-cubic oracle ---------------------------


def chart(surface: str, P: Fraction, Q: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The affine chart (P,Q) -> ((P^2+Q^2+1)/3Q, ./3P, ./3PQ), squared on the double."""
    s = P * P + Q * Q + 1
    pt = (s / (3 * Q), s / (3 * P), s / (3 * P * Q))
    return pt if surface == "fricke" else tuple(c * c for c in pt)


def vieta(surface: str, point, first: bool = True):
    """The Vieta move replacing z (first) or x, which keeps one coordinate."""
    x, y, z = point
    k = K[surface]
    if surface == "fricke":
        return (x, k * x * y - z, y) if first else (y, k * y * z - x, z)
    return (
        (x, k * x * y - 2 * x - 2 * y - z, y)
        if first
        else (y, k * y * z - 2 * y - 2 * z - x, z)
    )


def third(surface: str, p, q):
    """Own line-cubic oracle for the secant composition of p and q.

    Returns ("undefined", reason), ("infinite", [da:db:dc:0]) or
    ("finite", point).  The cubic along Q + t(P - Q) has roots 0 and 1;
    its t^3 coefficient is -k*da*db*dc, and the third root follows from
    the t^2 coefficient.  Neither depends on sigma.
    """
    p = tuple(Fraction(v) for v in p)
    q = tuple(Fraction(v) for v in q)
    if p == q:
        return ("undefined", "coincident-points")
    if not any(p) or not any(q):
        return ("undefined", "origin-operand")
    d = [a - b for a, b in zip(p, q)]
    k = K[surface]
    c3 = -k * d[0] * d[1] * d[2]
    if c3 == 0:
        return ("infinite", normalize(d + [0]))
    mixed = q[0] * d[1] * d[2] + q[1] * d[0] * d[2] + q[2] * d[0] * d[1]
    square = sum(v * v for v in d) if surface == "fricke" else sum(d) ** 2
    c2 = square - k * mixed
    t = -(c2 + c3) / c3
    return ("finite", tuple(b + t * v for b, v in zip(q, d)))


def line_parameter(surface: str, p, q):
    """Own third root t of the line cubic, or None when the cubic degenerates."""
    kind, value = third(surface, p, q)
    if kind != "finite":
        return None
    p = [Fraction(v) for v in p]
    q = [Fraction(v) for v in q]
    i = next(i for i in range(3) if p[i] != q[i])
    return (value[i] - q[i]) / (p[i] - q[i])


def star(p, q):
    """(1,1,1) o (p o q) by the own oracle, with the library's undefined reasons."""
    inner = third("fricke", p, q)
    if inner[0] == "undefined":
        return inner
    if inner[0] == "infinite":
        return ("undefined", "secant-at-infinity")
    return third("fricke", (1, 1, 1), inner[1])


def phi(surface: str, plane) -> tuple[int, ...]:
    """The plane -> surface parametrization, as a primitive [x:y:z:s]."""
    a, b, c = plane
    s = a * a + b * b + c * c if surface == "fricke" else (a + b + c) ** 2
    return normalize([a * s, b * s, c * s, K[surface] * a * b * c])


def affine(coords):
    x, y, z, s = coords
    return (Fraction(x, s), Fraction(y, s), Fraction(z, s))


def p2_compose(surface: str, p, q):
    """psi o compose o phi, or None where the transferred map has no image."""
    kind, value = third(surface, affine(phi(surface, p)), affine(phi(surface, q)))
    if kind == "infinite":
        return normalize(value[:3])
    if kind == "finite" and any(value):
        return normalize(value)
    return None


def p2_viete(surface: str, plane, generator: str):
    """The Vieta move conjugated onto the plane: psi o L o phi, homogeneously."""
    x, y, z, s = phi(surface, plane)
    k = K[surface]
    if surface == "fricke" and generator == "L":
        L = (x * s, k * x * y - z * s, y * s)
    elif surface == "fricke":
        L = (y * s, k * y * z - x * s, z * s)
    elif generator == "L":
        L = (x * s, k * x * y - 2 * (x + y) * s - z * s, y * s)
    else:
        L = (y * s, k * y * z - 2 * (y + z) * s - x * s, z * s)
    return normalize(L) if any(L) else None


# -- sections y = n0 -------------------------------------------------------------


def _grad(surface: str, n0, x, z):
    """Gradient of the section conic in (x, z)."""
    if surface == "fricke":
        return (2 * x - 3 * n0 * z, 2 * z - 3 * n0 * x)
    s = x + n0 + z
    return (2 * s - 9 * n0 * z, 2 * s - 9 * n0 * x)


def _qform(surface: str, n0, dx, dz):
    """Quadratic part of the conic along direction (dx, dz): zero iff asymptotic."""
    if surface == "fricke":
        return dx * dx + dz * dz - 3 * n0 * dx * dz
    return (dx + dz) ** 2 - 9 * n0 * dx * dz


def _tangent(surface: str, n0, pt):
    gx, gz = _grad(surface, n0, *pt)
    return (-gz, gx)


def _parallel(u, v) -> bool:
    return u[0] * v[1] == u[1] * v[0]


def section_point(surface: str, frame, mu: Fraction):
    """Second intersection of the line through the base point with slope mu."""
    m0, n0, k0 = frame
    quad = _qform(surface, n0, 1, mu)
    if quad == 0:
        return None
    gx, gz = _grad(surface, n0, m0, k0)
    u = -(gx + gz * mu) / quad
    return (m0 + u, k0 + mu * u)


def check_group(surface: str, op: str, frame, p1, p2, out) -> bool:
    """The conic group law: out on the conic and on the defining line.

    add: out - O parallel to p2 - p1; double: out - O parallel to the tangent
    at p1; inverse: out - p1 parallel to the tangent at O.  When the line
    direction is asymptotic the library must raise DenominatorVanishes.
    """
    m0, n0, k0 = (Fraction(v) for v in frame)
    O = (m0, k0)
    if op == "add" and tuple(p1) == tuple(p2):
        op = "double"
    if op == "add":
        anchor, d = O, (p2[0] - p1[0], p2[1] - p1[1])
    elif op == "double":
        anchor, d = O, _tangent(surface, n0, p1)
    else:
        anchor, d = p1, _tangent(surface, n0, O)
    if _qform(surface, n0, *d) == 0:
        return out == ("raised", "DenominatorVanishes")
    if not (isinstance(out, tuple) and len(out) == 2 and not isinstance(out[0], str)):
        return False
    x, z = (Fraction(v) for v in out)
    if not on_surface(surface, (x, n0, z)):
        return False
    if not _parallel((x - anchor[0], z - anchor[1]), d):
        return False
    if (x, z) == tuple(anchor):  # a double root: the line must be tangent there
        gx, gz = _grad(surface, n0, x, z)
        return gx * d[0] + gz * d[1] == 0
    return True


# -- Chebyshev-like recurrence ---------------------------------------------------


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_pow(m, r: int):
    out = ((1, 0), (0, 1))
    while r:
        if r & 1:
            out = _mat_mul(out, m)
        m = _mat_mul(m, m)
        r >>= 1
    return out


def cheb(r: int, n0) -> tuple[Fraction, Fraction]:
    """(b_r, b_{r-1}) by fast matrix power; b_{-2} = -1, b_{-1} = 0, b_0 = 1."""
    n0 = Fraction(n0)
    if r < 0:
        return {-1: (Fraction(0), Fraction(-1)), -2: (Fraction(-1), -3 * n0)}[r]
    m = mat_pow(((3 * n0, -1), (1, 0)), r)
    return (Fraction(m[0][0]), Fraction(m[1][0]))


def cheb_ok(r: int, n0, b_r) -> bool:
    """b_r matches the fast power and b_r^2 - 3n0 b_r b_{r-1} + b_{r-1}^2 = 1."""
    own, prev = cheb(r, n0)
    n0 = Fraction(n0)
    return b_r == own and b_r * b_r - 3 * n0 * b_r * prev + prev * prev == 1


def ta_power(frame, point, r: int, family: str):
    """(TA)^r or (TC)^r applied to a section point, by fast matrix power."""
    n0 = Fraction(frame[1])
    base = ((3 * n0, -1), (1, 0)) if family == "TA" else ((0, 1), (-1, 3 * n0))
    m = mat_pow(base, r)
    x, z = (Fraction(v) for v in point)
    return (m[0][0] * x + m[0][1] * z, m[1][0] * x + m[1][1] * z)


def dihedral(n0, point, which: str):
    m, k = (Fraction(v) for v in point)
    n0 = Fraction(n0)
    return {
        "A": (m, 3 * m * n0 - k),
        "TA": (3 * m * n0 - k, m),
        "C": (3 * n0 * k - m, k),
        "TC": (k, 3 * n0 * k - m),
        "B": (-m, -k),
        "T": (k, m),
    }[which]


# -- points at infinity -------------------------------------------------------------


def _quadratic_target(surface: str, n0) -> tuple[int, int, int]:
    """t^2 - 3n0 t + 1 (Fricke) or t^2 + (2 - 9n0) t + 1 (double), over integers."""
    n0 = Fraction(n0)
    N, M = n0.numerator, n0.denominator
    return (M, -3 * N, M) if surface == "fricke" else (M, 2 * M - 9 * N, M)


def infinity_ok(surface: str, n0, pair) -> bool:
    """Both slopes are conjugate roots of the section's quadratic at infinity.

    pair holds Fractions or (a, b, d, c) tuples for (a + b*sqrt(d))/c.
    """
    A, B, C = _quadratic_target(surface, n0)
    lo, hi = pair
    if isinstance(lo, Fraction) and isinstance(hi, Fraction):
        return lo <= hi and all(A * t * t + B * t + C == 0 for t in (lo, hi))
    if isinstance(lo, Fraction) or isinstance(hi, Fraction):
        return False
    a, b, d, c = lo
    if hi != (a, -b, d, c) or b >= 0 or c <= 0 or d <= 1 or math.isqrt(d) ** 2 == d:
        return False
    # (a + b sqrt d)/c is a root of c^2 t^2 - 2ac t + (a^2 - b^2 d)
    own = (c * c, -2 * a * c, a * a - b * b * d)
    return own[0] * B == own[1] * A and own[0] * C == own[2] * A


_IRRATIONAL = re.compile(r"^\((-?\d+)([+-])(\d+)√(\d+)\)/(\d+)$")


def parse_number(text: str):
    """The CLI's wire forms: "num/den" -> Fraction, "(a+b√d)/c" -> (a, b, d, c)."""
    m = _IRRATIONAL.match(text)
    if m:
        a, sign, b, d, c = m.groups()
        return (int(a), int(b) * (1 if sign == "+" else -1), int(d), int(c))
    return Fraction(text)


def parse_projective(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.strip("[]").split(":"))


# -- trees ---------------------------------------------------------------------------


def children(surface: str, t):
    a, b, c = t
    if surface == "fricke":
        return ((3 * b * c - a, b, c), (a, 3 * a * c - b, c), (a, b, 3 * a * b - c))
    return (
        (9 * b * c - 2 * b - 2 * c - a, b, c),
        (a, 9 * a * c - 2 * a - 2 * c - b, c),
        (a, b, 9 * a * b - 2 * a - 2 * b - c),
    )


def tree(surface: str, root, depth=None, max_component=None) -> set:
    """Canonical triples the Vieta BFS reaches from root within the limits."""
    start = tuple(sorted(root))
    ok = lambda t: max_component is None or max(map(abs, t)) <= max_component  # noqa: E731
    if not ok(start):
        return set()
    seen, frontier, level = {start}, [start], 0
    while frontier and (depth is None or level < depth):
        level += 1
        nxt = []
        for t in frontier:
            for child in children(surface, t):
                c = tuple(sorted(child))
                if c not in seen and ok(c):
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def markov_triples(bound: int) -> list[tuple[int, int, int]]:
    """Sorted positive Markov triples with largest entry <= bound."""
    return sorted(tree("fricke", (1, 1, 1), max_component=bound), key=lambda t: (t[2], t))


def triples_ok(surface: str, triples, root=None) -> bool:
    """Distinct sorted integer triples on the surface, starting at the root."""
    if not triples or (root is not None and tuple(triples[0]) != tuple(sorted(root))):
        return False
    seen = set()
    for t in triples:
        t = tuple(t)
        if len(t) != 3 or list(t) != sorted(t) or t in seen:
            return False
        if not on_surface(surface, t):
            return False
        seen.add(t)
    return True


def dot_triples(text: str):
    """Node triples of a DOT tree, and whether every edge joins known nodes."""
    nodes = {
        int(i): tuple(int(v) for v in label.split(","))
        for i, label in re.findall(r'^  n(\d+) \[label="\(([-\d,]+)\)"\];$', text, re.M)
    }
    edges = re.findall(r"^  n(\d+) -> n(\d+) \[", text, re.M)
    ok = text.startswith("digraph markov {") and text.rstrip().endswith("}")
    ok = ok and all(int(i) in nodes and int(j) in nodes for i, j in edges)
    ok = ok and len(edges) == len(nodes) - 1
    return [nodes[i] for i in sorted(nodes)], ok


def payload(stdout: str):
    """The JSON document a CLI op printed, or None."""
    try:
        return json.loads(stdout)
    except ValueError:
        return None
