"""Spans around the calls into frickelab, recorded from outside the library.

``Tracer.install`` replaces each traced function by a wrapper in every
frickelab module that holds a binding to it (``surface_defect`` is imported
into four modules), and replaces ``__post_init__`` on the validated point
classes, so construction and validation show as their own layer.  Each
call becomes a span (name, start, end, parent id); the benchmark opens one
root span per op.  Self time is a span's duration minus the part covered by
its child spans, accumulated exactly for every call; the spans themselves
are kept in memory up to a cap and written out at exit.
"""
from __future__ import annotations

import functools
import time

# (module, attribute); "Class.__post_init__" wraps a method.
TRACED = (
    ("cli", "run"),
    ("cli", "build_parser"),
    ("cli", "_emit"),
    ("cli", "_tree_dot"),
    ("cli", "_ser"),
    ("tree", "generate"),
    ("tree", "frobenius_scan"),
    ("tree", "CanonicalTriple.__post_init__"),
    ("exact", "surface_defect"),
    ("exact", "normalize_projective"),
    ("exact", "line_third_intersection"),
    ("exact", "sqrt_exact"),
    ("exact", "make_quadratic"),
    ("exact", "_square_part"),
    ("exact", "ProjectivePoint.__post_init__"),
    ("exact", "parse_rational"),
    ("exact", "format_rational"),
    ("exact", "slope_between"),
    ("fricke", "compose"),
    ("fricke", "star"),
    ("fricke", "viete"),
    ("fricke", "phi"),
    ("fricke", "p2_compose"),
    ("fricke", "psi"),
    ("fricke", "p2_viete"),
    ("fricke", "param_affine"),
    ("fricke", "FrickePoint.__post_init__"),
    ("double_fricke", "f2_compose"),
    ("double_fricke", "nielsen"),
    ("double_fricke", "f2_p2_compose"),
    ("double_fricke", "f2_phi"),
    ("double_fricke", "f2_psi"),
    ("double_fricke", "f2_p2_viete"),
    ("double_fricke", "f2_param_affine"),
    ("double_fricke", "f2_quadric_add"),
    ("double_fricke", "f2_quadric_double"),
    ("double_fricke", "f2_quadric_inverse"),
    ("double_fricke", "f2_infinity_points"),
    ("double_fricke", "negative_tree"),
    ("double_fricke", "F2Point.__post_init__"),
    ("double_fricke", "F2SectionPoint.__post_init__"),
    ("sections", "quadric_add"),
    ("sections", "quadric_double"),
    ("sections", "quadric_inverse"),
    ("sections", "chebyshev_b"),
    ("sections", "ta_power"),
    ("sections", "cf_convergent"),
    ("sections", "infinity_points"),
    ("sections", "dihedral"),
    ("sections", "SectionPoint.__post_init__"),
)

LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)


class Tracer:
    def __init__(self, span_cap: int = 50_000) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.stack: list[list[int]] = []  # [name index, span id, child ns]
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.next_id = 1
        self.ops: dict = {}

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        idx = self._index(name)
        stack, spans, calls, self_ns = self.stack, self.spans, self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][1] if stack else 0
            frame = [idx, sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[idx] += dur - frame[2]
                calls[idx] += 1
                if stack:
                    stack[-1][2] += dur
                if len(spans) < self.span_cap:
                    spans.append((sid, parent, idx, start, end))
                else:
                    self.dropped += 1

        return wrapper

    def install(self, package) -> None:
        """Wrap every traced name in every module of the package that binds it."""
        modules = [package] + [
            getattr(package, m) for m in ("exact", "fricke", "sections", "double_fricke", "tree", "cli")
        ]
        for mod_name, attr in TRACED:
            module = getattr(package, mod_name)
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def op_runner(self, kind: str):
        """Calls fn(*args) inside a root span for one op of this kind.

        The root's self time is what no traced call covers: the benchmark's
        own op code and untraced library code.
        """
        if kind not in self.ops:
            self.ops[kind] = self._wrap("op." + kind, lambda fn, *args: fn(*args))
        return self.ops[kind]

    def layer_stats(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self ns)."""
        return {n: (c, ns) for n, c, ns in zip(self.names, self.calls, self.self_ns)}
