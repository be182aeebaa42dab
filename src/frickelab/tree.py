"""Markov-triple tree enumeration and the Frobenius uniqueness scan.

Triples are deduplicated by canonical (sorted) form; breadth-first
expansion under the surface's Vieta moves plus permutations makes the
output deterministic: ordered by depth, then lexicographically.
"""
from __future__ import annotations

from .exact import (
    DOUBLE,
    FRICKE,
    DomainError,
    Record,
    Surface,
    _setters,
    format_point,
    format_rational,
)


class RootOffSurface(DomainError):
    pass


class NotAMarkovNumber(DomainError):
    pass


class CanonicalTriple(Record):
    """Integer triple sorted ascending, on the surface of its record.

    Every public construction is validated: sorted, and on the surface by
    ``Surface.contains``.  Only ``generate`` builds triples through
    ``_vieta_child``, which skips that check for the sorted Vieta children
    of a validated triple (``tests/test_trusted_construction.py``).
    """

    __slots__ = _fields = ("values", "surface")

    def __init__(self, values: tuple[int, int, int], surface: Surface = FRICKE) -> None:
        _set_values(self, values)
        _set_surface(self, surface)
        self.__post_init__()

    def __post_init__(self) -> None:
        if tuple(sorted(self.values)) != self.values:
            raise ValueError(f"{format_point(self.values)} is not sorted")
        s = self.surface
        if not s.contains(self.values):
            raise RootOffSurface(f"{format_point(self.values)} is not on {s.label}")

    @classmethod
    def _vieta_child(cls, values: tuple[int, int, int], surface: Surface) -> "CanonicalTriple":
        """The triple of sorted ``values`` without ``__post_init__``, for a
        Vieta child of a triple on ``surface`` (see ``generate``)."""
        triple = object.__new__(cls)
        _set_values(triple, values)  # the slots' own setters: no frozen __setattr__
        _set_surface(triple, surface)
        return triple

    @property
    def largest(self) -> int:
        return self.values[2]


_set_values, _set_surface = _setters(CanonicalTriple)


def canonical(values, surface: Surface = FRICKE) -> CanonicalTriple:
    """The sorted triple of integral values; a fractional entry is a DomainError."""
    values = tuple(values)
    if any(int(v) != v for v in values):
        raise DomainError(f"root {format_point(values)} has a non-integral entry")
    return CanonicalTriple(tuple(sorted(map(int, values))), surface)


class TreeNode(Record):
    """One triple of a tree: ``via`` is the coordinate the Vieta move replaced
    (None at the root), and ``parent`` the position of the parent node in
    ``generate``'s list."""

    __slots__ = _fields = ("triple", "via", "depth", "parent")

    def __init__(
        self, triple: CanonicalTriple, via: str | None, depth: int, parent: int | None = None
    ) -> None:
        _set_triple(self, triple)
        _set_via(self, via)
        _set_depth(self, depth)
        _set_parent(self, parent)


_set_triple, _set_via, _set_depth, _set_parent = _setters(TreeNode)


# The most bits, summed over the entries of every triple, that one ``generate`` may
# return.  Time, memory and output all grow with that sum: at 2^27 bits the largest
# accepted trees (``tree --max-component`` at 10^300, ``tree --surface double --depth
# 16``) print in one to three seconds on CPython 3.11.
MAX_TREE_BITS = 1 << 27


def _children(s: Surface, t: tuple[int, int, int]):
    a, b, c = t
    yield (s.other_root(b, c, a), b, c), "x"
    yield (a, s.other_root(a, c, b), c), "y"
    yield (a, b, s.other_root(a, b, c)), "z"


def generate(
    root: CanonicalTriple,
    *,
    depth: int | None = None,
    max_component: int | None = None,
) -> list[TreeNode]:
    """Breadth-first Vieta tree from ``root`` on its surface, deduplicated canonically.

    ``depth`` bounds the number of generator applications.
    ``max_component`` drops every triple whose largest absolute entry
    exceeds the bound and expands no such triple, so only triples reached
    through triples within the bound are found.  From (1, 1, 1) on either
    surface that is every triple of the orbit within the bound, since each
    one descends to the root without its largest entry growing.  At least
    one limit is required.  Each node records the position of the node it
    was first reached from.  A tree whose triples, root included, hold more
    than MAX_TREE_BITS bits in all is refused (DomainError) as soon as it
    passes the limit.

    The root is validated where it was built; its descendants are built
    by ``CanonicalTriple._vieta_child`` and not validated again.  With two
    entries u, v fixed, the surface equation is a monic quadratic in the
    third, and a Vieta move replaces that entry w by the other root
    kappa*u*v - 2*cross*(u + v) - w: an integer, and a root of the same
    equation, so every child of an integral triple on the surface is one
    too, in any order of its entries.
    """
    if depth is None and max_component is None:
        raise DomainError("either depth or max_component must be given")

    def admitted(values: tuple[int, int, int]) -> bool:
        return max_component is None or max(abs(v) for v in values) <= max_component

    if not admitted(root.values):
        return []
    s = root.surface
    bits = sum(v.bit_length() for v in root.values)
    out = [TreeNode(root, None, 0)]
    seen = {root.values}
    frontier = [0]  # positions in ``out`` of the previous level
    level = 0
    while frontier and (depth is None or level < depth):
        level += 1
        emitted = []
        for parent in frontier:
            for child, label in _children(s, out[parent].triple.values):
                canon = tuple(sorted(child))
                if canon in seen or not admitted(canon):
                    continue
                seen.add(canon)
                a, b, c = canon
                bits += a.bit_length() + b.bit_length() + c.bit_length()
                if bits > MAX_TREE_BITS:
                    raise DomainError(
                        f"the tree passes MAX_TREE_BITS = {MAX_TREE_BITS} bits in its triples:"
                        " give a smaller depth or max_component"
                    )
                emitted.append((canon, label, parent))
        emitted.sort()
        frontier = list(range(len(out), len(out) + len(emitted)))
        out.extend(
            TreeNode(CanonicalTriple._vieta_child(canon, s), label, level, parent)
            for canon, label, parent in emitted
        )
    return out


MARKOV_ROOT = CanonicalTriple((1, 1, 1), FRICKE)
DOUBLE_ROOT = CanonicalTriple((1, 1, 1), DOUBLE)


class FrobeniusReport(Record):
    __slots__ = _fields = ("max_component", "by_largest", "duplicates")

    def __init__(
        self,
        max_component: int,
        by_largest: dict[int, list[CanonicalTriple]],
        duplicates: dict[int, list[CanonicalTriple]],
    ) -> None:
        _set_max_component(self, max_component)
        _set_by_largest(self, by_largest)
        _set_duplicates(self, duplicates)

    @property
    def counterexample_found(self) -> bool:
        return bool(self.duplicates)


_set_max_component, _set_by_largest, _set_duplicates = _setters(FrobeniusReport)


def frobenius_scan(max_component: int) -> FrobeniusReport:
    """Evidence scan for the Frobenius uniqueness property.

    Groups all canonical positive Markov triples with largest component
    <= the bound by that largest component and flags any collision.  It
    reports findings only; the conjecture itself stays open.
    """
    if max_component < 2:
        raise DomainError("max_component must be at least 2")
    nodes = generate(MARKOV_ROOT, max_component=max_component)
    by_largest: dict[int, list[CanonicalTriple]] = {}
    for node in nodes:
        by_largest.setdefault(node.triple.largest, []).append(node.triple)
    duplicates = {key: ts for key, ts in by_largest.items() if len(ts) > 1}
    return FrobeniusReport(max_component, by_largest, duplicates)


def fundamental_points(n0: int) -> list[CanonicalTriple]:
    """All canonical positive Markov triples whose largest component is n0."""
    nodes = generate(MARKOV_ROOT, max_component=n0)
    return [node.triple for node in nodes if node.triple.largest == n0]


def fundamental_point(n0: int) -> CanonicalTriple:
    """A triple with maximum n0, usable as a section base point.

    Uniqueness of the match is exactly the Frobenius statement; this
    returns the first hit and leaves uniqueness to ``fundamental_points``.
    """
    matches = fundamental_points(n0)
    if not matches:
        raise NotAMarkovNumber(
            f"{format_rational(n0)} is not the maximum of any Markov triple searched"
        )
    return matches[0]
