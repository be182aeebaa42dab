"""Markov-triple tree enumeration and the Frobenius uniqueness scan.

Triples are deduplicated by canonical (sorted) form; breadth-first
expansion under the surface's Vieta moves plus permutations makes the
output deterministic: ordered by depth, then lexicographically.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exact import SURFACES, DomainError, surface_defect


class RootOffSurface(DomainError):
    pass


class NotAMarkovNumber(DomainError):
    pass


@dataclass(frozen=True, slots=True)
class CanonicalTriple:
    """Integer triple sorted ascending, tagged by its surface."""

    values: tuple[int, int, int]
    surface: str = "fricke"

    def __post_init__(self) -> None:
        if self.surface not in SURFACES:
            raise ValueError(f"unknown surface id: {self.surface!r}")
        if tuple(sorted(self.values)) != self.values:
            raise ValueError(f"{self.values} is not sorted")
        if surface_defect(self.surface, self.values) != 0:
            raise RootOffSurface(f"{self.values} is not on {self.surface}")

    @property
    def largest(self) -> int:
        return self.values[2]


def canonical(values, surface: str = "fricke") -> CanonicalTriple:
    return CanonicalTriple(tuple(sorted(int(v) for v in values)), surface)


@dataclass(frozen=True, slots=True)
class TreeNode:
    triple: CanonicalTriple
    via: str | None  # which coordinate the Vieta move replaced; None at the root
    depth: int
    parent: int | None = None  # position of the parent node in generate's list


def _children(surface: str, t: tuple[int, int, int]):
    s = SURFACES[surface]
    a, b, c = t
    yield (s.other_root(b, c, a), b, c), "x"
    yield (a, s.other_root(a, c, b), c), "y"
    yield (a, b, s.other_root(a, b, c)), "z"


def generate(
    surface: str,
    root: CanonicalTriple,
    *,
    depth: int | None = None,
    max_component: int | None = None,
) -> list[TreeNode]:
    """Breadth-first Vieta tree from ``root``, deduplicated canonically.

    ``depth`` bounds the number of generator applications;
    ``max_component`` prunes every triple whose largest absolute entry
    exceeds the bound (valid because components only grow away from the
    root).  At least one limit is required.  Each node records the
    position of the node it was first reached from.
    """
    if root.surface != surface:
        raise RootOffSurface(f"root {root} is not tagged for {surface}")
    if depth is None and max_component is None:
        raise DomainError("either depth or max_component must be given")

    def admitted(values: tuple[int, int, int]) -> bool:
        return max_component is None or max(abs(v) for v in values) <= max_component

    if not admitted(root.values):
        return []
    out = [TreeNode(root, None, 0)]
    seen = {root.values}
    frontier = [0]  # positions in ``out`` of the previous level
    level = 0
    while frontier and (depth is None or level < depth):
        level += 1
        emitted = []
        for parent in frontier:
            for child, label in _children(surface, out[parent].triple.values):
                canon = tuple(sorted(child))
                if canon in seen or not admitted(canon):
                    continue
                seen.add(canon)
                emitted.append((canon, label, parent))
        emitted.sort()
        frontier = list(range(len(out), len(out) + len(emitted)))
        out.extend(
            TreeNode(CanonicalTriple(canon, surface), label, level, parent)
            for canon, label, parent in emitted
        )
    return out


MARKOV_ROOT = CanonicalTriple((1, 1, 1), "fricke")
DOUBLE_ROOT = CanonicalTriple((1, 1, 1), "double")


@dataclass(frozen=True, slots=True)
class FrobeniusReport:
    max_component: int
    by_largest: dict[int, list[CanonicalTriple]]
    duplicates: dict[int, list[CanonicalTriple]]

    @property
    def counterexample_found(self) -> bool:
        return bool(self.duplicates)


def frobenius_scan(max_component: int) -> FrobeniusReport:
    """Evidence scan for the Frobenius uniqueness property.

    Groups all canonical positive Markov triples with largest component
    <= the bound by that largest component and flags any collision.  It
    reports findings only; the conjecture itself stays open.
    """
    if max_component < 2:
        raise DomainError("max_component must be at least 2")
    nodes = generate("fricke", MARKOV_ROOT, max_component=max_component)
    by_largest: dict[int, list[CanonicalTriple]] = {}
    for node in nodes:
        by_largest.setdefault(node.triple.largest, []).append(node.triple)
    duplicates = {key: ts for key, ts in by_largest.items() if len(ts) > 1}
    return FrobeniusReport(max_component, by_largest, duplicates)


def fundamental_points(n0: int) -> list[CanonicalTriple]:
    """All canonical positive Markov triples whose largest component is n0."""
    nodes = generate("fricke", MARKOV_ROOT, max_component=n0)
    return [node.triple for node in nodes if node.triple.largest == n0]


def fundamental_point(n0: int) -> CanonicalTriple:
    """A triple with maximum n0, usable as a section base point.

    Uniqueness of the match is exactly the Frobenius statement; this
    returns the first hit and leaves uniqueness to ``fundamental_points``.
    """
    matches = fundamental_points(n0)
    if not matches:
        raise NotAMarkovNumber(f"{n0} is not the maximum of any Markov triple searched")
    return matches[0]
