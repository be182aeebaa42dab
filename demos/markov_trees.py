"""Markov triple trees, the squared correspondence, and the Frobenius scan.

Run with: python3 demos/markov_trees.py
"""
from frickelab import (
    DOUBLE_ROOT,
    F2Point,
    MARKOV_ROOT,
    frobenius_scan,
    fundamental_point,
    generate,
    negative_tree,
    sqrt_descend,
)

print("Markov triples with all components <= 1000")
print("=" * 56)
for node in generate(MARKOV_ROOT, max_component=1000):
    print(f"  depth {node.depth}: {node.triple.values}")

print()
print("The double tree is the Markov tree, squared coordinatewise")
print("=" * 56)
for node in generate(DOUBLE_ROOT, max_component=1000**2):
    print(f"  {node.triple.values}  <-  {sqrt_descend(F2Point(*node.triple.values))}")

print()
print("Negative integral solutions of (x+y+z)^2 = 9xyz, from (-1,0,1)")
print("=" * 56)
for t in negative_tree(1, 3):
    print(f"  {t}")

print()
print("Frobenius uniqueness scan (evidence only, the conjecture is open)")
print("=" * 56)
report = frobenius_scan(10**6)
print(f"  triples with largest component <= 10^6: {len(report.by_largest)}")
print(f"  duplicated largest components: {len(report.duplicates)}")

print()
print("Largest component -> its (conjecturally unique) triple")
print("=" * 56)
for n in (1, 2, 5, 13, 29, 433):
    print(f"  {n:>4} -> {fundamental_point(n).values}")
