import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import frickelab
from frickelab import (
    F2SectionFrame,
    F2SectionPoint,
    SectionFrame,
    dihedral,
    f2_param_affine,
    f2_quadric_add,
    f2_quadric_inverse,
    param_affine,
    quadric_add,
    quadric_inverse,
    solve_z,
    ta_power,
)
from frickelab.double_fricke import DenominatorVanishes as F2DenominatorVanishes
from frickelab.sections import DenominatorVanishes


def child_env() -> dict:
    """The environment for a child Python: this one's, with the directory that
    holds the frickelab under test first on PYTHONPATH, so that a child process
    imports it also where only pytest's own ``pythonpath`` setting reaches it."""
    src = str(Path(frickelab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@contextmanager
def no_digit_limit():
    """The interpreter's int-str digit limit lifted for the body, for reference
    values; written here so that no test takes it from the package under test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def random_nonzero_rational(rng: random.Random, height: int = 50) -> Fraction:
    num = rng.randint(1, height) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, height))


def random_fricke_pair(rng: random.Random, height: int = 50):
    """Two distinct surface points drawn from the affine chart."""
    while True:
        a = param_affine(random_nonzero_rational(rng, height), random_nonzero_rational(rng, height))
        b = param_affine(random_nonzero_rational(rng, height), random_nonzero_rational(rng, height))
        if a.coords != b.coords:
            return a, b


def random_f2_pair(rng: random.Random, height: int = 50):
    while True:
        a = f2_param_affine(random_nonzero_rational(rng, height), random_nonzero_rational(rng, height))
        b = f2_param_affine(random_nonzero_rational(rng, height), random_nonzero_rational(rng, height))
        if a.coords != b.coords:
            return a, b


def section_point_pool(frame: SectionFrame, rng: random.Random, count: int):
    """Rational section points built by group-law combinations of small
    integral generators, seeded with solve_z hits."""
    O = frame.origin
    gens = [
        dihedral(frame, O, "TA"),
        dihedral(frame, O, "TC"),
        dihedral(frame, O, "B"),
        quadric_inverse(frame, ta_power(frame, O, 2)),
    ]
    for x in range(-6, 7):
        gens.extend(solve_z(frame, x))
    pool = [O]
    acc = O
    while len(pool) < count:
        try:
            acc = quadric_add(frame, acc, rng.choice(gens))
        except DenominatorVanishes:
            acc = O
            continue
        pool.append(acc)
    return pool


def f2_section_point_pool(frame: F2SectionFrame, rng: random.Random, count: int):
    O = frame.origin
    n0 = frame.n0
    # the Vieta involutions on the section keep points integral
    a_img = F2SectionPoint(O.x, 9 * n0 * O.x - 2 * n0 - 2 * O.x - O.z, frame)
    c_img = F2SectionPoint(9 * n0 * O.z - 2 * n0 - 2 * O.z - O.x, O.z, frame)
    gens = [a_img, c_img, F2SectionPoint(O.z, O.x, frame), f2_quadric_inverse(frame, a_img)]
    pool = [O]
    acc = O
    while len(pool) < count:
        try:
            acc = f2_quadric_add(frame, acc, rng.choice(gens))
        except F2DenominatorVanishes:
            acc = O
            continue
        pool.append(acc)
    return pool


def markov_pair(digits: int) -> tuple[int, int]:
    """(b, c) with (1, b, c) a Markov triple and c past ``digits`` digits:
    the odd-Fibonacci branch (1, b, c) -> (1, c, 3c - b)."""
    b, c, limit = 1, 2, 10**digits
    while c < limit:
        b, c = c, 3 * c - b
    return b, c


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20250823)


@pytest.fixture
def digit_limit():
    """A digit limit other than the default for the test; the old one after it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1234)
    yield 1234
    sys.set_int_max_str_digits(limit)
