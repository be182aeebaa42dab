"""The sixteen records of the package behave as frozen value records.

Each is a plain slotted class over ``exact.Record``.  These tests pin what
the records did as frozen slotted dataclasses: the repr of each class, a
hash equal to that of the tuple of its compared fields, eq only within
one class, no assignment or deletion, copies and pickles that keep the
type, the value and a point's ``form``, and a ``replace`` that validates
its result and refuses ``form``.
"""
import copy
import pickle
from fractions import Fraction

import pytest

from frickelab import (
    DOUBLE,
    FRICKE,
    CanonicalTriple,
    F2Point,
    F2SectionFrame,
    Finite,
    FrickePoint,
    FrickeSurface,
    Infinite,
    LineParameter,
    ProjectivePoint,
    SectionFrame,
    SectionPoint,
    Surface,
    SurfacePoint,
    TreeNode,
    Undefined,
    frobenius_scan,
    make_quadratic,
    replace,
)
from frickelab.exact import OffSurface
from frickelab.sections import OffSection
from frickelab.tree import RootOffSurface

FRICKE_REPR = "Surface(name='fricke', kappa=3, cross=0, sigma=Fraction(0, 1))"
DOUBLE_REPR = "Surface(name='double', kappa=9, cross=1, sigma=Fraction(0, 1))"
ONE_REPR = f"FrickePoint(x=Fraction(1, 1), y=Fraction(1, 1), z=Fraction(1, 1), surface={FRICKE_REPR})"
FRAME_REPR = (
    f"SectionFrame(m0=Fraction(1, 1), n0=Fraction(5, 1), k0=Fraction(2, 1), surface={FRICKE_REPR})"
)
TRIPLE_REPR = f"CanonicalTriple(values=(1, 2, 5), surface={FRICKE_REPR})"


def triples_repr(*triples):
    return "[" + ", ".join(f"CanonicalTriple(values={t}, surface={FRICKE_REPR})" for t in triples) + "]"


# class name: (a record, its compared fields, its repr as the dataclasses wrote it)
RECORDS = {
    "ProjectivePoint": (ProjectivePoint((1, 2, 0)), ("coords",), "ProjectivePoint(coords=(1, 2, 0))"),
    "QuadraticIrrational": (
        make_quadratic(Fraction(1, 2), 3, 5),
        ("a", "b", "d", "c"),
        "QuadraticIrrational(a=1, b=6, d=5, c=2)",
    ),
    "Surface": (
        FrickeSurface(Fraction(-4, 3)),
        ("name", "kappa", "cross", "sigma"),
        "Surface(name='fricke', kappa=3, cross=0, sigma=Fraction(-4, 3))",
    ),
    "LineParameter": (LineParameter(Fraction(-2, 3)), ("t",), "LineParameter(t=Fraction(-2, 3))"),
    "SurfacePoint": (
        SurfacePoint(1, 2, 3, FrickeSurface(-4)),
        ("x", "y", "z", "surface"),
        "SurfacePoint(x=Fraction(1, 1), y=Fraction(2, 1), z=Fraction(3, 1), "
        "surface=Surface(name='fricke', kappa=3, cross=0, sigma=Fraction(-4, 1)))",
    ),
    "FrickePoint": (FrickePoint(1, 1, 1), ("x", "y", "z", "surface"), ONE_REPR),
    "Finite": (Finite(FrickePoint(1, 1, 1)), ("point",), f"Finite(point={ONE_REPR})"),
    "Infinite": (
        Infinite(ProjectivePoint((0, 1, -1, 0))),
        ("point",),
        "Infinite(point=ProjectivePoint(coords=(0, 1, -1, 0)))",
    ),
    "Undefined": (Undefined("coincident-points"), ("reason",), "Undefined(reason='coincident-points')"),
    "SectionFrame": (SectionFrame(1, 5, 2), ("m0", "n0", "k0", "surface"), FRAME_REPR),
    "SectionPoint": (
        SectionPoint(2, 29, SectionFrame(1, 5, 2)),
        ("x", "z", "frame"),
        f"SectionPoint(x=Fraction(2, 1), z=Fraction(29, 1), frame={FRAME_REPR})",
    ),
    "F2Point": (
        F2Point(1, 4, 25),
        ("x", "y", "z", "surface"),
        f"F2Point(x=Fraction(1, 1), y=Fraction(4, 1), z=Fraction(25, 1), surface={DOUBLE_REPR})",
    ),
    "F2SectionFrame": (
        F2SectionFrame(1, 4, 25),
        ("m0", "n0", "k0", "surface"),
        f"F2SectionFrame(m0=Fraction(1, 1), n0=Fraction(4, 1), k0=Fraction(25, 1), surface={DOUBLE_REPR})",
    ),
    "CanonicalTriple": (CanonicalTriple((1, 2, 5)), ("values", "surface"), TRIPLE_REPR),
    "TreeNode": (
        TreeNode(CanonicalTriple((1, 2, 5)), "z", 2, 1),
        ("triple", "via", "depth", "parent"),
        f"TreeNode(triple={TRIPLE_REPR}, via='z', depth=2, parent=1)",
    ),
    "FrobeniusReport": (
        frobenius_scan(5),
        ("max_component", "by_largest", "duplicates"),
        "FrobeniusReport(max_component=5, by_largest={1: "
        + triples_repr((1, 1, 1))
        + ", 2: "
        + triples_repr((1, 1, 2))
        + ", 5: "
        + triples_repr((1, 2, 5))
        + "}, duplicates={})",
    ),
}
NAMES = list(RECORDS)
WITH_FORM = ("SurfacePoint", "FrickePoint", "SectionFrame", "SectionPoint", "F2Point", "F2SectionFrame")


def values(name):
    record, fields, _repr = RECORDS[name]
    return tuple(getattr(record, field) for field in fields)


def test_sixteen_classes():
    assert len({type(record) for record, _fields, _repr in RECORDS.values()}) == 16
    assert all(type(RECORDS[name][0]).__name__ == name for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    record, _fields, shown = RECORDS[name]
    assert repr(record) == shown


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_that_of_the_compared_fields(name):
    record = RECORDS[name][0]
    if name == "FrobeniusReport":  # its fields hold dicts: unhashable, as before
        for value in (record, values(name)):
            with pytest.raises(TypeError):
                hash(value)
        return
    assert hash(record) == hash(values(name))


def test_eq_only_within_one_class():
    # equal fields in two classes: unequal, as dataclasses compared them
    assert FrickePoint(1, 1, 1) != SurfacePoint(1, 1, 1, FRICKE)
    assert SurfacePoint(1, 1, 1, FRICKE) != FrickePoint(1, 1, 1)
    assert F2Point(1, 4, 25) != SurfacePoint(1, 4, 25, DOUBLE)
    assert F2SectionFrame(1, 4, 25) != SectionFrame(1, 4, 25, DOUBLE)
    assert Finite(FrickePoint(1, 1, 1)) != Infinite(ProjectivePoint((0, 1, -1, 0))) != Undefined("x")
    assert FrickePoint(1, 1, 1) != (1, 1, 1) and (1, 1, 1) != FrickePoint(1, 1, 1)
    records = [record for record, _fields, _repr in RECORDS.values()]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j) and (a != b) is (i != j)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_are_equal_records(name):
    record = RECORDS[name][0]
    twin = type(record)(*values(name))
    assert twin is not record and twin == record and not twin != record
    if name != "FrobeniusReport":
        assert hash(twin) == hash(record)


@pytest.mark.parametrize("name", NAMES)
def test_no_assignment_or_deletion(name):
    record, fields, _repr = RECORDS[name]
    for attr in (*fields, "form", "other"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert values(name) == tuple(getattr(record, field) for field in fields)


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_keep_type_value_and_form(name):
    record = RECORDS[name][0]
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(other) is type(record) and other == record and repr(other) == repr(record)
        if name in WITH_FORM:
            assert other.form == record.form


@pytest.mark.parametrize("name", NAMES)
def test_replace_without_changes(name):
    record = RECORDS[name][0]
    again = replace(record)
    assert type(again) is type(record) and again == record and again is not record
    if name in WITH_FORM:
        assert again.form == record.form


@pytest.mark.parametrize("name", NAMES)
def test_replace_refuses_form_and_unknown_names(name):
    record = RECORDS[name][0]
    for attr in ("form", "other"):
        with pytest.raises(TypeError, match=f"no field '{attr}'"):
            replace(record, **{attr: (0, 0, 0, 1)})


@pytest.mark.parametrize(
    "record, changes, error",
    [
        (FrickePoint(1, 1, 1), {"x": 3}, OffSurface),
        (F2Point(1, 4, 25), {"surface": FRICKE}, OffSurface),
        (SectionFrame(1, 5, 2), {"k0": 3}, OffSection),
        (SectionPoint(2, 29, SectionFrame(1, 5, 2)), {"z": 30}, OffSection),
        (CanonicalTriple((1, 2, 5)), {"values": (2, 1, 5)}, ValueError),
        (CanonicalTriple((1, 2, 5)), {"surface": DOUBLE}, RootOffSurface),
        (ProjectivePoint((1, 2, 0)), {"coords": (2, 4, 0)}, ValueError),
        (make_quadratic(0, 1, 5), {"d": 4}, ValueError),
        (Infinite(ProjectivePoint((0, 1, -1, 0))), {"point": ProjectivePoint((1, 1, 1, 1))}, ValueError),
    ],
    ids=[
        "point-off-surface",
        "point-on-another-surface",
        "frame-off-surface",
        "section-point-off-section",
        "triple-unsorted",
        "triple-on-another-surface",
        "projective-not-primitive",
        "radicand-square",
        "infinite-finite-point",
    ],
)
def test_replace_validates(record, changes, error):
    with pytest.raises(error):
        replace(record, **changes)


def test_replace_changes_fields():
    p = FrickePoint(1, 2, 5)
    swapped = replace(p, x=p.y, y=p.x)
    assert swapped == FrickePoint(2, 1, 5) and swapped.form == (2, 1, 5, 1)
    assert replace(FRICKE, sigma=Fraction(-4)) == FrickeSurface(-4) == Surface("fricke", 3, 0, Fraction(-4))
    node = replace(RECORDS["TreeNode"][0], parent=None)
    assert (node.parent, node.depth) == (None, 2)
