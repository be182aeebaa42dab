"""Every name the benchmark's tracer wraps still exists in frickelab.

``perfbench/trace.py`` wraps functions by (module, attribute) name; a
renamed function would break ``perfbench/run.py --trace 1``.  The module is
loaded by path and only its name table is read: no tracer is installed.
A wrapped ``Class.__post_init__`` must also run on each validated
construction of its class, since each record's ``__init__`` calls it by name.
The benchmark's checks read each result through ``plain`` in
``perfbench/workloads.py``, which tells results apart by class name, so a
renamed or merged result class would fail every op that returns it.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

import frickelab
import frickelab.cli  # noqa: F401  (the tracer reads frickelab.cli too)

TRACE_PATH = Path(__file__).parent.parent / "perfbench" / "trace.py"
WORKLOADS_PATH = TRACE_PATH.with_name("workloads.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, attr", _traced(), ids=str)
def test_traced_name_resolves(module, attr):
    target = getattr(frickelab, module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


# a validated construction of each class whose __post_init__ the tracer wraps
BUILDS = {
    "ProjectivePoint": lambda: frickelab.ProjectivePoint((1, 0, 0)),
    "FrickePoint": lambda: frickelab.FrickePoint(1, 1, 1),
    "F2Point": lambda: frickelab.F2Point(1, 4, 25),
    "F2SectionPoint": lambda: frickelab.F2SectionPoint(1, 4, frickelab.F2SectionFrame(1, 1, 4)),
    "SectionPoint": lambda: frickelab.SectionPoint(1, 2, frickelab.SectionFrame(1, 1, 2)),
    "CanonicalTriple": lambda: frickelab.CanonicalTriple((1, 1, 2)),
}


@pytest.mark.parametrize(
    "module, attr", [t for t in _traced() if t[1].endswith(".__post_init__")], ids=str
)
def test_traced_post_init_runs_on_each_validated_construction(monkeypatch, module, attr):
    # the tracer replaces the method on the class; each __init__ must call it by name
    cls_name, method = attr.split(".")
    cls = getattr(getattr(frickelab, module), cls_name)
    original, calls = getattr(cls, method), []

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, method, counted)
    record = BUILDS[cls_name]()
    assert calls == [record] and calls[0] is record


def _plain_names() -> set:
    """The strings that ``plain`` compares with ``name``, its argument's class name."""
    tree = ast.parse(WORKLOADS_PATH.read_text(), filename=str(WORKLOADS_PATH))
    (plain,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "plain"]
    names = set()
    for node in ast.walk(plain):
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id == "name":
            for right in node.comparators:
                for const in right.elts if isinstance(right, ast.Tuple) else [right]:
                    names.add(const.value)
    return names


# one value of each kind that the benchmark's ops return
F, F2, frame = frickelab.FrickePoint, frickelab.F2Point, frickelab.SectionFrame(1, 5, 2)
RESULTS = {
    "finite-fricke": lambda: frickelab.compose(F(2, 1, 1), F(1, 2, 5)),
    "finite-double": lambda: frickelab.f2_compose(F2(4, 1, 1), F2(1, 4, 25)),
    "infinite": lambda: frickelab.compose(F(1, 1, 1), F(1, 2, 1)),
    "undefined": lambda: frickelab.compose(F(1, 1, 1), F(1, 1, 1)),
    "phi": lambda: frickelab.phi(frickelab.ProjectivePoint((1, 1, 2))),
    "quadric-add": lambda: frickelab.quadric_add(
        frame, frickelab.SectionPoint(2, 29, frame), frickelab.SectionPoint(29, 433, frame)
    ),
    "infinity-point": lambda: frickelab.infinity_points(frickelab.SectionFrame(1, 2, 5))[0],
    "line-parameter": lambda: frickelab.line_third_intersection((2, 1, 1), (1, 2, 5), "fricke"),
    "degenerate-cubic": lambda: frickelab.DEGENERATE_CUBIC,
}


@pytest.mark.parametrize("kind", RESULTS)
def test_the_benchmark_reads_each_result_by_its_class_name(kind):
    names = _plain_names()
    value = RESULTS[kind]()
    assert type(value).__name__ in names
    if hasattr(value, "point"):
        assert type(value.point).__name__ in names
