"""Every name the benchmark's tracer wraps still exists in frickelab.

``perfbench/trace.py`` wraps functions by (module, attribute) name; a
renamed function would break ``perfbench/run.py --trace 1``.  The module is
loaded by path and only its name table is read: no tracer is installed.
A wrapped ``Class.__post_init__`` must also run on each validated
construction of its class, since each record's ``__init__`` calls it by name.
"""
import importlib.util
from pathlib import Path

import pytest

import frickelab
import frickelab.cli  # noqa: F401  (the tracer reads frickelab.cli too)

TRACE_PATH = Path(__file__).parent.parent / "perfbench" / "trace.py"


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
