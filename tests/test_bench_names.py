"""Every name the benchmark's tracer wraps still exists in frickelab.

``perfbench/trace.py`` wraps functions by (module, attribute) name; a
renamed function would break ``perfbench/run.py --trace 1``.  The module is
loaded by path and only its name table is read: no tracer is installed.
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
