"""Every public law of the package is importable from ``frickelab`` itself.

The public names are the functions and classes that ``fricke``,
``sections``, ``double_fricke`` and ``tree`` define, and every ``f2_*`` or
``F2*`` alias of the double surface.  ``DomainError`` subclasses are reached
through their module, and the names these modules import from ``exact``
are exported from there.
"""
import inspect

import pytest

import frickelab
from frickelab import double_fricke, fricke, sections, tree
from frickelab.exact import DomainError


def _public(module):
    for name, value in vars(module).items():
        if name.startswith("_") or (inspect.isclass(value) and issubclass(value, DomainError)):
            continue
        law = inspect.isfunction(value) or inspect.isclass(value)
        if (law and value.__module__ == module.__name__) or name.startswith(("f2_", "F2")):
            yield module, name


PUBLIC = [pair for module in (fricke, sections, double_fricke, tree) for pair in _public(module)]


def test_public_names_found():
    names = {name for _, name in PUBLIC}
    assert names >= {"compose", "ta_power", "f2_compose", "F2Point", "generate"}


@pytest.mark.parametrize("module, name", PUBLIC, ids=lambda v: getattr(v, "__name__", v))
def test_exported(module, name):
    assert getattr(frickelab, name, None) is getattr(module, name)
