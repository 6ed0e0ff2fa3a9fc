"""Every exported name resolves, so a deleted function cannot linger as an export.

A name left in a module's `__all__` after its definition is gone imports
fine until someone star-imports the module; a name the package imports
from a module fails only on import.  Both are checked here, module by
module, straight from the sources.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sybil_atsc

MODULES = sorted(m.name for m in pkgutil.iter_modules(sybil_atsc.__path__))


def _package_imports():
    """(module, name) for each name `sybil_atsc/__init__.py` imports from
    one of its modules."""
    tree = ast.parse(Path(sybil_atsc.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_the_package_has_modules_and_imports():
    assert "controllers" in MODULES and "sim" in MODULES
    assert ("controllers", "build_controller") in _package_imports()


@pytest.mark.parametrize("module", MODULES)
def test_each_name_in_all_resolves(module):
    mod = importlib.import_module(f"sybil_atsc.{module}")
    names = getattr(mod, "__all__", ())
    assert len(names) == len(set(names)), f"{module}.__all__ repeats a name"
    assert [name for name in names if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module, name", _package_imports())
def test_each_package_import_resolves(module, name):
    mod = importlib.import_module(f"sybil_atsc.{module}")
    assert getattr(sybil_atsc, name) is getattr(mod, name)
    # a module that lists its public names lists every one the package takes
    assert name in getattr(mod, "__all__", (name,))
