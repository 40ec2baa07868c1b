"""Every name that the package or one of its modules exports resolves, and
every function or class a module exports, and every public method of a
class the package defines, is used.

The stage tracer of the bench harness (`perfbench/traced.py`) reads each
module's `__all__` and looks every name up, so a stale entry breaks it as
surely as it breaks `from homotopyalg.<module> import *`.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import homotopyalg

MODULES = ["homotopyalg"] + [
    f"homotopyalg.{info.name}"
    for info in pkgutil.iter_modules(homotopyalg.__path__)
    if info.name not in ("__main__", "cli")]

# Exported definitions that nothing in the package refers to, each with the
# reason it stays public.
UNREFERENCED = {}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "repeated name"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_every_exported_definition_is_referenced():
    # a public helper that nothing calls is code to delete: each function
    # or class a module defines and exports must be named (not merely
    # mentioned in a docstring) somewhere in the package, or be exported by
    # the package itself; so must each public method or property of a class
    # a module defines
    referenced = set()
    for path in Path(homotopyalg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = set()
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in module.__all__:
            value = getattr(module, attr)
            if (inspect.isfunction(value) or inspect.isclass(value)) \
                    and value.__module__ == name \
                    and attr not in referenced \
                    and attr not in homotopyalg._EXPORTS:
                unreferenced.add(attr)
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == name:
                unreferenced.update(
                    f"{cls.__name__}.{attr}"
                    for attr, value in vars(cls).items()
                    if not attr.startswith("_") and attr not in referenced
                    and (inspect.isfunction(value)
                         or isinstance(value, property)))
    assert unreferenced == set(UNREFERENCED)
