"""Every name that the package or one of its modules exports resolves, and
every function or class a module exports, every public method of a class
the package defines, and every attribute the package stores on `self`, is
used; no module reads a private attribute that another module defines;
and no module but `graded` tests whether a value is an integer argument.

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

# Attributes stored on `self` that nothing in the package reads, each with
# the reason it stays.
WRITE_ONLY = {}


def package_sources():
    """(path, syntax tree) of each module of the package."""
    for path in sorted(Path(homotopyalg.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


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
    for _, tree in package_sources():
        for node in ast.walk(tree):
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


def test_every_stored_attribute_is_read():
    # a field that the package writes and never reads is state to delete:
    # each name assigned as `self.<name>` must be loaded as an attribute
    # (`<anything>.<name>`) somewhere in the package
    stored, loaded = {}, set()
    for path, tree in package_sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
    write_only = {name: where for name, where in stored.items()
                  if name not in loaded}
    assert write_only.keys() == WRITE_ONLY.keys(), write_only


def test_no_module_reads_a_private_attribute_of_another():
    # a `_`-prefixed attribute is read only in the module that defines it,
    # as a function, a method or an assignment on `self`: a rule another
    # module needs gets a public name instead of a second way in
    reads = {}
    for path, tree in package_sources():
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                defined.add(node.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load) \
                    and node.attr.startswith("_") \
                    and not node.attr.endswith("__") \
                    and node.attr not in defined:
                reads.setdefault(path.name, set()).add(node.attr)
    assert reads == {}


def integer_type_tests(tree):
    """(line, function) of each `type(x) is int`, `type(x) is not int`,
    `isinstance(x, int)` and `isinstance(x, bool)` in a syntax tree, with
    the name of the function around it (None at module level).  The
    `isinstance` forms count wherever the type appears in the second
    argument, a tuple of types included."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) \
                and isinstance(node.left, ast.Call) \
                and isinstance(node.left.func, ast.Name) \
                and node.left.func.id == "type" \
                and any(isinstance(op, (ast.Is, ast.IsNot))
                        and isinstance(right, ast.Name) and right.id == "int"
                        for op, right in zip(node.ops, node.comparators)):
            found.append((node.lineno, function))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2 \
                and any(isinstance(t, ast.Name) and t.id in ("int", "bool")
                        for t in ast.walk(node.args[1])):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_integer_arguments_are_tested_in_graded_alone():
    # what an integer argument and a bound are is written once, in
    # `graded.is_integer` and `graded.is_bound`: `isinstance(x, int)` also
    # accepts a bool.  `documents._parse_rational` keeps its own `bool` and
    # `int` tests, since a coefficient is not an integer argument and may
    # be a Fraction
    copies = {}
    for path, tree in package_sources():
        for line, function in integer_type_tests(tree):
            if path.name == "graded.py" or (path.name, function) == \
                    ("documents.py", "_parse_rational"):
                continue
            copies.setdefault(path.name, []).append(line)
    assert copies == {}
