"""Every name that the package or one of its modules exports resolves.

The stage tracer of the bench harness (`perfbench/traced.py`) reads each
module's `__all__` and looks every name up, so a stale entry breaks it as
surely as it breaks `from homotopyalg.<module> import *`.
"""

import importlib
import pkgutil

import pytest

import homotopyalg

MODULES = ["homotopyalg"] + [
    f"homotopyalg.{info.name}"
    for info in pkgutil.iter_modules(homotopyalg.__path__)
    if info.name not in ("__main__", "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "repeated name"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
