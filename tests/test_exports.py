"""Every bilap module with __all__ exports exactly its public functions and
classes: ``import *`` and the benchmark's call tracer read __all__, so a stale
export, or a public name left out of it, must fail here."""

import importlib
import inspect
import pkgutil

import pytest

import bilap

MODULES = ["bilap"] + [f"bilap.{m.name}" for m in pkgutil.iter_modules(bilap.__path__)]
EXPORTING = [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", EXPORTING)
def test_public_names_are_exported(name):
    module = importlib.import_module(name)
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name]
    assert sorted(set(defined) - set(module.__all__)) == []
