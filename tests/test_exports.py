"""Every name a bilap module exports in __all__ exists: ``import *`` and the
benchmark's call tracer read __all__, so a stale export must fail here."""

import importlib
import pkgutil

import pytest

import bilap

MODULES = ["bilap"] + [f"bilap.{m.name}" for m in pkgutil.iter_modules(bilap.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
