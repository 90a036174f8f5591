"""Every bilap module with __all__ exports exactly its public functions and
classes: ``import *`` and the benchmark's call tracer read __all__, so a stale
export, or a public name left out of it, must fail here.  So must a break of
the standing rule: every exported name has a caller in the package, the
benchmark or the tools, or an open ROADMAP item claims it."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import bilap

MODULES = ["bilap"] + [f"bilap.{m.name}" for m in pkgutil.iter_modules(bilap.__path__)]
EXPORTING = [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
ROOT = Path(__file__).resolve().parents[1]

# exported names with no caller yet, each with the ROADMAP item that claims it
CLAIMED = {
    "corner_spectrum.dispersion": "8",
    "corner_spectrum.critical_interval": "1 and 8",
    "corner_spectrum.even_derivative_at_zero": "1b",
    "corner_spectrum.angular_profile": "2",
}


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


def _read_names() -> set:
    """Every name read as a Name, an attribute or a from-import in src/bilap,
    bench/ and tools/.  bench/oracle.py never imports bilap, so neither it nor
    its attributes count: its own dispersion and critical_interval are not
    callers."""
    names = set()
    for path in (p for d in ("src/bilap", "bench", "tools") for p in sorted((ROOT / d).rglob("*.py"))):
        if path == ROOT / "bench" / "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id == "oracle"):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller_or_a_claim():
    read = _read_names()
    uncalled = {f"{m.rpartition('.')[2]}.{n}" for m in EXPORTING
                for n in importlib.import_module(m).__all__ if n not in read}
    # a claim whose name is now called, or gone, is stale too
    assert sorted(uncalled) == sorted(CLAIMED)
