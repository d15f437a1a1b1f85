"""Package surface: every exported name resolves; the plain layers stand alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import purefb

MODULES = sorted(m.name for m in pkgutil.iter_modules(purefb.__path__))


@pytest.mark.parametrize("name", ["purefb"] + ["purefb." + m for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec("from %s import *" % name, {})


def purefb_imports(name):
    """The purefb modules that module ``name`` imports, by its source."""
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from . import x, from .x import y
                found.update(["." + node.module] if node.module else
                             ["." + alias.name for alias in node.names])
            elif node.module.split(".")[0] == "purefb":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "purefb")
    return found


@pytest.mark.parametrize("name", ["purefb.tape", "purefb.simkit"])
def test_plain_layers_import_no_purefb_module(name):
    """The tape compiles any traced function and simkit steps any rhs:
    neither knows another purefb module."""
    assert purefb_imports(name) == set()


def test_purefb_imports_sees_relative_imports():
    assert {".simkit", ".tape"} <= purefb_imports("purefb.scenarios")
