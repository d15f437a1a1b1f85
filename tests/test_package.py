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


@pytest.mark.parametrize("name", ["purefb.tape", "purefb.simkit", "purefb.autodiff"])
def test_plain_layers_import_no_purefb_module(name):
    """The tape compiles any traced function, simkit steps any rhs and
    autodiff differentiates over any scalar with its own primitives: none
    knows another purefb module."""
    assert purefb_imports(name) == set()


def test_only_the_compilers_callers_import_the_tracer():
    """Every other module is generic over its scalar and never names the
    tracer; scenarios calls compile_loop, verify compile_lanes."""
    tracer = {".tape", "purefb.tape"}
    assert {m for m in MODULES if purefb_imports("purefb." + m) & tracer} == {"scenarios", "verify"}


LIBRARY = ["autodiff", "backstep", "missile", "plant", "scenarios", "simkit",
           "svgplot", "tape", "verify"]


@pytest.mark.parametrize("name", ["purefb." + m for m in LIBRARY])
def test_library_imports_no_front_end_module(name):
    """The front end (config, runstore, cli) reads the library, never the
    reverse: the config schema takes its defaults from library keywords."""
    front = {prefix + m for prefix in (".", "purefb.")
             for m in ("config", "runstore", "cli")}
    assert purefb_imports(name) & front == set()


def test_purefb_imports_sees_relative_imports():
    assert {".simkit", ".tape"} <= purefb_imports("purefb.scenarios")


@pytest.mark.parametrize("name", [m for m in MODULES if m != "scenarios"])
def test_only_scenarios_names_a_scenario_id(name):
    """Which keys and sweeps a scenario takes is read from its factory's
    keywords, so no other module spells out a scenario id."""
    path = importlib.import_module("purefb." + name).__file__
    ids = set(importlib.import_module("purefb.scenarios").SCENARIO_IDS)
    named = [node.value for node in ast.walk(ast.parse(Path(path).read_text()))
             if isinstance(node, ast.Constant) and node.value in ids]
    assert named == []
