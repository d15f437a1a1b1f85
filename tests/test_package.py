"""Package surface: every exported name resolves; the plain layers stand alone."""

import ast
import importlib
import inspect
import pkgutil
import textwrap
from pathlib import Path

import pytest

import purefb
from purefb.scenarios import Scenario

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


@pytest.mark.parametrize("name", [m for m in MODULES if m != "scenarios"])
def test_only_scenarios_names_a_controller_mode(name):
    """scenarios picks numeric-2d's law once, at build time; no other module
    asks which mode a scenario or a stack is in."""
    path = importlib.import_module("purefb." + name).__file__
    modes = set(importlib.import_module("purefb.scenarios").MODES)
    named = [(node.lineno, node.value) for node in ast.walk(ast.parse(Path(path).read_text()))
             if isinstance(node, ast.Constant) and node.value in modes]
    assert named == []


def source_of(name):
    return Path(importlib.import_module("purefb." + name).__file__)


def used_names(tree):
    """Each name, attribute and imported name of a syntax tree, with its line."""
    for node in ast.walk(tree):
        for used in (getattr(node, "id", None), getattr(node, "attr", None),
                     node.name if isinstance(node, ast.alias) else None):
            if used is not None:
                yield getattr(node, "lineno", None), used


OUTSIDE = [source_of(m) for m in MODULES if m != "scenarios"] + sorted(
    Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", OUTSIDE, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_only_scenarios_names_a_factory(path):
    """scenarios.build is the one way to a scenario, and the one place that
    types its keywords: no other module or test reaches a factory."""
    named = [(line, name) for line, name in used_names(ast.parse(path.read_text()))
             if name in ("_numeric2d", "_stt_missile")]
    assert named == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "scenarios"])
def test_only_scenarios_constructs_a_scenario(name):
    """A Scenario built past a factory would skip the typing rule."""
    calls = [node.lineno for node in ast.walk(ast.parse(source_of(name).read_text()))
             if isinstance(node, ast.Call) and "Scenario" in [n for _, n in used_names(node.func)]]
    assert calls == []


def test_scenario_converts_no_field():
    """build hands Scenario every value typed, so it converts none."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(Scenario.__post_init__)))
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert "float" not in calls and "int" not in calls


def test_only_the_front_end_errors_are_value_errors():
    """A rejected value is a plain ValueError.  Only config.ConfigError,
    which runstore.load_run tells apart, and runstore.RunStoreError, a
    registry fault, subclass it; each class is followed through its bases."""
    bases = {(m, node.name): {name for base in node.bases for _, name in used_names(base)}
             for m in MODULES for node in ast.walk(ast.parse(source_of(m).read_text()))
             if isinstance(node, ast.ClassDef)}
    errors = {"ValueError"}
    while True:
        found = {key for key, names in bases.items() if names & errors}
        if {name for _, name in found} <= errors:
            break
        errors |= {name for _, name in found}
    assert found == {("config", "ConfigError"), ("runstore", "RunStoreError")}


REGISTRY_FILES = ("config.cfg", "trajectory.csv", "trajectory.npy", "summary.json",
                  "record.json", "report.json")


def test_only_runstore_files_names_a_registry_file():
    """runstore.FILES is the one list of a run directory's files: in
    src/purefb each of their names is a string constant exactly once,
    as a value of that table."""
    named = sorted((path.stem, node.value) for path in Path(purefb.__file__).parent.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant) and node.value in REGISTRY_FILES)
    assert named == sorted(("runstore", name) for name in REGISTRY_FILES)
    (table,) = [node.value for node in ast.parse(source_of("runstore").read_text()).body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "FILES"]
    assert set(REGISTRY_FILES) <= {value.value for value in table.values}


def private_reads(name):
    """(module, name) of each private name that module ``name`` reads from
    another purefb module, as ``from .m import _x`` or ``m._x``."""
    tree = ast.parse(source_of(name).read_text())
    bound, reads = {}, []  # bound: local name -> the purefb module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
            else:
                reads += [(node.module, alias.name) for alias in node.names]
    reads += [(bound[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound]
    return [(m, x) for m, x in reads if x.startswith("_") and not x.startswith("__")]


def defined_names(name):
    """The names module ``name`` defines at its top level, imports aside."""
    found = set()
    for node in ast.parse(source_of(name).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return found


@pytest.mark.parametrize("name", MODULES)
def test_a_private_name_is_read_where_it_is_defined(name):
    """A private name has one home: a module that reads one from another
    reads it from the module that defines it, never through one that only
    imports it."""
    assert [(m, x) for m, x in private_reads(name) if x not in defined_names(m)] == []


def test_private_reads_sees_both_forms():
    assert {("simkit", "_check"), ("simkit", "_typed")} <= set(private_reads("verify"))
    assert ("config", "_BY_NAME") in private_reads("cli")  # config imported as configmod
