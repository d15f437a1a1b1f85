"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import purefb

MODULES = sorted(m.name for m in pkgutil.iter_modules(purefb.__path__))


@pytest.mark.parametrize("name", ["purefb"] + ["purefb." + m for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec("from %s import *" % name, {})
