"""Every name a module of the package exports resolves on that module, so
``from ospde.<module> import *`` works after a deletion."""

import importlib
import pkgutil

import pytest

import ospde

MODULES = sorted(f"ospde.{m.name}" for m in pkgutil.iter_modules(ospde.__path__))


def test_modules_found():
    assert {"ospde.norms", "ospde.persist", "ospde.stochastics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
