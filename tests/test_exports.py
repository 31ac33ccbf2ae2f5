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


@pytest.mark.parametrize("module, name", [
    ("ospde.stochastics", "coarsen"), ("ospde.verify", "refinement_study"),
    ("ospde.verify", "penalization_sweep"), ("ospde.verify", "PenalizationReport")])
def test_experiments_are_exported(module, name):
    assert name in importlib.import_module(module).__all__
    assert getattr(ospde, name) is getattr(importlib.import_module(module), name)
