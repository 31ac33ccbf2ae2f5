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


@pytest.mark.parametrize("module, path", [
    ("ospde.lcp", "spla.splu"), ("ospde.lcp", "spla.spsolve"), ("ospde.solver", "spla.splu")])
def test_traced_scipy_sites_resolve(module, path):
    """The benchmark's per-layer tracer wraps scipy's solvers through the
    ``spla`` attribute of the modules that call them; without it the
    layer's metrics read null."""
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_traced_kernel_resolves_through_solver():
    """The tracer wraps the obstacle-step kernel as ``ospde.solver.psor``."""
    import ospde.lcp
    import ospde.solver

    assert ospde.solver.psor is ospde.lcp.psor
