"""Per-layer spans recorded from outside the program.

The tracer replaces the public names each ``ospde`` module calls from
another module with timing wrappers, at the site where the caller resolves
them (``ospde.solver.psor``, not ``ospde.lcp.psor``), and puts everything
back afterwards.  Nothing under ``src/`` is edited.  Sites are found by
name at install time: whatever ``ospde.lcp`` exports is wrapped as
``ospde.solver`` sees it, so a renamed or deleted kernel is simply not
found, and its layer reports null instead of failing the run.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Every span checks that its children fit inside it; a
child that outlasts its parent means double wrapping and is counted as a
failed check.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Span name -> (caller module, name) sites.  A name ``scipy:f`` is ``f`` on
# whichever module attribute of the caller provides it (``spla.spsolve``);
# ``ospde.m:prefix*`` is every name in ``ospde.m.__all__`` with that prefix
# that the caller resolves, so the set follows the module's exports.
_SPANS = {
    "cli.main": [("ospde.cli", "main")],
    "config.load": [("ospde.cli", "load_config")],
    "grid.assemble": [("ospde.config", "build_grid"), ("ospde.config", "assemble_operator")],
    "stochastics.gate": [("ospde.cli", "validate_assumptions"),
                         ("ospde.solver", "validate_assumptions"),
                         ("ospde.verify", "validate_assumptions")],
    "stochastics.noise": [("ospde.config", "sample_noise"), ("ospde.verify", "sample_noise")],
    "solver.solve": [(caller, "ospde.solver:solve_*")
                     for caller in ("ospde.cli", "ospde.verify", "ospde.capacity")],
    "solver.splu": [("ospde.solver", "scipy:splu")],
    "lcp": [("ospde.solver", "ospde.lcp:*")],
    "lcp.spsolve": [("ospde.lcp", "scipy:spsolve")],
    "persist.save": [("ospde.cli", "save_run"), ("ospde.cli", "write_rows"),
                     ("ospde.cli", "write_norm_table")],
    "persist.load": [("ospde.cli", "load_run")],
    "norms": [("ospde.cli", "ospde.norms:*")],
    "verify.weak_form": [("ospde.cli", "weak_form_residual")],
    "verify.ito_square": [("ospde.cli", "ito_square_residual")],
    "verify.positive_part": [("ospde.cli", "positive_part_residual")],
    "verify.skorokhod": [("ospde.cli", "skorokhod_defect")],
    "verify.comparison": [("ospde.cli", "comparison_experiment")],
}

# The f, g and h maps of every CoefficientSet built by the config layer.
_COEFF_FACTORY = ("ospde.config", "make_coefficients")
COEFF_SPAN = "stochastics.coeff"
PERSIST_SAVE = "persist.save"


def path_bytes(path) -> int:
    """Size of a file, or of every file under a directory."""
    p = Path(path)
    if p.is_file():
        return p.stat().st_size
    if p.is_dir():
        return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())
    return 0


class _ModuleProxy:
    """Stands in for a module attribute (``spla``) of one caller module so
    that only that caller's calls go through the wrapper."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        try:
            return self._overrides[name]
        except KeyError:
            return getattr(self._target, name)


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = dataclasses.field(default_factory=list)


class Tracer:
    """Installs span wrappers, accumulates per-layer stats, restores."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.missing: set[str] = set()
        self.nesting_violations = 0
        self.solve_iterations = 0
        self.solve_steps = 0
        self.bytes_written = 0
        self._stack: list[list[float]] = []
        self._undo: list = []
        self._patched: set = set()

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None, measure_bytes=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = path_bytes(args[0]) if measure_bytes and args else 0
            children = [0.0]
            tracer._stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                if children[0] > elapsed + 1e-9:
                    tracer.nesting_violations += 1
                st = tracer.stats[name]
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - children[0]
                st.durations.append(elapsed)
            if measure_bytes and args:
                tracer.bytes_written += path_bytes(args[0]) - before
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, name: str, owner, attr: str, **hooks) -> bool:
        """Wrap ``owner.attr`` directly, or through a proxy for a module
        attribute of ``owner`` that provides ``attr`` (``spla.spsolve``)."""
        key = (id(owner), attr)
        if key in self._patched:
            return True
        if callable(getattr(owner, attr, None)) and not isinstance(getattr(owner, attr), type):
            self._set(owner, attr, self._wrap(name, getattr(owner, attr), **hooks))
            self._patched.add(key)
            return True
        for alias, value in list(vars(owner).items()):
            target = value._target if isinstance(value, _ModuleProxy) else value
            if isinstance(target, types.ModuleType) and callable(getattr(target, attr, None)):
                overrides = dict(value._overrides) if isinstance(value, _ModuleProxy) else {}
                overrides[attr] = self._wrap(name, getattr(target, attr), **hooks)
                self._set(owner, alias, _ModuleProxy(target, overrides))
                self._patched.add(key)
                return True
        return False

    def _expand(self, caller, spec: str) -> list[str]:
        """Attribute names of one site spec, as resolved in ``caller``."""
        if ":" not in spec:
            return [spec]
        source, pattern = spec.split(":", 1)
        if source == "scipy":
            return [pattern]
        module = self.modules.get(source)
        exported = getattr(module, "__all__", []) if module is not None else []
        prefix = pattern.rstrip("*")
        return [n for n in exported
                if n.startswith(prefix) and hasattr(caller, n)
                and callable(getattr(caller, n)) and not isinstance(getattr(caller, n), type)]

    def install(self) -> None:
        for name, sites in _SPANS.items():
            hooks = {}
            if name == "solver.solve":
                hooks["on_result"] = self._count_iterations
            if name == PERSIST_SAVE:
                hooks["measure_bytes"] = True
            found = False
            for caller_name, spec in sites:
                caller = self.modules.get(caller_name)
                if caller is None:
                    continue
                for attr in self._expand(caller, spec):
                    found |= self._patch(name, caller, attr, **hooks)
            if not found:
                self.missing.add(name)
        owner = self.modules.get(_COEFF_FACTORY[0])
        factory = getattr(owner, _COEFF_FACTORY[1], None)
        if factory is None:
            self.missing.add(COEFF_SPAN)
        else:
            self._set(owner, _COEFF_FACTORY[1], self._traced_coefficients(factory))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._patched.clear()

    def _traced_coefficients(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            coeffs = factory(*args, **kwargs)
            return dataclasses.replace(
                coeffs, **{m: self._wrap(COEFF_SPAN, getattr(coeffs, m)) for m in "fgh"})
        return make

    def _count_iterations(self, result) -> None:
        iters = getattr(result, "diagnostics", {}).get("iterations", [])
        self.solve_iterations += int(sum(iters))
        self.solve_steps += len(iters)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass; None where a layer's public
    names were not found."""

    def have(name):
        return name not in tr.missing

    def total(name):
        return tr.stats[name].total_s if have(name) else None

    def calls(name):
        return tr.stats[name].calls if have(name) else None

    solve = tr.stats["solver.solve"]
    return {
        "lcp.calls": calls("lcp"),
        "lcp.s": total("lcp"),
        "lcp.iterations": tr.solve_iterations if have("solver.solve") else None,
        "lcp.iterations_per_step": (tr.solve_iterations / tr.solve_steps
                                    if have("solver.solve") and tr.solve_steps else None),
        "lcp.fresh_factorizations": calls("lcp.spsolve"),
        "lcp.fresh_factor_s": total("lcp.spsolve"),
        "solver.solves": calls("solver.solve"),
        "solver.solve_s": total("solver.solve"),
        "solver.solve_p50_s": (statistics.median(solve.durations)
                               if have("solver.solve") and solve.durations else None),
        "solver.march_self_s": solve.self_s if have("solver.solve") else None,
        "solver.step_factorizations": calls("solver.splu"),
        "solver.step_factor_s": total("solver.splu"),
        "stochastics.coeff_evals": calls(COEFF_SPAN),
        "stochastics.coeff_eval_s": total(COEFF_SPAN),
        "stochastics.gate_calls": calls("stochastics.gate"),
        "stochastics.gate_s": total("stochastics.gate"),
        "stochastics.noise_s": total("stochastics.noise"),
        "persist.save_s": total("persist.save"),
        "persist.load_s": total("persist.load"),
        "persist.bytes_written": tr.bytes_written if have("persist.save") else None,
        "verify.weak_form_s": total("verify.weak_form"),
        "verify.ito_square_s": total("verify.ito_square"),
        "verify.positive_part_s": total("verify.positive_part"),
        "verify.skorokhod_s": total("verify.skorokhod"),
        "norms.s": total("norms"),
        "config.load_s": total("config.load"),
        "grid.assemble_s": total("grid.assemble"),
        "cli.self_s": tr.stats["cli.main"].self_s if have("cli.main") else None,
    }


def nesting_ok(tr: Tracer) -> bool:
    """Children fit inside every parent, and all self times together fit
    inside the root spans."""
    selfs = sum(st.self_s for st in tr.stats.values())
    root = tr.stats["cli.main"].total_s
    return tr.nesting_violations == 0 and selfs <= root * (1 + 1e-9) + 1e-6
