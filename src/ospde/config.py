"""Run configuration: flat dotted-key files, validation, problem builders.

The config format is deliberately minimal and language-neutral: one
``section.key = value`` assignment per line, values in JSON (numbers,
quoted strings, lists, booleans); bare words are taken as strings.  Full
lines starting with ``#`` are comments.  See docs/config.md for the schema.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, coerce
from .grid import EllipticOperator, Grid, assemble_operator, build_grid
from .presets import (make_coefficients, make_dominator, make_initial, make_obstacle,
                      operator_profile)
from .solver import ProblemData
from .stochastics import NoisePath, sample_noise

__all__ = ["RunConfig", "parse_config_text", "load_config", "config_hash"]


def parse_config_text(text: str) -> dict:
    """Parse flat dotted keys into a nested dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigurationError(f"config line {lineno} has an empty key")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value  # bare word convenience
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"config key '{key}' conflicts with a scalar entry")
        node[parts[-1]] = parsed
    return out


def config_hash(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _entries(kind, key: str, value):
    """``value`` with every entry, at any list depth, coerced to ``kind``."""
    if isinstance(value, list):
        return [_entries(kind, key, v) for v in value]
    return coerce(kind, key, value)


def _params(block: dict, *skip: str) -> dict:
    return {k: v for k, v in block.items() if k not in skip}


@dataclass
class RunConfig:
    """Validated view over a parsed config with problem builders."""

    raw: dict
    path: str | None = None

    def __post_init__(self):
        for section in ("grid", "time", "noise"):
            if section not in self.raw:
                raise ConfigurationError(f"config is missing the [{section}] block")
        g = self.raw["grid"]
        for key in ("dim", "extent", "counts"):
            if key not in g:
                raise ConfigurationError(f"config is missing grid.{key}")
        t = self.raw["time"]
        if "T" not in t or "steps" not in t:
            raise ConfigurationError("config needs time.T and time.steps")
        if coerce(float, "time.T", t["T"]) <= 0 or coerce(int, "time.steps", t["steps"]) < 1:
            raise ConfigurationError("time.T must be positive and time.steps >= 1")

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    def block(self, name: str) -> dict:
        value = self.raw.get(name, {})
        if not isinstance(value, dict):
            raise ConfigurationError(f"config block '{name}' must hold dotted keys")
        return value

    # -- builders ------------------------------------------------------------

    def make_grid(self) -> Grid:
        g = self.raw["grid"]
        return build_grid(coerce(int, "grid.dim", g["dim"]),
                          _entries(float, "grid.extent", g["extent"]),
                          _entries(int, "grid.counts", g["counts"]))

    def make_operator(self, grid: Grid) -> EllipticOperator:
        op = self.block("operator")
        profile = op.get("profile", "constant")
        a = operator_profile(profile, grid, _params(op, "profile", "lambda", "Lambda"))
        lam = coerce(float, "operator.lambda", op.get("lambda", 1.0))
        Lam = coerce(float, "operator.Lambda", op.get("Lambda", lam))
        return assemble_operator(grid, a, lam, Lam)

    def make_times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    @property
    def dt(self) -> float:
        return coerce(float, "time.T", self.raw["time"]["T"]) / self.steps

    @property
    def steps(self) -> int:
        return coerce(int, "time.steps", self.raw["time"]["steps"])

    @property
    def noise_modes(self) -> int:
        return coerce(int, "noise.J", self.block("noise").get("J", 8))

    def sample_seeds(self, seed_override=None, samples_override=None) -> list[int]:
        noise = self.block("noise")
        if samples_override is not None and samples_override < 1:
            raise ConfigurationError(f"--samples = {samples_override} leaves no sample seeds: "
                                     "need at least one sample")
        if "seeds" in noise:
            if seed_override is not None:
                raise ConfigurationError(
                    f"noise.seeds = {noise['seeds']!r} and --seed {seed_override} both name "
                    "the sample seeds: give one of them")
            if not isinstance(noise["seeds"], list):
                raise ConfigurationError(f"noise.seeds = {noise['seeds']!r} is not a list of seeds")
            seeds = [coerce(int, "noise.seeds", s) for s in noise["seeds"]]
            if samples_override is not None:
                seeds = seeds[:samples_override]
        else:
            base = int(seed_override if seed_override is not None
                       else coerce(int, "noise.seed", noise.get("seed", 0)))
            n = (samples_override if samples_override is not None
                 else coerce(int, "noise.samples", noise.get("samples", 1)))
            seeds = [base + i for i in range(n)]
        if not seeds:
            raise ConfigurationError("no sample seeds: need at least one sample")
        return seeds

    def build_problem(self, seed: int, grid: Grid | None = None,
                      op: EllipticOperator | None = None) -> ProblemData:
        grid = grid if grid is not None else self.make_grid()
        op = op if op is not None else self.make_operator(grid)
        times = self.make_times()
        J = self.noise_modes

        cblock = self.block("coefficients")
        coeffs = make_coefficients(cblock.get("preset", "zero"), grid, J,
                                   _params(cblock, "preset"))
        oblock = self.block("obstacle")
        obstacle = make_obstacle(oblock.get("preset", "none"), grid, times,
                                 _params(oblock, "preset"))
        iblock = self.block("initial")
        xi = make_initial(iblock.get("preset", "zero"), grid, _params(iblock, "preset"))
        dblock = self.block("dominator")
        dominator = make_dominator(dblock.get("preset", "none"), grid, times, J, xi,
                                   _params(dblock, "preset"))
        return ProblemData(op=op, xi=xi, coeffs=coeffs, obstacle=obstacle,
                           noise=self.sample_noise(seed), dominator=dominator)

    def sample_noise(self, seed: int) -> NoisePath:
        """The driving noise path of one sample seed."""
        return sample_noise(self.noise_modes, self.dt, self.steps, int(seed))

    # -- solver knobs ----------------------------------------------------------

    @property
    def solver_mode(self) -> str:
        return str(self.block("solver").get("mode", "projected"))

    @property
    def penalty_n(self) -> int:
        return coerce(int, "solver.penalty_n", self.block("solver").get("penalty_n", 1000))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    return RunConfig(raw=raw, path=str(path))
