"""Truncated Brownian driving noise and validated random coefficients.

The driving noise keeps J independent Brownian modes; mode j draws its
increments from its own counter-based Philox stream keyed by (seed, j), so

* identical seeds reproduce identical paths bit for bit,
* per-mode streams are independent, and
* truncating a path to its first m steps equals generating a fresh path
  with m steps and the same seed.

A path is never stored: its seed rebuilds it (``verify`` does so).
``coarsen`` samples the same Brownian path at a multiple of its step, by
summing blocks of increments; refinement studies march one fine path at
several resolutions this way (``verify.refinement_study``).  The paper's
data norms of a problem are ``norms.data_ingredients``.

Mode-coefficient maps must have exactly zero tail beyond the retained J
modes, which keeps the discrete quadratic-variation identities exact
instead of approximately truncated.

Coefficient maps f, g, h are called only by ``CoefficientSet.evaluate``,
whose docstring states their row contract.  Declared Lipschitz metadata is
validated probabilistically on seeded random probes; maps must be pure
(probed by double evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .grid import _readonly

__all__ = [
    "NoisePath",
    "CoefficientSet",
    "AssumptionReport",
    "sample_noise",
    "coarsen",
    "validate_assumptions",
]

@dataclass(frozen=True, eq=False)
class NoisePath:
    """Gaussian increments of J Brownian modes: increments[j, k] ~ N(0, dt)."""

    J: int
    dt: float
    increments: np.ndarray  # (J, steps)
    seed: int

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape[0] != self.J or inc.ndim != 2:
            raise ConfigurationError(f"increments shape {inc.shape} does not match J={self.J}")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "increments", _readonly(inc))

    @property
    def steps(self) -> int:
        return self.increments.shape[1]


def sample_noise(J: int, dt: float, steps: int, seed: int) -> NoisePath:
    """Draw a noise path; one Philox stream per mode keyed by (seed, mode),
    for a seed in [0, 2^64)."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigurationError(f"seed {seed} lies outside [0, 2^64)")
    if J < 1:
        raise ConfigurationError(f"need at least one mode, got J={J}")
    if dt <= 0 or steps < 1:
        raise ConfigurationError(f"need dt > 0 and steps >= 1, got dt={dt}, steps={steps}")
    rows = np.empty((J, steps))
    root = np.sqrt(dt)
    for j in range(J):
        key = np.array([np.uint64(seed), np.uint64(j)], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        rows[j] = gen.standard_normal(steps) * root
    return NoisePath(J=J, dt=float(dt), increments=rows, seed=int(seed))


def coarsen(noise: NoisePath, factor: int) -> NoisePath:
    """The same Brownian path at ``factor`` times the step: each increment
    sums a block of ``factor`` consecutive increments of ``noise``, and the
    seed is kept.  ``factor`` must be a positive integer dividing the
    path's steps."""
    if (isinstance(factor, bool) or not isinstance(factor, (int, np.integer)) or factor < 1
            or noise.steps % factor):
        raise ConfigurationError(f"coarsening factor {factor!r} must be a positive integer "
                                 f"dividing the path's {noise.steps} steps")
    blocks = noise.increments.reshape(noise.J, noise.steps // factor, factor).sum(axis=2)
    return NoisePath(J=noise.J, dt=noise.dt * factor, increments=blocks, seed=noise.seed)


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluable drift/flux/noise maps with declared Lipschitz metadata.

    C bounds the y-sensitivity of all three maps (and the z-sensitivity of
    f); alpha and beta bound the z-sensitivity of g and h.  The contraction
    property 2 alpha + beta^2 < 2 lambda against the operator's coercivity
    is what keeps the implicit-explicit stepping (and the underlying
    estimates) well posed.

    The maps are called through ``evaluate``, which states the row
    contract they must keep.
    """

    f: Callable
    g: Callable
    h: Callable
    C: float
    alpha: float
    beta: float
    modes: int

    @classmethod
    def zero(cls, modes: int) -> "CoefficientSet":
        """f = g = h = 0 with all Lipschitz constants 0."""

        def f(t, x, y, z):
            return np.zeros(x.shape[0])

        def g(t, x, y, z):
            return np.zeros((x.shape[0], x.shape[1]))

        def h(t, x, y, z):
            return np.zeros((x.shape[0], modes))

        return cls(f=f, g=g, h=h, C=0.0, alpha=0.0, beta=0.0, modes=modes)

    def evaluate(self, t: float, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                 maps: str = "fgh") -> list[np.ndarray]:
        """The maps named by ``maps``, in that order, at time t.

        x (m, d) holds node coordinates, y (..., m) states and z (..., m, d)
        their gradients; leading axes stack samples.  Each named map runs
        once on all M = m * prod(...) rows stacked, as ``map(t, x, y, z)``
        with x, y and z shaped (M, d), (M,) and (M, d), and must return
        (M,) for f, (M, d) for g and (M, J) for h; any other shape is a
        ConfigurationError naming the map.  A row's value may depend on
        that row alone, so that each sample's numbers are those of a call
        on its own rows; every shipped preset (elementwise numpy on the
        columns of x, y and z) does this.  Returns float arrays shaped
        (..., m), (..., m, d) and (..., m, J).
        """
        lead = y.shape[:-1]
        m, d = x.shape
        if lead:
            x = np.tile(x, (math.prod(lead), 1))
            y = y.reshape(-1)
            z = z.reshape(-1, d)
        out = []
        for name in maps:
            tail = () if name == "f" else (d,) if name == "g" else (self.modes,)
            value = np.asarray(getattr(self, name)(t, x, y, z), dtype=float)
            if value.shape != y.shape + tail:
                raise ConfigurationError(f"coefficient map {name} returned shape {value.shape} "
                                         f"for {y.size} rows; expected {y.shape + tail}")
            out.append(value.reshape(lead + (m,) + tail) if lead else value)
        return out


@dataclass
class CheckItem:
    passed: bool
    observed: float
    bound: float
    detail: str = ""


@dataclass
class AssumptionReport:
    """Pass/fail per structural assumption plus worst observed quotients."""

    items: dict[str, CheckItem] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items.values())

    def summary(self) -> str:
        lines = []
        for name, item in self.items.items():
            status = "pass" if item.passed else "FAIL"
            lines.append(f"{name:>10s}: {status}  observed={item.observed:.6g} "
                         f"bound={item.bound:.6g}  {item.detail}")
        return "\n".join(lines)


_QUOTIENT_SLACK = 1 + 1e-6
_MIN_DENOM = 1e-8
_PROBE_ROWS = 256
_PROBE_SEED = 1905

# The Lipschitz probes: item, map, redrawn argument(s), declared bound,
# additive slack, detail.  Each quotient compares the map at (y, z) with
# the map at the redrawn argument(s), over their distance.
_LIPSCHITZ_PROBES = (
    ("H1-f", "f", "yz", "C", 0.0, "f Lipschitz in (y, z)"),
    ("H2-g-y", "g", "y", "C", 0.0, "g Lipschitz in y"),
    ("H2-g-z", "g", "z", "alpha", _MIN_DENOM, "g Lipschitz in z"),
    ("H3-h-y", "h", "y", "C", 0.0, "h Lipschitz in y (l2 over modes)"),
    ("H3-h-z", "h", "z", "beta", _MIN_DENOM, "h Lipschitz in z (l2 over modes)"),
)


def _probe_inputs(rng, n, dim, extent, horizon):
    t = float(rng.uniform(0.0, horizon))
    x = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in extent])
    y = rng.normal(0.0, 2.0, n)
    z = rng.normal(0.0, 2.0, (n, dim))
    return t, x, y, z


def _l2(arr):
    return np.sqrt(np.sum(arr ** 2, axis=-1))


def validate_assumptions(coeffs: CoefficientSet, lam: float, grid,
                         horizon: float) -> AssumptionReport:
    """Probe the declared Lipschitz constants and the contraction property
    at points of ``grid``'s box and times in [0, ``horizon``].

    Probes are drawn from a fixed-seed generator, so the report is a
    deterministic function of the coefficient set: enlarging declared
    constants can never flip a pass into a failure.
    """
    rng = np.random.default_rng(_PROBE_SEED)
    dim, extent = grid.dim, grid.extent
    rep = AssumptionReport()

    worst = [0.0] * len(_LIPSCHITZ_PROBES)
    pure = True
    for _ in range(4):
        t, x, y, z = _probe_inputs(rng, _PROBE_ROWS, dim, extent, horizon)
        y2 = rng.normal(0.0, 2.0, _PROBE_ROWS)
        z2 = rng.normal(0.0, 2.0, (_PROBE_ROWS, dim))

        at = dict(zip("fgh", coeffs.evaluate(t, x, y, z)))
        pure &= np.array_equal(at["f"], coeffs.evaluate(t, x, y, z, "f")[0])
        deny, denz = np.abs(y - y2), _l2(z - z2)
        redrawn = {"yz": (y2, z2, deny + denz), "y": (y2, z, deny), "z": (y, z2, denz)}
        for i, (_, name, args, *_) in enumerate(_LIPSCHITZ_PROBES):
            yb, zb, den = redrawn[args]
            diff = at[name] - coeffs.evaluate(t, x, yb, zb, name)[0]
            ok = den > _MIN_DENOM
            if ok.any():
                dist = np.abs(diff) if name == "f" else _l2(diff)
                worst[i] = max(worst[i], float((dist[ok] / den[ok]).max()))

    for observed, (item, _, _, bound, slack, detail) in zip(worst, _LIPSCHITZ_PROBES):
        declared = getattr(coeffs, bound)
        rep.items[item] = CheckItem(observed <= declared * _QUOTIENT_SLACK + slack, observed,
                                    declared, detail)
    contraction = 2 * coeffs.alpha + coeffs.beta ** 2
    rep.items["H4"] = CheckItem(contraction < 2 * lam, contraction, 2 * lam,
                                "contraction: 2*alpha + beta^2 < 2*lambda (strict)")
    rep.items["purity"] = CheckItem(pure, 0.0 if pure else 1.0, 0.0,
                                    "double evaluation must match bitwise")
    return rep
