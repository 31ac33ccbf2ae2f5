"""Truncated Brownian driving noise and validated random coefficients.

The driving noise keeps J independent Brownian modes; mode j draws its
increments from its own counter-based Philox stream keyed by (seed, j), so

* identical seeds reproduce identical paths bit for bit,
* per-mode streams are independent, and
* truncating a path to its first m steps equals generating a fresh path
  with m steps and the same seed.

A path is never stored: its seed rebuilds it (``verify`` does so).  The
paper's data norms of a problem are ``norms.data_ingredients``.

Mode-coefficient maps must have exactly zero tail beyond the retained J
modes, which keeps the discrete quadratic-variation identities exact
instead of approximately truncated.

Coefficient maps f, g, h take vectorized arguments
``(t: float, x: (m, d), y: (m,), z: (m, d))`` and return arrays shaped
``(m,)``, ``(m, d)`` and ``(m, J)``.  Each row is one node: a map must act
row by row, because a batched solve hands it the interior nodes of several
samples stacked into one array.  Declared Lipschitz metadata is validated
probabilistically on seeded random probes; maps must be pure (probed by
double evaluation).
"""

from __future__ import annotations

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

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


def sample_noise(J: int, dt: float, steps: int, seed: int) -> NoisePath:
    """Draw a noise path; one Philox stream per mode keyed by (seed, mode)."""
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


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluable drift/flux/noise maps with declared Lipschitz metadata.

    C bounds the y-sensitivity of all three maps (and the z-sensitivity of
    f); alpha and beta bound the z-sensitivity of g and h.  The contraction
    property 2 alpha + beta^2 < 2 lambda against the operator's coercivity
    is what keeps the implicit-explicit stepping (and the underlying
    estimates) well posed.

    Each map receives m rows of (x, y, z) and returns m rows, shaped (m,),
    (m, d) and (m, J).  A row's value may depend on that row alone: the
    solver marches several samples at once by stacking the interior nodes
    of all of them along the row axis, so one call may see the same node
    many times with different states, and each sample's numbers must come
    out as they would from a call on its own rows.  Every shipped preset
    (elementwise numpy on the columns of x, y and z) does this.
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

    def as_dict(self) -> dict:
        return {
            name: {"passed": item.passed, "observed": item.observed,
                   "bound": item.bound, "detail": item.detail}
            for name, item in self.items.items()
        }


_QUOTIENT_SLACK = 1 + 1e-6
_MIN_DENOM = 1e-8


def _probe_inputs(rng, n, dim, extent, horizon):
    t = float(rng.uniform(0.0, horizon))
    x = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in extent])
    y = rng.normal(0.0, 2.0, n)
    z = rng.normal(0.0, 2.0, (n, dim))
    return t, x, y, z


def validate_assumptions(coeffs: CoefficientSet, lam: float, grid=None,
                         horizon: float = 1.0, n_probes: int = 256,
                         seed: int = 1905) -> AssumptionReport:
    """Probe the declared Lipschitz constants and the contraction property.

    Probes are drawn from a fixed-seed generator, so the report is a
    deterministic function of the coefficient set: enlarging declared
    constants can never flip a pass into a failure.
    """
    rng = np.random.default_rng(seed)
    if grid is not None:
        dim, extent = grid.dim, grid.extent
    else:
        dim, extent = 1, ((0.0, 1.0),)
    rep = AssumptionReport()

    def l2(arr):
        return np.sqrt(np.sum(np.asarray(arr, dtype=float) ** 2, axis=-1))

    worst_f = worst_gy = worst_gz = worst_hy = worst_hz = 0.0
    pure = True
    for _ in range(4):
        t, x, y, z = _probe_inputs(rng, n_probes, dim, extent, horizon)
        y2 = rng.normal(0.0, 2.0, n_probes)
        z2 = rng.normal(0.0, 2.0, (n_probes, dim))

        fa = np.asarray(coeffs.f(t, x, y, z), dtype=float)
        if not np.array_equal(fa, np.asarray(coeffs.f(t, x, y, z), dtype=float)):
            pure = False
        fb = np.asarray(coeffs.f(t, x, y2, z2), dtype=float)
        den = np.abs(y - y2) + l2(z - z2)
        ok = den > _MIN_DENOM
        if ok.any():
            worst_f = max(worst_f, float((np.abs(fa - fb)[ok] / den[ok]).max()))

        ga = np.asarray(coeffs.g(t, x, y, z), dtype=float)
        gb_y = np.asarray(coeffs.g(t, x, y2, z), dtype=float)
        deny = np.abs(y - y2)
        ok = deny > _MIN_DENOM
        if ok.any():
            worst_gy = max(worst_gy, float((l2(ga - gb_y)[ok] / deny[ok]).max()))
        gb_z = np.asarray(coeffs.g(t, x, y, z2), dtype=float)
        denz = l2(z - z2)
        ok = denz > _MIN_DENOM
        if ok.any():
            worst_gz = max(worst_gz, float((l2(ga - gb_z)[ok] / denz[ok]).max()))

        ha = np.asarray(coeffs.h(t, x, y, z), dtype=float)
        hb_y = np.asarray(coeffs.h(t, x, y2, z), dtype=float)
        ok = deny > _MIN_DENOM
        if ok.any():
            worst_hy = max(worst_hy, float((l2(ha - hb_y)[ok] / deny[ok]).max()))
        hb_z = np.asarray(coeffs.h(t, x, y, z2), dtype=float)
        ok = denz > _MIN_DENOM
        if ok.any():
            worst_hz = max(worst_hz, float((l2(ha - hb_z)[ok] / denz[ok]).max()))

    rep.items["H1-f"] = CheckItem(worst_f <= coeffs.C * _QUOTIENT_SLACK, worst_f,
                                  coeffs.C, "f Lipschitz in (y, z)")
    rep.items["H2-g-y"] = CheckItem(worst_gy <= coeffs.C * _QUOTIENT_SLACK, worst_gy,
                                    coeffs.C, "g Lipschitz in y")
    rep.items["H2-g-z"] = CheckItem(worst_gz <= coeffs.alpha * _QUOTIENT_SLACK + _MIN_DENOM,
                                    worst_gz, coeffs.alpha, "g Lipschitz in z")
    rep.items["H3-h-y"] = CheckItem(worst_hy <= coeffs.C * _QUOTIENT_SLACK, worst_hy,
                                    coeffs.C, "h Lipschitz in y (l2 over modes)")
    rep.items["H3-h-z"] = CheckItem(worst_hz <= coeffs.beta * _QUOTIENT_SLACK + _MIN_DENOM,
                                    worst_hz, coeffs.beta, "h Lipschitz in z (l2 over modes)")
    contraction = 2 * coeffs.alpha + coeffs.beta ** 2
    rep.items["H4"] = CheckItem(contraction < 2 * lam, contraction, 2 * lam,
                                "contraction: 2*alpha + beta^2 < 2*lambda (strict)")
    rep.items["purity"] = CheckItem(pure, 0.0 if pure else 1.0, 0.0,
                                    "double evaluation must match bitwise")
    return rep
