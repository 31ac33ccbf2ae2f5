"""Truncated Brownian driving noise and validated random coefficients.

The driving noise keeps J independent Brownian modes; mode j draws its
increments from its own counter-based Philox stream keyed by (seed, j), so

* identical seeds reproduce identical paths bit for bit,
* per-mode streams are independent, and
* truncating a path to its first m steps equals generating a fresh path
  with m steps and the same seed.

Mode-coefficient maps must have exactly zero tail beyond the retained J
modes, which keeps the discrete quadratic-variation identities exact
instead of approximately truncated.

Coefficient maps f, g, h take vectorized arguments
``(t: float, x: (m, d), y: (m,), z: (m, d))`` and return arrays shaped
``(m,)``, ``(m, d)`` and ``(m, J)``.  Declared Lipschitz metadata is
validated probabilistically on seeded random probes; maps must be pure
(probed by double evaluation).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .grid import _readonly
from .norms import FieldPath, NormToolbox, dual_sharp_upper, magnitude_path, mixed_norm

__all__ = [
    "NoisePath",
    "CoefficientSet",
    "AssumptionReport",
    "IntegrabilityReport",
    "sample_noise",
    "save_noise",
    "load_noise",
    "validate_assumptions",
    "check_integrability",
]

_HEADER = struct.Struct("<qqdQ")  # J, steps, dt, seed


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


def save_noise(noise: NoisePath, path) -> None:
    """Flat binary: header (J, steps, dt, seed) + row-major double payload."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(noise.J, noise.steps, noise.dt, noise.seed))
        fh.write(np.ascontiguousarray(noise.increments, dtype="<f8").tobytes())


def load_noise(path) -> NoisePath:
    with open(path, "rb") as fh:
        j, steps, dt, seed = _HEADER.unpack(fh.read(_HEADER.size))
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if payload.size != j * steps:
        raise ConfigurationError(
            f"noise payload has {payload.size} doubles, expected {j * steps}")
    return NoisePath(J=j, dt=dt, increments=payload.reshape(j, steps).copy(), seed=seed)


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluable drift/flux/noise maps with declared Lipschitz metadata.

    C bounds the y-sensitivity of all three maps (and the z-sensitivity of
    f); alpha and beta bound the z-sensitivity of g and h.  The contraction
    property 2 alpha + beta^2 < 2 lambda against the operator's coercivity
    is what keeps the implicit-explicit stepping (and the underlying
    estimates) well posed.
    """

    f: Callable
    g: Callable
    h: Callable
    C: float
    alpha: float
    beta: float
    modes: int

    def f0(self, t: float, x: np.ndarray) -> np.ndarray:
        m = x.shape[0]
        return np.asarray(self.f(t, x, np.zeros(m), np.zeros((m, x.shape[1]))), dtype=float)

    def g0(self, t: float, x: np.ndarray) -> np.ndarray:
        m = x.shape[0]
        return np.asarray(self.g(t, x, np.zeros(m), np.zeros((m, x.shape[1]))), dtype=float)

    def h0(self, t: float, x: np.ndarray) -> np.ndarray:
        m = x.shape[0]
        return np.asarray(self.h(t, x, np.zeros(m), np.zeros((m, x.shape[1]))), dtype=float)


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


@dataclass
class IntegrabilityReport:
    """Sample-mean estimates of the data integrability ingredients."""

    estimates: dict[str, float]
    finite: dict[str, bool]
    ceiling: float
    samples: int

    def as_dict(self) -> dict:
        return {"estimates": self.estimates, "finite": self.finite,
                "ceiling": self.ceiling, "samples": self.samples}


def check_integrability(data, toolbox: NormToolbox, t: float,
                        ceiling: float = 1e12) -> IntegrabilityReport:
    """Estimate |xi|_2^2, (dual#(f0))^2, |g0|_{2,2}^2 and |h0|_{2,2}^2 at
    horizon t for a problem's data, flagging each against a finite ceiling.

    ``data`` is a ProblemData; coefficient maps are pure, so a single
    evaluation is the sample mean.
    """
    grid = data.op.grid
    times = data.times
    f_frames = np.stack([data.coeffs.f0(tk, grid.coords) for tk in times])
    g_frames = np.stack([data.coeffs.g0(tk, grid.coords) for tk in times])
    h_frames = np.stack([data.coeffs.h0(tk, grid.coords) for tk in times])

    xi_sq = float(grid.quad_weights @ data.xi.values ** 2)
    f0_dual = dual_sharp_upper(FieldPath(grid, times, f_frames), t, toolbox)
    g0_22 = mixed_norm(magnitude_path(grid, times, g_frames), 2, 2, t)
    h0_22 = mixed_norm(magnitude_path(grid, times, h_frames), 2, 2, t)

    estimates = {
        "xi_sq": xi_sq,
        "f0_dual_sharp_sq": f0_dual ** 2,
        "g0_22_sq": g0_22 ** 2,
        "h0_22_sq": h0_22 ** 2,
    }
    finite = {k: bool(np.isfinite(v) and v <= ceiling) for k, v in estimates.items()}
    return IntegrabilityReport(estimates=estimates, finite=finite,
                               ceiling=ceiling, samples=1)
