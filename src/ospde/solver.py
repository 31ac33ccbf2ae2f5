"""Semi-implicit time stepping for constrained and unconstrained SPDEs.

All schemes advance a nodal state u_k by

    (I + dt * A_h) u_{k+1} = u_k + dt * f(t_k, u_k, grad u_k)
                             + dt * div_h g(t_k, u_k, grad u_k)
                             + sum_j h_j(t_k, u_k, grad u_k) dB^j_k
                             [+ dt * reflection],

with the operator (and any obstacle reaction) implicit and the
state-dependent coefficients explicit at the previous step.  The explicit
evaluation keeps every step a linear or piecewise-linear M-matrix solve and
makes the scheme satisfy a discrete energy balance exactly, which the
verification module exploits.

Obstacle enforcement comes in two flavors sharing this skeleton:

* ``solve_penalized``: the reaction is n * (u - S)^-, solved implicitly per
  step; the measure density recorded at step k is n * (u_{k+1} - S_{k+1})^-.
* ``solve_projected``: the step solves the linear complementarity problem
  u >= S, r := (I + dt A_h) u - rhs >= 0, r' (u - S) = 0; the measure
  density is r / dt.  This realizes the constrained limit directly and
  serves as the oracle for penalization sweeps.

Measure weights are densities per unit space-time volume: total mass is
sum(weights) * cell_measure * dt.  The weight at step k binds to the frame
at t_{k+1} (the time whose constraint produced it); all quadratures against
the measure follow that convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssumptionError, ConfigurationError, SolverError
from .grid import (EllipticOperator, Field, _readonly, divergence, energy_values,
                   node_gradient, same_grid)
from .lcp import StepMatrix, psor
from .norms import FieldPath, NormToolbox, dual_sharp_upper, magnitude_path, mixed_norm
from .stochastics import CoefficientSet, NoisePath, validate_assumptions

__all__ = [
    "DominatorData",
    "ProblemData",
    "DiscreteMeasure",
    "SolveResult",
    "solve_linear_spde",
    "solve_random_pde",
    "solve_unconstrained",
    "solve_penalized",
    "solve_projected",
    "solve_mode",
    "skorokhod_defect",
    "OBSTACLE_OFF",
]

# Obstacle level treated as "no constraint anywhere".
OBSTACLE_OFF = -1.0e6


@dataclass(frozen=True, eq=False)
class DominatorData:
    """Data of the linear SPDE dominating the obstacle: initial state plus
    sampled source paths f (K+1, n), g (K+1, n, d), h (K+1, n, J)."""

    initial: Field
    f: np.ndarray | None = None
    g: np.ndarray | None = None
    h: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class ProblemData:
    """Everything one realization needs: operator, initial condition,
    coefficient maps, obstacle path, driving noise, optional dominator."""

    op: EllipticOperator
    xi: Field
    coeffs: CoefficientSet
    obstacle: FieldPath
    noise: NoisePath
    dominator: DominatorData | None = None

    def __post_init__(self):
        grid = self.op.grid
        if not same_grid(self.xi.grid, grid) or not same_grid(self.obstacle.grid, grid):
            raise ConfigurationError("initial condition / obstacle grid mismatch")
        if self.obstacle.steps != self.noise.steps:
            raise ConfigurationError(
                f"obstacle has {self.obstacle.steps} steps, noise has {self.noise.steps}")
        if abs(self.obstacle.dt - self.noise.dt) > 1e-12 * self.noise.dt:
            raise ConfigurationError("obstacle and noise time steps differ")
        if self.coeffs.modes != self.noise.J:
            raise ConfigurationError(
                f"coefficients declare {self.coeffs.modes} noise modes, path has {self.noise.J}")
        s0 = grid.restrict(self.obstacle.frames[0])
        gap = float((s0 - self.xi.interior()).max())
        if gap > 1e-12:
            # the schemes never reference the obstacle's initial frame: the
            # constraint engages from the first step on, so report, don't fail
            warnings.warn(
                f"obstacle exceeds the initial condition at t = 0 by {gap:.3e}; "
                "the state becomes admissible after the first step", stacklevel=2)

    @property
    def times(self) -> np.ndarray:
        return self.obstacle.times

    @property
    def dt(self) -> float:
        return self.obstacle.dt

    @property
    def steps(self) -> int:
        return self.obstacle.steps

    def with_noise(self, noise: NoisePath) -> "ProblemData":
        return replace(self, noise=noise)


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Nonnegative reflection density per (time step, interior node)."""

    grid: object
    times: np.ndarray
    weights: np.ndarray  # (steps, n_interior)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.times.size - 1, self.grid.n_interior):
            raise ConfigurationError(f"weights shape {w.shape} does not match discretization")
        if w.size and w.min() < 0:
            raise ConfigurationError(f"negative measure weight {w.min():.3e}")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def total_mass(self) -> float:
        return float(self.weights.sum() * self.grid.cell_measure * self.dt)

    @classmethod
    def zeros(cls, grid, times) -> "DiscreteMeasure":
        return cls(grid, np.asarray(times, dtype=float),
                   np.zeros((len(times) - 1, grid.n_interior)))


@dataclass
class SolveResult:
    u: FieldPath
    measure: DiscreteMeasure
    diagnostics: dict = field(default_factory=dict)


class _StepOperator(StepMatrix):
    """Prefactorized implicit step matrix B = I + dt * K on interior nodes,
    with the pattern every obstacle step of the solve edits."""

    def __init__(self, op: EllipticOperator, dt: float):
        n = op.grid.n_interior
        B = (sp.identity(n, format="csr") + dt * op.stiffness).tocsr()
        B.sort_indices()
        try:
            lu = spla.splu(B.tocsc())
        except RuntimeError as exc:  # singular / not SPD
            raise SolverError(f"implicit step matrix factorization failed: {exc}") from exc
        super().__init__(B, lu)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs)


def _source_rhs(grid, dt, u_full, f_int=None, g_int=None, h_int=None, dB=None):
    """Interior right-hand side u_k + dt f + dt div g + h dB."""
    rhs = grid.restrict(u_full).copy()
    if f_int is not None:
        rhs += dt * f_int
    if g_int is not None:
        g_full = np.zeros((grid.n_nodes, grid.dim))
        g_full[grid.interior] = g_int
        rhs += dt * grid.restrict(divergence(grid, g_full))
    if h_int is not None and dB is not None:
        rhs += h_int @ dB
    return rhs


def _evaluate_coeffs(coeffs, t, x_int, y_int, z_int):
    f = np.asarray(coeffs.f(t, x_int, y_int, z_int), dtype=float)
    g = np.asarray(coeffs.g(t, x_int, y_int, z_int), dtype=float)
    h = np.asarray(coeffs.h(t, x_int, y_int, z_int), dtype=float)
    return f, g, h


def _require_assumptions(data: ProblemData) -> None:
    report = validate_assumptions(data.coeffs, data.op.lam, grid=data.op.grid,
                                  horizon=float(data.times[-1]))
    if not report.ok:
        raise AssumptionError("assumption validation failed; refusing to solve\n"
                              + report.summary())


def _interior_state(grid, u_full):
    x_int = grid.coords[grid.interior]
    y_int = grid.restrict(u_full)
    z_int = node_gradient(grid, u_full)[grid.interior]
    return x_int, y_int, z_int


def solve_linear_spde(data: ProblemData, diagnostics: dict | None = None) -> FieldPath:
    """Drive the dominating linear SPDE from its own data on the shared noise.

    When a ``diagnostics`` dict is supplied it receives the energy/data
    ratio of the a priori bound for this realization.
    """
    if data.dominator is None:
        raise ConfigurationError("problem data carries no dominator block")
    dom = data.dominator
    grid = data.op.grid
    times = data.times
    ws = _StepOperator(data.op, data.dt)
    frames = np.zeros((data.steps + 1, grid.n_nodes))
    frames[0] = dom.initial.values
    inc = data.noise.increments
    for k in range(data.steps):
        f_int = grid.restrict(dom.f[k]) if dom.f is not None else None
        g_int = dom.g[k][grid.interior] if dom.g is not None else None
        h_int = dom.h[k][grid.interior] if dom.h is not None else None
        rhs = _source_rhs(grid, data.dt, frames[k], f_int, g_int, h_int, inc[:, k])
        frames[k + 1] = grid.extend(ws.solve(rhs))
    path = FieldPath(grid, times, frames)

    gap = data.obstacle.frames[:, grid.interior] - path.frames[:, grid.interior]
    if gap.max(initial=-np.inf) > 1e-9:
        warnings.warn(
            f"obstacle exceeds its dominator by up to {gap.max():.3e}; "
            "the domination assumption fails on this realization", stacklevel=2)

    if diagnostics is not None:
        T = float(times[-1])
        toolbox = NormToolbox.for_dim(grid.dim)
        w = grid.quad_weights
        sup_sq = float(max(np.sum(w * fr * fr) for fr in frames))
        en = sum(energy_values(data.op, frames[k + 1]) for k in range(data.steps)) * data.dt
        zero = np.zeros((data.steps + 1, grid.n_nodes))
        f_path = FieldPath(grid, times, dom.f if dom.f is not None else zero)
        g_mag = magnitude_path(grid, times, dom.g) if dom.g is not None else FieldPath(grid, times, zero)
        h_mag = magnitude_path(grid, times, dom.h) if dom.h is not None else FieldPath(grid, times, zero)
        data_sq = (float(w @ dom.initial.values ** 2)
                   + dual_sharp_upper(f_path, T, toolbox) ** 2
                   + mixed_norm(g_mag, 2, 2, T) ** 2
                   + mixed_norm(h_mag, 2, 2, T) ** 2)
        diagnostics["sup_sq"] = sup_sq
        diagnostics["energy_integral"] = en
        diagnostics["data_sq"] = data_sq
        diagnostics["ratio"] = (sup_sq + en) / data_sq if data_sq > 0 else float("nan")
    return path


def solve_random_pde(op: EllipticOperator, source: FieldPath) -> FieldPath:
    """Noise-free auxiliary flow dw + A w dt = source dt, w(0) = 0."""
    grid = op.grid
    ws = _StepOperator(op, source.dt)
    frames = np.zeros_like(source.frames)
    for k in range(source.steps):
        rhs = frames[k][grid.interior] + source.dt * grid.restrict(source.frames[k])
        frames[k + 1] = grid.extend(ws.solve(rhs))
    return FieldPath(grid, source.times, frames)


def _march(data: ProblemData, advance: Callable) -> SolveResult:
    """Common solve: refuse data outside the hypotheses, factor the step
    once, then march with explicit sources and the per-step ``advance``.

    ``advance(ws, rhs, psi)`` returns the interior state at t_{k+1}, the
    measure density of step k and its active-set pass count.
    """
    _require_assumptions(data)
    grid = data.op.grid
    dt = data.dt
    ws = _StepOperator(data.op, dt)
    frames = np.zeros((data.steps + 1, grid.n_nodes))
    frames[0] = data.xi.values
    weights = np.zeros((data.steps, grid.n_interior))
    iterations = []
    inc = data.noise.increments
    for k in range(data.steps):
        t_k = float(data.times[k])
        x_int, y_int, z_int = _interior_state(grid, frames[k])
        f_int, g_int, h_int = _evaluate_coeffs(data.coeffs, t_k, x_int, y_int, z_int)
        rhs = _source_rhs(grid, dt, frames[k], f_int, g_int, h_int, inc[:, k])
        psi = grid.restrict(data.obstacle.frames[k + 1])
        try:
            u_next, w_k, passes = advance(ws, rhs, psi)
        except SolverError as exc:
            raise SolverError(f"step {k} failed: {exc}") from exc
        frames[k + 1] = grid.extend(u_next)
        weights[k] = w_k
        iterations.append(passes)
    return SolveResult(
        u=FieldPath(grid, data.times, frames),
        measure=DiscreteMeasure(grid, data.times, weights),
        diagnostics={"iterations": iterations},
    )


def solve_unconstrained(data: ProblemData) -> SolveResult:
    """Plain semi-implicit scheme; the obstacle is ignored entirely."""

    def advance(ws, rhs, psi):
        return ws.solve(rhs), np.zeros_like(rhs), 0

    return _march(data, advance)


def solve_penalized(data: ProblemData, n: int) -> SolveResult:
    """Penalized scheme with implicit reaction n (u - S)^-.

    Measure weights at step k are n * (u_{k+1} - S_{k+1})^-, which is
    exactly the reaction density the step applied.
    """
    if n < 1:
        raise ConfigurationError(f"penalization level must be >= 1, got {n}")
    pen = data.dt * float(n)

    def advance(ws, rhs, psi):
        u_next, passes = psor(ws, rhs, psi, pen)
        return u_next, float(n) * np.maximum(psi - u_next, 0.0), passes

    result = _march(data, advance)
    result.diagnostics["penalty_level"] = int(n)
    return result


def solve_projected(data: ProblemData) -> SolveResult:
    """Projected (complementarity) scheme: the discrete constrained limit.

    Each step is the exact active-set solve of the step's complementarity
    problem (``lcp.psor`` at infinite penalty).  The reaction density is the
    positive part of the step residual divided by dt, and zero on a step
    whose unconstrained solve is already feasible; the recorded iteration
    count is the number of active-set passes.
    """
    dt = data.dt

    def advance(ws, rhs, psi):
        u_next, passes = psor(ws, rhs, psi)
        if not passes:
            return u_next, np.zeros_like(u_next), 0
        return u_next, np.maximum(ws.B @ u_next - rhs, 0.0) / dt, passes

    return _march(data, advance)


def solve_mode(data: ProblemData, mode: str, penalty_n: int = 1000) -> SolveResult:
    """Solve with the scheme named by ``mode`` (the config's ``solver.mode``):
    ``projected``, ``penalized`` at level ``penalty_n``, or ``unconstrained``."""
    if mode == "projected":
        return solve_projected(data)
    if mode == "penalized":
        return solve_penalized(data, penalty_n)
    if mode == "unconstrained":
        return solve_unconstrained(data)
    raise ConfigurationError(f"unknown solver.mode '{mode}'; "
                             "available: projected, penalized, unconstrained")


def skorokhod_defect(u: FieldPath, obstacle: FieldPath, nu: DiscreteMeasure) -> float:
    """Discrete integral of (u - S)^+ against the reflection measure.

    Weights at step k pair with the frames at t_{k+1}; a minimal reflection
    charges only the contact set, making this vanish.
    """
    grid = u.grid
    if not same_grid(grid, obstacle.grid) or nu.weights.shape[0] != u.steps:
        raise ConfigurationError("solution, obstacle and measure discretizations differ")
    gap = np.maximum(u.frames[1:, grid.interior] - obstacle.frames[1:, grid.interior], 0.0)
    return float(np.sum(gap * nu.weights) * grid.cell_measure * nu.dt)
