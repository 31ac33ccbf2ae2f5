"""Discrete identity and estimate checks replayed over stored solves.

The semi-implicit step satisfies an exact algebraic balance: pairing the
update with any test function and summing by parts in time leaves no
remainder beyond linear-solver roundoff.  The checks here therefore
evaluate every integrand the way the continuum identities write them --
drift and flux coefficients at the *updated* state, the noise coefficient
at the *previous* state (it multiplies the increment predictably), the
quadratic variation from realized increments -- so that

* state-independent coefficients reproduce the balance to machine
  precision, and
* state-dependent coefficients leave an O(dt) quadrature residual that
  shrinks under refinement.

Inner products weight interior nodes by the cell measure, matching the
scheme's algebra; measure weights at step k pair with frames at t_{k+1}.

Estimate checks replace expectations by sample means over the supplied
realizations and report every right-hand ingredient separately together
with the implied constant (left side over ingredient sum); the constants
themselves are not pinned by theory, so only their stability is testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Sequence

import numpy as np

from .errors import AssumptionError, ConfigurationError
from .grid import node_gradient, same_grid
from .norms import FieldPath, NormToolbox, data_ingredients, gradient_norm_22, mixed_norm
from .solver import (ProblemData, SolveResult, prepare_batch, solve_batch,
                     solve_linear_spde)
from .stochastics import sample_noise

__all__ = [
    "ResidualReport",
    "EstimateReport",
    "ComparisonReport",
    "weak_form_residual",
    "ito_square_residual",
    "positive_part_residual",
    "apriori_check",
    "positive_part_bound_check",
    "comparison_experiment",
]

_INDICATOR_TOL = 1e-12

# EstimateReport ingredient names: the shifted data's four data_ingredients
# terms, then the dominator's.
_INGREDIENTS = ("shifted_initial_sq", "shifted_f0_dual_sq", "shifted_g0_22_sq",
                "shifted_h0_22_sq", "dominator_initial_sq", "dominator_f_dual_sq",
                "dominator_g_22_sq", "dominator_h_22_sq")


@dataclass
class ResidualReport:
    """Per-step residual increments of one discrete identity."""

    name: str
    times: np.ndarray
    increments: np.ndarray      # (steps,)
    resolution: str

    @property
    def cumulative(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.increments)])

    @property
    def terminal(self) -> float:
        return float(abs(self.cumulative[-1]))

    @property
    def max_step(self) -> float:
        return float(np.abs(self.increments).max(initial=0.0))

    @property
    def max_cumulative(self) -> float:
        return float(np.abs(self.cumulative).max())

    def as_dict(self) -> dict:
        return {"name": self.name, "resolution": self.resolution,
                "terminal": self.terminal, "max_step": self.max_step,
                "max_cumulative": self.max_cumulative}


@dataclass
class EstimateReport:
    """Left side vs named right-hand ingredients of an a priori bound."""

    name: str
    lhs: float
    ingredients: dict[str, float]
    implied_constant: float | None
    sample_count: int
    lhs_stderr: float = 0.0

    def __post_init__(self):
        bad = {k: v for k, v in self.ingredients.items() if v < 0}
        if bad:
            raise ConfigurationError(f"negative estimate ingredients: {bad}")

    @property
    def rhs_sum(self) -> float:
        return float(sum(self.ingredients.values()))

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "lhs_stderr": self.lhs_stderr,
                "ingredients": self.ingredients, "rhs_sum": self.rhs_sum,
                "implied_constant": self.implied_constant,
                "sample_count": self.sample_count}


def _inner(grid, a: np.ndarray, b: np.ndarray) -> float:
    return float(grid.cell_measure * np.dot(grid.restrict(a), grid.restrict(b)))


def _norm_sq(grid, a: np.ndarray) -> float:
    ai = grid.restrict(a)
    return float(grid.cell_measure * np.dot(ai, ai))


def _resolution_tag(data: ProblemData) -> str:
    return f"cells={data.op.grid.counts}, steps={data.steps}"


def _phi_frames(data: ProblemData, phi) -> np.ndarray:
    grid = data.op.grid
    if isinstance(phi, FieldPath):
        if not same_grid(phi.grid, grid) or phi.steps != data.steps:
            raise ConfigurationError("test function discretization mismatch")
        frames = np.asarray(phi.frames, dtype=float)
    else:
        frames = np.stack([np.asarray(phi(float(t), grid.coords), dtype=float)
                           for t in data.times])
    # compact support: zero on the boundary and on the first interior ring
    multi = np.indices(grid.shape).reshape(grid.dim, -1)
    near = np.zeros(grid.n_nodes, dtype=bool)
    for a in range(grid.dim):
        near |= (multi[a] <= 1) | (multi[a] >= grid.shape[a] - 2)
    scale = 1.0 + np.abs(frames).max()
    if np.abs(frames[:, near]).max(initial=0.0) > 1e-14 * scale:
        raise ConfigurationError(
            "test function must vanish on the boundary and the first interior ring")
    return frames


# Frames per node_gradient call when a check walks a path: a stacked call
# costs little more than a one-frame call, and the block bounds its memory.
_GRADIENT_BLOCK = 16


def _gradients(grid, frames: np.ndarray):
    """``node_gradient`` of each frame in turn, computed a block at a time."""
    for start in range(0, len(frames), _GRADIENT_BLOCK):
        yield from node_gradient(grid, frames[start:start + _GRADIENT_BLOCK])


def _step_coefficients(data: ProblemData, u: np.ndarray, k: int, z_old: np.ndarray,
                       z_new: np.ndarray):
    """f and g at the updated state u[k + 1] (gradient z_new), h at the
    previous state u[k] (gradient z_old), all at time t_k, on every node."""
    grid = data.op.grid
    t_k = float(data.times[k])
    y_new = u[k + 1]
    f_new = np.asarray(data.coeffs.f(t_k, grid.coords, y_new, z_new), dtype=float)
    g_new = np.asarray(data.coeffs.g(t_k, grid.coords, y_new, z_new), dtype=float)
    h_old = np.asarray(data.coeffs.h(t_k, grid.coords, u[k], z_old), dtype=float)
    return f_new, g_new, h_old


def weak_form_residual(result: SolveResult, data: ProblemData, phi) -> ResidualReport:
    """Residual of the weak balance against one test function.

    ``phi`` is a FieldPath on the same discretization or a callable
    ``phi(t, coords) -> values`` sampled to the grid; it must be compactly
    supported inside the domain.
    """
    grid = data.op.grid
    dt = data.dt
    u = result.u.frames
    phi_f = _phi_frames(data, phi)
    K = data.op.stiffness
    inc = data.noise.increments
    weights = result.measure.weights

    out = np.zeros(data.steps)
    walk = zip(pairwise(_gradients(grid, u)), _gradients(grid, phi_f[1:]))
    for k, ((z_old, z_new), phi_z) in enumerate(walk):
        f_new, g_new, h_old = _step_coefficients(data, u, k, z_old, z_new)
        phi_grad = phi_z[grid.interior]
        r = (_inner(grid, u[k + 1], phi_f[k + 1]) - _inner(grid, u[k], phi_f[k])
             - _inner(grid, u[k], phi_f[k + 1] - phi_f[k])
             + dt * grid.cell_measure * float(grid.restrict(u[k + 1]) @ (K @ grid.restrict(phi_f[k + 1])))
             + dt * grid.cell_measure * float(np.sum(g_new[grid.interior] * phi_grad))
             - dt * _inner(grid, f_new, phi_f[k + 1])
             - _inner(grid, h_old @ inc[:, k], phi_f[k + 1])
             - dt * grid.cell_measure * float(weights[k] @ grid.restrict(phi_f[k + 1])))
        out[k] = r
    return ResidualReport("weak_form", np.asarray(data.times), out, _resolution_tag(data))


def _square_identity_residual(name, result, data, positive_part: bool) -> ResidualReport:
    grid = data.op.grid
    dt = data.dt
    K = data.op.stiffness
    inc = data.noise.increments
    weights = result.measure.weights
    u = result.u.frames
    out = np.zeros(data.steps)

    v = np.maximum(u, 0.0) if positive_part else u
    walk = zip(pairwise(_gradients(grid, u)), _gradients(grid, v[1:]))
    for k, ((z_old, z_new), v_z) in enumerate(walk):
        f_new, g_new, h_old = _step_coefficients(data, u, k, z_old, z_new)
        v_new = v[k + 1]
        v_old = v[k]
        vi = grid.restrict(v_new)
        v_grad = v_z[grid.interior]
        r = (_norm_sq(grid, v_new) - _norm_sq(grid, v_old)
             + _norm_sq(grid, v_new - v_old)                       # realized bracket
             + 2 * dt * grid.cell_measure * float(vi @ (K @ vi))
             - 2 * dt * _inner(grid, v_new, f_new)
             + 2 * dt * grid.cell_measure * float(np.sum(g_new[grid.interior] * v_grad))
             - 2 * _inner(grid, v_new, h_old @ inc[:, k])
             - 2 * dt * grid.cell_measure * float(weights[k] @ vi))
        out[k] = r
    return ResidualReport(name, np.asarray(data.times), out, _resolution_tag(data))


def ito_square_residual(result: SolveResult, data: ProblemData) -> ResidualReport:
    """Residual of the squared-norm energy balance along a stored solve."""
    return _square_identity_residual("ito_square", result, data, positive_part=False)


def positive_part_residual(result: SolveResult, data: ProblemData) -> ResidualReport:
    """Residual of the positive-part energy balance; coincides with
    ``ito_square_residual`` whenever the solution keeps one sign."""
    return _square_identity_residual("positive_part", result, data, positive_part=True)


def _as_sequences(results, datas):
    if isinstance(results, SolveResult):
        results = [results]
    if isinstance(datas, ProblemData):
        datas = [datas]
    if len(results) != len(datas):
        raise ConfigurationError("results and problem data counts differ")
    return list(results), list(datas)


def _dominator_frames(data: ProblemData):
    grid = data.op.grid
    zero_s = np.zeros((data.steps + 1, grid.n_nodes))
    dom = data.dominator
    f = dom.f if dom is not None and dom.f is not None else zero_s
    g = dom.g if dom is not None and dom.g is not None else np.zeros(
        (data.steps + 1, grid.n_nodes, grid.dim))
    h = dom.h if dom is not None and dom.h is not None else np.zeros(
        (data.steps + 1, grid.n_nodes, data.noise.J))
    s0 = dom.initial.values if dom is not None else np.zeros(grid.n_nodes)
    return s0, np.asarray(f, float), np.asarray(g, float), np.asarray(h, float)


def _estimate(name, results, datas, t, toolbox, positive: bool,
              dominators: Sequence[FieldPath] | None = None) -> EstimateReport:
    results, datas = _as_sequences(results, datas)
    if dominators is not None and len(dominators) != len(datas):
        raise ConfigurationError(f"{len(dominators)} dominator path(s) for "
                                 f"{len(datas)} problem(s)")
    grid = datas[0].op.grid
    if toolbox is None:
        toolbox = NormToolbox.for_dim(grid.dim)
    if t is None:
        t = float(datas[0].times[-1])

    lhs_samples = []
    ing_samples: dict[str, list[float]] = {}
    for idx, (result, data) in enumerate(zip(results, datas)):
        times = data.times
        sprime = dominators[idx] if dominators is not None else solve_linear_spde(data)
        s0, fp, gp, hp = _dominator_frames(data)

        sp = sprime.frames
        fbar = np.zeros_like(sp)
        gbar = np.zeros((sp.shape[0], grid.n_nodes, grid.dim))
        hbar = np.zeros((sp.shape[0], grid.n_nodes, data.noise.J))
        for k, (y, z) in enumerate(zip(sp, _gradients(grid, sp))):
            t_k = float(times[k])
            fbar[k] = np.asarray(data.coeffs.f(t_k, grid.coords, y, z), float) - fp[k]
            gbar[k] = np.asarray(data.coeffs.g(t_k, grid.coords, y, z), float) - gp[k]
            hbar[k] = np.asarray(data.coeffs.h(t_k, grid.coords, y, z), float) - hp[k]

        if positive:
            ind = (result.u.frames - sp) > _INDICATOR_TOL
            fbar = np.where(ind, np.maximum(fbar, 0.0), 0.0)
            gbar = gbar * ind[:, :, None]
            hbar = hbar * ind[:, :, None]
            ind_dom = sp > _INDICATOR_TOL
            fp = np.where(ind_dom, np.maximum(fp, 0.0), 0.0)
            gp = gp * ind_dom[:, :, None]
            hp = hp * ind_dom[:, :, None]
            initial = np.maximum(data.xi.values - s0, 0.0)
            s0 = np.maximum(s0, 0.0)
            u_plus = FieldPath(grid, times, np.maximum(result.u.frames, 0.0))
            lhs = mixed_norm(u_plus, 2, math.inf, t) ** 2
        else:
            initial = data.xi.values - s0
            lhs = (mixed_norm(result.u, 2, math.inf, t) ** 2
                   + gradient_norm_22(result.u, t) ** 2)

        terms = (data_ingredients(grid, times, t, initial, fbar, gbar, hbar, toolbox)
                 + data_ingredients(grid, times, t, s0, fp, gp, hp, toolbox))
        lhs_samples.append(lhs)
        for key, val in zip(_INGREDIENTS, terms):
            ing_samples.setdefault(key, []).append(val)

    lhs_mean = float(np.mean(lhs_samples))
    lhs_stderr = float(np.std(lhs_samples) / np.sqrt(len(lhs_samples))) if len(lhs_samples) > 1 else 0.0
    ing_mean = {k: float(np.mean(v)) for k, v in ing_samples.items()}
    rhs = sum(ing_mean.values())
    implied = lhs_mean / rhs if rhs > 1e-30 else None
    return EstimateReport(name=name, lhs=lhs_mean, ingredients=ing_mean,
                          implied_constant=implied, sample_count=len(lhs_samples),
                          lhs_stderr=lhs_stderr)


def apriori_check(results, datas, t: float | None = None,
                  toolbox: NormToolbox | None = None,
                  dominators: Sequence[FieldPath] | None = None) -> EstimateReport:
    """Sample-mean a priori bound: |u|_{2,inf;t}^2 + |grad u|_{2,2;t}^2
    against the shifted data and dominator ingredients."""
    return _estimate("apriori", results, datas, t, toolbox, positive=False,
                     dominators=dominators)


def positive_part_bound_check(results, datas, t: float | None = None,
                              toolbox: NormToolbox | None = None,
                              dominators: Sequence[FieldPath] | None = None) -> EstimateReport:
    """Sample-mean positive-part bound: |u^+|_{2,inf;t}^2 against
    indicator-restricted shifted data and the dominator's positive-part
    ingredients."""
    return _estimate("positive_part_bound", results, datas, t, toolbox, positive=True,
                     dominators=dominators)


@dataclass
class ComparisonReport:
    min_gap: float
    per_sample: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"min_gap": self.min_gap, "per_sample": self.per_sample,
                "seeds": self.seeds}


def _static_ordering(data1: ProblemData, data2: ProblemData) -> None:
    """Preconditions that need no solve: ordered initial data and obstacles,
    one operator."""
    tol = 1e-10
    if np.any(data1.xi.values > data2.xi.values + tol):
        raise AssumptionError("comparison precondition violated: initial conditions "
                              "are not ordered")
    if np.any(data1.obstacle.frames > data2.obstacle.frames + tol):
        raise AssumptionError("comparison precondition violated: obstacles are not ordered")
    if not same_grid(data1.op.grid, data2.op.grid) or not np.allclose(
            data1.op.a, data2.op.a, rtol=0, atol=1e-12):
        raise AssumptionError("comparison precondition violated: operators differ")


def _trajectory_ordering(data1: ProblemData, data2: ProblemData, u: np.ndarray) -> None:
    """Drift ordering and identical flux and noise coefficients along one
    trajectory ``u`` (steps + 1, n_nodes) of the first problem."""
    grid = data1.op.grid
    tol = 1e-10
    for k, (y, z) in enumerate(zip(u[:-1], _gradients(grid, u[:-1]))):
        t_k = float(data1.times[k])
        f1 = np.asarray(data1.coeffs.f(t_k, grid.coords, y, z), float)
        f2 = np.asarray(data2.coeffs.f(t_k, grid.coords, y, z), float)
        if np.any(f1 > f2 + tol):
            raise AssumptionError("comparison precondition violated: drift ordering "
                                  f"fails along the first trajectory at step {k}")
        g1 = np.asarray(data1.coeffs.g(t_k, grid.coords, y, z), float)
        g2 = np.asarray(data2.coeffs.g(t_k, grid.coords, y, z), float)
        h1 = np.asarray(data1.coeffs.h(t_k, grid.coords, y, z), float)
        h2 = np.asarray(data2.coeffs.h(t_k, grid.coords, y, z), float)
        if np.abs(g1 - g2).max(initial=0.0) > tol or np.abs(h1 - h2).max(initial=0.0) > tol:
            raise AssumptionError("comparison precondition violated: flux or noise "
                                  f"coefficients differ at step {k}")


def comparison_experiment(data1: ProblemData, data2: ProblemData,
                          seeds: Sequence[int], mode: str = "projected",
                          penalty_n: int = 1000) -> ComparisonReport:
    """Solve both problems on shared noise per seed and report the smallest
    nodewise gap u2 - u1 over all samples, steps and interior nodes.

    ``mode`` and ``penalty_n`` select the scheme as in ``solve_mode``.  The
    noise of every seed is drawn first.  Preconditions are probed before
    the solves they would waste: ordered initial data and obstacles, one
    operator and both problems' assumption gates before any solve; drift
    ordering and identical flux and noise coefficients along the first
    seed's trajectory of problem 1 before problem 2 is solved.  A violation
    refuses the experiment.  Each problem marches all seeds as one batch
    (``solve_batch``); every seed's gap is bit for bit that of solving it
    alone.
    """
    noises = [sample_noise(data1.noise.J, data1.noise.dt, data1.noise.steps, int(seed))
              for seed in seeds]
    _static_ordering(data1, data2)
    batch1, batch2 = (prepare_batch(d, noises, mode, penalty_n) for d in (data1, data2))
    frames1 = solve_batch(batch1).frames  # only the frames: weights would add to the peak
    _trajectory_ordering(data1, data2, frames1[0])
    frames2 = solve_batch(batch2).frames
    interior = data1.op.grid.interior
    gaps = [float((u2[:, interior] - u1[:, interior]).min())
            for u1, u2 in zip(frames1, frames2)]
    return ComparisonReport(min_gap=min(gaps), per_sample=gaps,
                            seeds=[int(s) for s in seeds])
