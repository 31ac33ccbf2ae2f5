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

Estimate checks replace expectations by sample means over S realizations
of one problem -- its solution paths and its dominator's paths on the same
noises, which the caller marches -- and report every right-hand ingredient
separately together with the implied constant (left side over ingredient
sum); the constants themselves are not pinned by theory, so only their
stability is testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Sequence

import numpy as np

from .errors import AssumptionError, ConfigurationError
from .grid import node_gradient, same_grid
from .norms import FieldPath, data_ingredients, gradient_norm_22, mixed_norm
from .solver import ProblemData, SolveResult, prepare_batch, solve_batch
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


def _maps_along(data: ProblemData, frames: np.ndarray):
    """f, g and h of ``data`` at every frame of S paths (S, steps + 1, n_nodes),
    on every node: each map runs once per time step on the S paths' nodes
    stacked as one stack of rows."""
    grid, coeffs = data.op.grid, data.coeffs
    S, _, n = frames.shape
    x = np.tile(grid.coords, (S, 1))
    out = [np.empty(frames.shape + tail) for tail in ((), (grid.dim,), (coeffs.modes,))]
    by_step = frames.transpose(1, 0, 2)
    for k, (y, z) in enumerate(zip(by_step, _gradients(grid, by_step))):
        t_k = float(data.times[k])
        for fn, o in zip((coeffs.f, coeffs.g, coeffs.h), out):
            o[:, k] = np.asarray(fn(t_k, x, y.reshape(-1), z.reshape(S * n, -1)),
                                 float).reshape(o.shape[:1] + o.shape[2:])
    return out


def _positive_part(ind: np.ndarray, f, g, h):
    """f^+, g and h where ``ind`` holds and 0 elsewhere; None stays None."""
    return (None if f is None else np.where(ind, np.maximum(f, 0.0), 0.0),
            *(None if c is None else c * ind[..., None] for c in (g, h)))


def _estimate(name, data: ProblemData, paths: Sequence[FieldPath],
              dominators: Sequence[FieldPath], t, positive: bool) -> EstimateReport:
    if len(dominators) != len(paths):
        raise ConfigurationError(f"{len(dominators)} dominator path(s) for "
                                 f"{len(paths)} solution path(s)")
    grid, times = data.op.grid, data.times
    if t is None:
        t = float(times[-1])
    S = len(paths)
    sp = np.stack([path.frames for path in dominators])
    dom = data.dominator
    # a source the dominator lacks, or a problem without one, counts as zero
    s0 = dom.initial.values if dom is not None else np.zeros(grid.n_nodes)
    sources = (dom.f, dom.g, dom.h) if dom is not None else (None,) * 3
    dom_sources = [None if c is None else np.broadcast_to(c, (S,) + np.shape(c))
                   for c in sources]
    shifted = [m if c is None else m - c for m, c in zip(_maps_along(data, sp), dom_sources)]

    if positive:
        u = np.stack([path.frames for path in paths])
        shifted = _positive_part((u - sp) > _INDICATOR_TOL, *shifted)
        dom_sources = _positive_part(sp > _INDICATOR_TOL, *dom_sources)
        initial = np.maximum(data.xi.values - s0, 0.0)
        s0 = np.maximum(s0, 0.0)
    else:
        initial = data.xi.values - s0

    lhs_samples, ing_samples = [], []
    for s, path in enumerate(paths):
        if positive:
            u_plus = FieldPath(grid, times, np.maximum(path.frames, 0.0))
            lhs_samples.append(mixed_norm(u_plus, 2, math.inf, t) ** 2)
        else:
            lhs_samples.append(mixed_norm(path, 2, math.inf, t) ** 2
                               + gradient_norm_22(path, t) ** 2)
        ing_samples.append(
            data_ingredients(grid, times, t, initial, *(c[s] for c in shifted))
            + data_ingredients(grid, times, t, s0,
                               *(None if c is None else c[s] for c in dom_sources)))

    lhs_mean = float(np.mean(lhs_samples))
    lhs_stderr = float(np.std(lhs_samples) / np.sqrt(S)) if S > 1 else 0.0
    ing_mean = {k: float(np.mean(v)) for k, v in zip(_INGREDIENTS, zip(*ing_samples))}
    rhs = sum(ing_mean.values())
    implied = lhs_mean / rhs if rhs > 1e-30 else None
    return EstimateReport(name=name, lhs=lhs_mean, ingredients=ing_mean,
                          implied_constant=implied, sample_count=S,
                          lhs_stderr=lhs_stderr)


def apriori_check(data: ProblemData, paths: Sequence[FieldPath],
                  dominators: Sequence[FieldPath], t: float | None = None) -> EstimateReport:
    """Sample-mean a priori bound over S realizations of one problem:
    |u|_{2,inf;t}^2 + |grad u|_{2,2;t}^2 against the shifted data and
    dominator ingredients.  ``paths`` are the S solution paths and
    ``dominators`` the S dominator paths on the same noises
    (``solve_dominators``)."""
    return _estimate("apriori", data, paths, dominators, t, positive=False)


def positive_part_bound_check(data: ProblemData, paths: Sequence[FieldPath],
                              dominators: Sequence[FieldPath],
                              t: float | None = None) -> EstimateReport:
    """Sample-mean positive-part bound over S realizations of one problem:
    |u^+|_{2,inf;t}^2 against indicator-restricted shifted data and the
    dominator's positive-part ingredients; arguments as in
    ``apriori_check``."""
    return _estimate("positive_part_bound", data, paths, dominators, t, positive=True)


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
