"""Discrete identity and estimate checks replayed over stored solves.

The three identity checks are one balance paired with a test frame.  Over
each step k the semi-implicit scheme satisfies, for any frame tau,

    <s_{k+1} - s_k, tau> + dt E(s_{k+1}, tau) + dt <g, grad tau>
      - dt <f, tau> - <h dB_k, tau> - dt <nu_k, tau> = 0

with s = u, up to linear-solver roundoff.  The weak form pairs u with a
compactly supported test function, a callable of t and the node
coordinates sampled at every frame; the squared-norm (Ito) balance pairs u
with itself, doubled, since |u_{k+1}|^2 - |u_k|^2 + |u_{k+1} - u_k|^2 (the
realized bracket) is 2 <u_{k+1} - u_k, u_{k+1}>; the positive-part balance
pairs u^+ with itself, doubled.  Every integrand is evaluated the way the
continuum identities write it -- drift and flux coefficients at the
*updated* state, the noise coefficient at the *previous* state (it
multiplies the increment predictably), all at u -- so that

* state-independent coefficients close the balance of u to machine
  precision, and
* state-dependent coefficients, and u^+ where u changes sign, leave an
  O(dt) quadrature residual that shrinks under refinement.

Inner products weight interior nodes by the cell measure, matching the
scheme's algebra; measure weights at step k pair with frames at t_{k+1}.

Estimate checks replace expectations by sample means over S realizations
of one problem -- its solution paths and its dominator's paths on the same
noises, which the caller marches -- and report every right-hand ingredient
separately together with the implied constant (left side over ingredient
sum); the constants themselves are not pinned by theory, so only their
stability is testable.

The lab's two experiments march one batch per level.  A refinement study
(``refinement_study``) solves a problem at several (cells, steps) levels on
shared fine Brownian paths, each coarsened to the level's step
(``stochastics.coarsen``); a penalization sweep (``penalization_sweep``)
measures penalized solves at levels n against the projected one on the same
noises.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import pairwise
from typing import Callable, Sequence

import numpy as np

from .errors import AssumptionError, ConfigurationError
from .grid import node_gradient, same_grid
from .norms import FieldPath, data_ingredients, gradient_norm_22, mixed_norm
from .solver import (ProblemData, SolveResult, _join, _same_matrix, prepare_batch,
                     skorokhod_defect, solve_batch)
from .stochastics import NoisePath, coarsen, sample_noise

__all__ = [
    "ResidualReport",
    "EstimateReport",
    "ComparisonReport",
    "PenalizationReport",
    "weak_form_residual",
    "ito_square_residual",
    "positive_part_residual",
    "apriori_check",
    "positive_part_bound_check",
    "comparison_experiment",
    "refinement_study",
    "penalization_sweep",
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


def _resolution_tag(data: ProblemData) -> str:
    return f"cells={data.op.grid.counts}, steps={data.steps}"


def _phi_frames(data: ProblemData, phi) -> np.ndarray:
    grid = data.op.grid
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
    coords, t_k = data.op.grid.coords, float(data.times[k])
    f_new, g_new = data.coeffs.evaluate(t_k, coords, u[k + 1], z_new, "fg")
    (h_old,) = data.coeffs.evaluate(t_k, coords, u[k], z_old, "h")
    return f_new, g_new, h_old


def _step_balance(name: str, result: SolveResult, data: ProblemData, state: np.ndarray,
                  test: np.ndarray, factor: float) -> ResidualReport:
    """``factor`` times the step balance of each step k (module docstring)
    with s = ``state``, tau = ``test[k + 1]`` and f, g, h from
    ``_step_coefficients``."""
    grid, dt, K = data.op.grid, data.dt, data.op.stiffness
    inc, weights, u = data.noise.increments, result.measure.weights, result.u.frames
    out = np.zeros(data.steps)
    walk = zip(pairwise(_gradients(grid, u)), _gradients(grid, test[1:]))
    for k, ((z_old, z_new), tau_z) in enumerate(walk):
        f_new, g_new, h_old = _step_coefficients(data, u, k, z_old, z_new)
        s_new, s_old, f, noise = grid.restrict((state[k + 1], state[k], f_new,
                                                h_old @ inc[:, k]))
        flux = float(np.sum(g_new[grid.interior] * tau_z[grid.interior]))
        scheme = s_new - s_old + dt * (K @ s_new - f - weights[k]) - noise
        out[k] = factor * grid.cell_measure * (float(scheme @ grid.restrict(test[k + 1]))
                                               + dt * flux)
    return ResidualReport(name, np.asarray(data.times), out, _resolution_tag(data))


def weak_form_residual(result: SolveResult, data: ProblemData, phi) -> ResidualReport:
    """Residual of the weak balance against one test function.

    ``phi`` is a callable ``phi(t, coords) -> values``, sampled to the grid
    at every time; it must be compactly supported inside the domain.
    """
    return _step_balance("weak_form", result, data, result.u.frames, _phi_frames(data, phi), 1.0)


def ito_square_residual(result: SolveResult, data: ProblemData) -> ResidualReport:
    """Residual of the squared-norm energy balance along a stored solve: the
    step balance paired with u itself, doubled."""
    u = result.u.frames
    return _step_balance("ito_square", result, data, u, u, 2.0)


def positive_part_residual(result: SolveResult, data: ProblemData) -> ResidualReport:
    """Residual of the positive-part energy balance: the squared-norm balance
    of u^+, with the coefficients still at u; coincides bit for bit with
    ``ito_square_residual`` whenever the solution is nonnegative."""
    u_plus = np.maximum(result.u.frames, 0.0)
    return _step_balance("positive_part", result, data, u_plus, u_plus, 2.0)


def _maps_along(data: ProblemData, frames: np.ndarray):
    """f, g and h of ``data`` at every frame of S paths (S, steps + 1, n_nodes),
    on every node: the maps are evaluated once per time step on the S
    paths' nodes."""
    grid, coeffs = data.op.grid, data.coeffs
    out = [np.empty(frames.shape + tail) for tail in ((), (grid.dim,), (coeffs.modes,))]
    by_step = frames.transpose(1, 0, 2)
    for k, (y, z) in enumerate(zip(by_step, _gradients(grid, by_step))):
        for o, value in zip(out, coeffs.evaluate(float(data.times[k]), grid.coords, y, z)):
            o[:, k] = value
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
    if (dom := data.dominator) is None:
        raise ConfigurationError("problem data carries no dominator block")
    sp = np.stack([path.frames for path in dominators])
    s0 = dom.initial.values
    # a source the dominator lacks counts as zero
    dom_sources = [None if c is None else np.broadcast_to(c, (S,) + np.shape(c))
                   for c in (dom.f, dom.g, dom.h)]
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
    lhs_stderr = float(np.std(lhs_samples, ddof=1) / np.sqrt(S)) if S > 1 else 0.0
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
    one operator (one grid and, bit for bit, one assembled stiffness)."""
    tol = 1e-10
    if np.any(data1.xi.values > data2.xi.values + tol):
        raise AssumptionError("comparison precondition violated: initial conditions "
                              "are not ordered")
    if np.any(data1.obstacle.frames > data2.obstacle.frames + tol):
        raise AssumptionError("comparison precondition violated: obstacles are not ordered")
    if not same_grid(data1.op.grid, data2.op.grid) or not _same_matrix(
            data1.op.stiffness, data2.op.stiffness):
        raise AssumptionError("comparison precondition violated: operators differ")


def _trajectory_ordering(data1: ProblemData, data2: ProblemData, u: np.ndarray) -> None:
    """Drift ordering and identical flux and noise coefficients along one
    trajectory ``u`` (steps + 1, n_nodes) of the first problem, at each
    step's start.  The first failing step is reported; at one step the
    drift is checked first."""
    tol = 1e-10
    (f1, g1, h1), (f2, g2, h2) = ([m[0] for m in _maps_along(data, u[None, :-1])]
                                  for data in (data1, data2))
    drift = (f1 > f2 + tol).any(axis=1)
    failed = drift.copy()
    for a, b in ((g1, g2), (h1, h2)):
        failed |= np.abs(a - b).reshape(len(a), -1).max(axis=1, initial=0.0) > tol
    if failed.any():
        k = int(np.argmax(failed))
        if drift[k]:
            raise AssumptionError("comparison precondition violated: drift ordering "
                                  f"fails along the first trajectory at step {k}")
        raise AssumptionError("comparison precondition violated: flux or noise "
                              f"coefficients differ at step {k}")


def comparison_experiment(data1: ProblemData, data2: ProblemData,
                          seeds: Sequence[int], mode: str = "projected",
                          penalty_n: int = 1000) -> ComparisonReport:
    """Solve both problems on shared noise per seed and report the smallest
    nodewise gap u2 - u1 over all samples, steps and interior nodes.

    ``mode`` and ``penalty_n`` select the scheme as in ``solve_mode``.  The
    noise of every seed is drawn first.  Ordered initial data and
    obstacles, one operator and both problems' assumption gates are probed
    before any solve.  Both problems then march all seeds as one batch of
    2S paths (``solver._join``): they share the step's factorization and
    the obstacle step's pass factors, and a path of one problem whose
    active set equals a path's of the other shares its solve.  Drift
    ordering and identical flux and noise coefficients are probed along
    the first seed's trajectory of problem 1 after the march and before
    any gap is reported.  A violation refuses the experiment.  Every
    seed's gap is bit for bit that of solving it alone.
    """
    noises = [sample_noise(data1.noise.J, data1.noise.dt, data1.noise.steps, int(seed))
              for seed in seeds]
    _static_ordering(data1, data2)
    batch1, batch2 = (prepare_batch(d, noises, mode, penalty_n) for d in (data1, data2))
    frames = solve_batch(_join(batch1, batch2)).frames
    S = len(noises)
    _trajectory_ordering(data1, data2, frames[0])
    interior = data1.op.grid.interior
    gaps = [float((u2[:, interior] - u1[:, interior]).min())
            for u1, u2 in zip(frames[:S], frames[S:])]
    return ComparisonReport(min_gap=min(gaps), per_sample=gaps,
                            seeds=[int(s) for s in seeds])


def refinement_study(problem: Callable[[int, int, NoisePath], ProblemData],
                     levels: Sequence[tuple[int, int]], fine: Sequence[NoisePath],
                     mode: str) -> list[list[tuple[ProblemData, SolveResult]]]:
    """Solve ``problem(cells, steps, noise)`` with the scheme named by
    ``mode`` (as in ``prepare_batch``) at each (cells, steps) of ``levels``,
    on every ``fine`` path coarsened to ``steps`` steps (``coarsen``).

    Every level is made, and refused, before any solve; then each level
    marches its paths as one batch.  Returns per level, per path, the
    problem carrying that path's noise and its solve.  Each level's problem
    is built, and warns, once.
    """
    if not fine:
        raise ConfigurationError("a refinement study needs at least one fine path")
    batches = []
    for cells, steps in levels:
        if steps < 1 or any(noise.steps % steps for noise in fine):
            raise ConfigurationError(f"level ({cells}, {steps}): {steps} steps do not divide "
                                     "the fine paths' steps")
        noises = [coarsen(noise, noise.steps // steps) for noise in fine]
        batches.append(prepare_batch(problem(cells, steps, noises[0]), noises, mode))
    out = []
    for batch in batches:
        result = solve_batch(batch)
        with warnings.catch_warnings():
            # each path's problem reruns the checks of its level's problem,
            # which warned already; only the noise differs, and it fits
            warnings.simplefilter("ignore")
            paths = [replace(batch.data, noise=noise) for noise in batch.noises]
        out.append([(data, result.sample(s)) for s, data in enumerate(paths)])
    return out


@dataclass
class PenalizationReport:
    """Penalized solves against the projected one on S noises: row s of each
    (S, L) array is noise s, column l is the l-th penalty level."""

    distances: np.ndarray          # mixed_norm(u_n - u_projected, 2, inf, T)
    defects: np.ndarray            # skorokhod_defect of u_n
    masses: np.ndarray             # total mass of u_n's measure
    projected_defects: np.ndarray  # (S,): skorokhod_defect of u_projected


def penalization_sweep(data: ProblemData, noises: Sequence[NoisePath],
                       levels: Sequence[int]) -> PenalizationReport:
    """Solve ``data`` on every path of ``noises``, projected and penalized at
    each level n of ``levels``, and measure each penalized solve against
    the projected one on the same noise.

    Every batch is made, and refused, before any solve: the projected
    batch runs the hypotheses gate once, and each level's batch is the
    projected one with the penalized scheme.  The projected batch marches
    first, then one batch per level; only one level's frames are alive at a
    time.
    """
    if not levels:
        raise ConfigurationError("a penalization sweep needs at least one level")
    projected = prepare_batch(data, noises, "projected")
    penalized = [projected.with_scheme("penalized", n) for n in levels]
    grid, times, obstacle = data.op.grid, data.times, data.obstacle
    T = float(times[-1])

    def solves(batch):
        result = solve_batch(batch)
        return [result.sample(s) for s in range(len(noises))]

    star = solves(projected)
    projected_defects = np.array([skorokhod_defect(r.u, obstacle, r.measure) for r in star])
    star = [r.u.frames for r in star]  # only the frames: weights would add to the peak

    def measure(level):
        return [(mixed_norm(FieldPath(grid, times, pen.u.frames - ref), 2, math.inf, T),
                 skorokhod_defect(pen.u, obstacle, pen.measure), pen.measure.total_mass())
                for pen, ref in zip(level, star)]

    # (L, S, 3) -> three (S, L) arrays
    table = np.array([measure(solves(batch)) for batch in penalized]).transpose(2, 1, 0)
    return PenalizationReport(*table, projected_defects)
