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

Obstacle enforcement comes in two flavors sharing this skeleton, named by
``mode`` (the config's ``solver.mode``):

* ``penalized``: the reaction is n * (u - S)^-, solved implicitly per step;
  the measure density recorded at step k is n * (u_{k+1} - S_{k+1})^-.
* ``projected``: the step solves the linear complementarity problem
  u >= S, r := (I + dt A_h) u - rhs >= 0, r' (u - S) = 0; the measure
  density is r / dt.  This realizes the constrained limit directly and
  serves as the oracle for penalization sweeps.

``unconstrained`` ignores the obstacle.  ``solve_batch`` is the one march
over time steps: it advances a batch of noise paths with stacked states,
sharing the step factorization and each step's source evaluation and
obstacle solve.  ``prepare_batch`` makes a problem's batch, whose sources
are the coefficient maps, and runs the hypotheses gate.
``solve_dominators`` is the one entry point to the dominating linear SPDE
(the bound S' on the obstacle), whose sources are the dominator's sampled
paths, ungated and unconstrained; one path is a list of one noise.  A
single solve, ``solve_mode``, is a batch of one.  Every path of a batch
carries its own start state, obstacle column and sources, so ``_join`` can
stack two prepared batches on one step matrix and a comparison marches both
problems at once.  In every case each path's numbers are those of marching
it alone, bit for bit.

Measure weights are densities per unit space-time volume: total mass is
sum(weights) * cell_measure * dt.  The weight at step k binds to the frame
at t_{k+1} (the time whose constraint produced it); all quadratures against
the measure follow that convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssumptionError, ConfigurationError, SolverError
from .grid import EllipticOperator, Field, _readonly, divergence, node_gradient, same_grid
from .lcp import StepMatrix, psor
from .norms import FieldPath
from .stochastics import CoefficientSet, NoisePath, validate_assumptions

__all__ = [
    "DominatorData",
    "ProblemData",
    "DiscreteMeasure",
    "SolveResult",
    "Batch",
    "BatchResult",
    "solve_dominators",
    "solve_mode",
    "prepare_batch",
    "solve_batch",
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
        dom = self.dominator
        if dom is not None:
            if not same_grid(dom.initial.grid, grid):
                raise ConfigurationError("dominator.initial is not on the problem's grid")
            frames = (self.steps + 1, grid.n_nodes)
            for name, shape in (("f", frames), ("g", frames + (grid.dim,)),
                                ("h", frames + (self.noise.J,))):
                value = getattr(dom, name)
                if value is not None and np.shape(value) != shape:
                    raise ConfigurationError(f"dominator.{name} has shape {np.shape(value)}, "
                                             f"the problem needs {shape}")
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


@dataclass
class SolveResult:
    u: FieldPath
    measure: DiscreteMeasure
    diagnostics: dict = field(default_factory=dict)


def _step_matrix(op: EllipticOperator, dt: float) -> StepMatrix:
    """Prefactorized implicit step matrix B = I + dt * K on interior nodes,
    with the pattern every obstacle step of the solve edits."""
    n = op.grid.n_interior
    B = (sp.identity(n, format="csr") + dt * op.stiffness).tocsr()
    B.sort_indices()
    try:
        lu = spla.splu(B.tocsc())
    except RuntimeError as exc:  # singular / not SPD
        raise SolverError(f"implicit step matrix factorization failed: {exc}") from exc
    return StepMatrix(B, lu)


def _source_rhs(grid, dt, u_full, f_int, g_int, h_int, dB):
    """Interior right-hand side u_k + dt f + dt div g + h dB of S states
    (S, n_nodes); a source given as None is absent."""
    rhs = grid.restrict(u_full).copy()
    if f_int is not None:
        rhs += dt * f_int
    if g_int is not None:
        g_full = np.zeros(rhs.shape[:-1] + (grid.n_nodes, grid.dim))
        g_full[..., grid.interior, :] = g_int
        rhs += dt * grid.restrict(divergence(grid, g_full))
    if h_int is not None:
        for r, h, b in zip(rhs, h_int, dB):  # per sample: sums independent of the batch
            r += h @ b
    return rhs


def _require_assumptions(data: ProblemData) -> None:
    report = validate_assumptions(data.coeffs, data.op.lam, grid=data.op.grid,
                                  horizon=float(data.times[-1]))
    if not report.ok:
        raise AssumptionError("assumption validation failed; refusing to solve\n"
                              + report.summary())


def solve_dominators(data: ProblemData, noises: Sequence[NoisePath]) -> list[FieldPath]:
    """The dominating linear SPDE of ``data``, driven by its own data on
    every path of ``noises`` and marched as one batch; path s is bit for
    bit that of marching noise s alone, ``solve_dominators(data, [noise])``.
    Warns once if the obstacle exceeds the dominator on any path."""
    batch = solve_batch(_dominator_batch(data, noises))
    grid = data.op.grid
    gap = (data.obstacle.frames[None, :, grid.interior]
           - batch.frames[:, :, grid.interior]).max(axis=(1, 2), initial=-np.inf)
    worst = int(np.argmax(gap))
    if gap[worst] > 1e-9:
        warnings.warn(
            f"obstacle exceeds its dominator by up to {gap[worst]:.3e} on seed "
            f"{noises[worst].seed}; the domination assumption fails on this realization",
            stacklevel=2)
    return [FieldPath(grid, data.times, frames) for frames in batch.frames]


@dataclass
class BatchResult:
    """One problem solved on S noise paths: frames (S, steps + 1, n_nodes)
    and measure weights (S, steps, n_interior), one row per path.
    ``diagnostics["iterations"]`` lists the active-set passes of every step,
    path after path; ``factorizations`` counts the pass matrices the
    obstacle step factored (a set that returns reuses the factor the march
    kept for it) and ``feasible_steps`` the steps that needed no pass."""

    grid: object
    times: np.ndarray
    frames: np.ndarray
    weights: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def sample(self, s: int) -> SolveResult:
        """Path s as a solve of its own: its frames, measure and active-set
        passes.  ``factorizations`` stays the batch's count, since the paths
        share their factors."""
        K = self.weights.shape[1]
        iterations = self.diagnostics["iterations"][s * K:(s + 1) * K]
        return SolveResult(u=FieldPath(self.grid, self.times, self.frames[s]),
                           measure=DiscreteMeasure(self.grid, self.times, self.weights[s]),
                           diagnostics={**self.diagnostics, "iterations": iterations,
                                        "feasible_steps": iterations.count(0)})


def _scheme(mode: str, penalty_n: int, dt: float) -> tuple[Callable, dict]:
    """The per-step ``advance(ws, rhs, psi)`` of the scheme named by
    ``mode`` and the diagnostics it adds.  ``rhs`` is an (n, S) block and
    ``psi`` its interior obstacle columns at t_{k+1} (n, S); ``advance``
    returns the interior states at t_{k+1} (n, S), the measure
    densities of step k (n, S) and the active-set passes (S,).

    A penalized step's density is n * (u_{k+1} - S_{k+1})^-, exactly the
    reaction it applied.  A projected step is the exact active-set solve of
    its complementarity problem (``psor`` at infinite penalty); its density
    is the positive part of the step residual over dt, and zero on a step
    whose unconstrained solve is already feasible.
    """
    if mode == "projected":
        def advance(ws, rhs, psi):
            u_next, passes = psor(ws, rhs, psi)
            reaction = np.maximum(ws.B @ u_next - rhs, 0.0) / dt
            return u_next, np.where(passes > 0, reaction, 0.0), passes

        return advance, {}
    if mode == "penalized":
        if penalty_n < 1:
            raise ConfigurationError(f"penalization level must be >= 1, got {penalty_n}")
        pen = dt * float(penalty_n)

        def advance(ws, rhs, psi):
            u_next, passes = psor(ws, rhs, psi, pen)
            below = np.maximum(psi - u_next, 0.0)
            return u_next, float(penalty_n) * below, passes

        return advance, {"penalty_level": int(penalty_n)}
    if mode == "unconstrained":
        def advance(ws, rhs, psi):
            return ws.lu.solve(rhs), np.zeros_like(rhs), np.zeros(rhs.shape[1], dtype=int)

        return advance, {}
    raise ConfigurationError(f"unknown solver.mode '{mode}'; "
                             "available: projected, penalized, unconstrained")


@dataclass(frozen=True, eq=False)
class Batch:
    """One problem and S noise paths that passed every refusal a solve makes
    before it marches: each path's start state, ``start`` (S, n_nodes);
    ``sources(k, u)``, the explicit f, g and h at the stacked states
    u (S, n_nodes) of step k, each (S, ...) or None when absent;
    ``obstacle(k)``, each path's interior obstacle at t_{k+1}
    (n_interior, S); and the scheme's ``advance``.  Made by
    ``prepare_batch`` or ``_dominator_batch``, which repeat the problem's
    start, obstacle and (for the dominator) sources on every path as
    read-only broadcast views, not copies, or by ``_join``; marched by
    ``solve_batch``."""

    data: ProblemData
    noises: tuple
    start: np.ndarray
    sources: Callable
    obstacle: Callable
    advance: Callable
    diagnostics: dict

    def with_scheme(self, mode: str, penalty_n: int = 1000) -> Batch:
        """This batch, made by ``prepare_batch``, marched by the scheme named
        by ``mode`` instead.  Its paths and data passed the other refusals
        already, so only the scheme's own refusals run (an unknown scheme, a
        penalty level below 1); the hypotheses gate does not run again."""
        advance, extra = _scheme(mode, penalty_n, self.data.dt)
        return replace(self, advance=advance, diagnostics=extra)


def _rows(value: np.ndarray, S: int) -> np.ndarray:
    """``value`` repeated as S rows: a read-only view, not a copy."""
    return np.broadcast_to(value, (S,) + value.shape)


def _obstacle(data: ProblemData, S: int) -> Callable:
    """``obstacle(k)`` of S paths on the problem's obstacle."""
    grid = data.op.grid
    return lambda k: _rows(grid.restrict(data.obstacle.frames[k + 1]), S).T


def _require_fit(data: ProblemData, noises: Sequence[NoisePath]) -> None:
    if not noises:
        raise ConfigurationError("a batch needs at least one noise path")
    for noise in noises:
        if (noise.increments.shape != data.noise.increments.shape
                or abs(noise.dt - data.dt) > 1e-12 * data.dt):
            raise ConfigurationError(
                f"noise of seed {noise.seed} does not fit the problem's modes and steps")


def prepare_batch(data: ProblemData, noises: Sequence[NoisePath], mode: str = "projected",
                  penalty_n: int = 1000) -> Batch:
    """Check a solve of ``data`` on every path of ``noises`` with the scheme
    named by ``mode`` (as in ``solve_mode``): refuse an unknown scheme, a
    path that does not fit the problem, or data outside the hypotheses.

    The batch's sources are the coefficient maps, evaluated once per step
    on the S paths' interior nodes (``CoefficientSet.evaluate``)."""
    advance, extra = _scheme(mode, penalty_n, data.dt)
    _require_fit(data, noises)
    _require_assumptions(data)
    grid = data.op.grid
    x_int = grid.coords[grid.interior]

    def sources(k, u):
        return data.coeffs.evaluate(float(data.times[k]), x_int, grid.restrict(u),
                                    node_gradient(grid, u)[:, grid.interior])

    S = len(noises)
    return Batch(data, tuple(noises), _rows(data.xi.values, S), sources, _obstacle(data, S),
                 advance, extra)


def _dominator_batch(data: ProblemData, noises: Sequence[NoisePath]) -> Batch:
    """The dominating linear SPDE of ``data`` on every path of ``noises``:
    it starts from the dominator's initial state, its sources are the
    dominator's sampled paths, the same on every path, and it ignores the
    obstacle.  No hypotheses gate runs: no source depends on the state."""
    if data.dominator is None:
        raise ConfigurationError("problem data carries no dominator block")
    _require_fit(data, noises)
    dom = data.dominator
    grid = data.op.grid
    S = len(noises)
    advance, extra = _scheme("unconstrained", 0, data.dt)

    def sources(k, u):
        return tuple(None if c is None else _rows(c[k][grid.interior], S)
                     for c in (dom.f, dom.g, dom.h))

    return Batch(data, tuple(noises), _rows(dom.initial.values, S), sources, _obstacle(data, S),
                 advance, extra)


def _join(batch1: Batch, batch2: Batch) -> Batch:
    """Two batches made by ``prepare_batch``, as one batch: its first S
    paths are ``batch1``'s S paths and the rest ``batch2``'s.  Each half
    keeps its own start states, obstacle columns and sources, evaluated on
    its own states; both halves march with ``batch1``'s scheme and step
    matrix, so the two problems must assemble bit-identical step matrices:
    the same grid, stiffness and time step.  Each half's numbers are then,
    bit for bit, those of marching its batch alone, while the halves share
    the step's factorization and the obstacle step's pass factors."""
    data1, data2 = batch1.data, batch2.data
    K1, K2 = data1.op.stiffness, data2.op.stiffness
    if not (same_grid(data1.op.grid, data2.op.grid) and data1.dt == data2.dt
            and _same_matrix(K1, K2)):
        raise ConfigurationError("joined problems need one grid, stiffness and time step")
    S = len(batch1.noises)

    def sources(k, u):
        return tuple(np.concatenate(pair) for pair in
                     zip(batch1.sources(k, u[:S]), batch2.sources(k, u[S:])))

    def obstacle(k):
        return np.concatenate([batch1.obstacle(k), batch2.obstacle(k)], axis=1)

    start = np.concatenate([batch1.start, batch2.start])
    return Batch(data1, batch1.noises + batch2.noises, start, sources, obstacle,
                 batch1.advance, batch1.diagnostics)


def _same_matrix(A: sp.csr_matrix, B: sp.csr_matrix) -> bool:
    """Whether two CSR matrices store the same entries in the same places,
    bit for bit."""
    return (A.shape == B.shape and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices) and A.data.tobytes() == B.data.tobytes())


def solve_batch(batch: Batch) -> BatchResult:
    """March every path of a prepared batch at once: factor the step once,
    then advance all paths together with explicit sources.

    The states of the S paths are stacked: the batch's sources run once per
    step on all of them, and the scheme's ``advance`` receives the
    right-hand sides as one (n, S) block with the paths' obstacle columns
    at t_{k+1} (n, S); path s starts from row s of the batch's start.  Each
    path's numbers are, bit for bit, those of marching it alone.  A failed
    step names its seed.
    """
    data, noises = batch.data, batch.noises
    grid = data.op.grid
    dt = data.dt
    S = len(noises)
    ws = _step_matrix(data.op, dt)
    frames = np.zeros((S, data.steps + 1, grid.n_nodes))
    frames[:, 0] = batch.start
    weights = np.zeros((S, data.steps, grid.n_interior))
    iterations = np.zeros((S, data.steps), dtype=int)
    inc = np.stack([noise.increments for noise in noises])
    for k in range(data.steps):
        u = frames[:, k]
        rhs = _source_rhs(grid, dt, u, *batch.sources(k, u), inc[:, :, k])
        try:
            u_next, w_k, passes = batch.advance(ws, rhs.T, batch.obstacle(k))
        except SolverError as exc:
            seed = noises[exc.column].seed
            raise SolverError(f"step {k} failed for seed {seed}: {exc}",
                              column=exc.column) from exc
        frames[:, k + 1, grid.interior] = u_next.T
        weights[:, k] = w_k.T
        iterations[:, k] = passes
    return BatchResult(grid, data.times, frames, weights, diagnostics={
        "iterations": iterations.ravel().tolist(),
        "factorizations": ws.factorizations,
        "feasible_steps": int(np.count_nonzero(iterations == 0)),
        **batch.diagnostics,
    })


def solve_mode(data: ProblemData, mode: str, penalty_n: int = 1000) -> SolveResult:
    """Solve with the scheme named by ``mode`` (the config's ``solver.mode``):
    ``projected``, ``penalized`` at level ``penalty_n``, or ``unconstrained``
    (the obstacle is ignored).  This is a batch of one path, ``data.noise``;
    ``diagnostics["iterations"]`` counts each step's active-set passes."""
    return solve_batch(prepare_batch(data, [data.noise], mode, penalty_n)).sample(0)


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
