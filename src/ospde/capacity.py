"""Discrete parabolic capacity via smallest potentials above indicator obstacles.

The smallest potential above a compact space-time set K is realized as the
projected (complementarity) solution of the deterministic obstacle problem
with zero data and obstacle 1 on K, far below elsewhere -- the LCP solution
is the least supersolution, so no separate minimization runs.  Its
reflection measure is supported on K and its total mass is the capacity of
K; a single-time slice has capacity close to the Lebesgue measure of its
spatial section, up to a boundary-layer error of order sqrt(dt) near the
slice edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import EllipticOperator, Field, _readonly
from .norms import FieldPath
from .solver import OBSTACLE_OFF, ProblemData, SolveResult, solve_mode
from .stochastics import CoefficientSet, NoisePath

__all__ = ["CompactSet", "box_set", "smallest_potential", "capacity"]


@dataclass(frozen=True, eq=False)
class CompactSet:
    """Indicator over (frame index, interior node) pairs marking a compact
    subset of [0, T) x O.

    Frames 0 (the initial time, where the state is pinned to the initial
    condition) and the terminal frame (t = T is excluded) must be unmarked.
    """

    grid: object
    times: np.ndarray
    mask: np.ndarray  # (frames, n_interior) bool

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        t = np.asarray(self.times, dtype=float)
        if m.shape != (t.size, self.grid.n_interior):
            raise ConfigurationError(
                f"mask shape {m.shape} does not match ({t.size}, {self.grid.n_interior})")
        if not m.any():
            raise ConfigurationError("compact set is empty")
        if m[0].any() or m[-1].any():
            raise ConfigurationError(
                "compact set must avoid the initial frame and t = T")
        object.__setattr__(self, "mask", _readonly(m))
        object.__setattr__(self, "times", _readonly(t))

    def lebesgue_measure(self) -> float:
        """Spatial Lebesgue measure of the widest time section (node count
        times cell measure)."""
        return float(self.mask.sum(axis=1).max() * self.grid.cell_measure)


def box_set(grid, times, frame_indices, intervals) -> CompactSet:
    """Compact set = given frames x an axis-aligned closed box of nodes.

    ``intervals`` is (lo, hi) for d=1 or a per-axis sequence of bounds.
    """
    times = np.asarray(times, dtype=float)
    iv = np.atleast_2d(np.asarray(intervals, dtype=float))
    if iv.shape != (grid.dim, 2):
        raise ConfigurationError(f"need {grid.dim} interval(s), got shape {iv.shape}")
    coords = grid.coords[grid.interior]
    inside = np.ones(coords.shape[0], dtype=bool)
    for a in range(grid.dim):
        inside &= (coords[:, a] >= iv[a, 0] - 1e-12) & (coords[:, a] <= iv[a, 1] + 1e-12)
    mask = np.zeros((times.size, grid.n_interior), dtype=bool)
    frame_indices = np.atleast_1d(np.asarray(frame_indices, dtype=int))
    for m in frame_indices:
        if not (1 <= m <= times.size - 2):
            raise ConfigurationError(
                f"frame index {m} outside the admissible range [1, {times.size - 2}]")
        mask[m] = inside
    return CompactSet(grid=grid, times=times, mask=mask)


def smallest_potential(op: EllipticOperator, K: CompactSet) -> SolveResult:
    """Least supersolution above the indicator obstacle of K, with its
    measure; deterministic projected solve with zero data."""
    grid = op.grid
    steps = K.times.size - 1
    dt = float(K.times[1] - K.times[0])
    frames = np.full((steps + 1, grid.n_nodes), OBSTACLE_OFF)
    for m in range(steps + 1):
        marked = grid.interior[K.mask[m]]
        frames[m, marked] = 1.0
    obstacle = FieldPath(grid, K.times, frames)
    noise = NoisePath(J=1, dt=dt, increments=np.zeros((1, steps)), seed=0)
    data = ProblemData(op=op, xi=Field.zeros(grid), coeffs=CoefficientSet.zero(1),
                       obstacle=obstacle, noise=noise)
    return solve_mode(data, "projected")


def capacity(op: EllipticOperator, K: CompactSet) -> float:
    """Total reflection mass of the smallest potential above K."""
    return smallest_potential(op, K).measure.total_mass()
