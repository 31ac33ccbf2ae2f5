"""Mixed space-time norms on sampled paths, and the #-norm calculus.

A path is sampled on the grid nodes at uniformly spaced times
0 = t_0 < t_1 < ... < t_K.  The (p, q) mixed norm applies a weighted
spatial L^p norm frame by frame, then a temporal L^q norm over [0, t]:

    |u|_{p,q;t} = ( sum_{k : t_k < t} |u(t_k)|_p^q  dt )^{1/q}.

Time integrals use the left-endpoint rectangle rule (matching the
explicit-in-nonlinearity time stepping of the solvers); temporal sup norms
include the terminal frame.  Spatial quadrature uses trapezoidal node
weights, so constants integrate to the domain volume exactly.  Frames are
arbitrary sampled functions -- data paths such as zero-point coefficients
need not vanish on the boundary, unlike solution fields.

The #-norm is max(|u|_{2,inf;t}, |u|_{2*,2;t}); 2* depends on the
dimension alone (inf for d = 1, 4 for d = 2), as ``grid.SHARP_CONVENTION``
records, and ``sharp_norm`` reads it from the path's grid.  Its dual lives
in an algebraic-sum space; the exact dual norm is an infimum over
decompositions, which ``dual_sharp_upper`` bounds from above by the minimum
over the dimension's fixed family of conjugate-pair norms (always
including (2, 1), so the sqrt(t) * |v|_{2,2;t} bound holds).  Every
downstream estimate uses the dual norm on the large side of an
inequality, so an upper bound keeps all inequalities valid; reported
values are upper bounds, not the infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .grid import SHARP_CONVENTION, Grid, _readonly, gradient_sq_frames, same_grid

__all__ = [
    "FieldPath",
    "mixed_norm",
    "sharp_norm",
    "dual_sharp_upper",
    "pairing",
    "gradient_norm_22",
    "magnitude_path",
    "data_ingredients",
]


@dataclass(frozen=True, eq=False)
class FieldPath:
    """Time-indexed nodal samples: times (K+1,), frames (K+1, n_nodes)."""

    grid: Grid
    times: np.ndarray
    frames: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.frames, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ConfigurationError("times must be a 1-d array with at least two stamps")
        if abs(t[0]) > 1e-15:
            raise ConfigurationError(f"times must start at 0, got {t[0]}")
        steps = np.diff(t)
        if steps.min() <= 0 or np.ptp(steps) > 1e-9 * steps.max():
            raise ConfigurationError("time stamps must be strictly increasing and uniform")
        if f.shape != (t.size, self.grid.n_nodes):
            raise ConfigurationError(
                f"frames shape {f.shape} does not match ({t.size}, {self.grid.n_nodes})"
            )
        object.__setattr__(self, "times", _readonly(t))
        object.__setattr__(self, "frames", _readonly(f))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def steps(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def horizon_index(self, t: float) -> int:
        """Largest k with t_k <= t (within rounding tolerance)."""
        if t < -1e-12:
            raise ConfigurationError(f"negative horizon {t}")
        tol = 1e-9 * max(self.dt, 1.0)
        if t > self.horizon + tol:
            raise ConfigurationError(
                f"horizon {t} beyond final time stamp {self.horizon}")
        return min(int(np.floor((t + tol) / self.dt)), self.steps)

    @classmethod
    def from_function(cls, grid: Grid, times, fn: Callable[[float, np.ndarray], np.ndarray]) -> "FieldPath":
        times = np.asarray(times, dtype=float)
        frames = np.stack([np.asarray(fn(t, grid.coords), dtype=float) for t in times])
        return cls(grid, times, frames)

    @classmethod
    def constant(cls, grid: Grid, times, values) -> "FieldPath":
        times = np.asarray(times, dtype=float)
        base = np.broadcast_to(np.asarray(values, dtype=float), (grid.n_nodes,))
        return cls(grid, times, np.tile(base, (times.size, 1)))


def _spatial_norms(path: FieldPath, p: float) -> np.ndarray:
    """Weighted L^p norm of every frame."""
    f = path.frames
    if p == math.inf:
        return np.abs(f).max(axis=1)
    w = path.grid.quad_weights
    return (np.abs(f) ** p @ w) ** (1.0 / p)


def mixed_norm(path: FieldPath, p: float, q: float, t: float) -> float:
    """Discrete |u|_{p,q;t}: spatial L^p per frame, then temporal L^q."""
    if not (p >= 1 and q >= 1):
        raise ConfigurationError(f"exponents must satisfy p, q >= 1, got ({p}, {q})")
    k = path.horizon_index(t)
    s = _spatial_norms(path, p)
    if q == math.inf:
        return float(s[: k + 1].max())
    if k == 0:
        return 0.0
    return float((np.sum(s[:k] ** q) * path.dt) ** (1.0 / q))


def sharp_norm(path: FieldPath, t: float) -> float:
    """max(|u|_{2,inf;t}, |u|_{2*,2;t}), with 2* of the path's dimension."""
    two_star = SHARP_CONVENTION[path.grid.dim][0]
    return max(mixed_norm(path, 2, math.inf, t),
               mixed_norm(path, two_star, 2, t))


def dual_sharp_upper(path: FieldPath, t: float) -> float:
    """Certified upper bound on the dual #-norm: min over the conjugate-pair
    family of the path's dimension of single-space mixed norms."""
    pairs = SHARP_CONVENTION[path.grid.dim][1]
    return min(mixed_norm(path, p, q, t) for p, q in pairs)


def pairing(u: FieldPath, v: FieldPath, t: float) -> float:
    """Discrete integral of u v over [0, t] x O (left rule in time)."""
    if not same_grid(u.grid, v.grid):
        raise ConfigurationError("paths live on different grids")
    if u.times.size != v.times.size or np.abs(u.times - v.times).max() > 1e-12:
        raise ConfigurationError("paths have different time stamps")
    k = u.horizon_index(t)
    if k == 0:
        return 0.0
    w = u.grid.quad_weights
    return float(np.sum((u.frames[:k] * v.frames[:k]) @ w) * u.dt)


def gradient_norm_22(path: FieldPath, t: float) -> float:
    """|grad u|_{2,2;t} by the edge-based gradient quadrature (left rule)."""
    k = path.horizon_index(t)
    total = sum(gradient_sq_frames(path.grid, path.frames[:k]))
    return float(np.sqrt(total * path.dt))


def magnitude_path(grid: Grid, times, components: np.ndarray) -> FieldPath:
    """Pointwise Euclidean magnitude of a vector/mode-valued path as a
    scalar FieldPath; components shaped (K+1, n_nodes, m)."""
    comp = np.asarray(components, dtype=float)
    if comp.ndim != 3 or comp.shape[1] != grid.n_nodes:
        raise ConfigurationError(f"components must be (frames, n_nodes, m), got {comp.shape}")
    return FieldPath(grid, np.asarray(times, dtype=float),
                     np.sqrt(np.sum(comp * comp, axis=2)))


def data_ingredients(grid: Grid, times, t: float, initial: np.ndarray,
                     f, g, h) -> tuple[float, float, float, float]:
    """The four terms of the paper's integrability condition on the data:
    |initial|_2^2, (dual#(f))^2, |g|_{2,2;t}^2 and |h|_{2,2;t}^2.

    ``f`` is a path's frames (K+1, n_nodes); ``g`` and ``h`` are vector- and
    mode-valued frames (K+1, n_nodes, m) measured by their pointwise
    magnitude.  A source given as None contributes 0.0.
    """
    f_sq = 0.0 if f is None else dual_sharp_upper(FieldPath(grid, times, f), t) ** 2
    g_sq, h_sq = (0.0 if c is None else mixed_norm(magnitude_path(grid, times, c), 2, 2, t) ** 2
                  for c in (g, h))
    return float(grid.quad_weights @ initial ** 2), f_sq, g_sq, h_sq
