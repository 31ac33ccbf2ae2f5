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

The #-norm is max(|u|_{2,inf;t}, |u|_{2*,2;t}) with the dimension
convention 2* = inf for d = 1.  Its dual lives in an algebraic-sum space;
the exact dual norm is an infimum over decompositions, which we bound from
above by the minimum over a fixed family of conjugate-pair norms
(always including (2, 1), so the sqrt(t) * |v|_{2,2;t} bound holds).
Every downstream estimate uses the dual norm on the large side of an
inequality, so an upper bound keeps all inequalities valid; reported
values are upper bounds, not the infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, _readonly, gradient_sq_frames, same_grid

__all__ = [
    "FieldPath",
    "NormToolbox",
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


def _conjugate(p: float) -> float:
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormToolbox:
    """Dimension conventions for the #-norm and its dual upper bound.

    ``dual_pairs`` are conjugates of pairs interpolating between (2, inf)
    and (2*, 2); the pair (2, 1) is always a member.
    """

    sobolev_exponent: float
    c1: float
    dual_pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if (2.0, 1.0) not in self.dual_pairs:
            raise ConfigurationError("dual pair family must contain (2, 1)")
        for p, q in self.dual_pairs:
            # conjugate pair must interpolate the (2, inf) -- (2*, 2) segment
            pc, qc = _conjugate(p), _conjugate(q)
            rho = 1.0 if qc == math.inf else 1.0 - 2.0 / qc
            inv_p_expected = rho / 2.0 + (1 - rho) / self.sobolev_exponent
            if not (0.0 - 1e-12 <= rho <= 1.0 + 1e-12):
                raise ConfigurationError(f"dual pair ({p}, {q}) is not conjugate to an "
                                         "interpolation pair")
            if abs((0.0 if pc == math.inf else 1.0 / pc) - inv_p_expected) > 1e-12:
                raise ConfigurationError(f"dual pair ({p}, {q}) is not conjugate to an "
                                         "interpolation pair")

    @classmethod
    def for_dim(cls, dim: int, exponent_2d: float = 4.0, c_sobolev: float | None = None) -> "NormToolbox":
        if dim == 1:
            two_star = math.inf
            c_s = 0.5 if c_sobolev is None else c_sobolev
        elif dim == 2:
            two_star = float(exponent_2d)
            c_s = 1.0 if c_sobolev is None else c_sobolev
        else:
            raise ConfigurationError(f"unsupported dimension {dim}")
        p2c = _conjugate(two_star)           # conjugate of 2*; equals 1 for d=1
        pairs = [(2.0, 1.0), (p2c, 2.0)]
        # midpoint interpolation (rho = 1/2) of the conjugate segment
        inv_p = 0.5 * (0.5 + (0.0 if p2c == math.inf else 1.0 / p2c))
        inv_q = 0.5 * (1.0 + 0.5)
        pairs.append((1.0 / inv_p, 1.0 / inv_q))
        return cls(sobolev_exponent=two_star, c1=max(c_s, 1.0),
                   dual_pairs=tuple(pairs))


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


def sharp_norm(path: FieldPath, t: float, toolbox: NormToolbox) -> float:
    """max(|u|_{2,inf;t}, |u|_{2*,2;t})."""
    return max(mixed_norm(path, 2, math.inf, t),
               mixed_norm(path, toolbox.sobolev_exponent, 2, t))


def dual_sharp_upper(path: FieldPath, t: float, toolbox: NormToolbox) -> float:
    """Certified upper bound on the dual #-norm: min over the conjugate-pair
    family of single-space mixed norms."""
    return min(mixed_norm(path, p, q, t) for p, q in toolbox.dual_pairs)


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


def data_ingredients(grid: Grid, times, t: float, initial: np.ndarray, f, g, h,
                     toolbox: NormToolbox) -> tuple[float, float, float, float]:
    """The four terms of the paper's integrability condition on the data:
    |initial|_2^2, (dual#(f))^2, |g|_{2,2;t}^2 and |h|_{2,2;t}^2.

    ``f`` is a path's frames (K+1, n_nodes); ``g`` and ``h`` are vector- and
    mode-valued frames (K+1, n_nodes, m) measured by their pointwise
    magnitude.  A source given as None contributes 0.0.
    """
    f_sq = 0.0 if f is None else dual_sharp_upper(FieldPath(grid, times, f), t, toolbox) ** 2
    g_sq, h_sq = (0.0 if c is None else mixed_norm(magnitude_path(grid, times, c), 2, 2, t) ** 2
                  for c in (g, h))
    return float(grid.quad_weights @ initial ** 2), f_sq, g_sq, h_sq
