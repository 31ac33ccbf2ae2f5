"""Rectangular grids, divergence-form elliptic operators, and Sobolev tooling.

The spatial domain is an open interval (d=1) or axis-aligned rectangle (d=2)
discretized by a uniform node lattice.  Solution fields obey a homogeneous
Dirichlet condition: boundary nodes always carry the value 0.

The operator  A u = -sum_ij d_i( a^ij(x) d_j u )  is assembled from
cell-centered samples of the symmetric coefficient matrix a:

* d=1: two-point flux per cell, i.e. the classical (-1, 2, -1)/h^2 stencil
  when a = 1.
* d=2: face fluxes for the axis-aligned part plus, when a^12 != 0, diagonal
  differences per cell.  Splitting a = diag(a11-|a12|, a22-|a12|)
  + |a12| v v^T with v = (1, sign(a12)) keeps every part nonnegative
  whenever a is diagonally dominant, so the assembled matrix is a symmetric
  M-matrix and the scheme inherits a discrete comparison principle.

The bilinear energy is  E(u, v) = cell_measure * u' K v  with K the interior
stiffness matrix; for any admissible field it coincides with the edge-based
quadrature of  integral a grad(u) . grad(v) dx.

Two discrete gradients coexist on purpose:

* the edge/cell gradient backing the energy and the |grad u|_2 quadrature
  (``gradient_sq``), which sandwiches the energy between the ellipticity
  bounds exactly for diagonal coefficients;
* the centered nodal gradient (``node_gradient``) used to evaluate
  state-dependent coefficients, whose negative transpose under the cell
  quadrature is ``divergence`` -- discrete integration by parts holds
  exactly, which the weak-form checks rely on.  Both are built from one
  centered difference, so the adjoint pair holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError

__all__ = [
    "Grid",
    "Field",
    "EllipticOperator",
    "build_grid",
    "same_grid",
    "assemble_operator",
    "energy",
    "node_gradient",
    "divergence",
    "gradient_sq",
    "gradient_sq_frames",
    "sobolev_ratio",
    "SHARP_CONVENTION",
]

# The dimension convention of the #-norm max(|u|_{2,inf}, |u|_{2*,2}): per
# grid dimension, the Sobolev exponent 2* and the dual-pair family that
# bounds the dual #-norm from above.  The pairs are the conjugates of
# (2, inf), of (2*, 2) and of their midpoint interpolation pair, so (2, 1)
# is always a member.
SHARP_CONVENTION = {
    1: (np.inf, ((2.0, 1.0), (1.0, 2.0), (4 / 3, 4 / 3))),
    2: (4.0, ((2.0, 1.0), (4 / 3, 2.0), (1.6, 4 / 3))),
}


def same_grid(a: "Grid", b: "Grid") -> bool:
    """Structural equality: same dimension, extent and resolution."""
    return a is b or (a.dim == b.dim and a.extent == b.extent and a.counts == b.counts)

# Relative slack applied to ellipticity and M-matrix probes.
_PROBE_RTOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _lattice(axes) -> np.ndarray:
    """Points of the product of the 1-D ``axes``, (points, dim) in C order."""
    return np.stack([c.ravel() for c in np.meshgrid(*axes, indexing="ij")], axis=1)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform node lattice on an interval or rectangle.

    Nodes are ordered lexicographically by multi-index (C order).  Interior
    and boundary index sets partition all nodes.  ``quad_weights`` are
    trapezoidal node weights (boundary nodes carry half weight per touching
    axis) so that constants integrate to the domain volume exactly.
    """

    dim: int
    extent: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    spacing: tuple[float, ...]
    cell_measure: float
    shape: tuple[int, ...]          # nodes per axis = counts + 1
    coords: np.ndarray              # (n_nodes, dim)
    interior: np.ndarray            # flat indices, lexicographic
    boundary: np.ndarray
    interior_mask: np.ndarray       # (n_nodes,) bool
    quad_weights: np.ndarray        # (n_nodes,)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_interior(self) -> int:
        return self.interior.size

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """Interior slice of a full-node array."""
        return np.asarray(values)[..., self.interior]

    def cell_centers(self) -> np.ndarray:
        return _lattice([self.extent[a][0] + (np.arange(self.counts[a]) + 0.5) * self.spacing[a]
                         for a in range(self.dim)])


def build_grid(dim: int, extent, counts) -> Grid:
    """Build a grid; counts are whole cells per axis (>= 3), nodes are
    counts + 1, and ``dim`` is the int 1 or 2.

    ``extent`` is ``(lo, hi)`` for d=1 or a per-axis sequence of bounds.
    """
    if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (1, 2):
        raise ConfigurationError(f"dim must be the int 1 or 2, got {dim!r}")
    ext = np.atleast_2d(np.asarray(extent, dtype=float))
    if ext.shape != (dim, 2):
        raise ConfigurationError(f"extent must be {dim} (lo, hi) pairs, got shape {ext.shape}")
    cnt = np.atleast_1d(counts)
    if cnt.dtype.kind not in "iuf" or not np.all(np.isfinite(cnt) & (cnt == np.trunc(cnt))):
        raise ConfigurationError(f"counts must be whole numbers, got {cnt.tolist()}")
    cnt = cnt.astype(int)
    if cnt.shape != (dim,):
        raise ConfigurationError(f"counts must have {dim} entries, got {cnt.shape}")
    if np.any(cnt < 3):
        raise ConfigurationError(f"counts must be >= 3 per axis, got {cnt.tolist()}")
    widths = ext[:, 1] - ext[:, 0]
    if np.any(widths <= 0):
        raise ConfigurationError(f"degenerate extent {ext.tolist()}")

    spacing = widths / cnt
    shape = tuple(int(c) + 1 for c in cnt)
    coords = _lattice([np.linspace(ext[a, 0], ext[a, 1], shape[a]) for a in range(dim)])

    multi = np.indices(shape).reshape(dim, -1)
    interior_mask = np.ones(coords.shape[0], dtype=bool)
    weights = np.full(coords.shape[0], float(np.prod(spacing)))
    for a in range(dim):
        on_edge = (multi[a] == 0) | (multi[a] == shape[a] - 1)
        interior_mask &= ~on_edge
        weights[on_edge] *= 0.5

    idx = np.arange(coords.shape[0])
    return Grid(
        dim=dim,
        extent=tuple((float(lo), float(hi)) for lo, hi in ext),
        counts=tuple(int(c) for c in cnt),
        spacing=tuple(float(s) for s in spacing),
        cell_measure=float(np.prod(spacing)),
        shape=shape,
        coords=_readonly(coords),
        interior=_readonly(idx[interior_mask]),
        boundary=_readonly(idx[~interior_mask]),
        interior_mask=_readonly(interior_mask),
        quad_weights=_readonly(weights),
    )


@dataclass(frozen=True, eq=False)
class Field:
    """One scalar per grid node; boundary values are forced to zero."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float).reshape(-1)
        if v.size != self.grid.n_nodes:
            raise ConfigurationError(
                f"field has {v.size} values for a grid with {self.grid.n_nodes} nodes"
            )
        v[self.grid.boundary] = 0.0
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> "Field":
        return cls(grid, np.asarray(fn(grid.coords), dtype=float))

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_nodes))

    def interior(self) -> np.ndarray:
        return self.grid.restrict(self.values)


# -- operator assembly -------------------------------------------------------


def _axis_edges(grid: Grid, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (p, q) node indices of all lattice edges along ``axis``."""
    multi = np.indices(grid.shape)
    keep = multi[axis] < grid.shape[axis] - 1
    p_multi = multi[:, keep]
    q_multi = p_multi.copy()
    q_multi[axis] += 1
    p = np.ravel_multi_index(tuple(p_multi), grid.shape)
    q = np.ravel_multi_index(tuple(q_multi), grid.shape)
    return p, q


def _edge_coefficients_2d(grid: Grid, axis: int, cell_coef: np.ndarray) -> np.ndarray:
    """Per-edge coefficient for 2D axis edges: mean of the per-cell value
    over the (up to two) cells adjacent to the edge, in _axis_edges order."""
    other = 1 - axis
    # the edge at node k of the other axis lies between cells k - 1 and k of
    # that axis, clipped to the one cell on the rim
    k = np.arange(grid.shape[other])
    before = np.clip(k - 1, 0, grid.counts[other] - 1)
    after = np.clip(k, 0, grid.counts[other] - 1)
    cc = np.moveaxis(cell_coef.reshape(grid.counts), other, -1)
    return np.moveaxis(0.5 * (cc[..., before] + cc[..., after]), -1, other).reshape(-1)


@dataclass(frozen=True, eq=False)
class EllipticOperator:
    """Sparse divergence-form stiffness with its coefficient field and bounds.

    ``stiffness`` acts on interior nodes and approximates the pointwise
    operator (units coefficient / length^2); the energy form weights it by
    the cell measure.
    """

    grid: Grid
    a: np.ndarray          # (n_cells, d, d) cell-centered samples
    stiffness: sp.csr_matrix
    lam: float
    Lam: float


def _sample_coefficient(grid: Grid, a_field) -> np.ndarray:
    """Cell-centered samples (cells, d, d) of ``a_field``: a callable of the
    cell centers returning (cells, d, d), a scalar (times the identity) or
    one (d, d) matrix for every cell."""
    centers = grid.cell_centers()
    m, d = centers.shape
    if callable(a_field):
        raw = np.asarray(a_field(centers), dtype=float)
        if raw.shape != (m, d, d):
            raise ConfigurationError(f"coefficient callable returned shape {raw.shape}")
        return raw
    raw = np.asarray(a_field, dtype=float)
    if raw.ndim == 0:
        raw = np.eye(d) * float(raw)
    if raw.shape != (d, d):
        raise ConfigurationError(f"cannot interpret coefficient of shape {raw.shape} for d={d}")
    return np.broadcast_to(raw, (m, d, d)).copy()


def _probe_directions(dim: int, n: int = 16) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0]])
    ang = np.pi * np.arange(n) / n
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def assemble_operator(grid: Grid, a_field, lam: float, Lam: float) -> EllipticOperator:
    """Assemble the interior stiffness of -d_i(a^ij d_j .) with Dirichlet rows
    eliminated.

    Rejects asymmetric coefficients, ellipticity probe failures against the
    declared bounds, and assemblies that break the M-matrix sign pattern.
    """
    if not (0 < lam <= Lam):
        raise ConfigurationError(f"need 0 < lambda <= Lambda, got {lam}, {Lam}")
    a = _sample_coefficient(grid, a_field)

    asym = np.abs(a - np.transpose(a, (0, 2, 1))).max(axis=(1, 2))
    scale = 1.0 + np.abs(a).max()
    if asym.max() > 1e-12 * scale:
        worst = int(asym.argmax())
        raise ConfigurationError(f"coefficient matrix not symmetric at cell {worst}: "
                                 f"max |a - a^T| = {asym.max():.3e}")

    dirs = _probe_directions(grid.dim)
    # Rayleigh quotients xi' a xi for every cell and probe direction
    quad = np.einsum("md,cde,me->cm", dirs, a, dirs)
    lo, hi = quad.min(), quad.max()
    if lo < lam * (1 - _PROBE_RTOL) - _PROBE_RTOL or hi > Lam * (1 + _PROBE_RTOL) + _PROBE_RTOL:
        c, m = np.unravel_index(np.argmin(quad) if lo < lam else np.argmax(quad), quad.shape)
        raise ConfigurationError(
            f"ellipticity probe failed: quotient {quad[c, m]:.6g} outside "
            f"[{lam}, {Lam}] at cell {int(c)}, direction {dirs[m].tolist()}")

    rows, cols, vals = [], [], []

    def add_edges(p, q, coef_over_h2):
        keep = coef_over_h2 != 0.0
        p, q, c = p[keep], q[keep], coef_over_h2[keep]
        pi = grid.interior_mask[p]
        qi = grid.interior_mask[q]
        # interior-interior edges: full 2x2 block
        both = pi & qi
        rows.extend([p[both], q[both], p[both], q[both]])
        cols.extend([p[both], q[both], q[both], p[both]])
        vals.extend([c[both], c[both], -c[both], -c[both]])
        # one interior endpoint: Dirichlet column dropped, diagonal kept
        only_p = pi & ~qi
        rows.append(p[only_p]); cols.append(p[only_p]); vals.append(c[only_p])
        only_q = qi & ~pi
        rows.append(q[only_q]); cols.append(q[only_q]); vals.append(c[only_q])

    if grid.dim == 1:
        h = grid.spacing[0]
        p, q = _axis_edges(grid, 0)
        add_edges(p, q, a[:, 0, 0] / h**2)
    else:
        h1, h2 = grid.spacing
        a11, a22, a12 = a[:, 0, 0], a[:, 1, 1], a[:, 0, 1]
        has_cross = np.any(np.abs(a12) > 0)
        if has_cross and abs(h1 - h2) > 1e-12 * max(h1, h2):
            raise ConfigurationError(
                "off-diagonal coefficients require square cells "
                f"(h1={h1:.6g}, h2={h2:.6g})")
        c11 = a11 - np.abs(a12)
        c22 = a22 - np.abs(a12)
        if min(c11.min(), c22.min()) < -1e-12 * scale:
            worst = int(np.minimum(c11, c22).argmin())
            raise ConfigurationError(
                "M-matrix violation: coefficient not diagonally dominant at "
                f"cell {worst} (a11-|a12|={c11[worst]:.3e}, a22-|a12|={c22[worst]:.3e})")
        p, q = _axis_edges(grid, 0)
        add_edges(p, q, _edge_coefficients_2d(grid, 0, np.maximum(c11, 0.0)) / h1**2)
        p, q = _axis_edges(grid, 1)
        add_edges(p, q, _edge_coefficients_2d(grid, 1, np.maximum(c22, 0.0)) / h2**2)
        if has_cross:
            ci, cj = np.indices(grid.counts).reshape(2, -1)
            pos = a12 > 0
            # main diagonal for a12 > 0, anti-diagonal for a12 < 0
            p_pos = np.ravel_multi_index((ci[pos], cj[pos]), grid.shape)
            q_pos = np.ravel_multi_index((ci[pos] + 1, cj[pos] + 1), grid.shape)
            add_edges(p_pos, q_pos, np.abs(a12[pos]) / (h1 * h2))
            neg = a12 < 0
            p_neg = np.ravel_multi_index((ci[neg] + 1, cj[neg]), grid.shape)
            q_neg = np.ravel_multi_index((ci[neg], cj[neg] + 1), grid.shape)
            add_edges(p_neg, q_neg, np.abs(a12[neg]) / (h1 * h2))

    rows = np.concatenate([np.asarray(r) for r in rows]) if rows else np.array([], dtype=int)
    cols = np.concatenate([np.asarray(c) for c in cols]) if cols else np.array([], dtype=int)
    vals = np.concatenate([np.asarray(v) for v in vals]) if vals else np.array([])

    # renumber to interior-only indices
    full_to_int = -np.ones(grid.n_nodes, dtype=int)
    full_to_int[grid.interior] = np.arange(grid.n_interior)
    K = sp.coo_matrix(
        (vals, (full_to_int[rows], full_to_int[cols])),
        shape=(grid.n_interior, grid.n_interior),
    ).tocsr()
    K.sum_duplicates()

    off = K - sp.diags(K.diagonal())
    if off.nnz and off.data.max() > 1e-12 * K.diagonal().max():
        i = int(np.argmax(off.data))
        raise ConfigurationError(
            f"M-matrix violation: positive off-diagonal stiffness entry "
            f"{off.data.max():.3e} (entry {i})")
    row_sums = np.asarray(K.sum(axis=1)).ravel()
    if row_sums.min() < -1e-10 * K.diagonal().max():
        raise ConfigurationError(
            f"M-matrix violation: negative stiffness row sum {row_sums.min():.3e}")

    return EllipticOperator(grid=grid, a=_readonly(a), stiffness=K,
                            lam=float(lam), Lam=float(Lam))


def energy(op: EllipticOperator, u: Field, v: Field) -> float:
    """Energy form E(u, v) = cell_measure * u' K v; symmetric in (u, v)."""
    if not same_grid(u.grid, op.grid):
        raise ConfigurationError("field u lives on a different grid than the operator")
    if not same_grid(v.grid, op.grid):
        raise ConfigurationError("field v lives on a different grid than the operator")
    return float(op.grid.cell_measure * (u.interior() @ (op.stiffness @ v.interior())))


# -- discrete gradients -------------------------------------------------------


def _centered(grid: Grid, v: np.ndarray, a: int) -> np.ndarray:
    """Centered difference along grid axis ``a`` of ``v`` (..., *grid.shape),
    zero on that axis's first and last nodes."""
    lead = (slice(None),) * (v.ndim - grid.dim + a)
    out = np.zeros_like(v)
    out[lead + (slice(1, -1),)] = (v[lead + (slice(2, None),)]
                                   - v[lead + (slice(None, -2),)]) / (2 * grid.spacing[a])
    return out


def node_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Centered nodal gradient, (..., n_nodes, dim) of values (..., n_nodes):
    leading axes stack independent samples; boundary rows are zero."""
    v = np.asarray(values, dtype=float)
    lead = v.shape[:-1]
    v = v.reshape(lead + grid.shape)
    out = np.zeros(lead + (grid.n_nodes, grid.dim))
    for a in range(grid.dim):
        out[..., a] = _centered(grid, v, a).reshape(lead + (grid.n_nodes,))
    out[..., grid.boundary, :] = 0.0
    return out


def divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """Centered divergence of a nodal vector field, zero-extended at the
    boundary; the exact negative transpose of ``node_gradient`` under the
    cell-measure inner product on interior nodes.  ``vec`` is (n_nodes, dim),
    or (..., n_nodes, dim) with leading axes stacking samples."""
    w = np.array(vec, dtype=float)
    lead = w.shape[:-2]
    w = w.reshape(lead + (grid.n_nodes, grid.dim))
    w[..., grid.boundary, :] = 0.0
    out = np.zeros(lead + grid.shape)
    for a in range(grid.dim):
        out += _centered(grid, w[..., a].reshape(lead + grid.shape), a)
    flat = out.reshape(lead + (grid.n_nodes,))
    flat[..., grid.boundary] = 0.0
    return flat


def gradient_sq(grid: Grid, values: np.ndarray) -> float:
    """Edge-based quadrature of integral |grad u|^2 dx.

    This is the gradient notion consistent with the energy: for a = c * I
    one has energy(u, u) = c * gradient_sq(u) exactly.
    """
    return gradient_sq_frames(grid, np.reshape(values, (1, -1)))[0]


def gradient_sq_frames(grid: Grid, frames: np.ndarray) -> list[float]:
    """``gradient_sq`` of every frame (m, n_nodes), each summed as alone;
    the lattice edges are built once for all of them."""
    edges = [_axis_edges(grid, a) for a in range(grid.dim)]
    out = []
    for v in np.asarray(frames, dtype=float):
        total = 0.0
        for (p, q), h in zip(edges, grid.spacing):
            d = (v[q] - v[p]) / h
            total += grid.cell_measure * float(d @ d)
        out.append(total)
    return out


def sobolev_ratio(grid: Grid, u: Field) -> float:
    """|u|_{2*} / |grad u|_2 with the exponent 2* of ``SHARP_CONVENTION``:
    inf for d=1, 4 for d=2."""
    vals = u.values
    if not np.any(vals):
        raise ConfigurationError("sobolev_ratio undefined for the zero field")
    den = np.sqrt(gradient_sq(grid, vals))
    p = SHARP_CONVENTION[grid.dim][0]
    if p == np.inf:
        num = float(np.abs(vals).max())
    else:
        num = float((grid.quad_weights @ np.abs(vals) ** p) ** (1.0 / p))
    return num / den
