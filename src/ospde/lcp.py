"""One active-set kernel for the implicit obstacle step of both constrained schemes.

For an SPD M-matrix B, the projected step solves the linear complementarity
problem x >= psi, B x - q >= 0, (x - psi)' (B x - q) = 0, and the penalized
step solves B x - pen * (x - psi)^- = q.  The projected step is the
penalized one at infinite penalty; both are solved by the primal-dual
active-set method, a semismooth Newton method (Hintermueller, Ito & Kunisch,
SIAM J. Optim. 13, 2003), which ends in at most n + 1 passes.

A solve marches many steps with one B, so ``StepMatrix`` builds B's CSC
pattern once and every pass edits arrays of it instead of building scipy
matrices: a penalized pass writes B_ii + d_i into the diagonal positions, a
projected pass masks out the free block.  Either way the matrix handed to
the sparse solver is, bit for bit, the one ``B + diags(d)`` or
``B[free][:, free]`` would give.

A batch of S solves marching together hands ``psor`` an (n, S) block of
right-hand sides.  Each pass groups the unsettled columns by their active
set; a group shares one matrix and one sparse solve with a multi-column
right-hand side, which the sparse solver treats column by column, so every
column comes out bit for bit as it would alone.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

__all__ = ["StepMatrix", "psor"]

# Stop when the set repeats and |B x - reaction - q|_inf is at most
# _TOL * (1 + |q|_inf + |B|_inf |x|_inf), the size of the terms it rounds.
_TOL = 1e-12


class StepMatrix:
    """The step matrix B (sorted CSR), its factorization ``lu`` and what
    every active-set pass reuses: a CSC copy of B whose pattern is that of
    B + diags(d) for every d >= 0, B's entries in that order, the column of
    each entry, the positions of the diagonal, and |B|_inf."""

    def __init__(self, B: sp.csr_matrix, lu):
        n = B.shape[0]
        self.B = B
        self.lu = lu
        self.csc = (B + sp.diags(np.zeros(n))).tocsc()
        self.data = self.csc.data.copy()  # passes edit only csc.data
        self.col = np.repeat(np.arange(n, dtype=self.csc.indices.dtype),
                             np.diff(self.csc.indptr))
        self.diag = np.flatnonzero(self.csc.indices == self.col)
        self.norm = _norm_inf(B)
        self.factorizations = 0  # sparse solves made by the passes

    def shifted(self, d: np.ndarray) -> sp.csc_matrix:
        """B + diags(d): the cached CSC with B_ii + d_i written on its diagonal."""
        self.csc.data[self.diag] = self.data[self.diag] + d
        return self.csc

    def free_block(self, free: np.ndarray) -> sp.csc_matrix:
        """B[free][:, free] as a new CSC, masked out of the cached pattern."""
        idx = self.csc.indices
        keep = free[idx] & free[self.col]
        counts = np.bincount(self.col[keep], minlength=free.size)[free]
        indptr = np.zeros(counts.size + 1, dtype=idx.dtype)
        np.cumsum(counts, out=indptr[1:])
        position = np.cumsum(free, dtype=idx.dtype) - 1  # of each node among the free ones
        return sp.csc_matrix((self.data[keep], position[idx[keep]], indptr),
                             shape=(counts.size, counts.size))


def psor(step: StepMatrix, q: np.ndarray, psi: np.ndarray, pen: float = math.inf):
    """Solve the obstacle step with lower bound psi: the LCP (B, q) when
    ``pen`` is infinite, B x - pen * (x - psi)^- = q otherwise.

    Despite its name this is the active-set method, not projected SOR; the
    name is kept because callers resolve the kernel as ``ospde.solver.psor``,
    the benchmark's per-layer tracer among them.  ``q`` is one right-hand
    side (n,) or a block of columns (n, S) sharing psi (n,); each column is
    solved exactly as it would be alone.  ``step.lu`` prefactors B; its
    solve x_free is a column's answer when feasible (0 passes), else the
    column's active set starts where x_free < psi.  A pass pins the active
    nodes at psi and solves the free block (projected), or solves
    B + pen * D_active (penalized), on the pattern ``step`` caches; the
    columns whose sets are equal share that matrix and one sparse solve.
    The next set is where x < psi or the reaction is positive.  From this
    start the sets nest on an M-matrix.  A repeated set gives the same
    iterate again, so a column's first repeat either meets the residual stop
    or fails.  A set that returns after one other set (counting x_free as the
    empty set's iterate) would alternate with it forever; it stops the same
    way.  ``step.factorizations`` counts the sparse solves.

    Returns (x, passes) shaped like q: passes is an int, or an int array
    (S,) for a block.  Raises SolverError, with ``column`` set, at a
    repeated set whose residual exceeds the stop, or after n + 1 passes.
    """
    q = np.asarray(q, dtype=float)
    psi = np.asarray(psi, dtype=float)
    Q = q.reshape(q.shape[0], -1)
    x = step.lu.solve(Q)
    active = x < psi[:, None]
    passes = np.zeros(Q.shape[1], dtype=int)
    cols = np.flatnonzero(active.any(axis=0))
    if cols.size:
        at = cols if cols.size < Q.shape[1] else slice(None)
        x[:, at], passes[at] = _settle(step, Q[:, at], x[:, at], active[:, at], psi, pen, cols)
    if q.ndim == 1:
        return x[:, 0], int(passes[0])
    return x, passes


def _settle(step: StepMatrix, q: np.ndarray, x_free: np.ndarray, sets: np.ndarray,
            psi: np.ndarray, pen: float, cols: np.ndarray):
    """The active-set passes of the columns q (n, m) whose unconstrained
    solves x_free fall below psi on ``sets``: their iterates and pass counts.
    ``cols`` numbers the columns in the caller's block, for errors."""
    n, m = q.shape
    x = np.empty_like(x_free)
    passes = np.zeros(m, dtype=int)
    open_ = np.arange(m)  # positions still open, among the m columns
    prev = np.zeros_like(sets)  # each column's set a pass back; x_free is the empty set's
    for count in range(1, n + 2):
        groups: dict[bytes, list[int]] = {}
        for j in range(open_.size):
            groups.setdefault(sets[:, j].tobytes(), []).append(j)
        x_pass = x_free.copy()  # a column whose set is empty takes x_free again
        for members in groups.values():
            if sets[:, members[0]].any():
                at = members if len(members) < open_.size else slice(None)
                x_pass[:, at] = _solve_group(step, q[:, at], psi, sets[:, members[0]], pen)
        Bx = step.B @ x_pass
        if pen == math.inf:
            reaction = np.where(sets, Bx - q, 0.0)
        else:
            reaction = pen * np.maximum(psi[:, None] - x_pass, 0.0)
        new = (x_pass < psi[:, None]) | (reaction > 0.0)
        repeated = (new == sets).all(axis=0) | (new == prev).all(axis=0)
        if repeated.any():
            residual = np.abs(Bx - reaction - q).max(axis=0)
            bound = _TOL * ((1.0 + np.abs(q).max(axis=0))
                            + step.norm * np.abs(x_pass).max(axis=0))
            failed = repeated & (residual > bound)
            if failed.any():
                j = int(np.argmax(failed))
                raise SolverError(f"active set repeated with residual {residual[j]:.3e} "
                                  f"above the stop {bound[j]:.3e}", column=int(cols[open_[j]]))
            done = open_[repeated]
            x[:, done] = x_pass[:, repeated]
            passes[done] = count
            if done.size == open_.size:
                return x, passes
            keep = ~repeated
            open_, new, q, x_free = open_[keep], new[:, keep], q[:, keep], x_free[:, keep]
            sets = sets[:, keep]
        prev, sets = sets, new
    raise SolverError(f"active-set obstacle step did not settle in {n + 1} passes",
                      column=int(cols[open_[0]]))


def _solve_group(step: StepMatrix, q: np.ndarray, psi: np.ndarray, active: np.ndarray,
                 pen: float) -> np.ndarray:
    """The iterate of one pass for the columns q (n, m) that share the
    nonempty set ``active``: one sparse solve with m right-hand sides."""
    m = q.shape[1]
    if pen == math.inf:
        free = ~active
        pinned = np.where(active, psi, 0.0)
        x = np.empty_like(q)
        x[:] = pinned[:, None]
        if free.any():
            # B x over all columns adds only +-0.0 terms from the free
            # ones to row sums that start at +0.0, so it equals the sum
            # over the active columns bit for bit
            rhs = q[free] - (step.B @ pinned)[free][:, None]
            step.factorizations += 1
            x[free] = spla.spsolve(step.free_block(free), rhs).reshape(-1, m)
        return x
    d = np.where(active, pen, 0.0)
    step.factorizations += 1
    return spla.spsolve(step.shifted(d), q + (d * psi)[:, None]).reshape(-1, m)


def _norm_inf(B: sp.csr_matrix) -> float:
    """Largest absolute row sum of B (an SPD matrix has no empty row)."""
    return float(np.add.reduceat(np.abs(B.data), B.indptr[:-1]).max())
