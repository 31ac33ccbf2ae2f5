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
    the benchmark's per-layer tracer among them.  ``step.lu`` prefactors B;
    its solve x_free is the answer when feasible (0 passes), else the active
    set starts where x_free < psi.  A pass pins the active nodes at psi and
    solves the free block (projected), or solves B + pen * D_active
    (penalized), on the pattern ``step`` caches; the next set is where
    x < psi or the reaction is positive.  From this start the sets nest on
    an M-matrix.  A repeated set gives the same iterate again, so the first
    repeat either meets the residual stop or fails.

    Returns (x, passes); raises SolverError at a repeated set whose residual
    exceeds the stop, or after n + 1 passes.
    """
    B = step.B
    q = np.asarray(q, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = q.size
    x_free = step.lu.solve(q)
    active = x_free < psi
    if not active.any():
        return x_free, 0
    scale = 1.0 + float(np.abs(q).max())
    for passes in range(1, n + 2):
        if not active.any():  # x_free again: its set is the start, so no stop here
            x, reaction = x_free, np.zeros(n)
        elif pen == math.inf:
            free = ~active
            x = np.where(active, psi, 0.0)
            if free.any():
                # B x over all columns adds only +-0.0 terms from the free
                # ones to row sums that start at +0.0, so it equals the sum
                # over the active columns bit for bit
                rhs = q[free] - (B @ x)[free]
                x[free] = spla.spsolve(step.free_block(free), rhs)
            reaction = np.where(active, B @ x - q, 0.0)
        else:
            d = np.where(active, pen, 0.0)
            x = spla.spsolve(step.shifted(d), q + d * psi)
            reaction = pen * np.maximum(psi - x, 0.0)
        new = (x < psi) | (reaction > 0.0)
        if np.array_equal(new, active):
            residual = float(np.abs(B @ x - reaction - q).max())
            bound = _TOL * (scale + step.norm * np.abs(x).max())
            if residual <= bound:
                return x, passes
            raise SolverError(f"active set repeated with residual {residual:.3e} "
                              f"above the stop {bound:.3e}")
        active = new
    raise SolverError(f"active-set obstacle step did not settle in {n + 1} passes")


def _norm_inf(B: sp.csr_matrix) -> float:
    """Largest absolute row sum of B (an SPD matrix has no empty row)."""
    return float(np.add.reduceat(np.abs(B.data), B.indptr[:-1]).max())
