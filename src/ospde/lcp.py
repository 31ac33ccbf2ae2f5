"""One active-set kernel for the implicit obstacle step of both constrained schemes.

For an SPD M-matrix B, the projected step solves the linear complementarity
problem x >= psi, B x - q >= 0, (x - psi)' (B x - q) = 0, and the penalized
step solves B x - pen * (x - psi)^- = q.  The projected step is the
penalized one at infinite penalty; both are solved by the primal-dual
active-set method, a semismooth Newton method (Hintermueller, Ito & Kunisch,
SIAM J. Optim. 13, 2003), which ends in at most n + 1 passes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

__all__ = ["psor"]

# Stop when the set repeats and |B x - reaction - q|_inf is at most
# _TOL * (1 + |q|_inf + |B|_inf |x|_inf), the size of the terms it rounds.
_TOL = 1e-12


def psor(B: sp.csr_matrix, lu, q: np.ndarray, psi: np.ndarray, pen: float = math.inf):
    """Solve the obstacle step with lower bound psi: the LCP (B, q) when
    ``pen`` is infinite, B x - pen * (x - psi)^- = q otherwise.

    Despite its name this is the active-set method, not projected SOR; the
    name is kept because callers resolve the kernel as ``ospde.solver.psor``,
    the benchmark's per-layer tracer among them.  ``lu`` prefactors B; its
    solve x_free is the answer when feasible (0 passes), else the active set
    starts where x_free < psi.  A pass pins the active nodes at psi and
    solves the free block (projected), or solves B + pen * D_active
    (penalized); the next set is where x < psi or the reaction is positive.
    From this start the sets nest on an M-matrix.

    Returns (x, passes); raises SolverError after n + 1 passes.
    """
    q = np.asarray(q, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = q.size
    x_free = lu.solve(q)
    active = x_free < psi
    if not active.any():
        return x_free, 0
    scale = 1.0 + float(np.abs(q).max())
    for passes in range(1, n + 2):
        if not active.any():  # x_free again: its set is the start, so no stop here
            x, reaction = x_free, np.zeros(n)
        elif pen == math.inf:
            free = ~active
            x = psi.copy()
            if free.any():
                Bf = B[free]
                rhs = q[free] - Bf[:, active] @ psi[active]
                x[free] = spla.spsolve(Bf[:, free].tocsc(), rhs)
            reaction = np.where(active, B @ x - q, 0.0)
        else:
            d = np.where(active, pen, 0.0)
            x = spla.spsolve((B + sp.diags(d)).tocsc(), q + d * psi)
            reaction = pen * np.maximum(psi - x, 0.0)
        new = (x < psi) | (reaction > 0.0)
        if np.array_equal(new, active) and (np.abs(B @ x - reaction - q).max()
                                            <= _TOL * (scale + _norm_inf(B) * np.abs(x).max())):
            return x, passes
        active = new
    raise SolverError(f"active-set obstacle step did not settle in {n + 1} passes")


def _norm_inf(B: sp.csr_matrix) -> float:
    """Largest absolute row sum of B (an SPD matrix has no empty row)."""
    return float(np.add.reduceat(np.abs(B.data), B.indptr[:-1]).max())
