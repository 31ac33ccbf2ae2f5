"""Complementarity and penalty solvers for the implicit obstacle step.

Each time step of the constrained schemes solves, for an SPD M-matrix B:

* projected step (linear complementarity): x >= psi, B x - q >= 0,
  (x - psi)' (B x - q) = 0; solved exactly by the primal-dual active-set
  method (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2003), each
  pass a direct solve of the free block.  On an M-matrix it ends in
  finitely many passes.
* penalized step: B x - pen * (x - psi)^- = q; solved by a semismooth
  active-set iteration, each pass a sparse solve of (B + pen * D_A).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

__all__ = ["psor", "penalized_solve"]


def psor(B: sp.csr_matrix, q: np.ndarray, psi: np.ndarray, x0: np.ndarray):
    """Exact solve of the LCP (B, q) with lower bound psi.

    Despite its name this is the primal-dual active-set method, not
    projected SOR; the name is kept because callers resolve the
    projected-step kernel as ``ospde.solver.psor``, the benchmark's
    per-layer tracer among them.  The contact set starts where ``x0``
    (typically the unconstrained solve) lies below psi.  Each pass pins the
    contact nodes at psi and solves the free block directly; a contact node
    leaves when its residual (B x - q)_i is not positive, a free node joins
    when it falls below psi, and the iteration stops when the set repeats.
    Starting from the contact set of an unconstrained solve, the sets only
    shrink on an M-matrix, so more than n + 1 passes means B is not one.

    Returns (x, passes); raises SolverError when the pass bound is hit.
    """
    q = np.asarray(q, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = q.size
    contact = np.asarray(x0, dtype=float) < psi
    x = np.empty(n)
    for passes in range(1, n + 2):
        free = ~contact
        x[contact] = psi[contact]
        new_contact = contact.copy()
        if free.any():
            Bf = B[free]
            rhs = q[free] - Bf[:, contact] @ psi[contact]
            xf = spla.spsolve(Bf[:, free].tocsc(), rhs)
            x[free] = xf
            new_contact[free] = xf < psi[free]
        if contact.any():
            new_contact[contact] = (B @ x - q)[contact] > 0.0
        if np.array_equal(new_contact, contact):
            return x, passes
        contact = new_contact
    raise SolverError(f"active-set LCP solve did not settle in {n + 1} passes")


def penalized_solve(B: sp.csc_matrix, lu, q: np.ndarray, psi: np.ndarray,
                    pen: float, tol: float = 1e-12, max_iters: int = 200):
    """Solve B x - pen * (x - psi)^- = q by active-set iteration.

    ``lu`` is a prefactorization of B used for the unconstrained start.
    Returns (x, iterations, residual_inf).
    """
    q = np.asarray(q, dtype=float)
    psi = np.asarray(psi, dtype=float)
    scale = 1.0 + float(np.abs(q).max(initial=0.0))
    x = lu.solve(q)
    active = x < psi
    for it in range(1, max_iters + 1):
        if active.any():
            d = np.where(active, pen, 0.0)
            M = B + sp.diags(d)
            x = spla.spsolve(M.tocsc(), q + d * psi)
        else:
            x = lu.solve(q)
        resid = B @ x - pen * np.maximum(psi - x, 0.0) - q
        new_active = x < psi
        if np.array_equal(new_active, active) and np.abs(resid).max() <= tol * scale:
            return x, it, float(np.abs(resid).max())
        active = new_active
    raise SolverError(f"penalized step did not converge in {max_iters} iterations")
