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
projected pass masks out the free block.  Either way the arrays handed to
SuperLU are, bit for bit, those of ``B + diags(d)`` or ``B[free][:, free]``.
``_factor`` hands them to SuperLU's dgstrf directly, with the options
``splu`` passes, so no matrix is built and no check of ``splu``'s runs.
The active sets return across passes and steps, so ``StepMatrix`` also
keeps the SuperLU factor of each pass matrix it meets, keyed by penalty
and active set.  The newest factor is always kept; older ones go, least
recently used first, while the kept matrices hold more than
``_KEPT_ENTRIES`` stored entries, enough for the factors a 1D step's
passes use.  ``splu(A)`` then ``.solve(b)`` runs the same SuperLU routines
(dgstrf, dgstrs) with the same options as ``spsolve(A, b)``, so a kept
factor gives the same bits as solving afresh.

A batch of S solves marching together hands ``psor`` an (n, S) block of
right-hand sides and one obstacle column per right-hand side (n, S).  Each
pass groups the unsettled columns by their active set and gathers them
once, group after group; a group shares one factor and one solve on its
contiguous slice of columns, which SuperLU treats column by column, while
each column keeps its own pinned values and reactions, so every column
comes out bit for bit as it would alone.

A column stops at the first pass whose iterate meets its own problem, the
penalized equation or the LCP, within the residual stop (``_settle``).  On
degenerate contact, where a node's gap and reaction are both zero in exact
arithmetic, rounding can make the plain active-set rule cycle; the stop
ends a penalized column there, and a projected column that shows it, by a
node entering its set after the first pass, which exact arithmetic never
does, pins such nodes instead.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

try:
    from scipy.sparse.linalg._dsolve._superlu import gstrf as _gstrf
except ImportError:  # a scipy without the private entry: _factor goes through splu
    _gstrf = None

__all__ = ["StepMatrix", "psor"]

# A column stops at the first pass whose |B x - reaction - q|_inf is at most
# _TOL times the size of the terms it rounds: 1 + |q|_inf + |B|_inf |x|_inf,
# plus pen * |x_active|_inf for a penalized pass, whose matrix is B + pen * D.
# A projected iterate must also leave no node below psi and no reaction
# below minus that bound.
_TOL = 1e-12
# Stored entries (nnz) of the pass matrices whose factors one StepMatrix
# keeps besides the newest.  SuperLU's factor takes about 20 times its
# matrix's entries, and a 1D march's peak RSS rises by about 0.8 MB per 1024
# kept entries.  The budget holds the factors a 1D step's passes use: at
# 3072 entries the benchmark's compare batch (24 cells, 96 paths) kept
# about 45 of its 23-unknown factors, fewer than one step meets, and made
# 919 of its 1184 factorizations again.  A 2D pass matrix on 48 x 48 cells
# (about 11 000 entries) is over the budget alone, so a 2D march keeps its
# newest factor only: the set of a step's last pass often starts the next
# step.
_KEPT_ENTRIES = 6144
# The options ``spla.splu`` passes dgstrf when called with its defaults.
_SPLU_OPTIONS = dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None, Relax=None)


class StepMatrix:
    """The step matrix B (sorted CSR), its factorization ``lu`` and what
    every active-set pass reuses: B in CSC arrays whose pattern is that of
    B + diags(d) for every d >= 0 (``data``, and ``indices`` and ``indptr``
    as SuperLU's intc), the column of each entry, the positions of the
    diagonal, |B|_inf, and the factors of the pass matrices met so far
    (``kept``, least recently used first, holding ``kept_entries`` stored
    entries: the newest factor's and at most ``_KEPT_ENTRIES`` besides).
    ``factorizations`` counts the pass matrices factored."""

    def __init__(self, B: sp.csr_matrix, lu):
        n = B.shape[0]
        self.B = B
        self.lu = lu
        csc = (B + sp.diags(np.zeros(n))).tocsc()
        self.data = csc.data
        self.indices = csc.indices.astype(np.intc, copy=False)
        self.indptr = csc.indptr.astype(np.intc, copy=False)
        self.shifted_data = self.data.copy()  # passes edit only its diagonal
        self.col = np.repeat(np.arange(n, dtype=np.intc), np.diff(self.indptr))
        self.diag = np.flatnonzero(self.indices == self.col)
        self.norm = _norm_inf(B)
        self.factorizations = 0
        self.kept: OrderedDict[tuple[float, bytes], tuple] = OrderedDict()  # (factor, entries)
        self.kept_entries = 0

    def shifted(self, d: np.ndarray) -> tuple:
        """B + diags(d) as CSC arrays: B's pattern with B_ii + d_i written
        on the diagonal of ``shifted_data``."""
        self.shifted_data[self.diag] = self.data[self.diag] + d
        return self.shifted_data, self.indices, self.indptr

    def free_block(self, free: np.ndarray) -> tuple:
        """B[free][:, free] as new CSC arrays, masked out of B's pattern."""
        idx = self.indices
        keep = free[idx] & free[self.col]
        counts = np.bincount(self.col[keep], minlength=free.size)[free]
        indptr = np.zeros(counts.size + 1, dtype=np.intc)
        np.cumsum(counts, out=indptr[1:])
        position = np.cumsum(free, dtype=np.intc) - 1  # of each node among the free ones
        return self.data[keep], position[idx[keep]], indptr

    def factor(self, active: np.ndarray, key: bytes, pen: float):
        """The SuperLU factor of the pass matrix of the nonempty set
        ``active`` (``key`` is its ``tobytes()``): B + pen * D_active, or the
        free block at infinite ``pen``.  A kept factor is reused; a new one
        is kept, and the least recently used others are evicted while the
        kept matrices hold more than ``_KEPT_ENTRIES`` entries."""
        index = (pen, key)
        kept = self.kept.get(index)
        if kept is not None:
            self.kept.move_to_end(index)
            return kept[0]
        if pen == math.inf:
            data, indices, indptr = self.free_block(~active)
        else:
            data, indices, indptr = self.shifted(np.where(active, pen, 0.0))
        lu = _factor(data, indices, indptr)
        self.factorizations += 1
        self.kept[index] = (lu, data.size)
        self.kept_entries += data.size
        while self.kept_entries > _KEPT_ENTRIES and len(self.kept) > 1:
            _, (_, entries) = self.kept.popitem(last=False)
            self.kept_entries -= entries
        return lu


def _factor(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """The SuperLU factor of the square CSC matrix (data, indices, indptr),
    with sorted intc indices and no duplicates: bit for bit, with the same
    permutations, what ``spla.splu`` gives of it, from the same dgstrf call
    with the same options but without a matrix built or checked.  Goes
    through ``spla.splu`` when scipy has no ``gstrf``."""
    n = indptr.size - 1
    if _gstrf is None:
        return spla.splu(sp.csc_matrix((data, indices, indptr), shape=(n, n)))
    return _gstrf(n, data.size, data, indices, indptr, csc_construct_func=sp.csc_array,
                  ilu=False, options=_SPLU_OPTIONS)


def psor(step: StepMatrix, q: np.ndarray, psi: np.ndarray, pen: float = math.inf):
    """Solve the obstacle step with lower bound psi: the LCP (B, q) when
    ``pen`` is infinite, B x - pen * (x - psi)^- = q otherwise.

    Despite its name this is the active-set method, not projected SOR; the
    name is kept because callers resolve the kernel as ``ospde.solver.psor``,
    the benchmark's per-layer tracer among them.  ``q`` is a block of
    right-hand sides (n, S) and ``psi`` its obstacle columns (n, S); one
    right-hand side (n,) or one obstacle (n,) is broadcast to the block at
    entry.  Each column is solved exactly as it would be alone with its own
    obstacle.  ``step.lu`` prefactors B; its solve x_free is a column's
    answer when feasible (0 passes), else the column's active set starts
    where x_free < psi.  A pass pins the active nodes at psi and solves the
    free block (projected), or solves B + pen * D_active (penalized), with
    the factor ``step`` keeps for that set or a new one made on the pattern
    it caches; the columns whose sets are equal share that factor and one
    solve, while their pinned values, right-hand sides and reactions stay
    their own.  A column stops at the first pass whose iterate meets its
    own problem within the residual stop (see ``_settle``); otherwise its
    next set is where x < psi or the reaction is positive, except on
    degenerate contact.  A repeated set gives the same iterate again, so a
    column whose next set is its own and whose iterate misses the stop
    fails at once.  ``step.factorizations`` counts the factorizations.

    Returns (x, passes) shaped like q: passes is an int, or an int array
    (S,) for a block.  Raises SolverError, with ``column`` set, at a
    repeated set whose residual exceeds the stop, or after n + 1 passes.
    """
    q = np.asarray(q, dtype=float)
    Q = q.reshape(q.shape[0], -1)
    Psi = np.asarray(psi, dtype=float)
    if Psi.shape != Q.shape:
        Psi = np.broadcast_to(Psi.reshape(Q.shape[0], -1), Q.shape)
    x = step.lu.solve(Q)
    active = x < Psi
    passes = np.zeros(Q.shape[1], dtype=int)
    cols = np.flatnonzero(active.any(axis=0))
    if cols.size:
        at = cols if cols.size < Q.shape[1] else slice(None)
        x[:, at], passes[at] = _settle(step, Q[:, at], x[:, at], active[:, at],
                                       Psi[:, at], pen, cols)
    if q.ndim == 1:
        return x[:, 0], int(passes[0])
    return x, passes


def _settle(step: StepMatrix, q: np.ndarray, x_free: np.ndarray, sets: np.ndarray,
            psi: np.ndarray, pen: float, cols: np.ndarray):
    """The active-set passes of the columns q (n, m) whose unconstrained
    solves x_free fall below their obstacles psi (n, m) on ``sets``:
    their iterates and pass counts.  ``cols`` numbers the columns in the
    caller's block, for errors.

    Every pass takes each open column's residual |B x - reaction - q|_inf
    and its stop (``_bound``).  A column stops at the first pass whose
    iterate meets its own problem within that stop: a penalized iterate
    when its residual is within it, a projected one when, besides, no node
    is below psi and no reaction is below minus the stop.  A column whose
    next set is its own would only repeat its iterate, so it fails at once.

    Degenerate contact: where the state rests on a flat obstacle with no
    forcing, the gap x - psi and the reaction of a node are both zero in
    exact arithmetic, and rounding moves such nodes in and out of the set:
    the plain rule frees a node whose reaction rounds to zero or below and
    pins it again when its gap rounds below zero, and the sets can wander
    until the n + 1 cap.  The stop ends a column as soon as an iterate
    meets its problem; a penalized state resting on psi (q = B psi) meets
    it at the first pass.  In exact arithmetic every projected iterate from
    the first pass on is feasible and the sets only shrink (B is an
    M-matrix), so a node that enters a projected column's set after the
    first pass enters by rounding, and the column is degenerate.  From then
    on its next set also holds every near node, whose gap is at most the
    stop and whose reaction is at least minus it (a pinned node's gap and a
    free node's reaction are 0), so its set settles in a pass or two with
    no node left below psi."""
    n, m = q.shape
    x = np.empty_like(x_free)
    passes = np.zeros(m, dtype=int)
    open_ = np.arange(m)  # positions still open, among the m columns
    cycled = np.zeros(m, dtype=bool)  # degenerate columns: a node entered their set
    q_scale = 1.0 + np.abs(q).max(axis=0)
    for count in range(1, n + 2):
        groups: dict[bytes, list[int]] = {}
        for j in range(open_.size):
            groups.setdefault(sets[:, j].tobytes(), []).append(j)
        # Each column's right-hand side for its set: q + pen * D_set psi, or
        # for a projected pass q - B (psi on the set, 0 elsewhere), where B
        # adds only +-0.0 terms from the free nodes to row sums that start
        # at +0.0, so it equals the sum over the pinned nodes bit for bit.
        # A column whose set is empty takes x_free again; a projected
        # column keeps psi on its set.
        if pen == math.inf:
            rhs = q - step.B @ np.where(sets, psi, 0.0)
            x_pass = np.where(sets, psi, x_free)
        else:
            rhs = q + np.where(sets, pen, 0.0) * psi
            x_pass = x_free.copy()
        # the columns of one set share its factor and one solve on their
        # slice of the columns gathered group after group
        order, runs = [], []
        for key, members in groups.items():
            active = sets[:, members[0]]
            if active.any() and not (pen == math.inf and active.all()):
                runs.append((key, active, slice(len(order), len(order) + len(members))))
                order += members
        if order:
            R, X = rhs[:, order], x_pass[:, order]
            for key, active, at in runs:
                lu = step.factor(active, key, pen)
                if pen == math.inf:
                    X[~active, at] = lu.solve(R[~active, at])
                else:
                    X[:, at] = lu.solve(R[:, at])
            x_pass[:, order] = X
        Bx = step.B @ x_pass
        if pen == math.inf:
            reaction = np.where(sets, Bx - q, 0.0)
        else:
            reaction = pen * np.maximum(psi - x_pass, 0.0)
        new = (x_pass < psi) | (reaction > 0.0)
        residual = np.abs(Bx - reaction - q).max(axis=0)
        bound = _bound(step, q_scale, x_pass, sets, pen)
        done = residual <= bound
        if pen == math.inf:
            entered = (new & ~sets).any(axis=0)  # a node below psi: pinned ones sit on it
            done &= ~entered & ~(reaction < -bound).any(axis=0)
            cycled |= entered
            new |= cycled & (x_pass - psi <= bound) & (reaction >= -bound)
        failed = ~done & (new == sets).all(axis=0)
        if failed.any():
            j = int(np.argmax(failed))
            raise SolverError(f"active set repeated with residual {residual[j]:.3e} "
                              f"above the stop {bound[j]:.3e}", column=int(cols[open_[j]]))
        if done.any():
            x[:, open_[done]] = x_pass[:, done]
            passes[open_[done]] = count
            if done.all():
                return x, passes
            keep = ~done
            open_, new, q, x_free = open_[keep], new[:, keep], q[:, keep], x_free[:, keep]
            cycled, q_scale, psi = cycled[keep], q_scale[keep], psi[:, keep]
        sets = new
    raise SolverError(f"active-set obstacle step did not settle in {n + 1} passes",
                      column=int(cols[open_[0]]))


def _bound(step: StepMatrix, q_scale: np.ndarray, x: np.ndarray, sets: np.ndarray,
           pen: float) -> np.ndarray:
    """The residual stop of each column: _TOL times ``q_scale`` (1 + |q|_inf)
    plus |B|_inf |x|_inf, plus pen |x_active|_inf for a penalized pass."""
    scale = q_scale + step.norm * np.abs(x).max(axis=0)
    if pen != math.inf:
        scale += pen * np.where(sets, np.abs(x), 0.0).max(axis=0)
    return _TOL * scale


def _norm_inf(B: sp.csr_matrix) -> float:
    """Largest absolute row sum of B (an SPD matrix has no empty row)."""
    return float(np.add.reduceat(np.abs(B.data), B.indptr[:-1]).max())
