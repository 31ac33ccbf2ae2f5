import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import ospde.lcp as lcp
from ospde.errors import SolverError
from ospde.grid import assemble_operator, build_grid
from ospde.lcp import StepMatrix, psor


@st.composite
def step_problem(draw):
    """An implicit step matrix B = I + dt K from the real assembly with its
    factorization, a random right-hand side and obstacle on its interior
    nodes (the obstacle has exact zeros of both signs among its values),
    and a penalty: infinite (projected step) or dt * n (penalized)."""
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        grid = build_grid(1, (0.0, 1.0), draw(st.integers(3, 40)))
    else:
        counts = (draw(st.integers(3, 9)), draw(st.integers(3, 9)))
        grid = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], counts)
    a = draw(st.floats(0.25, 4.0))
    op = assemble_operator(grid, a, lam=a, Lam=a)
    dt = draw(st.floats(1e-4, 1.0))
    B = (sp.identity(grid.n_interior, format="csr") + dt * op.stiffness).tocsr()
    n = grid.n_interior
    values = st.floats(-5.0, 5.0, allow_nan=False)
    q = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    psi_values = st.one_of(values, st.sampled_from([0.0, -0.0]))
    psi = np.array(draw(st.lists(psi_values, min_size=n, max_size=n)))
    pen = draw(st.one_of(st.just(math.inf), st.floats(1.0, 1e5).map(lambda m: dt * m)))
    return B, spla.splu(B.tocsc()), q, psi, pen


def reference_psor(B, lu, q, psi, pen):
    """The kernel as it was before the cached pattern: each pass builds its
    matrix with ``B + sp.diags(d)`` or ``B[free]`` slicing, and runs to n + 1
    passes when a repeated set misses the residual stop.  A set that returns
    after one other set (x_free is the empty set's iterate) counts as a
    repeat."""
    n = q.size
    x_free = lu.solve(q)
    active = x_free < psi
    if not active.any():
        return x_free, 0
    scale = 1.0 + float(np.abs(q).max())
    prev = np.zeros(n, dtype=bool)
    for passes in range(1, n + 2):
        if not active.any():
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
        if ((np.array_equal(new, active) or np.array_equal(new, prev))
                and (np.abs(B @ x - reaction - q).max()
                     <= lcp._TOL * (scale + lcp._norm_inf(B) * np.abs(x).max()))):
            return x, passes
        prev, active = active, new
    raise SolverError("did not settle")


@given(step_problem())
@settings(max_examples=200, deadline=None)
def test_active_set_solves_the_lcp_exactly(problem):
    B, lu, q, psi, pen = problem
    n = q.size
    x, passes = psor(StepMatrix(B, lu), q, psi, pen)
    r = B @ x - q
    scale = 1.0 + np.abs(q).max() + abs(B).sum(axis=1).max() * np.abs(psi).max()
    if pen == math.inf:
        assert np.all(x >= psi)
        assert r.min() >= -1e-12 * scale
        free = x > psi
        assert np.abs(r[free]).max(initial=0.0) <= 1e-12 * scale
    else:
        assert np.abs(r - pen * np.maximum(psi - x, 0.0)).max() <= 1e-12 * scale
    assert 0 <= passes <= n + 1
    assert (passes == 0) == bool(np.all(lu.solve(q) >= psi))


@given(step_problem())
@settings(max_examples=300, deadline=None)
def test_cached_pattern_matches_rebuilt_matrices_bit_for_bit(problem):
    B, lu, q, psi, pen = problem
    x, passes = psor(StepMatrix(B, lu), q, psi, pen)
    x_ref, passes_ref = reference_psor(B, lu, q, psi, pen)
    assert x.tobytes() == x_ref.tobytes()
    assert passes == passes_ref


class _CountingSpla:
    """``scipy.sparse.linalg`` with a call count on ``spsolve``."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(spla, name)

    def spsolve(self, *args, **kwargs):
        self.calls += 1
        return spla.spsolve(*args, **kwargs)


def _contact_step(pen):
    """A 1D step with contact whose passes leave a nonzero residual."""
    grid = build_grid(1, (0.0, 1.0), 24)
    op = assemble_operator(grid, 1.0, 1.0, 1.0)
    B = (sp.identity(grid.n_interior, format="csr") + 0.01 * op.stiffness).tocsr()
    x = grid.coords[grid.interior, 0]
    q = np.sin(3.0 * x) - 0.3
    psi = 0.2 * np.sin(np.pi * x)
    return StepMatrix(B, spla.splu(B.tocsc())), q, psi, pen


def test_set_returning_after_one_other_stops():
    # With a subnormal obstacle the penalized pass on {1} rounds x_1 up to
    # psi_1, which empties the set, and the empty set's iterate x_free = 0
    # brings {1} back: the sets would alternate until n + 1 passes.
    B = sp.csr_matrix(np.array([[19.0, -9.0], [-9.0, 19.0]]))
    psi = np.array([0.0, 5e-324])
    x, passes = psor(StepMatrix(B, spla.splu(B.tocsc())), np.zeros(2), psi, 15.0)
    assert passes == 1 and x.tolist() == [0.0, 5e-324]


@pytest.mark.parametrize("pen", [math.inf, 10.0], ids=["projected", "penalized"])
def test_failed_repeat_stops_at_once(monkeypatch, pen):
    step, q, psi, pen = _contact_step(pen)
    counter = _CountingSpla()
    monkeypatch.setattr(lcp, "spla", counter)
    x, passes = psor(step, q, psi, pen)
    needed = counter.calls
    assert needed == passes < q.size + 1
    reaction = (np.where(x <= psi, step.B @ x - q, 0.0) if pen == math.inf
                else pen * np.maximum(psi - x, 0.0))
    assert np.abs(step.B @ x - reaction - q).max() > 0.0

    counter.calls = 0
    monkeypatch.setattr(lcp, "_TOL", 0.0)
    with pytest.raises(SolverError, match=r"residual \S+ above the stop 0\.000e\+00"):
        psor(step, q, psi, pen)
    assert counter.calls == needed


@pytest.mark.parametrize("pen", [math.inf, 10.0], ids=["projected", "penalized"])
def test_passes_build_no_matrix_from_another(monkeypatch, pen):
    step, q, psi, pen = _contact_step(pen)
    built = []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        def counting_init(self, arg1, *args, _init=cls.__init__, **kwargs):
            built.append((type(self).__name__, type(arg1).__name__))
            _init(self, arg1, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    x, passes = psor(step, q, psi, pen)
    # projected: one CSC per pass, made from the masked arrays; penalized: none
    assert built == ([("csc_matrix", "tuple")] * passes if pen == math.inf else [])


@st.composite
def step_block(draw):
    """A step problem with a block of right-hand sides: the drawn column,
    fresh random ones, feasible ones (their unconstrained solve clears psi)
    and duplicates, in a drawn order."""
    B, lu, q, psi, pen = draw(step_problem())
    n = q.size
    values = st.floats(-5.0, 5.0, allow_nan=False)
    feasible = B @ (np.maximum(psi, 0.0) + 1.0)
    columns = [q]
    for kind in draw(st.lists(st.sampled_from(["fresh", "feasible", "duplicate"]),
                              min_size=1, max_size=6)):
        if kind == "fresh":
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n))))
        elif kind == "feasible":
            columns.append(feasible)
        else:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
    order = draw(st.permutations(range(len(columns))))
    return B, lu, np.column_stack([columns[i] for i in order]), psi, pen


@given(step_block())
@settings(max_examples=200, deadline=None)
def test_block_solves_each_column_as_alone(problem):
    B, lu, Q, psi, pen = problem
    x, passes = psor(StepMatrix(B, lu), Q, psi, pen)
    assert x.shape == Q.shape and passes.shape == (Q.shape[1],)
    for s in range(Q.shape[1]):
        x_s, passes_s = psor(StepMatrix(B, lu), Q[:, s], psi, pen)
        assert x[:, s].tobytes() == x_s.tobytes()
        assert passes[s] == passes_s


@pytest.mark.parametrize("pen", [math.inf, 10.0], ids=["projected", "penalized"])
def test_block_shares_one_solve_per_distinct_set(monkeypatch, pen):
    step, q, psi, pen = _contact_step(pen)
    counter = _CountingSpla()
    monkeypatch.setattr(lcp, "spla", counter)
    x, passes = psor(step, q, psi, pen)
    alone = counter.calls
    feasible = step.B @ (np.maximum(psi, 0.0) + 1.0)
    counter.calls = 0
    step.factorizations = 0
    X, P = psor(step, np.column_stack([q, feasible, q, q]), psi, pen)
    assert counter.calls == step.factorizations == alone
    assert P.tolist() == [passes, 0, passes, passes]
    assert X[:, 2].tobytes() == x.tobytes()


@pytest.mark.parametrize("pen", [math.inf, 10.0], ids=["projected", "penalized"])
def test_failing_column_is_named(monkeypatch, pen):
    step, q, psi, pen = _contact_step(pen)
    feasible = step.B @ (np.maximum(psi, 0.0) + 1.0)
    monkeypatch.setattr(lcp, "_TOL", 0.0)
    with pytest.raises(SolverError, match="above the stop") as info:
        psor(step, np.column_stack([feasible, feasible, q]), psi, pen)
    assert info.value.column == 2
