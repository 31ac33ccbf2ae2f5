import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ospde.grid import assemble_operator, build_grid
from ospde.lcp import psor


@st.composite
def step_problem(draw):
    """An implicit step matrix B = I + dt K from the real assembly, its
    factorization, a random right-hand side and obstacle on its interior
    nodes, and a penalty: infinite (projected step) or dt * n (penalized)."""
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
    psi = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    pen = draw(st.one_of(st.just(math.inf), st.floats(1.0, 1e5).map(lambda m: dt * m)))
    return B, spla.splu(B.tocsc()), q, psi, pen


@given(step_problem())
@settings(max_examples=200, deadline=None)
def test_active_set_solves_the_lcp_exactly(problem):
    B, lu, q, psi, pen = problem
    n = q.size
    x, passes = psor(B, lu, q, psi, pen)
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
