import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ospde.grid import assemble_operator, build_grid
from ospde.lcp import psor


@st.composite
def step_lcp(draw):
    """An implicit step matrix B = I + dt K from the real assembly, with a
    random right-hand side and obstacle on its interior nodes."""
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
    # the solver's start (the unconstrained solve), or an arbitrary one
    if draw(st.booleans()):
        x0 = spla.spsolve(B.tocsc(), q)
    else:
        x0 = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return B, q, psi, x0


@given(step_lcp())
@settings(max_examples=200, deadline=None)
def test_active_set_solves_the_lcp_exactly(problem):
    B, q, psi, x0 = problem
    n = q.size
    x, passes = psor(B, q, psi, x0)
    r = B @ x - q
    scale = 1.0 + np.abs(q).max() + abs(B).sum(axis=1).max() * np.abs(psi).max()
    assert np.all(x >= psi)
    assert r.min() >= -1e-12 * scale
    free = x > psi
    assert np.abs(r[free]).max(initial=0.0) <= 1e-12 * scale
    assert 1 <= passes <= n + 1
