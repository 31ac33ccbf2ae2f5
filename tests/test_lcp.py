import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_calls, count_lcp_factorizations

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


def _given_step(B, q, psi, pen):
    """A ``step_problem`` draw made by hand."""
    B = sp.csr_matrix(np.array(B))
    return B, spla.splu(B.tocsc()), np.array(q, dtype=float), np.array(psi, dtype=float), pen


def documented_stop(B, q, x, psi, pen):
    """The kernel's residual stop for an iterate x: _TOL times
    1 + |q| + |B| |x|, plus pen |x| over the active set for a penalized
    pass, whose set at the stop is where x < psi."""
    scale = 1.0 + np.abs(q).max() + lcp._norm_inf(B) * np.abs(x).max()
    if pen != math.inf:
        scale += pen * np.abs(x[x < psi]).max(initial=0.0)
    return lcp._TOL * scale


def reference_psor(B, lu, q, psi, pen):
    """The kernel as it was before the cached pattern: each pass builds its
    matrix with ``B + sp.diags(d)`` or ``B[free]`` slicing.  It stops at the
    first pass whose iterate meets its problem within the documented stop
    (_TOL times 1 + |q| + |B| |x|, plus pen |x| over the pass's active set
    for a penalized pass): the residual is within the stop and, when
    projected, no node is below psi and no reaction is below minus the
    stop.  On degenerate contact the projected rule is the documented one:
    once a node enters the set after the first pass, every next set also
    holds every node whose gap is at most the stop and whose reaction is at
    least minus the stop.  One column with its own obstacle is all a column
    of a block is, so the reference takes one."""
    n = q.size
    x_free = lu.solve(q)
    active = x_free < psi
    if not active.any():
        return x_free, 0
    scale = 1.0 + float(np.abs(q).max())
    cycled = False
    for passes in range(1, n + 2):
        if not active.any():
            x = x_free
        elif pen == math.inf:
            free = ~active
            x = psi.copy()
            if free.any():
                Bf = B[free]
                rhs = q[free] - Bf[:, active] @ psi[active]
                x[free] = spla.spsolve(Bf[:, free].tocsc(), rhs)
        else:
            d = np.where(active, pen, 0.0)
            x = spla.spsolve((B + sp.diags(d)).tocsc(), q + d * psi)
        if pen == math.inf:
            reaction = np.where(active, B @ x - q, 0.0)
        else:
            reaction = pen * np.maximum(psi - x, 0.0)
        new = (x < psi) | (reaction > 0.0)
        stop = scale + lcp._norm_inf(B) * np.abs(x).max()
        if pen != math.inf:
            stop += pen * np.abs(x[active]).max(initial=0.0)
        stop *= lcp._TOL
        done = np.abs(B @ x - reaction - q).max() <= stop
        if pen == math.inf:
            done = done and not ((x < psi) | (reaction < -stop)).any()
            cycled = cycled or bool((new & ~active).any())
            if cycled:
                new |= (x - psi <= stop) & (reaction >= -stop)
        if done:
            return x, passes
        active = new
    raise SolverError("did not settle")


@given(step_problem())
@example(_given_step([[5.079490044390711, -2.0397450221953557],
                      [-2.0397450221953557, 5.079490044390711]], [0.0, 0.0], [1.0, 1.0],
                     49009.6335632952))  # within the stop only by its pen |x_active| term
@settings(max_examples=200, deadline=None)
def test_active_set_solves_the_lcp_exactly(problem):
    B, lu, q, psi, pen = problem
    n = q.size
    x, passes = psor(StepMatrix(B, lu), q, psi, pen)
    r = B @ x - q
    stop = documented_stop(B, q, x, psi, pen)
    if pen == math.inf:
        assert np.all(x >= psi)
        assert r.min() >= -stop
        free = x > psi
        assert np.abs(r[free]).max(initial=0.0) <= stop
    else:
        assert np.abs(r - pen * np.maximum(psi - x, 0.0)).max() <= stop
    assert 0 <= passes <= n + 1
    assert (passes == 0) == bool(np.all(lu.solve(q) >= psi))


@given(step_problem())
@example(_given_step([[5.21875, -2.109375], [-2.109375, 5.21875]], [0.0, 0.0], [0.0, 1.0],
                     71544.375))    # settles only on the penalized stop's pen |x| term
@settings(max_examples=300, deadline=None)
def test_cached_pattern_matches_rebuilt_matrices_bit_for_bit(problem):
    B, lu, q, psi, pen = problem
    x, passes = psor(StepMatrix(B, lu), q, psi, pen)
    x_ref, passes_ref = reference_psor(B, lu, q, psi, pen)
    assert x.tobytes() == x_ref.tobytes()
    assert passes == passes_ref


def _contact_step(pen):
    """A 1D step with contact whose passes leave a nonzero residual."""
    grid = build_grid(1, (0.0, 1.0), 24)
    op = assemble_operator(grid, 1.0, 1.0, 1.0)
    B = (sp.identity(grid.n_interior, format="csr") + 0.01 * op.stiffness).tocsr()
    x = grid.coords[grid.interior, 0]
    q = np.sin(3.0 * x) - 0.3
    psi = 0.2 * np.sin(np.pi * x)
    return StepMatrix(B, spla.splu(B.tocsc())), q, psi, pen


def test_pass_within_the_stop_ends_the_step():
    # With a subnormal obstacle the penalized pass on {1} rounds x_1 up to
    # psi_1, so the next set would be empty, and the empty set's iterate
    # x_free = 0 would bring {1} back.  The first pass's iterate already
    # meets the problem within the residual stop, so the step ends there.
    B = sp.csr_matrix(np.array([[19.0, -9.0], [-9.0, 19.0]]))
    psi = np.array([0.0, 5e-324])
    x, passes = psor(StepMatrix(B, spla.splu(B.tocsc())), np.zeros(2), psi, 15.0)
    assert passes == 1 and x.tolist() == [0.0, 5e-324]


@pytest.mark.parametrize("pen", [math.inf, 10.0], ids=["projected", "penalized"])
def test_failed_repeat_stops_at_once(monkeypatch, pen):
    step, q, psi, pen = _contact_step(pen)
    calls = count_lcp_factorizations(monkeypatch)
    x, passes = psor(step, q, psi, pen)
    needed = len(calls)
    assert needed == step.factorizations == passes < q.size + 1
    reaction = (np.where(x <= psi, step.B @ x - q, 0.0) if pen == math.inf
                else pen * np.maximum(psi - x, 0.0))
    assert np.abs(step.B @ x - reaction - q).max() > 0.0

    step = _contact_step(pen)[0]  # the first step keeps every factor it made
    calls.clear()
    monkeypatch.setattr(lcp, "_TOL", 0.0)
    with pytest.raises(SolverError, match=r"residual \S+ above the stop 0\.000e\+00"):
        psor(step, q, psi, pen)
    assert len(calls) == needed


@st.composite
def pass_matrix(draw):
    """A step matrix from ``step_problem``, an active set and right-hand
    sides: the CSC arrays of a pass matrix, B + pen * D_active (penalized)
    or the free block B[free][:, free] (projected), the same matrix built
    by scipy, and a block of right-hand sides for it."""
    B, lu, _, _, pen = draw(step_problem())
    n = B.shape[0]
    active = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    step = StepMatrix(B, lu)
    if pen == math.inf:
        free = ~active
        free[draw(st.integers(0, n - 1))] = True
        arrays = step.free_block(free)
        A = B[free][:, free].tocsc()
    else:
        d = np.where(active, pen, 0.0)
        arrays = step.shifted(d)
        A = (B + sp.diags(d)).tocsc()
    m = A.shape[0]
    values = st.floats(-5.0, 5.0, allow_nan=False)
    rhs = np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m),
                                 min_size=1, max_size=3))).T
    return arrays, A, rhs


@given(pass_matrix())
@settings(max_examples=150, deadline=None)
def test_direct_factor_matches_splu_bit_for_bit(problem):
    (data, indices, indptr), A, rhs = problem
    direct, scipy_lu = lcp._factor(data, indices, indptr), spla.splu(A)
    assert np.array_equal(direct.perm_r, scipy_lu.perm_r)
    assert np.array_equal(direct.perm_c, scipy_lu.perm_c)
    assert direct.solve(rhs).tobytes() == scipy_lu.solve(rhs).tobytes()
    assert direct.solve(rhs[:, 0]).tobytes() == scipy_lu.solve(rhs[:, 0]).tobytes()


@pytest.mark.parametrize("pen", [math.inf, 10.0], ids=["projected", "penalized"])
def test_factor_falls_back_to_splu(monkeypatch, pen):
    step, q, psi, pen = _contact_step(pen)
    Q = np.column_stack([q, step.B @ (np.maximum(psi, 0.0) + 1.0), 0.5 * q, q])
    x, passes = psor(step, Q, psi, pen)
    fallback = _contact_step(pen)[0]
    monkeypatch.setattr(lcp, "_gstrf", None)
    calls = count_calls(monkeypatch, lcp.spla, "splu")
    x_fallback, passes_fallback = psor(fallback, Q, psi, pen)
    assert x_fallback.tobytes() == x.tobytes()
    assert np.array_equal(passes_fallback, passes)
    assert len(calls) == fallback.factorizations == step.factorizations > 0


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
    # both modes hand SuperLU arrays: the cached ones or the masked ones
    assert passes > 0 and built == []


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


_STIFF_2X2 = sp.csr_matrix(np.array([[5.21875, -2.109375], [-2.109375, 5.21875]]))


@given(step_block())
@settings(max_examples=200, deadline=None)
# a penalized pass rounds like eps * pen * |x|: the stop must scale with pen
@example((_STIFF_2X2, spla.splu(_STIFF_2X2.tocsc()), np.zeros((2, 1)), np.array([0.0, 1.0]),
          71544.375))
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
    calls = count_lcp_factorizations(monkeypatch)
    x, passes = psor(step, q, psi, pen)
    alone = len(calls)
    feasible = step.B @ (np.maximum(psi, 0.0) + 1.0)
    step = _contact_step(pen)[0]  # the first step keeps every factor it made
    calls.clear()
    X, P = psor(step, np.column_stack([q, feasible, q, q]), psi, pen)
    assert len(calls) == step.factorizations == alone > 0
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


@st.composite
def step_block_obstacles(draw):
    """A step problem with a block of right-hand sides, each column with
    its own obstacle: a fresh pair, a repeated right-hand side with a fresh
    or a shifted obstacle, a fresh right-hand side with a repeated obstacle,
    or a repeated pair, in a drawn order."""
    B, lu, q, psi, pen = draw(step_problem())
    n = q.size
    values = st.floats(-5.0, 5.0, allow_nan=False)
    psi_values = st.one_of(values, st.sampled_from([0.0, -0.0]))

    def fresh(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    qs, psis = [q], [psi]
    for kind in draw(st.lists(st.sampled_from(["fresh", "same_q", "shifted", "same_psi",
                                               "same_both"]), min_size=1, max_size=6)):
        i = draw(st.integers(0, len(qs) - 1))
        qs.append(fresh(values) if kind in ("fresh", "same_psi") else qs[i])
        if kind in ("fresh", "same_q"):
            psis.append(fresh(psi_values))
        elif kind == "shifted":
            psis.append(psis[i] + draw(st.floats(-1.0, 1.0)))
        else:
            psis.append(psis[i])
    order = draw(st.permutations(range(len(qs))))
    return (B, lu, np.column_stack([qs[i] for i in order]),
            np.column_stack([psis[i] for i in order]), pen)


@given(step_block_obstacles())
@settings(max_examples=150, deadline=None)
def test_block_with_own_obstacles_solves_each_column_as_alone(problem):
    B, lu, Q, Psi, pen = problem
    x, passes = psor(StepMatrix(B, lu), Q, Psi, pen)
    assert x.shape == Q.shape and passes.shape == (Q.shape[1],)
    for s in range(Q.shape[1]):
        x_s, passes_s = psor(StepMatrix(B, lu), Q[:, s], Psi[:, s], pen)
        assert x[:, s].tobytes() == x_s.tobytes()
        assert passes[s] == passes_s
    # equal obstacle columns give the bits of one shared obstacle
    S = Q.shape[1]
    x_tiled, passes_tiled = psor(StepMatrix(B, lu), Q, Psi[:, [0] * S], pen)
    x_shared, passes_shared = psor(StepMatrix(B, lu), Q, Psi[:, 0], pen)
    assert x_tiled.tobytes() == x_shared.tobytes()
    assert np.array_equal(passes_tiled, passes_shared)


@st.composite
def degenerate_step(draw):
    """A state resting on a flat obstacle with no forcing, on a 1D or 2D
    grid: the interior counts, the coefficient, the time step, the level
    the obstacle takes, the penalty level (infinite for a projected step, a
    penalized step's pen is dt times it) and how the state rests: the
    right-hand side is the level (q = psi) or B times it (q = B psi)."""
    if draw(st.booleans()):
        counts = (draw(st.integers(3, 80)),)
    else:
        counts = (draw(st.integers(3, 24)), draw(st.integers(3, 24)))
    return (counts, draw(st.floats(0.25, 4.0)), draw(st.floats(1e-4, 1.0)),
            draw(st.floats(-5.0, 5.0, allow_nan=False)),
            draw(st.one_of(st.just(math.inf), st.floats(1.0, 1e5))),
            draw(st.sampled_from(["psi", "B psi"])))


@given(degenerate_step())
@example(((24, 24), 1.0, 0.5 / 32, 0.2, math.inf, "psi"))  # cycled to 530 passes, plain rule
@example(((47,), 0.25, 1e-4, 1e-12, math.inf, "psi"))  # freed a node a pass, none entering
@example(((24, 24), 1.0, 0.5 / 32, 0.2, 1e3, "B psi"))  # cycled to 530 passes, penalized
@settings(max_examples=100, deadline=None)
def test_degenerate_contact_settles(problem):
    counts, a, dt, level, penalty, rest = problem
    grid = (build_grid(1, (0.0, 1.0), counts[0]) if len(counts) == 1
            else build_grid(2, [(0.0, 1.0), (0.0, 1.0)], counts))
    op = assemble_operator(grid, a, lam=a, Lam=a)
    B = (sp.identity(grid.n_interior, format="csr") + dt * op.stiffness).tocsr()
    psi = np.full(grid.n_interior, level)
    q = psi.copy() if rest == "psi" else B @ psi
    pen = dt * penalty
    x, passes = psor(StepMatrix(B, spla.splu(B.tocsc())), q, psi, pen)
    if pen == math.inf:
        assert np.all(x >= psi)
    else:
        residual = B @ x - pen * np.maximum(psi - x, 0.0) - q
        assert np.abs(residual).max() <= documented_stop(B, q, x, psi, pen)
    assert passes <= 4


@st.composite
def step_sequence(draw):
    """A step problem and a march of obstacle steps on it: right-hand sides
    (one column or two) that are drawn or repeat earlier ones, each step
    with one of two obstacles, and a budget of kept entries that holds no
    pass matrix, one penalized pass matrix, or the default."""
    B, lu, q, psi, pen = draw(step_problem())
    n = q.size
    values = st.floats(-5.0, 5.0, allow_nan=False)
    obstacles = [psi, psi + draw(st.floats(-1.0, 1.0))]
    columns = [q]
    steps = []
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n))))
        pick = st.integers(0, len(columns) - 1)
        rhs = [columns[draw(pick)] for _ in range(draw(st.integers(1, 2)))]
        steps.append((rhs[0] if len(rhs) == 1 else np.column_stack(rhs),
                      obstacles[draw(st.integers(0, 1))]))
    budget = draw(st.sampled_from([0, B.nnz, lcp._KEPT_ENTRIES]))
    return B, lu, steps, pen, budget


@given(step_sequence())
@settings(max_examples=150, deadline=None)
def test_kept_factors_give_the_bits_of_fresh_ones(problem):
    B, lu, steps, pen, budget = problem
    with mock.patch.object(lcp, "_KEPT_ENTRIES", budget):
        step = StepMatrix(B, lu)
        for q, psi in steps:
            x, passes = psor(step, q, psi, pen)
            x_fresh, passes_fresh = psor(StepMatrix(B, lu), q, psi, pen)
            assert x.tobytes() == x_fresh.tobytes()
            assert np.array_equal(passes, passes_fresh)
            # the newest factor is kept whatever its size, the others only
            # within the budget
            sizes = [size for _, size in step.kept.values()]
            assert step.kept_entries == sum(sizes) and (sum(sizes) <= budget or len(sizes) == 1)


@pytest.mark.parametrize("pen", [math.inf, 10.0], ids=["projected", "penalized"])
def test_repeated_step_factors_nothing(monkeypatch, pen):
    step, q, psi, pen = _contact_step(pen)
    calls = count_lcp_factorizations(monkeypatch)
    x, passes = psor(step, q, psi, pen)
    assert len(calls) == passes > 0
    calls.clear()
    x_again, passes_again = psor(step, q, psi, pen)
    assert calls == [] and step.factorizations == passes
    assert x_again.tobytes() == x.tobytes() and passes_again == passes


@pytest.mark.parametrize("pen", [math.inf, 10.0], ids=["projected", "penalized"])
def test_matrix_over_the_budget_is_kept_alone(monkeypatch, pen):
    step, q, psi, pen = _contact_step(pen)
    psor(step, q, psi, pen)
    sizes = [size for _, size in step.kept.values()]
    monkeypatch.setattr(lcp, "_KEPT_ENTRIES", min(sizes) - 1)
    step = _contact_step(pen)[0]
    calls = count_lcp_factorizations(monkeypatch)
    x, passes = psor(step, q, psi, pen)
    assert len(step.kept) == 1 and step.kept_entries == sizes[-1]
    psor(step, q, psi, pen)  # the step's one pass meets its kept factor again
    assert len(calls) == passes == len(sizes) == 1
