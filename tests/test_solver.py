import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import count_lcp_factorizations, mix_coeffs, standard_problem, unconstrained_problem

import ospde.lcp as lcp
from ospde.config import RunConfig, parse_config_text
from ospde.errors import AssumptionError, ConfigurationError, SolverError
from ospde.grid import Field, assemble_operator, build_grid, divergence
from ospde.norms import FieldPath, mixed_norm
from ospde.solver import (OBSTACLE_OFF, DiscreteMeasure, DominatorData, ProblemData,
                          _dominator_batch, _join, _source_rhs, prepare_batch,
                          skorokhod_defect, solve_batch, solve_dominators, solve_mode)
from ospde.stochastics import CoefficientSet, NoisePath, sample_noise
from ospde.verify import penalization_sweep, refinement_study


def source_problem(grid, op, dt, steps, f=None, g=None):
    """Noise-free data from zero with state-free sources ``f(x)`` (n,) and
    ``g(x)`` (n, d) and no obstacle."""
    def zero_f(t, x, y, z):
        return np.zeros(x.shape[0])

    def zero_g(t, x, y, z):
        return np.zeros(x.shape)

    def zero_h(t, x, y, z):
        return np.zeros((x.shape[0], 1))

    times = np.arange(steps + 1) * dt
    coeffs = CoefficientSet(
        f=(lambda t, x, y, z: f(x)) if f is not None else zero_f,
        g=(lambda t, x, y, z: g(x)) if g is not None else zero_g,
        h=zero_h, C=0.0, alpha=0.0, beta=0.0, modes=1)
    return ProblemData(op=op, xi=Field.zeros(grid), coeffs=coeffs,
                       obstacle=FieldPath.constant(grid, times, OBSTACLE_OFF),
                       noise=NoisePath(J=1, dt=dt, increments=np.zeros((1, steps)), seed=0))


class TestUnconstrainedSources:
    def test_zero_everything(self, grid64, op64):
        res = solve_mode(source_problem(grid64, op64, 0.01, 4), "unconstrained")
        assert np.all(res.u.frames == 0.0)

    def test_single_step_flux_formula(self, grid64, op64):
        # one step from zero with only a flux source equals
        # dt * (I + dt K)^{-1} div_h g, checked against a direct solve
        dt = 0.01

        def flux(x):
            return np.cos(7.0 * x) + 0.5 * x * x

        res = solve_mode(source_problem(grid64, op64, dt, 1, g=flux), "unconstrained")
        gfield = np.zeros((grid64.n_nodes, 1))
        gfield[grid64.interior] = flux(grid64.coords[grid64.interior])
        B = sp.identity(grid64.n_interior) + dt * op64.stiffness
        expected = spla.spsolve(B.tocsc(), dt * grid64.restrict(divergence(grid64, gfield)))
        assert np.abs(grid64.restrict(res.u.frames[1])).max() > 1e-3
        assert np.allclose(grid64.restrict(res.u.frames[1]), expected, atol=1e-14)

    def test_constant_drift_reaches_steady_state(self, grid64, op64):
        res = solve_mode(source_problem(grid64, op64, 1.0 / 500, 4000,
                                        f=lambda x: np.ones(x.shape[0])), "unconstrained")
        steady = spla.spsolve(op64.stiffness.tocsc(), np.ones(grid64.n_interior))
        assert np.abs(grid64.restrict(res.u.frames[-1]) - steady).max() < 1e-8

    @pytest.mark.parametrize("modes", [1, 4])
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "broadcast"])
    def test_noise_term_is_each_paths_own_product(self, grid64, modes, shared):
        """The stacked noise product gives every path the bits of its own
        h @ dB, as a loop over the paths does, also for h rows broadcast
        from one map (the dominator's) and increments sliced out of the
        paths' (S, J, K) stack."""
        rng = np.random.default_rng(modes)
        S, n = 5, grid64.n_interior
        h = (np.broadcast_to(rng.standard_normal((n, modes)), (S, n, modes)) if shared
             else rng.standard_normal((S, n, modes)))
        dB = rng.standard_normal((S, modes, 8))[:, :, 3]
        u = rng.standard_normal((S, grid64.n_nodes))
        expected = grid64.restrict(u).copy()
        for r, h_s, b in zip(expected, h, dB):
            r += h_s @ b
        assert _source_rhs(grid64, 0.01, u, None, None, h, dB).tobytes() == expected.tobytes()


class TestAgainstAnalyticOracles:
    def test_heat_decay_matches_closed_form(self):
        # pure heat flow from sin(pi x): u(T) = exp(-pi^2 T) sin(pi x)
        def heat(cells, steps, noise):
            return unconstrained_problem(cells=cells, steps=steps, T=0.1, modes=1,
                                         coeffs=CoefficientSet.zero(1), noise=noise)

        still = NoisePath(J=1, dt=0.1 / 256, increments=np.zeros((1, 256)), seed=0)
        coarse, fine = (
            float(np.abs(res.u.frames[-1] - np.exp(-np.pi ** 2 * 0.1)
                         * np.sin(np.pi * data.op.grid.coords[:, 0])).max())
            for [(data, res)] in refinement_study(heat, [(32, 64), (64, 256)], [still],
                                                  "unconstrained"))
        assert fine < 1e-3
        assert coarse / fine > 3.0

    def test_additive_noise_covariance_exact(self):
        # terminal second moment of the additive-noise linear flow vs the
        # exact discrete covariance recursion C -> M (C + dt H H^T) M^T
        g = build_grid(1, (0.0, 1.0), 32)
        op = assemble_operator(g, 1.0, 1.0, 1.0)
        steps, T = 32, 0.1
        dt = T / steps
        times = np.arange(steps + 1) * dt
        w = np.array([0.8, 0.6])
        hx = 0.5 * np.sin(np.pi * g.coords[:, 0])
        hprof = np.tile(hx[:, None] * w[None, :], (steps + 1, 1, 1))

        M = np.linalg.inv((sp.identity(g.n_interior) + dt * op.stiffness).toarray())
        H = hx[g.interior][:, None] * w[None, :]
        C = np.zeros((g.n_interior, g.n_interior))
        for _ in range(steps):
            C = M @ (C + dt * (H @ H.T)) @ M.T
        exact_sq = g.cell_measure * np.trace(C)

        noises = [sample_noise(2, dt, steps, 81_000 + seed) for seed in range(300)]
        data = ProblemData(
            op=op, xi=Field.zeros(g), coeffs=CoefficientSet.zero(2),
            obstacle=FieldPath.constant(g, times, OBSTACLE_OFF), noise=noises[0],
            dominator=DominatorData(initial=Field.zeros(g), h=hprof))
        vals = [g.cell_measure * float(np.sum(g.restrict(path.frames[-1]) ** 2))
                for path in solve_dominators(data, noises)]
        mc, se = np.mean(vals), np.std(vals) / np.sqrt(len(vals))
        assert abs(mc - exact_sq) <= 4.0 * se


class TestSolveLinearSpde:
    """The dominating linear SPDE, marched by ``solve_dominators`` on one path."""

    @pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
    def test_zero_dominator_data(self):
        probe = standard_problem(cells=16, steps=32)
        dom = DominatorData(initial=Field.zeros(probe.op.grid))
        data = standard_problem(cells=16, steps=32, dominator=dom)
        path = solve_dominators(data, [data.noise])[0]
        assert np.all(path.frames == 0.0)

    def test_missing_dominator_rejected(self):
        data = standard_problem(cells=16, steps=32)
        with pytest.raises(ConfigurationError, match="dominator"):
            solve_dominators(data, [data.noise])

    def test_additive_noise_is_mean_zero(self):
        # h' only: S' is a stochastic convolution with zero mean
        grid = build_grid(1, (0.0, 1.0), 32)
        op = assemble_operator(grid, 1.0, 1.0, 1.0)
        steps, dt, J = 64, 0.25 / 64, 2
        times = np.arange(steps + 1) * dt
        w = np.array([0.8, 0.6])
        hprof = np.tile((0.5 * np.sin(np.pi * grid.coords[:, 0]))[:, None] * w[None, :],
                        (steps + 1, 1, 1))
        noises = [sample_noise(J, dt, steps, 5000 + seed) for seed in range(200)]
        data = ProblemData(
            op=op, xi=Field.zeros(grid), coeffs=CoefficientSet.zero(J),
            obstacle=FieldPath.constant(grid, times, OBSTACLE_OFF), noise=noises[0],
            dominator=DominatorData(initial=Field.zeros(grid), h=hprof))
        terminal = np.array([path.frames[-1] for path in solve_dominators(data, noises)])
        mean = terminal.mean(axis=0)
        stderr = terminal.std(axis=0) / np.sqrt(len(terminal)) + 1e-15
        assert np.all(np.abs(mean) <= 5.0 * stderr)

    @pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
    def test_no_blowup_over_seeds(self):
        data = standard_problem(cells=16, steps=64)
        grid = data.op.grid
        dom = DominatorData(initial=data.xi, f=np.full((data.steps + 1, grid.n_nodes), 2.0))
        data = replace(data, dominator=dom)
        noises = [sample_noise(2, data.dt, data.steps, 7000 + seed) for seed in range(50)]
        sups = [max(float(grid.quad_weights @ fr ** 2) for fr in path.frames)
                for path in solve_dominators(data, noises)]
        assert np.isfinite(np.mean(sups))


class TestConstrainedSolvers:
    def test_inactive_obstacle_reduction(self):
        data = standard_problem(cells=24, steps=64, obstacle_level=OBSTACLE_OFF)
        free = solve_mode(data, "unconstrained")
        pen = solve_mode(data, "penalized", 1000)
        proj = solve_mode(data, "projected")
        assert np.abs(pen.u.frames - free.u.frames).max() <= 1e-10
        assert np.abs(proj.u.frames - free.u.frames).max() <= 1e-10
        assert pen.measure.total_mass() <= 1e-10
        assert proj.measure.total_mass() <= 1e-10

    def test_penalized_weights_nonnegative(self):
        data = standard_problem(cells=24, steps=64)
        pen = solve_mode(data, "penalized", 100)
        assert pen.measure.weights.min() >= 0.0

    def test_projected_feasibility_and_complementarity(self):
        data = standard_problem(cells=24, steps=64)
        res = solve_mode(data, "projected")
        grid = data.op.grid
        assert np.all(res.u.frames[:, grid.interior]
                      >= data.obstacle.frames[:, grid.interior] - 1e-12)
        assert skorokhod_defect(res.u, data.obstacle, res.measure) <= 1e-8

    def test_measure_supported_on_contact_set(self):
        data = standard_problem(cells=24, steps=64)
        res = solve_mode(data, "projected")
        grid = data.op.grid
        gap = (res.u.frames[1:, grid.interior]
               - data.obstacle.frames[1:, grid.interior])
        off_contact = gap > 10 * 1e-10
        assert np.abs(res.measure.weights[off_contact]).max(initial=0.0) <= 1e-10

    def test_penalization_distance_decreases(self):
        data = standard_problem(cells=24, steps=64)
        d = penalization_sweep(data, [data.noise], (10, 100, 1000)).distances[0]
        assert d[0] > d[1] > d[2]

    def test_penalized_mass_bounded_in_n(self):
        data = standard_problem(cells=24, steps=64)
        proj_mass = solve_mode(data, "projected").measure.total_mass()
        masses = penalization_sweep(data, [data.noise], (10, 100, 1000, 10000)).masses[0]
        assert np.all(masses <= 10 * proj_mass)

    def test_shared_noise_determinism(self):
        data = standard_problem(cells=24, steps=64, seed=77)
        r1 = solve_mode(data, "projected")
        r2 = solve_mode(data, "projected")
        assert np.array_equal(r1.u.frames, r2.u.frames)
        assert np.array_equal(r1.measure.weights, r2.measure.weights)
        data_b = standard_problem(cells=24, steps=64, seed=77)
        r3 = solve_mode(data_b, "projected")
        assert np.array_equal(r1.u.frames, r3.u.frames)

    def test_contraction_gate_refuses(self):
        z = CoefficientSet.zero(2)
        bad = CoefficientSet(f=z.f, g=lambda t, x, y, z_: 1.0 * z_, h=z.h,
                             C=0.0, alpha=1.0, beta=0.0, modes=2)
        data = standard_problem(cells=16, steps=16, coeffs=bad)
        with pytest.raises(AssumptionError):
            solve_mode(data, "projected")
        with pytest.raises(AssumptionError):
            solve_mode(data, "penalized", 10)
        with pytest.raises(AssumptionError):
            solve_mode(data, "unconstrained")

    def test_solve_mode_dispatch(self):
        # only the penalized scheme reads the level; only the unconstrained
        # one leaves the obstacle unseen
        data = standard_problem(cells=16, steps=16)
        proj, proj_other_n = (solve_mode(data, "projected", n) for n in (50, 1000))
        assert proj.u.frames.tobytes() == proj_other_n.u.frames.tobytes()
        assert proj.measure.total_mass() > 0 and "penalty_level" not in proj.diagnostics
        pen = solve_mode(data, "penalized", 50)
        assert pen.diagnostics["penalty_level"] == 50
        assert not np.array_equal(pen.u.frames, proj.u.frames)
        free = solve_mode(data, "unconstrained")
        assert free.measure.total_mass() == 0.0 and not any(free.diagnostics["iterations"])
        with pytest.raises(ConfigurationError, match="unknown solver.mode 'psor'"):
            solve_mode(data, "psor")

    def test_deterministic_obstacle_first_order_in_h(self):
        # deterministic obstacle heat flow vs the same scheme on a 4x finer
        # grid, restricted to the coarse nodes: errors shrink ~ first order
        def flow(cells, steps, noise):
            return standard_problem(cells=cells, steps=steps, T=0.1, modes=1, xi_offset=0.0,
                                    coeffs=CoefficientSet.zero(1), noise=noise)

        still = NoisePath(J=1, dt=0.1 / 256, increments=np.zeros((1, 256)), seed=0)
        with pytest.warns(UserWarning, match="initial condition"):
            # the flat obstacle starts above sin(pi x) near the boundary
            study = refinement_study(flow, [(16, 256), (64, 256), (32, 256), (128, 256)],
                                     [still], "projected")
        errs = []
        for [(_, coarse)], [(_, fine)] in zip(study[::2], study[1::2]):
            diff = FieldPath(coarse.u.grid, coarse.u.times,
                             coarse.u.frames - fine.u.frames[:, ::4])
            errs.append(mixed_norm(diff, 2, math.inf, 0.1))
        assert 1.3 <= errs[0] / errs[1] <= 4.0

    def test_skorokhod_zero_measure(self):
        data = standard_problem(cells=16, steps=16)
        zero = DiscreteMeasure(data.op.grid, data.times,
                               np.zeros((data.steps, data.op.grid.n_interior)))
        assert skorokhod_defect(data.obstacle, data.obstacle, zero) == 0.0


class TestProblemData:
    def test_obstacle_above_initial_warns(self):
        with pytest.warns(UserWarning, match="initial condition"):
            standard_problem(cells=16, steps=16, obstacle_level=2.0)

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="modes"):
            standard_problem(cells=16, steps=16, coeffs=mix_coeffs(modes=3))

    def test_dominator_warning_when_domination_fails(self):
        data = standard_problem(cells=16, steps=32)
        grid = data.op.grid
        dom = DominatorData(initial=data.xi)  # plain heat flow decays below 0.2
        data = standard_problem(cells=16, steps=32, dominator=dom)
        with pytest.warns(UserWarning, match="dominator"):
            solve_dominators(data, [data.noise])

    @pytest.mark.parametrize("field, shape", [("f", (32, 17)), ("g", (33, 17, 2)),
                                              ("h", (33, 17, 3))])
    def test_dominator_source_that_does_not_fit_rejected(self, field, shape):
        # 32 steps, 17 nodes, 1 axis, 2 noise modes: each source needs (33, 17, ...)
        grid = build_grid(1, (0.0, 1.0), 16)
        dom = DominatorData(initial=Field.zeros(grid), **{field: np.ones(shape)})
        with pytest.raises(ConfigurationError, match=rf"^dominator\.{field} has shape"):
            standard_problem(cells=16, steps=32, dominator=dom)

    def test_dominator_initial_off_the_grid_rejected(self):
        dom = DominatorData(initial=Field.zeros(build_grid(1, (0.0, 1.0), 8)))
        with pytest.raises(ConfigurationError, match=r"^dominator\.initial "):
            standard_problem(cells=16, steps=32, dominator=dom)


def contact_problem():
    """A 1D problem whose projected and penalized solves touch the obstacle
    0.5 sin(pi x) - 0.1 on some steps and not on others, with a dominator
    that sets f, g and h."""
    grid, steps = build_grid(1, (0.0, 1.0), 16), 32
    x = grid.coords[:, 0]
    frames = (steps + 1, 1, 1)
    dom = DominatorData(
        initial=Field.from_function(grid, lambda c: np.sin(np.pi * c[:, 0]) + 0.3),
        f=np.full((steps + 1, grid.n_nodes), 2.0),
        g=np.tile((0.2 * np.sin(2 * np.pi * x))[:, None], frames),
        h=np.tile(0.3 * np.cos(np.pi * x)[:, None] * np.array([0.8, 0.6]), frames))
    return standard_problem(cells=16, steps=steps,
                            obstacle_values=0.5 * np.sin(np.pi * x) - 0.1, dominator=dom)


class TestBatch:
    @pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
    @pytest.mark.parametrize("mode", ["projected", "penalized", "unconstrained", "dominator"])
    def test_each_path_as_solved_alone(self, mode):
        data = contact_problem()
        seeds = [5, 0, 5, 2]
        noises = [sample_noise(2, data.dt, data.steps, s) for s in seeds]
        if mode == "dominator":
            for path, noise in zip(solve_dominators(data, noises), noises):
                alone = solve_dominators(data, [noise])[0]
                assert path.frames.tobytes() == alone.frames.tobytes()
            return
        batch = solve_batch(prepare_batch(data, noises, mode, 100))
        for s, noise in enumerate(noises):
            alone = solve_mode(replace(data, noise=noise), mode, 100)
            path = batch.sample(s)
            assert path.u.frames.tobytes() == alone.u.frames.tobytes()
            assert path.measure.weights.tobytes() == alone.measure.weights.tobytes()
            assert path.diagnostics["iterations"] == alone.diagnostics["iterations"]
            assert path.diagnostics["feasible_steps"] == alone.diagnostics["feasible_steps"]

    def test_every_path_has_its_own_row(self):
        data = contact_problem()
        grid = data.op.grid
        noises = [sample_noise(2, data.dt, data.steps, s) for s in (5, 0, 2)]
        u = np.stack([data.xi.values] * 3)
        for batch, start in ((prepare_batch(data, noises), data.xi),
                             (_dominator_batch(data, noises), data.dominator.initial)):
            assert batch.start.shape == (3, grid.n_nodes)
            assert np.shares_memory(batch.start, start.values)   # a view, not a copy
            psi = batch.obstacle(4)
            assert psi.shape == (grid.n_interior, 3) and not psi.flags.writeable
            assert np.array_equal(psi, np.tile(grid.restrict(data.obstacle.frames[5])[:, None],
                                               (1, 3)))
            f, g, h = batch.sources(4, u)
            assert (f.shape, g.shape, h.shape) == ((3, grid.n_interior), (3, grid.n_interior, 1),
                                                   (3, grid.n_interior, 2))

    @pytest.mark.parametrize("mode", ["projected", "penalized"])
    def test_joined_halves_of_any_size_march_as_alone(self, mode):
        d1 = contact_problem()
        grid = d1.op.grid
        d2 = replace(d1, xi=Field(grid, d1.xi.values + 0.05),
                     obstacle=FieldPath(grid, d1.times, d1.obstacle.frames + 0.05))
        noises = [sample_noise(2, d1.dt, d1.steps, s) for s in (5, 0, 2)]
        halves = (prepare_batch(d1, noises[:1], mode, 100),
                  prepare_batch(d2, noises[1:], mode, 100))
        joint = solve_batch(_join(*halves))
        alone = [solve_batch(half) for half in halves]
        assert joint.frames.tobytes() == np.concatenate([r.frames for r in alone]).tobytes()
        assert joint.weights.tobytes() == np.concatenate([r.weights for r in alone]).tobytes()

    @pytest.mark.parametrize("mode", ["projected", "penalized"])
    def test_counters(self, monkeypatch, mode):
        calls = count_lcp_factorizations(monkeypatch)
        result = solve_mode(contact_problem(), mode, 100)
        iterations = result.diagnostics["iterations"]
        assert 0 < result.diagnostics["feasible_steps"] == iterations.count(0) < len(iterations)
        # active sets return across the march's steps, and reuse their kept factors
        assert 0 < result.diagnostics["factorizations"] == len(calls) < sum(iterations)

    def test_failed_step_names_step_and_seed(self, monkeypatch):
        data = contact_problem()
        seeds = [1, 5, 0]   # alone, seed 0 fails first, at step 19
        noises = [sample_noise(2, data.dt, data.steps, s) for s in seeds]
        monkeypatch.setattr(lcp, "_TOL", 0.0)
        with pytest.raises(SolverError) as info:
            solve_batch(prepare_batch(data, noises, "projected"))
        found = re.match(r"step (\d+) failed for seed (\d+): active set repeated", str(info.value))
        assert found and int(found[2]) == seeds[info.value.column] == 0
        with pytest.raises(SolverError, match=rf"^step {found[1]} failed for seed 0: "):
            solve_mode(replace(data, noise=noises[2]), "projected")

    def test_noise_must_fit(self):
        data = contact_problem()
        for prepare in (prepare_batch, solve_dominators):
            with pytest.raises(ConfigurationError, match="seed 9 does not fit"):
                prepare(data, [sample_noise(3, data.dt, data.steps, 9)])

    @pytest.mark.parametrize("name, shape", [("f", "(256, 1)"), ("h", "(256, 2)")])
    def test_wrong_shaped_map_is_config_error(self, name, shape):
        # f as a column would broadcast to (m, m) in the Lipschitz probe, and
        # h with 2 of 4 modes would reach the march before failing
        base = mix_coeffs(4)
        bad = {"f": lambda t, x, y, z: base.f(t, x, y, z)[:, None],
               "h": lambda t, x, y, z: base.h(t, x, y, z)[:, :2]}[name]
        data = standard_problem(modes=4, coeffs=replace(base, **{name: bad}))
        with pytest.raises(ConfigurationError,
                           match=f"^coefficient map {name} returned shape {re.escape(shape)}"):
            prepare_batch(data, [data.noise])


# A 2D march whose drift pushes the state onto the zero obstacle: on 32 x 32
# cells a pass matrix holds about 4700 stored entries; the test sets the
# obstacle step's budget of kept entries below that.
MARCH_2D = """
grid.dim = 2
grid.extent = [[0.0, 1.0], [0.0, 1.0]]
grid.counts = [32, 32]
operator.profile = constant
operator.a = 1.0
operator.lambda = 1.0
operator.Lambda = 1.0
time.T = 0.25
time.steps = 32
noise.J = 2
noise.seed = 1000
coefficients.preset = lipschitz_mix
coefficients.f_shift = -10.0
obstacle.preset = constant
obstacle.level = 0.0
initial.preset = sine_pi
initial.amplitude = 1.0
initial.offset = 0.0
"""

# sha256 of the frames, the weights and the per-step passes (as little-endian
# int64) of MARCH_2D's solves, from the obstacle step that factored every
# pass matrix over its budget afresh
MARCH_2D_DIGESTS = {
    "penalized": ("619399d48529c0349d113bc38a1073ecff8253923e2d5b9943f3a616912368e5",
                  "66e952a69779a79e4ebe97017660f70c0a3da9e51b0f78bb387bf5d6683e5641",
                  "383020fe2accf05fa8120c19abd551efd044ea0e8693ff2a6d751b480bdfc46c"),
    "projected": ("e1513e2dfd684e942380f761b93ec0af65351823819c93d03048141e1b58030b",
                  "dbd1c7a1341379be07ed46e5b98139312717682d95ba4b9fd7eff5ed25635ee3",
                  "2479934b125dc2aed64ab0d0a29a6ddd4848194afb527e96f9aac30ae19be142"),
}


@pytest.mark.parametrize("mode", sorted(MARCH_2D_DIGESTS))
def test_2d_march_reuses_factors_over_the_budget(monkeypatch, mode):
    data = RunConfig(raw=parse_config_text(MARCH_2D)).build_problem(1000)
    monkeypatch.setattr(lcp, "_KEPT_ENTRIES", 3072)
    assert data.op.stiffness.nnz > lcp._KEPT_ENTRIES
    result = solve_mode(data, mode, 1000)
    iterations = result.diagnostics["iterations"]
    assert result.diagnostics["factorizations"] < sum(iterations)
    arrays = (result.u.frames, result.measure.weights, np.array(iterations, dtype="<i8"))
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == MARCH_2D_DIGESTS[mode]
