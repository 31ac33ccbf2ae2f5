import functools
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (count_calls, count_lcp_factorizations, mean_terminals, mix_coeffs,
                      mixed_problem, signed_problem, standard_problem, state_free_coeffs,
                      unconstrained_problem)

import ospde.solver
from ospde.config import load_config
from ospde.errors import AssumptionError, ConfigurationError
from ospde.grid import Field, assemble_operator, build_grid
from ospde.norms import FieldPath
from ospde.solver import (OBSTACLE_OFF, DominatorData, _join, prepare_batch, solve_batch,
                          solve_dominators, solve_mode)
from ospde.stochastics import CoefficientSet, NoisePath, sample_noise
from ospde.verify import (apriori_check, comparison_experiment, ito_square_residual,
                          penalization_sweep, positive_part_bound_check,
                          positive_part_residual, refinement_study, weak_form_residual)


def bump(t, coords):
    s = np.clip((coords[:, 0] - 0.1) / 0.8, 0.0, 1.0)
    return np.sin(np.pi * s) ** 2 * (1.0 + 0.5 * np.cos(3.0 * t))


class TestWeakForm:
    def test_zero_test_function(self):
        data = unconstrained_problem(cells=32, steps=32)
        res = solve_mode(data, "unconstrained")
        rep = weak_form_residual(res, data, lambda t, x: np.zeros(x.shape[0]))
        assert rep.max_step == 0.0

    def test_linear_problem_machine_exact(self):
        data = unconstrained_problem(cells=32, steps=64)
        res = solve_mode(data, "unconstrained")
        rep = weak_form_residual(res, data, bump)
        assert rep.max_step <= 1e-10

    def test_obstacle_run_machine_exact_for_linear_data(self):
        # stored measure weights close the balance for the projected scheme
        # too: the flat obstacle 0.2 touches only next to the boundary, where
        # bump vanishes; 0.8 sin(pi x) touches where bump charges the measure
        grid = build_grid(1, (0.0, 1.0), 24)
        for obstacle in (None, 0.8 * np.sin(np.pi * grid.coords[:, 0])):
            data = standard_problem(cells=24, steps=64, coeffs=state_free_coeffs(2),
                                    obstacle_values=obstacle)
            res = solve_mode(data, "projected")
            weights = res.measure.weights
            share = np.sum(weights * bump(0.0, grid.coords)[grid.interior]) / weights.sum()
            assert (share > 0.5) == (obstacle is not None)
            rep = weak_form_residual(res, data, bump)
            assert rep.max_step <= 1e-10

    def test_nonlinear_residual_halves_with_dt(self):
        terms = mean_terminals(lambda res, data: weak_form_residual(res, data, bump),
                               refinement_study(mixed_problem, [(32, 64), (32, 128)],
                                                [sample_noise(2, 0.25 / 256, 256, 17)],
                                                "unconstrained"))
        assert 1.5 <= terms[0] / terms[1] <= 3.0

    def test_support_violation_rejected(self):
        data = unconstrained_problem(cells=32, steps=32)
        res = solve_mode(data, "unconstrained")
        with pytest.raises(ConfigurationError, match="vanish"):
            weak_form_residual(res, data, lambda t, x: np.ones(x.shape[0]))


class TestItoSquare:
    def test_zero_problem(self):
        data = unconstrained_problem(cells=16, steps=16, coeffs=CoefficientSet.zero(2),
                                     xi_fn=lambda x: np.zeros(x.shape[0]))
        res = solve_mode(data, "unconstrained")
        rep = ito_square_residual(res, data)
        assert rep.max_step == 0.0

    def test_linear_state_independent_machine_exact(self):
        data = unconstrained_problem(cells=64, steps=128)
        res = solve_mode(data, "unconstrained")
        rep = ito_square_residual(res, data)
        assert rep.max_step <= 1e-9

    def test_linear_mean_residual_refines(self):
        # with the realized bracket the pathwise residual is machine zero for
        # state-independent data; state-dependent noise leaves an O(dt) bias
        fine = [sample_noise(2, 0.25 / 256, 256, 900 + seed) for seed in range(20)]
        coarse, finer = mean_terminals(ito_square_residual, refinement_study(
            mixed_problem, [(32, 64), (32, 128)], fine, "unconstrained"))
        assert 1.5 <= coarse / finer <= 3.0

    def test_measure_pairing_sign_against_dominator(self):
        # int (u - S') d nu <= tolerance when the dominator really dominates
        grid = build_grid(1, (0.0, 1.0), 24)
        sine = 0.2 * np.sin(np.pi * grid.coords[:, 0])
        dom = DominatorData(initial=Field.from_function(
            grid, lambda x: np.sin(np.pi * x[:, 0]) + 0.3),
            f=np.full((65, grid.n_nodes), 3.0))
        data = standard_problem(cells=24, steps=64, obstacle_values=sine, dominator=dom)
        res = solve_mode(data, "projected")
        sprime = solve_dominators(data, [data.noise])[0]
        assert np.all(sprime.frames[:, grid.interior]
                      >= data.obstacle.frames[:, grid.interior] - 1e-9)
        pair = sum(
            float((res.u.frames[k + 1, grid.interior] - sprime.frames[k + 1, grid.interior])
                  @ res.measure.weights[k])
            for k in range(data.steps)) * grid.cell_measure * data.dt
        assert pair <= 1e-8


class TestPositivePart:
    def test_nonpositive_path_all_zero(self):
        def f_neg(t, x, y, z):
            return -1.0 - 0.1 * np.sin(y)

        z = CoefficientSet.zero(2)
        cs = CoefficientSet(f=f_neg, g=z.g, h=z.h, C=0.1, alpha=0.0, beta=0.0, modes=2)
        data = unconstrained_problem(cells=24, steps=32, coeffs=cs,
                                     xi_fn=lambda x: -np.sin(np.pi * x[:, 0]))
        data = replace(data, noise=NoisePath(J=2, dt=data.dt,
                                             increments=np.zeros((2, data.steps)), seed=0))
        res = solve_mode(data, "unconstrained")
        assert res.u.frames.max() <= 1e-12
        rep = positive_part_residual(res, data)
        assert rep.max_step == 0.0

    def test_one_signed_run_matches_ito(self):
        # deterministic positive flow: f = 1, xi >= 0 keeps u >= 0 exactly
        def f_one(t, x, y, z):
            return np.ones(x.shape[0])

        z = CoefficientSet.zero(2)
        cs = CoefficientSet(f=f_one, g=z.g, h=z.h, C=0.0, alpha=0.0, beta=0.0, modes=2)
        data = unconstrained_problem(cells=32, steps=64, coeffs=cs)
        data = replace(data, noise=NoisePath(J=2, dt=data.dt,
                                             increments=np.zeros((2, data.steps)), seed=0))
        res = solve_mode(data, "unconstrained")
        assert res.u.frames.min() >= 0.0
        rep_pos = positive_part_residual(res, data)
        rep_ito = ito_square_residual(res, data)
        assert rep_pos.max_step <= 1e-9
        # u^+ is u, so both checks run the same arithmetic
        assert rep_pos.increments.tobytes() == rep_ito.increments.tobytes()

    def test_sign_changing_refines_jointly(self):
        fine = [sample_noise(2, 0.25 / 512, 512, 700 + s) for s in range(8)]
        study = refinement_study(signed_problem, [(32, 64), (64, 128)], fine, "unconstrained")
        for data, res in (pair for level in study for pair in level):
            signs = np.sign(res.u.frames[:, data.op.grid.interior])
            assert signs.max() > 0 and signs.min() < 0
        coarse, finer = mean_terminals(positive_part_residual, study)
        assert 1.3 <= coarse / finer <= 3.0


def _identity_checks(data):
    """The three identity checks of a stored solve of ``data``, the weak form
    against ``bump``."""
    return {"weak_form": lambda res: weak_form_residual(res, data, bump),
            "ito_square": lambda res: ito_square_residual(res, data),
            "positive_part": lambda res: positive_part_residual(res, data)}


class TestStepBalance:
    @pytest.mark.parametrize("check", ["weak_form", "ito_square", "positive_part"])
    def test_corrupted_frame_shows_at_the_steps_that_touch_it(self, check):
        # state-free data and u >= 0.2 inside: every balance closes to roundoff
        data = standard_problem(cells=24, steps=64, coeffs=state_free_coeffs(2))
        res = solve_mode(data, "projected")
        frames = res.u.frames.copy()
        j = 20
        frames[j, 12] += 1e-3           # x = 0.5, inside bump's support
        bad = replace(res, u=FieldPath(res.u.grid, res.u.times, frames))
        residual = _identity_checks(data)[check]
        clean, hit = residual(res).increments, residual(bad).increments
        assert np.abs(clean).max() <= 1e-14
        assert np.abs(hit[[j - 1, j]]).min() >= 1e-6
        rest = np.delete(np.arange(data.steps), [j - 1, j])
        assert hit[rest].tobytes() == clean[rest].tobytes()


class TestExperiments:
    def test_refinement_refuses_every_level_before_solving(self, monkeypatch):
        calls = count_calls(monkeypatch, ospde.solver, "_step_matrix")
        fine = [sample_noise(2, 0.25 / 256, 256, seed) for seed in (1, 2)]
        with pytest.raises(ConfigurationError, match=r"level \(32, 100\): 100 steps"):
            refinement_study(mixed_problem, [(32, 64), (32, 100)], fine, "unconstrained")
        assert calls == []
        with pytest.raises(ConfigurationError, match="at least one fine path"):
            refinement_study(mixed_problem, [(32, 64)], [], "unconstrained")
        study = refinement_study(mixed_problem, [(32, 64), (32, 128)], fine, "unconstrained")
        assert len(calls) == 2
        assert [[data.noise.seed for data, _ in level] for level in study] == [[1, 2]] * 2

    def test_refinement_warns_once_per_level(self):
        def above(cells, steps, noise):
            return standard_problem(cells=cells, steps=steps, obstacle_level=2.0, noise=noise)

        fine = [sample_noise(2, 0.25 / 64, 64, seed) for seed in (1, 2, 3)]
        with pytest.warns(UserWarning) as caught:
            study = refinement_study(above, [(8, 16), (8, 32)], fine, "projected")
        assert [len(level) for level in study] == [3, 3]
        assert sum("initial condition" in str(w.message) for w in caught) == 2

    def test_penalization_sweep_needs_a_level(self):
        data = standard_problem(cells=16, steps=16)
        with pytest.raises(ConfigurationError, match="at least one level"):
            penalization_sweep(data, [data.noise], [])


class TestEstimates:
    def test_zero_data_degenerate(self):
        grid = build_grid(1, (0.0, 1.0), 16)
        data = standard_problem(cells=16, steps=16, coeffs=CoefficientSet.zero(2),
                                obstacle_level=OBSTACLE_OFF,
                                dominator=DominatorData(initial=Field.zeros(grid)))
        data = replace(
            data, xi=Field.zeros(grid),
            noise=NoisePath(J=2, dt=data.dt, increments=np.zeros((2, data.steps)), seed=0))
        res = solve_mode(data, "unconstrained")
        rep = apriori_check(data, [res.u], solve_dominators(data, [data.noise]))
        assert rep.lhs == 0.0
        assert rep.implied_constant is None

    @pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
    def test_apriori_monotone_in_horizon(self):
        grid = build_grid(1, (0.0, 1.0), 24)
        dom = DominatorData(initial=Field.from_function(
            grid, lambda x: np.sin(np.pi * x[:, 0]) + 0.3),
            f=np.full((65, grid.n_nodes), 2.0))
        data = standard_problem(cells=24, steps=64, dominator=dom)
        res = solve_mode(data, "projected")
        sprime = solve_dominators(data, [data.noise])[0]
        T = float(data.times[-1])
        lhs = [apriori_check(data, [res.u], [sprime], t=t).lhs
               for t in (T / 4, T / 2, T)]
        assert lhs[0] <= lhs[1] <= lhs[2]

    @pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
    @pytest.mark.parametrize("check", [apriori_check, positive_part_bound_check])
    @pytest.mark.parametrize("count", [0, 2])
    def test_dominator_count_must_match(self, check, count):
        grid = build_grid(1, (0.0, 1.0), 16)
        data = standard_problem(cells=16, steps=16,
                                dominator=DominatorData(initial=Field.zeros(grid)))
        res = solve_mode(data, "projected")
        sprime = solve_dominators(data, [data.noise])[0]
        with pytest.raises(ConfigurationError, match=f"^{count} dominator path"):
            check(data, [res.u], [sprime] * count)

    def test_positive_part_bound_nonpositive_solution(self):
        # xi <= 0, f <= 0, g0 = h0 = 0, S <= 0: the solution stays nonpositive
        def f_neg(t, x, y, z):
            return -0.2 + 0.1 * np.sin(y) - 0.1

        z = CoefficientSet.zero(2)
        cs = CoefficientSet(f=f_neg, g=z.g, h=z.h, C=0.1, alpha=0.0, beta=0.0, modes=2)
        grid = build_grid(1, (0.0, 1.0), 24)
        dom = DominatorData(initial=Field.zeros(grid))
        data = standard_problem(cells=24, steps=64, coeffs=cs, obstacle_level=-1.2,
                                dominator=dom)
        data = replace(
            data, xi=Field.from_function(grid, lambda x: -np.sin(np.pi * x[:, 0])),
            noise=NoisePath(J=2, dt=data.dt, increments=np.zeros((2, data.steps)), seed=0))
        res = solve_mode(data, "projected")
        assert res.u.frames.max() <= 1e-12
        rep = positive_part_bound_check(data, [res.u], solve_dominators(data, [data.noise]))
        assert rep.lhs <= 1e-12
        # u <= S' = 0 everywhere: every indicator-restricted ingredient vanishes
        for key, val in rep.ingredients.items():
            assert val <= 1e-20, key

    @pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
    def test_positive_part_bound_positive_data(self):
        grid = build_grid(1, (0.0, 1.0), 24)
        dom = DominatorData(initial=Field.from_function(
            grid, lambda x: np.sin(np.pi * x[:, 0]) + 0.3),
            f=np.full((65, grid.n_nodes), 2.0))
        data = standard_problem(cells=24, steps=64, dominator=dom)
        res = solve_mode(data, "projected")
        rep = positive_part_bound_check(data, [res.u], solve_dominators(data, [data.noise]))
        assert rep.lhs > 0
        assert rep.implied_constant is not None and rep.implied_constant > 0

    @pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
    @pytest.mark.parametrize("check", [apriori_check, positive_part_bound_check])
    def test_batch_is_the_mean_of_single_paths(self, check):
        grid = build_grid(1, (0.0, 1.0), 16)
        data = standard_problem(cells=16, steps=32, dominator=_dominators(grid, 32)["full"])
        noises = [sample_noise(2, data.dt, data.steps, s) for s in (5, 0, 2)]
        solved = solve_batch(prepare_batch(data, noises, "projected"))
        paths = [solved.sample(s).u for s in range(len(noises))]
        doms = solve_dominators(data, noises)
        batch = check(data, paths, doms)
        alone = [check(data, [path], [dom]) for path, dom in zip(paths, doms)]
        lhs = [rep.lhs for rep in alone]
        assert batch.sample_count == 3
        assert batch.lhs == np.mean(lhs)
        assert batch.lhs_stderr == np.std(lhs, ddof=1) / np.sqrt(3)
        assert batch.ingredients == {key: np.mean([rep.ingredients[key] for rep in alone])
                                     for key in batch.ingredients}


def contact_pair():
    """Ordered problems whose constrained solves touch their obstacles and
    whose gaps differ from mode to mode."""
    x = build_grid(1, (0.0, 1.0), 16).coords[:, 0]
    s1 = 0.5 * np.sin(np.pi * x) - 0.1
    d1 = standard_problem(cells=16, steps=32, obstacle_values=s1)
    d2 = standard_problem(cells=16, steps=32, obstacle_values=s1 + 0.05, xi_offset=0.35,
                          coeffs=mix_coeffs(2, f_shift=0.1))
    return d1, d2


PERF_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

# sha256 of the frames, weights and per-step pass lists of benchmark
# marches, each marched as one batch: the compare pair joined, both
# problems on every seed, and the four seeds of the sim1d run.  The
# benchmark checks only the pair's gaps, which are all zero (the gap at
# t = 0), so a column scattered to the wrong path would show only here.  On
# these seeds many columns share an active set, and with it a solve.
COMPARE_PAIR = ("compare1d_base.cfg", "compare1d_shifted.cfg")
PINNED_JOINT_MARCHES = {
    "penalized-48": (COMPARE_PAIR, "penalized", 48,
                     "f5b35e0d65658dc7f0ba1786411d5474579b6d890479ed60b46d5c7d12e9b08a"),
    "projected-8": (COMPARE_PAIR, "projected", 8,
                    "53581529ddc87e8a8090af82b923474e9e3d24eb06f7614eb26eb8d8c02d8ff5"),
    "sim1d-projected-4": (("sim1d_projected.cfg",), "projected", 4,
                          "d97d1b7c3849fef03343383caa9e2fb53dbd8fe2e467a1a67984226a7ba84843"),
}


class TestComparison:
    def test_identical_data_zero_gap(self):
        d1 = standard_problem(cells=16, steps=32)
        rep = comparison_experiment(d1, d1, seeds=[11, 12])
        assert rep.min_gap == 0.0

    def test_initial_shift_orders_solutions(self):
        d1 = standard_problem(cells=16, steps=32, xi_offset=0.3)
        d2 = standard_problem(cells=16, steps=32, xi_offset=0.4)
        rep = comparison_experiment(d1, d2, seeds=range(5))
        assert rep.min_gap >= -1e-8

    def test_obstacle_shift_orders_solutions(self):
        d1 = standard_problem(cells=16, steps=32, obstacle_level=0.15)
        d2 = standard_problem(cells=16, steps=32, obstacle_level=0.25)
        rep = comparison_experiment(d1, d2, seeds=range(5))
        assert rep.min_gap >= -1e-8

    def test_unordered_initials_refused(self):
        d1 = standard_problem(cells=16, steps=32, xi_offset=0.4)
        d2 = standard_problem(cells=16, steps=32, xi_offset=0.3)
        with pytest.raises(AssumptionError, match="initial"):
            comparison_experiment(d1, d2, seeds=[1])

    def test_different_noise_coefficients_refused(self):
        d1 = standard_problem(cells=16, steps=32)
        d2 = standard_problem(cells=16, steps=32,
                              coeffs=mix_coeffs(2, h_base=0.5))
        with pytest.raises(AssumptionError, match="flux or noise"):
            comparison_experiment(d1, d2, seeds=[1])

    @pytest.mark.parametrize("mode", ["projected", "penalized", "unconstrained"])
    def test_batched_gaps_match_serial_solves(self, mode):
        d1, d2 = contact_pair()
        seeds = [3, 1, 4, 1, 5]
        rep = comparison_experiment(d1, d2, seeds, mode=mode, penalty_n=100)
        interior = d1.op.grid.interior
        serial = []
        for seed in seeds:
            noise = sample_noise(d1.noise.J, d1.noise.dt, d1.noise.steps, seed)
            u1 = solve_mode(replace(d1, noise=noise), mode, 100).u.frames
            u2 = solve_mode(replace(d2, noise=noise), mode, 100).u.frames
            serial.append((u2[:, interior] - u1[:, interior]).min())
        assert np.array(rep.per_sample).tobytes() == np.array(serial).tobytes()
        assert rep.seeds == seeds and rep.min_gap == min(serial)

    def test_unordered_obstacles_refused_before_any_solve(self, monkeypatch):
        calls = count_calls(monkeypatch, ospde.solver, "psor")
        d1 = standard_problem(cells=16, steps=32, obstacle_level=0.25)
        d2 = standard_problem(cells=16, steps=32, obstacle_level=0.15)
        with pytest.raises(AssumptionError, match="obstacles are not ordered"):
            comparison_experiment(d1, d2, seeds=range(3))
        assert calls == []
        comparison_experiment(d2, d1, seeds=[1])
        assert len(calls) == d1.steps   # both problems march as one batch

    def test_drift_order_refused_before_second_problem(self, monkeypatch):
        """The second problem marches jointly with the first; the drift
        ordering along the first problem's trajectory is probed after that
        one march and refuses before any gap is reported."""
        calls = count_calls(monkeypatch, ospde.solver, "psor")
        d1 = standard_problem(cells=16, steps=32, coeffs=mix_coeffs(2, f_shift=0.1))
        d2 = standard_problem(cells=16, steps=32)
        with pytest.raises(AssumptionError, match="drift ordering"):
            comparison_experiment(d1, d2, seeds=range(3))
        assert len(calls) == d1.steps   # one joint march

    @pytest.mark.parametrize("drift_step, flux_step, message", [
        (10, 5, "flux or noise coefficients differ at step 5"),
        (5, 10, "drift ordering fails along the first trajectory at step 5"),
        (7, 7, "drift ordering fails along the first trajectory at step 7"),
    ])
    def test_first_failing_step_is_reported(self, drift_step, flux_step, message):
        d = standard_problem(cells=16, steps=32)
        base, times = d.coeffs, d.times

        def f(t, x, y, z):  # drift of problem 1 above problem 2's from drift_step on
            return base.f(t, x, y, z) + 0.1 * (t >= times[drift_step])

        def h(t, x, y, z):  # noise of problem 2 differs from flux_step on
            return base.h(t, x, y, z) + 0.5 * (t >= times[flux_step])

        d1, d2 = replace(d, coeffs=replace(base, f=f)), replace(d, coeffs=replace(base, h=h))
        with pytest.raises(AssumptionError, match=f"violated: {message}$"):
            comparison_experiment(d1, d2, seeds=[1])

    def test_operators_must_match_bit_for_bit(self):
        d1 = standard_problem(cells=16, steps=32)
        op = assemble_operator(d1.op.grid, 1.0 + 1e-13, 1.0, 1.0)
        with pytest.raises(AssumptionError, match="operators differ"):
            comparison_experiment(d1, replace(d1, op=op), seeds=[1])

    @pytest.mark.parametrize("mode", ["projected", "penalized"])
    def test_joint_march_shares_pass_factors(self, monkeypatch, mode):
        d1, d2 = contact_pair()
        seeds = [3, 1, 4]
        calls = count_lcp_factorizations(monkeypatch)
        comparison_experiment(d1, d2, seeds, mode=mode, penalty_n=100)
        joint = len(calls)
        calls.clear()
        noises = [sample_noise(d1.noise.J, d1.noise.dt, d1.noise.steps, s) for s in seeds]
        for data in (d1, d2):
            solve_batch(prepare_batch(data, noises, mode, 100))
        assert 0 < joint < len(calls)

    @pytest.mark.parametrize("case", sorted(PINNED_JOINT_MARCHES))
    def test_joint_march_is_pinned_bit_for_bit(self, case):
        names, mode, samples, expected = PINNED_JOINT_MARCHES[case]
        cfgs = [load_config(PERF_CONFIGS / name) for name in names]
        seeds = cfgs[0].sample_seeds(None, samples)
        problems = [cfg.build_problem(seeds[0]) for cfg in cfgs]
        d1 = problems[0]
        noises = [sample_noise(d1.noise.J, d1.noise.dt, d1.noise.steps, s) for s in seeds]
        batches = [prepare_batch(d, noises, mode, cfgs[0].penalty_n) for d in problems]
        result = solve_batch(functools.reduce(_join, batches))
        digest = hashlib.sha256()
        for part in (result.frames, result.weights, np.array(result.diagnostics["iterations"])):
            digest.update(part.tobytes())
        assert digest.hexdigest() == expected

    def test_benchmark_pair_marches_each_problem_on_its_own_data(self):
        """The pair starts both problems from one state, so its per-seed gaps,
        taken from t = 0, read 0 whatever the march does; past t = 0 each
        half of the joined march is its own problem's march."""
        cfgs = [load_config(PERF_CONFIGS / name) for name in COMPARE_PAIR]
        seeds = [1000, 1001, 1002]
        problems = [cfg.build_problem(seeds[0]) for cfg in cfgs]
        d1 = problems[0]
        noises = [sample_noise(d1.noise.J, d1.noise.dt, d1.noise.steps, s) for s in seeds]

        def batches():
            return [prepare_batch(d, noises, cfgs[0].solver_mode, cfgs[0].penalty_n)
                    for d in problems]

        joined = solve_batch(_join(*batches())).frames
        alone = np.concatenate([solve_batch(batch).frames for batch in batches()])
        assert joined.tobytes() == alone.tobytes()
        interior = d1.op.grid.interior
        S = len(seeds)
        gaps = [(u2[1:, interior] - u1[1:, interior]).min()
                for u1, u2 in zip(joined[:S], joined[S:])]
        assert min(gaps) > 0 and gaps[0] >= 7.07e-05

    def test_no_seed_is_config_error(self):
        d1 = standard_problem(cells=16, steps=32)
        with pytest.raises(ConfigurationError, match="at least one noise path"):
            comparison_experiment(d1, d1, seeds=[])


def _dominators(grid, steps):
    x = grid.coords[:, 0]
    shape = (steps + 1, 1, 1)
    return {
        "full": DominatorData(
            initial=Field.from_function(grid, lambda c: 0.8 * np.sin(np.pi * c[:, 0]) - 0.3),
            f=np.full((steps + 1, grid.n_nodes), 2.0),
            g=np.tile((0.2 * np.sin(2 * np.pi * x))[:, None], shape),
            h=np.tile(0.3 * np.cos(np.pi * x)[:, None] * np.array([0.8, 0.6]), shape)),
        "initial_only": DominatorData(
            initial=Field.from_function(grid, lambda c: 0.5 * np.sin(np.pi * c[:, 0]))),
    }


# float.hex of every float the estimate reports hold on the standard
# problem (16 cells, 32 steps, seed 1000); the data-norm terms are summed in
# this order, so any change to how they are computed shows here.
PINNED_ESTIMATES = {
    "full": {
        "apriori.lhs": "0x1.b99fc380e8fb2p+0",
        "apriori.lhs_stderr": "0x0.0p+0",
        "apriori.ingredients.shifted_initial_sq": "0x1.05042f6b9ad8dp-1",
        "apriori.ingredients.shifted_f0_dual_sq": "0x1.c3f86e9a032f8p-4",
        "apriori.ingredients.shifted_g0_22_sq": "0x1.643866fa6ab7fp-8",
        "apriori.ingredients.shifted_h0_22_sq": "0x1.cf95c735a8749p-12",
        "apriori.ingredients.dominator_initial_sq": "0x1.98b2cbd5ae9bep-4",
        "apriori.ingredients.dominator_f_dual_sq": "0x1.0000000000000p-2",
        "apriori.ingredients.dominator_g_22_sq": "0x1.47ae147ae147dp-8",
        "apriori.ingredients.dominator_h_22_sq": "0x1.70a3d70a3d70ap-7",
        "apriori.rhs_sum": "0x1.fbede5c58b551p-1",
        "apriori.implied_constant": "0x1.bd29d470344c7p+0",
        "positive_part_bound.lhs": "0x1.ee2410269cb7ap-1",
        "positive_part_bound.lhs_stderr": "0x0.0p+0",
        "positive_part_bound.ingredients.shifted_initial_sq": "0x1.05042f6b9ad8dp-1",
        "positive_part_bound.ingredients.shifted_f0_dual_sq": "0x0.0p+0",
        "positive_part_bound.ingredients.shifted_g0_22_sq": "0x1.643866fa6ab7fp-8",
        "positive_part_bound.ingredients.shifted_h0_22_sq": "0x1.ce6d6518d2ab7p-12",
        "positive_part_bound.ingredients.dominator_initial_sq": "0x1.8e179d3b5351ep-4",
        "positive_part_bound.ingredients.dominator_f_dual_sq": "0x1.dcea8c4090c65p-3",
        "positive_part_bound.ingredients.dominator_g_22_sq": "0x1.471e1dfbe8ea2p-8",
        "positive_part_bound.ingredients.dominator_h_22_sq": "0x1.3e67881536d3ep-7",
        "positive_part_bound.rhs_sum": "0x1.b88bdefa0e118p-1",
        "positive_part_bound.implied_constant": "0x1.1f24c1cc3d245p+0",
    },
    "initial_only": {
        "apriori.lhs": "0x1.b99fc380e8fb2p+0",
        "apriori.lhs_stderr": "0x0.0p+0",
        "apriori.ingredients.shifted_initial_sq": "0x1.99574359cfeaep-2",
        "apriori.ingredients.shifted_f0_dual_sq": "0x1.393ce8843235cp-5",
        "apriori.ingredients.shifted_g0_22_sq": "0x1.1488446b9a3b7p-12",
        "apriori.ingredients.shifted_h0_22_sq": "0x1.798d316fde289p-7",
        "apriori.ingredients.dominator_initial_sq": "0x1.0000000000000p-3",
        "apriori.ingredients.dominator_f_dual_sq": "0x0.0p+0",
        "apriori.ingredients.dominator_g_22_sq": "0x0.0p+0",
        "apriori.ingredients.dominator_h_22_sq": "0x0.0p+0",
        "apriori.rhs_sum": "0x1.264836037804cp-1",
        "apriori.implied_constant": "0x1.802cc12ef5e3ep+1",
        "positive_part_bound.lhs": "0x1.ee2410269cb7ap-1",
        "positive_part_bound.lhs_stderr": "0x0.0p+0",
        "positive_part_bound.ingredients.shifted_initial_sq": "0x1.99574359cfeaep-2",
        "positive_part_bound.ingredients.shifted_f0_dual_sq": "0x1.393b6a36b8d73p-5",
        "positive_part_bound.ingredients.shifted_g0_22_sq": "0x1.1488446b9a3b7p-12",
        "positive_part_bound.ingredients.shifted_h0_22_sq": "0x1.4b78b68e967a8p-7",
        "positive_part_bound.ingredients.dominator_initial_sq": "0x1.0000000000000p-3",
        "positive_part_bound.ingredients.dominator_f_dual_sq": "0x0.0p+0",
        "positive_part_bound.ingredients.dominator_g_22_sq": "0x0.0p+0",
        "positive_part_bound.ingredients.dominator_h_22_sq": "0x0.0p+0",
        "positive_part_bound.rhs_sum": "0x1.258fcc331b501p-1",
        "positive_part_bound.implied_constant": "0x1.aeea2b5b88a8dp+0",
    },
}


def _float_hex(prefix, d):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _float_hex(f"{prefix}{key}.", value)
        elif isinstance(value, float):
            yield f"{prefix}{key}", value.hex()


@pytest.mark.filterwarnings("ignore:obstacle exceeds its dominator")
@pytest.mark.parametrize("case", sorted(PINNED_ESTIMATES))
def test_estimates_are_pinned_bit_for_bit(case):
    data = standard_problem(cells=16, steps=32, seed=1000,
                            dominator=_dominators(build_grid(1, (0.0, 1.0), 16), 32)[case])
    result = solve_mode(data, "projected")
    doms = solve_dominators(data, [data.noise])
    got = {"apriori": apriori_check(data, [result.u], doms).as_dict(),
           "positive_part_bound": positive_part_bound_check(data, [result.u], doms).as_dict()}
    assert dict(_float_hex("", got)) == PINNED_ESTIMATES[case]


# float.hex of every float the identity reports hold on the same standard
# problem, projected; the balance's terms are summed in one order, so any
# change to how they are computed shows here.
PINNED_RESIDUALS = {
    "weak_form.terminal": "0x1.7e7cbe8e957abp-10",
    "weak_form.max_step": "0x1.3246ab59060fdp-12",
    "weak_form.max_cumulative": "0x1.a69d0233d1bbep-10",
    "ito_square.terminal": "0x1.248ac7f058a0ep-9",
    "ito_square.max_step": "0x1.afd3c2c663ad0p-12",
    "ito_square.max_cumulative": "0x1.25e163419eca5p-9",
    "positive_part.terminal": "0x1.248ac7f058a0ep-9",
    "positive_part.max_step": "0x1.afd3c2c663ad0p-12",
    "positive_part.max_cumulative": "0x1.25e163419eca5p-9",
}


def test_residuals_are_pinned_bit_for_bit():
    data = standard_problem(cells=16, steps=32, seed=1000)
    result = solve_mode(data, "projected")
    got = {name: residual(result).as_dict() for name, residual in _identity_checks(data).items()}
    assert dict(_float_hex("", got)) == PINNED_RESIDUALS
