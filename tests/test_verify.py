from dataclasses import replace

import numpy as np
import pytest

from conftest import (mix_coeffs, refine_noise, signed_coeffs, standard_problem,
                      state_free_coeffs, unconstrained_problem)

import ospde.solver
from ospde.errors import AssumptionError, ConfigurationError
from ospde.grid import Field, build_grid
from ospde.solver import (OBSTACLE_OFF, DominatorData, prepare_batch, solve_batch,
                          solve_dominators, solve_mode)
from ospde.stochastics import CoefficientSet, NoisePath, sample_noise
from ospde.verify import (apriori_check, comparison_experiment, ito_square_residual,
                          positive_part_bound_check, positive_part_residual,
                          weak_form_residual)


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
        # stored measure weights close the balance for the projected scheme too
        data = standard_problem(cells=24, steps=64, coeffs=state_free_coeffs(2))
        res = solve_mode(data, "projected")
        rep = weak_form_residual(res, data, bump)
        assert rep.max_step <= 1e-10

    def test_nonlinear_residual_halves_with_dt(self):
        terms = []
        for steps in (64, 128):
            fine = sample_noise(2, 0.25 / 256, 256, 17)
            noise = refine_noise(fine, 256 // steps)
            data = unconstrained_problem(cells=32, steps=steps, coeffs=mix_coeffs(2),
                                         noise=noise)
            res = solve_mode(data, "unconstrained")
            terms.append(weak_form_residual(res, data, bump).terminal)
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
        def mean_terminal(steps):
            vals = []
            for seed in range(20):
                fine = sample_noise(2, 0.25 / 256, 256, 900 + seed)
                data = unconstrained_problem(cells=32, steps=steps, coeffs=mix_coeffs(2),
                                             noise=refine_noise(fine, 256 // steps))
                res = solve_mode(data, "unconstrained")
                vals.append(ito_square_residual(res, data).terminal)
            return float(np.mean(vals))

        coarse, fine = mean_terminal(64), mean_terminal(128)
        assert 1.5 <= coarse / fine <= 3.0

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
        assert np.allclose(rep_pos.increments, rep_ito.increments, atol=1e-15)

    def test_sign_changing_refines_jointly(self):
        def terminal(cells, steps, seed):
            fine = sample_noise(2, 0.25 / 512, 512, seed)
            data = unconstrained_problem(cells=cells, steps=steps, coeffs=signed_coeffs(2),
                                         xi_fn=lambda x: np.sin(2 * np.pi * x[:, 0]),
                                         noise=refine_noise(fine, 512 // steps))
            res = solve_mode(data, "unconstrained")
            signs = np.sign(res.u.frames[:, data.op.grid.interior])
            assert signs.max() > 0 and signs.min() < 0
            return positive_part_residual(res, data).terminal

        coarse = np.mean([terminal(32, 64, 700 + s) for s in range(8)])
        fine = np.mean([terminal(64, 128, 700 + s) for s in range(8)])
        assert 1.3 <= coarse / fine <= 3.0


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
        assert batch.lhs_stderr == np.std(lhs) / np.sqrt(3)
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

    @staticmethod
    def count_kernel_calls(monkeypatch):
        calls = []
        kernel = ospde.solver.psor

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(ospde.solver, "psor", counting)
        return calls

    def test_unordered_obstacles_refused_before_any_solve(self, monkeypatch):
        calls = self.count_kernel_calls(monkeypatch)
        d1 = standard_problem(cells=16, steps=32, obstacle_level=0.25)
        d2 = standard_problem(cells=16, steps=32, obstacle_level=0.15)
        with pytest.raises(AssumptionError, match="obstacles are not ordered"):
            comparison_experiment(d1, d2, seeds=range(3))
        assert calls == []
        comparison_experiment(d2, d1, seeds=[1])
        assert len(calls) == 2 * d1.steps

    def test_drift_order_refused_before_second_problem(self, monkeypatch):
        calls = self.count_kernel_calls(monkeypatch)
        d1 = standard_problem(cells=16, steps=32, coeffs=mix_coeffs(2, f_shift=0.1))
        d2 = standard_problem(cells=16, steps=32)
        with pytest.raises(AssumptionError, match="drift ordering"):
            comparison_experiment(d1, d2, seeds=range(3))
        assert len(calls) == d1.steps   # one batch: the first problem's

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
