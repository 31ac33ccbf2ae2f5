from dataclasses import replace

import numpy as np
import pytest

from conftest import mix_coeffs, state_free_coeffs

from ospde.errors import ConfigurationError
from ospde.grid import build_grid
from ospde.stochastics import CoefficientSet, coarsen, sample_noise, validate_assumptions

# The box the assumption gate probes in these tests.
BOX = build_grid(1, (0.0, 1.0), 8)


class TestSampleNoise:
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_u64_is_config_error(self, seed):
        with pytest.raises(ConfigurationError, match=r"outside \[0, 2\^64\)"):
            sample_noise(2, 0.01, 8, seed)

    def test_same_seed_bit_identical(self):
        a = sample_noise(4, 0.01, 64, 99)
        b = sample_noise(4, 0.01, 64, 99)
        assert np.array_equal(a.increments, b.increments)

    def test_variance_monte_carlo(self):
        n = sample_noise(2, 0.02, 50_000, 123)
        ratio = np.mean(n.increments ** 2) / 0.02
        assert 0.98 <= ratio <= 1.02

    def test_cross_mode_independence(self):
        n = sample_noise(4, 1.0, 100_000, 321)
        corr = np.corrcoef(n.increments)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() <= 0.02

    def test_truncation_stability(self):
        full = sample_noise(3, 0.1, 64, 7)
        half = sample_noise(3, 0.1, 32, 7)
        assert np.array_equal(full.increments[:, :32], half.increments)

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            sample_noise(0, 0.1, 10, 1)
        with pytest.raises(ConfigurationError):
            sample_noise(1, -0.1, 10, 1)


class TestCoarsen:
    def test_block_sums_on_a_multiple_of_the_step(self):
        fine = sample_noise(3, 0.01, 12, 5)
        coarse = coarsen(fine, 4)
        blocks = [[fine.increments[j, 4 * k:4 * k + 4].sum() for k in range(3)]
                  for j in range(3)]
        assert np.array_equal(coarse.increments, blocks)
        assert coarse.dt == fine.dt * 4 and coarse.seed == 5 and coarse.J == 3

    @pytest.mark.parametrize("factor", [0, -2, 5, 2.0, True])
    def test_bad_factor_refused(self, factor):
        with pytest.raises(ConfigurationError, match="coarsening factor"):
            coarsen(sample_noise(1, 0.01, 12, 5), factor)


class TestValidateAssumptions:
    def test_contraction_pass(self):
        # 2 * 0.1 + 0.5^2 = 0.45 < 2 * 0.5 = 1.0
        def g(t, x, y, z):
            return 0.1 * z

        def h(t, x, y, z):
            out = np.zeros((x.shape[0], 1))
            out[:, 0] = 0.5 * z[:, 0]
            return out

        cs = CoefficientSet(f=lambda t, x, y, z: np.zeros(x.shape[0]),
                            g=g, h=h, C=0.0, alpha=0.1, beta=0.5, modes=1)
        rep = validate_assumptions(cs, lam=0.5, grid=BOX, horizon=1.0)
        assert rep.ok
        assert rep.items["H4"].passed

    def test_contraction_boundary_fails(self):
        cs = CoefficientSet.zero(1)
        cs = CoefficientSet(f=cs.f, g=cs.g, h=cs.h, C=0.0, alpha=0.5, beta=0.0, modes=1)
        rep = validate_assumptions(cs, lam=0.5, grid=BOX, horizon=1.0)  # 2 alpha = 1.0 = 2 lambda
        assert not rep.items["H4"].passed
        assert not rep.ok

    def test_understated_lipschitz_detected(self):
        def f(t, x, y, z):
            return y  # quotient 1 against declared C = 0

        z = CoefficientSet.zero(1)
        cs = CoefficientSet(f=f, g=z.g, h=z.h, C=0.0, alpha=0.0, beta=0.0, modes=1)
        rep = validate_assumptions(cs, lam=1.0, grid=BOX, horizon=1.0)
        assert not rep.items["H1-f"].passed
        assert rep.items["H1-f"].observed == pytest.approx(1.0, rel=1e-3)

    def test_impure_map_detected(self):
        calls = []

        def f(t, x, y, z):
            calls.append(1)
            return np.full(x.shape[0], float(len(calls)))

        z = CoefficientSet.zero(1)
        rep = validate_assumptions(replace(z, f=f), lam=1.0, grid=BOX, horizon=1.0)
        assert not rep.items["purity"].passed and not rep.ok
        assert len(calls) == 12  # three f calls in each of four probe rounds

    def test_enlarging_constants_is_monotone(self):
        base = state_free_coeffs()
        rep1 = validate_assumptions(base, lam=1.0, grid=BOX, horizon=1.0)
        assert rep1.ok
        bigger = CoefficientSet(f=base.f, g=base.g, h=base.h,
                                C=base.C + 1.0, alpha=0.3, beta=0.5, modes=base.modes)
        rep2 = validate_assumptions(bigger, lam=1.0, grid=BOX, horizon=1.0)  # 0.6 + 0.25 < 2
        for name, item in rep1.items.items():
            if item.passed:
                assert rep2.items[name].passed

    def test_report_dict_shape(self):
        rep = validate_assumptions(CoefficientSet.zero(1), lam=1.0, grid=BOX, horizon=1.0)
        assert set(rep.items) == {"H1-f", "H2-g-y", "H2-g-z", "H3-h-y", "H3-h-z", "H4", "purity"}


class TestEvaluate:
    def test_stacked_samples_match_each_sample_alone(self):
        cs = mix_coeffs(3)
        x = np.linspace(0.0, 1.0, 5)[:, None]
        rng = np.random.default_rng(0)
        y, z = rng.normal(size=(2, 5)), rng.normal(size=(2, 5, 1))
        f, g, h = cs.evaluate(0.1, x, y, z)
        assert (f.shape, g.shape, h.shape) == ((2, 5), (2, 5, 1), (2, 5, 3))
        for s in range(2):
            h_alone, f_alone = cs.evaluate(0.1, x, y[s], z[s], "hf")
            assert np.array_equal(f[s], f_alone) and np.array_equal(h[s], h_alone)
