import math

import numpy as np
import pytest

from conftest import standard_problem

from ospde.errors import ConfigurationError
from ospde.grid import SHARP_CONVENTION, build_grid
from ospde.norms import (FieldPath, data_ingredients, dual_sharp_upper, gradient_norm_22,
                         mixed_norm, pairing, sharp_norm)
from ospde.stochastics import CoefficientSet

GRID = build_grid(1, (0.0, 1.0), 32)
TIMES = np.linspace(0.0, 1.0, 17)
T = 1.0


def random_path(rng, zero_boundary=False):
    frames = rng.normal(size=(TIMES.size, GRID.n_nodes))
    if zero_boundary:
        frames[:, GRID.boundary] = 0.0
    return FieldPath(GRID, TIMES, frames)


class TestMixedNorm:
    def test_constant_path_is_t_pow_1_over_q(self):
        path = FieldPath(GRID, TIMES, np.ones((TIMES.size, GRID.n_nodes)))
        for p, q in ((1, 1), (2, 2), (3, 4), (2, math.inf)):
            expected = 1.0 if q == math.inf else T ** (1.0 / q)
            assert mixed_norm(path, p, q, T) == pytest.approx(expected)
        assert mixed_norm(path, 2, 2, 0.25) == pytest.approx(0.5)

    def test_22_equals_flat_space_time_l2(self):
        rng = np.random.default_rng(3)
        path = random_path(rng)
        dt = TIMES[1] - TIMES[0]
        # independent flat quadrature over the left-rule frames
        direct = np.sqrt(sum(
            float(GRID.quad_weights @ path.frames[k] ** 2) * dt
            for k in range(TIMES.size - 1)))
        assert mixed_norm(path, 2, 2, T) == pytest.approx(direct, rel=1e-12)

    def test_21_bounded_by_sqrt_t_22_100_paths(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = random_path(rng)
            assert mixed_norm(v, 2, 1, T) <= np.sqrt(T) * mixed_norm(v, 2, 2, T) * (1 + 1e-12)

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(5)
        path = random_path(rng)
        for p, q in ((2, 2), (2, math.inf), (1, 1), (math.inf, 2)):
            vals = [mixed_norm(path, p, q, t) for t in (0.25, 0.5, 0.75, 1.0)]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        path = random_path(rng)
        scaled = FieldPath(GRID, TIMES, -2.5 * path.frames)
        for p, q in ((2, 2), (3, 1), (2, math.inf)):
            assert mixed_norm(scaled, p, q, T) == pytest.approx(
                2.5 * mixed_norm(path, p, q, T), rel=1e-12)

    def test_triangle_inequality_100_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u, v = random_path(rng), random_path(rng)
            s = FieldPath(GRID, TIMES, u.frames + v.frames)
            for p, q in ((2, 2), (2, 1), (4, 3)):
                assert mixed_norm(s, p, q, T) <= (
                    mixed_norm(u, p, q, T) + mixed_norm(v, p, q, T)) * (1 + 1e-12)

    def test_interpolation_containment_midpoint(self):
        # the rho = 1/2 pair between the extremes (2, inf) and (inf, 2) of the
        # d=1 convention is (4, 4); its norm is below the max of the extremes
        rng = np.random.default_rng(8)
        two_star = SHARP_CONVENTION[1][0]
        for _ in range(100):
            u = random_path(rng)
            extreme = max(mixed_norm(u, 2, math.inf, T),
                          mixed_norm(u, two_star, 2, T))
            assert mixed_norm(u, 4, 4, T) <= extreme * (1 + 1e-9)

    def test_horizon_beyond_path_rejected(self):
        path = FieldPath(GRID, TIMES, np.zeros((TIMES.size, GRID.n_nodes)))
        with pytest.raises(ConfigurationError, match="horizon"):
            mixed_norm(path, 2, 2, 1.5)

    def test_bad_exponents_rejected(self):
        path = FieldPath(GRID, TIMES, np.zeros((TIMES.size, GRID.n_nodes)))
        with pytest.raises(ConfigurationError):
            mixed_norm(path, 0.5, 2, T)


class TestSharpNorm:
    def test_zero_path(self):
        z = FieldPath.constant(GRID, TIMES, 0.0)
        assert sharp_norm(z, T) == 0.0
        assert dual_sharp_upper(z, T) == 0.0

    def test_energy_bound_d1_100_paths(self):
        # vs c1 (|u|_{2,inf}^2 + |grad u|_{2,2}^2)^(1/2) with c1 = max(1/2, 1)
        c1 = 1.0
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = random_path(rng, zero_boundary=True)
            rhs = c1 * np.sqrt(mixed_norm(u, 2, math.inf, T) ** 2
                               + gradient_norm_22(u, T) ** 2)
            assert sharp_norm(u, T) <= rhs * (1 + 1e-12)

    def test_constant_in_time_sup_part(self):
        rng = np.random.default_rng(10)
        frame = rng.normal(size=GRID.n_nodes)
        path = FieldPath(GRID, TIMES, np.tile(frame, (TIMES.size, 1)))
        assert mixed_norm(path, 2, math.inf, T) == pytest.approx(
            float(np.sqrt(GRID.quad_weights @ frame ** 2)))


class TestDualUpper:
    def test_below_sqrt_t_22(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = random_path(rng)
            assert dual_sharp_upper(v, T) <= np.sqrt(T) * mixed_norm(v, 2, 2, T) * (1 + 1e-12)

    def test_duality_inequality_100_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            u = random_path(rng, zero_boundary=True)
            v = random_path(rng)
            assert abs(pairing(u, v, T)) <= (
                sharp_norm(u, T) * dual_sharp_upper(v, T)) * (1 + 1e-10)

    def test_pair_family_contains_2_1(self):
        # in every dimension, every pair (p, q) is conjugate to a pair
        # interpolating (2, inf) and (2*, 2): with rho = 1 - 2 / q',
        # 1 / p' = rho / 2 + (1 - rho) / 2*
        def conjugate(p):
            return math.inf if p == 1 else 1.0 if p == math.inf else p / (p - 1.0)

        assert sorted(SHARP_CONVENTION) == [1, 2]
        for two_star, pairs in SHARP_CONVENTION.values():
            assert (2.0, 1.0) in pairs
            for p, q in pairs:
                pc, qc = conjugate(p), conjugate(q)
                rho = 1.0 if qc == math.inf else 1.0 - 2.0 / qc
                assert -1e-12 <= rho <= 1.0 + 1e-12
                assert 1.0 / pc == pytest.approx(rho / 2.0 + (1.0 - rho) / two_star,
                                                 abs=1e-12)


class TestPairing:
    def test_pairing_self_is_22_squared(self):
        rng = np.random.default_rng(13)
        u = random_path(rng)
        assert pairing(u, u, T) == pytest.approx(mixed_norm(u, 2, 2, T) ** 2, rel=1e-12)

    def test_pairing_zero(self):
        rng = np.random.default_rng(14)
        u = random_path(rng)
        assert pairing(u, FieldPath.constant(GRID, TIMES, 0.0), T) == 0.0

    def test_pairing_holder_2inf_21(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            u, v = random_path(rng), random_path(rng)
            bound = mixed_norm(u, 2, math.inf, T) * mixed_norm(v, 2, 1, T)
            assert abs(pairing(u, v, T)) <= bound * (1 + 1e-12)

    def test_mismatched_paths_rejected(self):
        other = build_grid(1, (0.0, 1.0), 16)
        u = FieldPath.constant(GRID, TIMES, 0.0)
        v = FieldPath.constant(other, TIMES, 0.0)
        with pytest.raises(ConfigurationError, match="grid"):
            pairing(u, v, T)


class TestFieldPath:
    def test_times_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            FieldPath(GRID, np.linspace(0.1, 1.0, 10),
                      np.zeros((10, GRID.n_nodes)))

    def test_nonuniform_times_rejected(self):
        t = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(ConfigurationError):
            FieldPath(GRID, t, np.zeros((4, GRID.n_nodes)))

    def test_t_pow_minus_quarter_time_integrable(self):
        # f(t) = t^(-1/4) phi(x), f(0) := 0: the (2,1)-norm converges to the
        # closed-form (4/3) T^(3/4) |phi|_2 while the sup in time diverges
        # under step refinement
        phi = np.sin(np.pi * GRID.coords[:, 0])
        phi_l2 = float(np.sqrt(GRID.quad_weights @ phi ** 2))
        vals_21, vals_sup = [], []
        for steps in (512, 2048):
            t = np.linspace(0.0, 1.0, steps + 1)
            scale = np.concatenate([[0.0], t[1:] ** -0.25])
            path = FieldPath(GRID, t, scale[:, None] * phi[None, :])
            vals_21.append(mixed_norm(path, 2, 1, T))
            vals_sup.append(mixed_norm(path, 2, math.inf, T))
        assert vals_21[-1] == pytest.approx(4.0 / 3.0 * phi_l2, rel=0.02)
        # sup grows like dt^(-1/4): refinement by 4 multiplies it by ~sqrt(2)
        assert vals_sup[1] / vals_sup[0] == pytest.approx(np.sqrt(2.0), rel=0.01)


def zero_point_ingredients(data, t):
    """data_ingredients of a problem's initial state and of its coefficient
    maps evaluated at y = 0, z = 0 on every time stamp."""
    grid = data.op.grid
    x = grid.coords
    y, z = np.zeros(grid.n_nodes), np.zeros_like(x)
    f, g, h = (np.stack([np.asarray(fn(tk, x, y, z), dtype=float) for tk in data.times])
               for fn in (data.coeffs.f, data.coeffs.g, data.coeffs.h))
    return data_ingredients(grid, data.times, t, data.xi.values, f, g, h)


class TestDataIngredients:
    def test_deterministic_bounded_data(self):
        data = standard_problem(cells=16, steps=32)
        terms = zero_point_ingredients(data, float(data.times[-1]))
        assert all(np.isfinite(terms)) and max(terms) <= 1e12
        assert terms[0] > 0

    def test_zero_point_drift_vanishes(self):
        data = standard_problem(cells=16, steps=32, coeffs=CoefficientSet.zero(2))
        _, f_sq, g_sq, h_sq = zero_point_ingredients(data, float(data.times[-1]))
        assert f_sq == 0.0 and g_sq == 0.0 and h_sq == 0.0

    def test_time_singular_drift_dual_ingredient_finite(self):
        # f0(t) = t^(-1/4) phi(x) with f0(0) := 0 keeps the dual ingredient
        # finite (the (2,1) member of the family is integrable) even though
        # the sup in time blows up under refinement
        grid = build_grid(1, (0.0, 1.0), 16)

        def f(t, x, y, z):
            amp = 0.0 if t == 0.0 else t ** -0.25
            return amp * np.sin(np.pi * x[:, 0])

        z = CoefficientSet.zero(2)
        cs = CoefficientSet(f=f, g=z.g, h=z.h, C=0.0, alpha=0.0, beta=0.0, modes=2)
        data = standard_problem(cells=16, steps=2048, T=1.0, coeffs=cs,
                                obstacle_level=-1e6, xi_offset=0.3)
        f_sq = zero_point_ingredients(data, 1.0)[1]
        assert np.isfinite(f_sq)
        phi_l2 = float(np.sqrt(grid.quad_weights @ np.sin(np.pi * grid.coords[:, 0]) ** 2))
        # dual upper bound is at most the closed-form (2,1) norm 4/3 |phi|_2
        assert f_sq <= (4.0 / 3.0 * phi_l2) ** 2 * 1.01
