"""End-to-end coverage of the 2D path: cross-term operator, constrained
solves, identity closure, and the d=2 norm conventions."""

import numpy as np
import pytest

from ospde.grid import SHARP_CONVENTION, Field, assemble_operator, build_grid
from ospde.norms import FieldPath
from ospde.solver import OBSTACLE_OFF, ProblemData, skorokhod_defect, solve_mode
from ospde.stochastics import CoefficientSet, sample_noise
from ospde.verify import ito_square_residual, weak_form_residual

STEPS, T, J = 32, 0.1, 2
MODE_W = np.array([0.8, 0.6])


@pytest.fixture(scope="module")
def setup_2d():
    grid = build_grid(2, [(0, 1), (0, 1)], (12, 12))
    op = assemble_operator(grid, np.array([[1.0, 0.2], [0.2, 1.0]]), 0.8, 1.2)
    times = np.arange(STEPS + 1) * (T / STEPS)
    noise = sample_noise(J, T / STEPS, STEPS, 99)
    xi = Field.from_function(
        grid, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) + 0.2)
    return grid, op, times, noise, xi


def nonlinear_coeffs():
    def f(t, x, y, z):
        return (np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
                + 0.3 * np.sin(y) + 0.1 * z[:, 0])

    def g(t, x, y, z):
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = 0.1 * np.tanh(y)
        out[:, 1] = 0.05 * np.sin(y)
        return out

    def h(t, x, y, z):
        base = (0.2 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
                + 0.1 * np.sin(y))
        return base[:, None] * MODE_W[None, :]

    return CoefficientSet(f=f, g=g, h=h, C=0.35, alpha=0.0, beta=0.0, modes=J)


def state_free_coeffs_2d():
    def f(t, x, y, z):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def g(t, x, y, z):
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = 0.2 * np.sin(2 * np.pi * x[:, 0])
        return out

    def h(t, x, y, z):
        return (0.3 * np.cos(np.pi * x[:, 0]))[:, None] * MODE_W[None, :]

    return CoefficientSet(f=f, g=g, h=h, C=0.0, alpha=0.0, beta=0.0, modes=J)


def bump_2d(t, x):
    s1 = np.clip((x[:, 0] - 0.25) / 0.5, 0.0, 1.0)
    s2 = np.clip((x[:, 1] - 0.25) / 0.5, 0.0, 1.0)
    return np.sin(np.pi * s1) ** 2 * np.sin(np.pi * s2) ** 2 * (1 + 0.3 * np.cos(t))


class TestSolvers2D:
    def test_projected_feasible_with_minimal_reflection(self, setup_2d):
        grid, op, times, noise, xi = setup_2d
        data = ProblemData(op=op, xi=xi, coeffs=nonlinear_coeffs(),
                           obstacle=FieldPath.constant(grid, times, 0.1), noise=noise)
        res = solve_mode(data, "projected")
        assert np.all(res.u.frames[:, grid.interior] >= 0.1 - 1e-12)
        assert skorokhod_defect(res.u, data.obstacle, res.measure) <= 1e-8
        assert res.measure.total_mass() > 0

    def test_penalized_approaches_projected(self, setup_2d):
        grid, op, times, noise, xi = setup_2d
        data = ProblemData(op=op, xi=xi, coeffs=nonlinear_coeffs(),
                           obstacle=FieldPath.constant(grid, times, 0.1), noise=noise)
        star = solve_mode(data, "projected")
        gaps = [np.abs(solve_mode(data, "penalized", n).u.frames - star.u.frames).max()
                for n in (100, 10000)]
        assert gaps[1] < gaps[0]

    def test_linear_identities_machine_exact(self, setup_2d):
        grid, op, times, noise, xi = setup_2d
        data = ProblemData(op=op, xi=xi, coeffs=state_free_coeffs_2d(),
                           obstacle=FieldPath.constant(grid, times, OBSTACLE_OFF),
                           noise=noise)
        res = solve_mode(data, "unconstrained")
        assert ito_square_residual(res, data).max_step <= 1e-12
        assert weak_form_residual(res, data, bump_2d).max_step <= 1e-12


class TestNorms2D:
    def test_toolbox_pairs_for_exponent_four(self):
        two_star, pairs = SHARP_CONVENTION[2]
        assert two_star == 4.0
        assert (2.0, 1.0) in pairs
        assert any(abs(p - 4 / 3) < 1e-12 and q == 2.0 for p, q in pairs)
        assert any(abs(p - 8 / 5) < 1e-12 and abs(q - 4 / 3) < 1e-12
                   for p, q in pairs)
