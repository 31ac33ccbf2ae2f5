import numpy as np
import pytest

from ospde.grid import Field, assemble_operator, build_grid
from ospde.norms import FieldPath
from ospde.solver import OBSTACLE_OFF, ProblemData
from ospde.stochastics import CoefficientSet, NoisePath, sample_noise


def mix_coeffs(modes=2, f_base=1.0, f_shift=0.0, f_sin=0.5, f_grad=0.2,
               g_sin=0.2, h_base=0.3, h_sin=0.2):
    """The standard Lipschitz test nonlinearities (alpha = beta = 0)."""
    w = 2.0 ** (-0.5 * np.arange(modes))
    w = w / np.linalg.norm(w)

    def f(t, x, y, z):
        return (f_base * np.sin(np.pi * x[:, 0]) + f_shift
                + f_sin * np.sin(y) + f_grad * z[:, 0])

    def g(t, x, y, z):
        out = np.zeros((x.shape[0], x.shape[1]))
        out[:, 0] = g_sin * np.tanh(y)
        return out

    def h(t, x, y, z):
        return (h_base * np.cos(np.pi * x[:, 0]) + h_sin * np.sin(y))[:, None] * w[None, :]

    C = max(f_sin, f_grad, g_sin, h_sin)
    return CoefficientSet(f=f, g=g, h=h, C=C, alpha=0.0, beta=0.0, modes=modes)


def signed_coeffs(modes=2):
    """Sign-symmetric nonlinearities keeping solutions genuinely two-signed."""
    w = 2.0 ** (-0.5 * np.arange(modes))
    w = w / np.linalg.norm(w)

    def f(t, x, y, z):
        return 0.8 * np.sin(2 * np.pi * x[:, 0]) + 0.5 * np.sin(y) + 0.2 * z[:, 0]

    def g(t, x, y, z):
        out = np.zeros((x.shape[0], x.shape[1]))
        out[:, 0] = 0.2 * np.tanh(y)
        return out

    def h(t, x, y, z):
        return (0.3 * np.sin(2 * np.pi * x[:, 0])
                + 0.2 * np.sin(y))[:, None] * w[None, :]

    return CoefficientSet(f=f, g=g, h=h, C=0.5, alpha=0.0, beta=0.0, modes=modes)


def state_free_coeffs(modes=2, f_base=1.0, g_amp=0.3, h_amp=0.4):
    w = 2.0 ** (-0.5 * np.arange(modes))
    w = w / np.linalg.norm(w)

    def f(t, x, y, z):
        return f_base * np.sin(np.pi * x[:, 0]) + 1.0

    def g(t, x, y, z):
        out = np.zeros((x.shape[0], x.shape[1]))
        out[:, 0] = g_amp * np.sin(2 * np.pi * x[:, 0])
        return out

    def h(t, x, y, z):
        return (h_amp * np.cos(np.pi * x[:, 0]))[:, None] * w[None, :]

    return CoefficientSet(f=f, g=g, h=h, C=0.0, alpha=0.0, beta=0.0, modes=modes)


def refine_noise(base: NoisePath, factor: int) -> NoisePath:
    """Coarsen a fine noise path by summing blocks of increments (the same
    Brownian path sampled at a coarser step)."""
    J, steps = base.increments.shape
    agg = base.increments.reshape(J, steps // factor, factor).sum(axis=2)
    return NoisePath(J=J, dt=base.dt * factor, increments=agg, seed=base.seed)


def standard_problem(cells=24, steps=128, T=0.25, seed=1000, modes=2,
                     obstacle_level=0.2, xi_offset=0.3, coeffs=None,
                     obstacle_values=None, dominator=None, noise=None):
    """The standard 1D obstacle test problem: a = 1, S = 0.2, xi = sin(pi x) + 0.3."""
    grid = build_grid(1, (0.0, 1.0), cells)
    op = assemble_operator(grid, 1.0, 1.0, 1.0)
    dt = T / steps
    times = np.arange(steps + 1) * dt
    if noise is None:
        noise = sample_noise(modes, dt, steps, seed)
    xi = Field.from_function(grid, lambda x: np.sin(np.pi * x[:, 0]) + xi_offset)
    if obstacle_values is None:
        obstacle = FieldPath.constant(grid, times, obstacle_level)
    else:
        obstacle = FieldPath.constant(grid, times, obstacle_values)
    data = ProblemData(op=op, xi=xi, coeffs=coeffs or mix_coeffs(modes),
                       obstacle=obstacle, noise=noise, dominator=dominator)
    return data


def unconstrained_problem(cells=64, steps=128, T=0.25, seed=3, modes=2,
                          coeffs=None, xi_fn=None, noise=None):
    grid = build_grid(1, (0.0, 1.0), cells)
    op = assemble_operator(grid, 1.0, 1.0, 1.0)
    dt = T / steps
    times = np.arange(steps + 1) * dt
    if noise is None:
        noise = sample_noise(modes, dt, steps, seed)
    xi_fn = xi_fn or (lambda x: np.sin(np.pi * x[:, 0]))
    xi = Field.from_function(grid, xi_fn)
    obstacle = FieldPath.constant(grid, times, OBSTACLE_OFF)
    return ProblemData(op=op, xi=xi, coeffs=coeffs or state_free_coeffs(modes),
                       obstacle=obstacle, noise=noise)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(1, (0.0, 1.0), 64)


@pytest.fixture(scope="session")
def op64(grid64):
    return assemble_operator(grid64, 1.0, 1.0, 1.0)
