import numpy as np
import pytest

import ospde.lcp as lcp
from ospde.grid import Field, assemble_operator, build_grid
from ospde.norms import FieldPath
from ospde.presets import make_coefficients
from ospde.solver import OBSTACLE_OFF, ProblemData
from ospde.stochastics import CoefficientSet, sample_noise


def mix_coeffs(modes=2, **params):
    """The standard Lipschitz test nonlinearities: the ``lipschitz_mix``
    preset, alpha = beta = 0."""
    return make_coefficients("lipschitz_mix", None, modes, params)


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


def state_free_coeffs(modes=2):
    """The ``state_free`` preset with f = sin(pi x) + 1."""
    return make_coefficients("state_free", None, modes, {"f_const": 1.0})


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


def mixed_problem(cells, steps, noise):
    """The unconstrained problem with the Lipschitz mixed nonlinearities."""
    return unconstrained_problem(cells=cells, steps=steps, coeffs=mix_coeffs(2), noise=noise)


def signed_problem(cells, steps, noise):
    """The unconstrained problem whose solutions change sign."""
    return unconstrained_problem(cells=cells, steps=steps, coeffs=signed_coeffs(2),
                                 xi_fn=lambda x: np.sin(2 * np.pi * x[:, 0]), noise=noise)


def mean_terminals(residual, study):
    """Per level of a refinement study, the mean terminal of ``residual``
    over its paths."""
    return [float(np.mean([residual(res, data).terminal for data, res in level]))
            for level in study]


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test: each call appends its positional
    arguments to the returned list."""
    calls = []
    wrapped = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_lcp_factorizations(monkeypatch):
    """Count the calls of ``ospde.lcp._factor``, the one entry through which
    the obstacle step factors its pass matrices (the step matrix's own
    factorization in ``ospde.solver`` is not one of them)."""
    return count_calls(monkeypatch, lcp, "_factor")


@pytest.fixture(scope="session")
def grid64():
    return build_grid(1, (0.0, 1.0), 64)


@pytest.fixture(scope="session")
def op64(grid64):
    return assemble_operator(grid64, 1.0, 1.0, 1.0)
