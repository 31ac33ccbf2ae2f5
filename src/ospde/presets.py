"""Named built-in problem ingredients.

Closures cannot cross the configuration boundary, so nonlinearities,
obstacles, initial conditions, dominators and operator coefficient
profiles ship as named presets parametrized by scalars from the config.

Mode coefficients use an l2-normalized geometric weight profile, so the
declared Lipschitz constants of the mode map equal the scalar parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, coerce
from .grid import Field, Grid
from .norms import FieldPath
from .solver import OBSTACLE_OFF, DominatorData
from .stochastics import CoefficientSet

__all__ = [
    "mode_weights",
    "make_coefficients",
    "make_obstacle",
    "make_initial",
    "make_dominator",
    "operator_profile",
    "COEFFICIENT_PRESETS",
    "OBSTACLE_PRESETS",
    "INITIAL_PRESETS",
    "DOMINATOR_PRESETS",
    "OPERATOR_PROFILES",
]


def mode_weights(J: int) -> np.ndarray:
    w = 2.0 ** (-0.5 * np.arange(J))
    return w / np.linalg.norm(w)


def _lookup(presets: dict, kind: str, name: str):
    """The builder ``presets[name]``; an unknown name is a ConfigurationError
    that names the ``kind`` and lists the known names."""
    try:
        return presets[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} '{name}'; available: {sorted(presets)}") from None


def _reader(section: str, params: dict):
    """``p(key, default)``: the block's ``key`` (or the default) as a float;
    a value that is not one is a ConfigurationError naming ``section.key``."""
    return lambda key, default: coerce(float, f"{section}.{key}", params.get(key, default))


# -- coefficient presets ------------------------------------------------------


def _coeff_zero(grid: Grid, J: int, params: dict) -> CoefficientSet:
    return CoefficientSet.zero(J)


def _coeff_lipschitz_mix(grid: Grid, J: int, params: dict) -> CoefficientSet:
    """The standard Lipschitz nonlinearity family:

    f = f_base sin(pi x1) + f_shift + f_sin sin(y) + f_grad clip(z1)
    g = (g_sin tanh(y)) e1 + g_grad clip(z)
    h_j = w_j (h_base cos(pi x1) + h_sin sin(y)) + [j = 0] h_grad clip(z1)
    """
    p = _reader("coefficients", params)
    f_base = p("f_base", 1.0)
    f_shift = p("f_shift", 0.0)
    f_sin = p("f_sin", 0.5)
    f_grad = p("f_grad", 0.2)
    g_sin = p("g_sin", 0.2)
    g_grad = p("g_grad", 0.0)
    h_base = p("h_base", 0.3)
    h_sin = p("h_sin", 0.2)
    h_grad = p("h_grad", 0.0)
    clip = p("clip", 1e6)
    w = mode_weights(J)

    def f(t, x, y, z):
        return (f_base * np.sin(np.pi * x[:, 0]) + f_shift
                + f_sin * np.sin(y) + f_grad * np.clip(z[:, 0], -clip, clip))

    def g(t, x, y, z):
        out = g_grad * np.clip(z, -clip, clip)
        out[:, 0] += g_sin * np.tanh(y)
        return out

    def h(t, x, y, z):
        base = h_base * np.cos(np.pi * x[:, 0]) + h_sin * np.sin(y)
        out = base[:, None] * w[None, :]
        out[:, 0] += h_grad * np.clip(z[:, 0], -clip, clip)
        return out

    C = max(f_sin, f_grad, g_sin, h_sin)
    return CoefficientSet(f=f, g=g, h=h, C=C, alpha=g_grad, beta=h_grad, modes=J)


def _coeff_state_free(grid: Grid, J: int, params: dict) -> CoefficientSet:
    """State-independent data: f = f_base sin(pi x1) + f_const,
    g = g_amp sin(2 pi x1) e1, h_j = w_j h_amp cos(pi x1)."""
    p = _reader("coefficients", params)
    f_base = p("f_base", 1.0)
    f_const = p("f_const", 0.0)
    g_amp = p("g_amp", 0.3)
    h_amp = p("h_amp", 0.4)
    w = mode_weights(J)

    def f(t, x, y, z):
        return f_base * np.sin(np.pi * x[:, 0]) + f_const * np.ones(x.shape[0])

    def g(t, x, y, z):
        out = np.zeros((x.shape[0], x.shape[1]))
        out[:, 0] = g_amp * np.sin(2 * np.pi * x[:, 0])
        return out

    def h(t, x, y, z):
        return (h_amp * np.cos(np.pi * x[:, 0]))[:, None] * w[None, :]

    return CoefficientSet(f=f, g=g, h=h, C=0.0, alpha=0.0, beta=0.0, modes=J)


def _coeff_contraction_violator(grid: Grid, J: int, params: dict) -> CoefficientSet:
    """Gradient-coupled maps whose declared constants break (or exactly
    meet) the contraction property; used to exercise the refusal gate."""
    p = _reader("coefficients", params)
    alpha = p("alpha", 1.0)
    beta = p("beta", 0.0)

    def f(t, x, y, z):
        return np.zeros(x.shape[0])

    def g(t, x, y, z):
        return alpha * z

    def h(t, x, y, z):
        out = np.zeros((x.shape[0], J))
        out[:, 0] = beta * z[:, 0]
        return out

    return CoefficientSet(f=f, g=g, h=h, C=0.0, alpha=alpha, beta=beta, modes=J)


COEFFICIENT_PRESETS = {
    "zero": _coeff_zero,
    "lipschitz_mix": _coeff_lipschitz_mix,
    "state_free": _coeff_state_free,
    "contraction_violator": _coeff_contraction_violator,
}


def make_coefficients(name: str, grid: Grid, J: int, params: dict | None = None) -> CoefficientSet:
    return _lookup(COEFFICIENT_PRESETS, "coefficient preset", name)(grid, J, params or {})


# -- obstacle presets ---------------------------------------------------------


def _obstacle_none(grid, times, params):
    return FieldPath.constant(grid, times, OBSTACLE_OFF)


def _obstacle_constant(grid, times, params):
    p = _reader("obstacle", params)
    return FieldPath.constant(grid, times, p("level", 0.2))


def _obstacle_sine(grid, times, params):
    p = _reader("obstacle", params)
    amp = p("amplitude", 0.2)
    offset = p("offset", 0.0)
    values = amp * np.sin(np.pi * grid.coords[:, 0]) + offset
    return FieldPath.constant(grid, times, values)


OBSTACLE_PRESETS = {
    "none": _obstacle_none,
    "constant": _obstacle_constant,
    "sine": _obstacle_sine,
}


def make_obstacle(name: str, grid: Grid, times, params: dict | None = None) -> FieldPath:
    return _lookup(OBSTACLE_PRESETS, "obstacle preset", name)(grid, times, params or {})


# -- initial condition presets ------------------------------------------------


def _initial_zero(grid, params):
    return Field.zeros(grid)


def _initial_sine_pi(grid, params):
    p = _reader("initial", params)
    amp = p("amplitude", 1.0)
    offset = p("offset", 0.0)
    return Field.from_function(grid, lambda x: amp * np.sin(np.pi * x[:, 0]) + offset)


def _initial_sine_2pi(grid, params):
    p = _reader("initial", params)
    amp = p("amplitude", 1.0)
    return Field.from_function(grid, lambda x: amp * np.sin(2 * np.pi * x[:, 0]))


INITIAL_PRESETS = {
    "zero": _initial_zero,
    "sine_pi": _initial_sine_pi,
    "sine_2pi": _initial_sine_2pi,
}


def make_initial(name: str, grid: Grid, params: dict | None = None) -> Field:
    return _lookup(INITIAL_PRESETS, "initial preset", name)(grid, params or {})


# -- dominator presets --------------------------------------------------------


def _dominator_constant_source(grid, times, J, xi, params):
    """S' driven by a constant source from the problem's own initial state
    (or a configured level); g' = h' = 0."""
    p = _reader("dominator", params)
    source = p("source", 2.0)
    start = params.get("start", "xi")
    initial = (xi if start == "xi" else
               Field(grid, np.full(grid.n_nodes, coerce(float, "dominator.start", start))))
    f = np.full((len(times), grid.n_nodes), source)
    return DominatorData(initial=initial, f=f, g=None, h=None)


def _dominator_noisy(grid, times, J, xi, params):
    """S' driven by a constant source plus the same mode profile as the
    state-free noise preset."""
    p = _reader("dominator", params)
    source = p("source", 2.0)
    h_amp = p("h_amp", 0.3)
    w = mode_weights(J)
    f = np.full((len(times), grid.n_nodes), source)
    base = h_amp * np.cos(np.pi * grid.coords[:, 0])
    h = np.tile(base[:, None] * w[None, :], (len(times), 1, 1))
    return DominatorData(initial=xi, f=f, g=None, h=h)


def _dominator_zero(grid, times, J, xi, params):
    return DominatorData(initial=Field.zeros(grid), f=None, g=None, h=None)


DOMINATOR_PRESETS = {
    "zero": _dominator_zero,
    "constant_source": _dominator_constant_source,
    "noisy": _dominator_noisy,
}


def make_dominator(name: str, grid: Grid, times, J: int, xi: Field,
                   params: dict | None = None) -> DominatorData | None:
    if name == "none":
        return None
    return _lookup(DOMINATOR_PRESETS, "dominator preset", name)(grid, times, J, xi, params or {})


# -- operator coefficient profiles -------------------------------------------


def _profile_constant(grid, params):
    a = params.get("a", 1.0)
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"operator.a = {a!r} is not a number or a matrix") from None


def _profile_cosine_1d(grid, params):
    if grid.dim != 1:
        raise ConfigurationError(f"operator.profile = cosine_1d needs a 1D grid, not "
                                 f"grid.dim = {grid.dim}")
    p = _reader("operator", params)
    base = p("base", 1.0)
    amp = p("amplitude", 0.5)

    def a(centers):
        return (base + amp * np.cos(np.pi * centers[:, 0])).reshape(-1, 1, 1)

    return a


OPERATOR_PROFILES = {
    "constant": _profile_constant,
    "cosine_1d": _profile_cosine_1d,
}


def operator_profile(name: str, grid: Grid, params: dict | None = None):
    return _lookup(OPERATOR_PROFILES, "operator profile", name)(grid, params or {})
