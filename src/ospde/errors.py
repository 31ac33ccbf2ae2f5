"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid/operator/problem configuration or mismatched objects."""


class AssumptionError(RuntimeError):
    """A structural assumption failed validation; the solver refuses to run."""


class SolverError(RuntimeError):
    """A linear solve or iterative scheme failed to converge."""


def coerce(kind, key: str, value):
    """``kind(value)``, or a ConfigurationError naming the config key ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{key} = {value!r} is not a valid {kind.__name__}") from None
