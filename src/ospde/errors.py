"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid/operator/problem configuration or mismatched objects."""


class AssumptionError(RuntimeError):
    """A structural assumption failed validation; the solver refuses to run."""


class SolverError(RuntimeError):
    """A linear solve or iterative scheme failed to converge; ``column`` is
    the failing column of a batched solve, when there is one."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


def coerce(kind, key: str, value):
    """``kind(value)``, or a ConfigurationError naming the config key ``key``.

    A boolean is refused whatever the kind, and an ``int`` is whole: an int,
    an integral float (``1e4``) or an integer string, never a float that
    ``int`` would truncate."""
    truncated = kind is int and isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not truncated:
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{key} = {value!r} is not a valid {kind.__name__}")
