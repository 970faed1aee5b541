"""Exception hierarchy shared across the package.

The split mirrors the CLI exit codes: configuration problems, data
problems, and estimation-time failures are reported differently.
"""
import operator


class WimpvarError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WimpvarError):
    """Invalid configuration (bad flags, unknown methods, bad query)."""


class DataError(WimpvarError):
    """Malformed input data (non-finite values, ragged CSV, duplicates)."""


class EstimationError(WimpvarError):
    """Estimation or bootstrap failure (singular moments, explosive fits)."""


def check_integer(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an integer (numpy integers too)."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
