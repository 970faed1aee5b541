"""Exception hierarchy shared across the package.

The split mirrors the CLI exit codes: configuration problems, data
problems, and estimation-time failures are reported differently.
"""
import operator

import numpy as np


class WimpvarError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WimpvarError):
    """Invalid configuration (bad flags, unknown methods, bad query)."""


class DataError(WimpvarError):
    """Malformed input data (non-finite values, ragged CSV, duplicates)."""


class EstimationError(WimpvarError):
    """Estimation or bootstrap failure (singular moments, explosive fits)."""


def plain(value) -> str:
    """``value`` as an error message shows it: a numpy scalar as the Python
    value it holds (numpy 2 reprs ``2.5`` as ``np.float64(2.5)``)."""
    return repr(value.item() if isinstance(value, np.generic) else value)


def check_integer(name: str, value) -> int:
    """``value`` as an int; ConfigError unless it is an integer (numpy integers too)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {plain(value)}") from None


def check_weight_constants(c1, c2) -> None:
    """Raise ConfigError unless c1 > 0 and 0 < c2 < 1 (NaN fails), the
    domain of the plausibility weights' shrink factor c1 * T**(-c2)."""
    if not (c1 > 0 and 0 < c2 < 1):
        raise ConfigError(
            f"weight constants need c1 > 0 and 0 < c2 < 1, got c1={plain(c1)}, c2={plain(c2)}"
        )
