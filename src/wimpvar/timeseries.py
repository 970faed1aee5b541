"""Time-series containers, detrending and differencing.

Everything downstream (estimation, bootstrap, Monte Carlo) consumes the
matrices produced here: rows are time, columns are variables, and calendar
time runs t = 1..T.  The lag alignment of the error-correction regression
lives in one place, the block fill of :mod:`wimpvar._batch`.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _batch
from .errors import ConfigError, DataError, plain

__all__ = [
    "DetrendMode",
    "TimeSeriesData",
    "DetrendedSeries",
    "detrend",
    "difference",
]


class DetrendMode(str, Enum):
    """Deterministic component removed before estimation."""

    NONE = "none"
    CONSTANT = "constant"
    CONSTANT_AND_TREND = "constant_and_trend"

    @classmethod
    def _missing_(cls, value):
        modes = ", ".join(mode.value for mode in cls)
        raise ConfigError(f"detrend mode must be one of {modes}, got {value!r}")


def _check_finite(values: np.ndarray, names=None) -> None:
    if np.isfinite(values).all():
        return
    bad = np.argwhere(~np.isfinite(values))
    row, col = bad[0]
    label = names[col] if names else f"column {col + 1}"
    raise DataError(
        f"non-finite value at row {row + 1}, {label} "
        f"({plain(values[row, col])}); clean the input before estimation"
    )


@dataclass(frozen=True)
class TimeSeriesData:
    """A T x K observation matrix with variable names.

    Parameters
    ----------
    values : ndarray, shape (T, K)
        Observations, rows are time points.
    names : tuple of str, optional
        Variable labels; generated as ``y1..yK`` when omitted.
    frequency : str, optional
        Free-form sampling label, metadata only.
    """

    values: np.ndarray
    names: tuple = ()
    frequency: str | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a copy: it is frozen below, the input is not
        if values.ndim != 2:
            raise DataError(f"expected a 2-d observation matrix, got ndim={values.ndim}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError(f"empty observation matrix with shape {values.shape}")
        names = tuple(self.names) if self.names else tuple(
            f"y{i + 1}" for i in range(values.shape[1])
        )
        if len(names) != values.shape[1]:
            raise DataError(
                f"{len(names)} names given for {values.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate variable names: {', '.join(dupes)}")
        _check_finite(values, names)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", names)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DetrendedSeries:
    """OLS-detrended observations together with the removed deterministics.

    ``tilde_values[t] + mu0 + mu1 * (t + 1)`` reproduces the input row t
    (0-based row index, calendar time t + 1).
    """

    tilde_values: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    mode: DetrendMode

    @property
    def n_obs(self) -> int:
        return self.tilde_values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.tilde_values.shape[1]

    def retrend(self) -> np.ndarray:
        """Add the removed deterministic components back."""
        t = np.arange(1, self.n_obs + 1)[:, None]
        return self.tilde_values + self.mu0[None, :] + t * self.mu1[None, :]


def _as_values(data) -> np.ndarray:
    if isinstance(data, TimeSeriesData):
        return data.values
    if isinstance(data, DetrendedSeries):
        return data.tilde_values
    values = np.asarray(data, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise DataError(f"expected a 2-d observation matrix, got ndim={values.ndim}")
    _check_finite(values)
    return values


def detrend(data, mode: DetrendMode | str) -> DetrendedSeries:
    """Remove a constant and optionally a linear trend by per-column OLS.

    The regression uses the time index t = 1..T, so ``mu0`` is the intercept
    at t = 0 (not the column mean) when a trend is included.

    Parameters
    ----------
    data : TimeSeriesData or array_like, shape (T, K)
    mode : DetrendMode
        ``none`` is the identity map; ``constant`` removes per-column means;
        ``constant_and_trend`` removes an OLS line in t.

    Returns
    -------
    DetrendedSeries
    """
    values = _as_values(data)
    mode = DetrendMode(mode)
    n_obs, n_vars = values.shape
    if n_obs < 3:
        raise DataError(f"need at least 3 observations to detrend, got {n_obs}")
    tilde = values.copy()  # detrending runs in place; ``values`` is the caller's
    coef = _batch.detrend_batch(tilde[None], mode)
    mu0, mu1 = np.concatenate([coef[0], np.zeros((2 - coef.shape[1], n_vars))])
    return DetrendedSeries(tilde, mu0, mu1, mode)


def difference(data) -> np.ndarray:
    """First differences along time: row t equals x[t] - x[t-1]."""
    values = _as_values(data)
    if values.shape[0] < 2:
        raise DataError("need at least 2 observations to difference")
    return np.diff(values, axis=0)
