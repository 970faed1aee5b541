"""Reduced-rank VECM estimation, VAR conversion and impulse responses.

The estimator follows the classical reduced-rank regression recipe: partial
the lagged differences out of the differenced and lagged-level blocks, form
the moment matrices of the partialled residuals and solve the resulting
generalized symmetric eigenvalue problem by Cholesky whitening.  One
decomposition serves every rank, so fitting all K+1 ranks on the same data
is essentially free after the first fit.

The arithmetic lives in :mod:`wimpvar._batch`; the functions here run one
sample through it as a batch of one and raise typed errors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batch
from .errors import ConfigError, DataError, EstimationError, check_integer
from .timeseries import DetrendedSeries, DetrendMode, VecmRegressors, build_vecm_regressors, detrend

__all__ = [
    "VecmFit",
    "VarLevels",
    "IrfArray",
    "IrfQuery",
    "observed_sweep",
    "johansen_fit_from",
    "johansen_fit",
    "fit_vecm",
    "trace_statistics",
    "trace_stats_from_eigenvalues",
    "vecm_to_var",
    "var_to_vecm",
    "companion_matrix",
    "irf_reduced",
    "cholesky_factor",
]

REDUCED_FORM = "reduced_form"
STRUCTURAL_CHOLESKY = "structural_cholesky"


@dataclass(frozen=True)
class VecmFit:
    """Rank-r error-correction fit.

    ``Pi = alpha @ beta.T`` has rank at most ``rank``; ``eigenvalues`` holds
    all K squared canonical correlations (identical across requested ranks
    on the same data) in descending order.
    """

    rank: int
    alpha: np.ndarray
    beta: np.ndarray
    Pi: np.ndarray
    Gammas: tuple
    Sigma_u: np.ndarray
    residuals: np.ndarray
    eigenvalues: np.ndarray
    p: int
    t_eff: int

    @property
    def n_vars(self) -> int:
        return self.Pi.shape[0]


@dataclass(frozen=True)
class VarLevels:
    """Levels VAR(p) coefficient matrices A1..Ap."""

    A: tuple

    @property
    def p(self) -> int:
        return len(self.A)

    @property
    def n_vars(self) -> int:
        return self.A[0].shape[0]


@dataclass(frozen=True)
class IrfArray:
    """Impulse responses for horizons 0..h_max as an (h_max+1, K, K) stack."""

    values: np.ndarray
    kind: str = REDUCED_FORM

    @property
    def h_max(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class IrfQuery:
    """One impulse-response object of interest.

    ``a`` is the responding variable and ``b`` the shock, both 1-based.
    ``functional="element"`` picks the response at ``horizon``;
    ``functional="max_over_horizons"`` takes the maximum over horizons
    0..h_max for the same (a, b) pair.
    """

    a: int
    b: int
    horizon: int = 0
    h_max: int = 0
    functional: str = "element"
    kind: str = REDUCED_FORM

    def __post_init__(self):
        for name in ("a", "b", "horizon", "h_max"):
            check_integer(name, getattr(self, name))
        if self.kind not in (REDUCED_FORM, STRUCTURAL_CHOLESKY):
            raise ConfigError(f"unknown impulse-response kind {self.kind!r}")
        if self.functional not in ("element", "max_over_horizons"):
            raise ConfigError(f"unknown functional {self.functional!r}")
        if self.a < 1 or self.b < 1:
            raise ConfigError("response and shock indices are 1-based and must be >= 1")
        if self.horizon < 0 or self.h_max < 0:
            raise ConfigError("horizons must be non-negative")

    @property
    def needed_horizon(self) -> int:
        return self.horizon if self.functional == "element" else self.h_max


# Sweep failure bit -> message, in the order the sweep meets them.
_SWEEP_ERRORS = (
    (_batch.NONFINITE, "non-finite regressors; clean the input before estimation"),
    (
        _batch.SINGULAR_Z2,
        "singular lagged-difference moment matrix; try a smaller lag order or more observations",
    ),
    (_batch.SINGULAR_S11, "singular S11 moment matrix; try a smaller lag order or more data"),
    (_batch.SINGULAR_S00, "singular S00 moment matrix; residual variance degenerate"),
    (
        _batch.EIG_CEIL,
        "largest squared canonical correlation is at or above 1; "
        "the regression fits (numerically) perfectly",
    ),
    (
        _batch.EIG_FLOOR,
        "an eigenvalue is below the numerical floor; moment matrices inconsistent",
    ),
)


def observed_sweep(reg: VecmRegressors) -> _batch.BatchSweep:
    """The reduced-rank sweep of one sample, as a batch of one.

    Raises
    ------
    EstimationError
        If a moment matrix is singular or an eigenvalue reaches 1.
    DataError
        If the sample is shorter than K*p + 10 observations.
    """
    n_vars, p = reg.n_vars, reg.p
    if reg.n_obs < n_vars * p + 10:
        raise DataError(
            f"need at least K*p + 10 = {n_vars * p + 10} observations, got {reg.n_obs}"
        )
    sweep = _batch.sweep_batch(reg.Z0[None], reg.Z1[None], reg.Z2[None], p)
    for bit, message in _SWEEP_ERRORS:
        if sweep.reason[0] & bit:
            raise EstimationError(message)
    return sweep


def johansen_fit_from(sweep: _batch.BatchSweep, rank: int) -> VecmFit:
    """Extract the rank-`rank` fit from the sweep of one sample (see :func:`observed_sweep`)."""
    if rank < 0 or rank > sweep.n_vars:
        raise ConfigError(f"rank must lie in 0..{sweep.n_vars}, got {rank}")
    alpha, beta = _batch.loadings_batch(sweep, rank)
    pi, gammas = _batch.rank_fit_batch(sweep, rank)
    return VecmFit(
        rank=rank,
        alpha=alpha[0],
        beta=beta[0],
        Pi=pi[0],
        Gammas=tuple(gammas[0]),
        Sigma_u=_batch.sigma_batch(sweep, rank)[0],
        residuals=_batch.residuals_batch(sweep, pi)[0],
        eigenvalues=sweep.eigenvalues[0],
        p=sweep.p,
        t_eff=sweep.t_eff,
    )


def johansen_fit(reg: VecmRegressors, rank: int) -> VecmFit:
    """Reduced-rank quasi-ML fit of the error-correction regression.

    Parameters
    ----------
    reg : VecmRegressors
        Aligned regressor blocks from :func:`build_vecm_regressors`.
    rank : int
        Imposed cointegration rank, 0..K.

    Returns
    -------
    VecmFit
        Rank K reproduces the unrestricted OLS fit; rank 0 sets Pi to zero
        and regresses the differences on the lagged differences alone.
    """
    return johansen_fit_from(observed_sweep(reg), rank)


def fit_vecm(
    data,
    p: int,
    rank: int,
    mode: DetrendMode | str = DetrendMode.NONE,
    paper_convention: bool = False,
) -> VecmFit:
    """Convenience wrapper: detrend, build regressors and fit at `rank`."""
    tilde = data if isinstance(data, DetrendedSeries) else detrend(data, mode)
    return johansen_fit(build_vecm_regressors(tilde, p, paper_convention), rank)


def trace_stats_from_eigenvalues(eigenvalues: np.ndarray, t_eff: int) -> np.ndarray:
    """Trace statistics J[r] = -T * sum_{i>r} ln(1 - lam_i), r = 0..K.

    The returned vector has K+1 elements with J[K] = 0 exactly (empty sum).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size and (lam.min() < 0 or lam.max() >= 1):
        raise ValueError("eigenvalues must lie in [0, 1)")
    return _batch.trace_stats_batch(lam[None], t_eff)[0]


def trace_statistics(fit: VecmFit) -> np.ndarray:
    """Trace statistics of a fit; see :func:`trace_stats_from_eigenvalues`."""
    return trace_stats_from_eigenvalues(fit.eigenvalues, fit.t_eff)


def vecm_to_var(fit) -> VarLevels:
    """Convert error-correction parameters to levels VAR matrices.

    A1 = I + Pi + Gamma_1, A_j = Gamma_j - Gamma_{j-1} for 1 < j < p,
    A_p = -Gamma_{p-1}; for p = 1 simply A1 = I + Pi.
    """
    pi = np.asarray(fit.Pi if hasattr(fit, "Pi") else fit[0], dtype=float)
    gammas = fit.Gammas if hasattr(fit, "Gammas") else tuple(fit[1])
    n_vars = pi.shape[0]
    stack = np.array(gammas, dtype=float).reshape(len(gammas), n_vars, n_vars)
    return VarLevels(tuple(_batch.var_matrices_batch(pi[None], stack[None])[0]))


def var_to_vecm(var: VarLevels):
    """Inverse of :func:`vecm_to_var`: returns (Pi, Gammas)."""
    mats = var.A
    p = len(mats)
    pi = sum(mats) - np.eye(var.n_vars)
    gammas = tuple(-sum(mats[i] for i in range(j, p)) for j in range(1, p))
    return pi, gammas


def companion_matrix(var: VarLevels) -> np.ndarray:
    """Kp x Kp companion form of the levels VAR."""
    n_vars, p = var.n_vars, var.p
    top = np.hstack(var.A)
    if p == 1:
        return top
    lower = np.hstack([np.eye(n_vars * (p - 1)), np.zeros((n_vars * (p - 1), n_vars))])
    return np.vstack([top, lower])


def irf_reduced(var: VarLevels, h_max: int) -> IrfArray:
    """Forecast-error impulse responses Psi_0..Psi_h of the levels VAR.

    Psi_0 = I and Psi_j = sum_{i=1..min(j,p)} A_i Psi_{j-i}.
    """
    if h_max < 0:
        raise ConfigError(f"h_max must be >= 0, got {h_max}")
    return IrfArray(_batch.irf_batch(np.stack(var.A)[None], h_max)[0], REDUCED_FORM)


def cholesky_factor(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular P with P P' = sigma and positive diagonal."""
    sigma = np.asarray(sigma, dtype=float)
    chol, ok = _batch.cholesky_batch(((sigma + sigma.T) / 2.0)[None])
    if not ok[0]:
        raise EstimationError("covariance matrix is not positive definite")
    return chol[0]
