"""Reduced-rank VECM estimation, VAR conversion and impulse responses.

The estimator follows the classical reduced-rank regression recipe: partial
the lagged differences out of the differenced and lagged-level blocks, form
the moment matrices of the partialled residuals and solve the resulting
generalized symmetric eigenvalue problem by Cholesky whitening.  One
decomposition serves every rank, so fitting all K+1 ranks on the same data
is essentially free after the first fit.

The arithmetic lives in :mod:`wimpvar._batch`; the functions here run one
sample through it as a batch of one and raise typed errors.
:func:`sweep_samples` is the one path from data to the sweeps of observed
samples, a stack of them at once, beside their detrended values;
:func:`observed_sweep` runs one sample through it and raises its failure.
The prepared samples of the bootstrap, the rank selectors and
:func:`fit_vecm` all start from them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batch
from .errors import ConfigError, DataError, EstimationError, check_integer
from .timeseries import DetrendedSeries, DetrendMode, TimeSeriesData, _as_values

__all__ = [
    "VecmFit",
    "VarLevels",
    "IrfArray",
    "IrfQuery",
    "observed_sweep",
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


# Bits whose moment matrix a constant or collinear column makes singular.
_COLUMN_BITS = _batch.SINGULAR_Z2 | _batch.SINGULAR_S11 | _batch.SINGULAR_S00


def _dependent_columns(block: np.ndarray) -> list:
    """Indices of the columns of a (n, K) block that are zero or, to the
    sweep's floor of 1e-12, a linear combination of earlier columns.

    The Gram matrix of the block is scaled to a unit diagonal, so the check
    does not depend on the units of the variables.
    """
    norms = np.linalg.norm(block, axis=0)
    # R'R is the unit-diagonal Gram matrix, so R_jj^2 is the pivot of column
    # j: its Schur complement given the earlier columns.
    r = np.linalg.qr(block / np.where(norms > 0, norms, 1.0), mode="r")
    return np.flatnonzero(np.diagonal(r) ** 2 <= _batch._PIVOT_FLOOR).tolist()


def _sweep_error(sweep: _batch.BatchSweep, tilde: np.ndarray, names) -> EstimationError:
    """The error for the first failure bit of a swept sample, a batch of one
    formed from the detrended (1, T, K) ``tilde``, naming the columns at
    fault when a moment matrix is singular because of them: in the
    detrended differences, and for S11 in the lagged levels too."""
    reason, tilde = int(sweep.reason[0]), tilde[0]
    bit, message = next((bit, message) for bit, message in _SWEEP_ERRORS if reason & bit)
    dependent = set()
    if bit & _COLUMN_BITS:
        dependent.update(_dependent_columns(np.diff(tilde, axis=0)))
    if bit == _batch.SINGULAR_S11:
        dependent.update(_dependent_columns(tilde[tilde.shape[0] - sweep.t_eff - 1 : -1]))
    if dependent:
        labels = ", ".join(names[j] if names else f"column {j + 1}" for j in sorted(dependent))
        verb = "is" if len(dependent) == 1 else "are each"
        message = (
            f"{message.split(';')[0]}; {labels} {verb} "
            "constant or a linear combination of earlier columns"
        )
    return EstimationError(message)


def _min_obs(n_vars: int, p: int) -> int:
    """K*p + 10, the fewest observations a VECM with ``p`` lags is fitted to."""
    return n_vars * p + 10


def _check_lag_order(p) -> None:
    """Refuse a lag order that is not an integer (ConfigError) or below 1 (DataError)."""
    check_integer("p", p)
    if p < 1:
        raise DataError(f"lag order must be >= 1, got {p}")


def observed_sweep(
    data, p: int, mode: DetrendMode | str = DetrendMode.NONE, paper_convention: bool = False
) -> _batch.BatchSweep:
    """The reduced-rank sweep of one sample, as a batch of one.

    Parameters
    ----------
    data : TimeSeriesData, DetrendedSeries or array_like, shape (T, K)
        Levels, detrended with ``mode`` first unless already a
        :class:`DetrendedSeries`.
    p : int
        VAR lag order in levels, >= 1.
    mode : DetrendMode
    paper_convention : bool
        When True, drop one more presample row, so the effective sample has
        T - p - 1 rows instead of T - p.

    Raises
    ------
    ConfigError
        If ``p`` is not an integer or ``mode`` is unknown.
    DataError
        If ``p`` < 1 or the sample is shorter than K*p + 10 observations.
    EstimationError
        If a moment matrix is singular or an eigenvalue reaches 1; a column
        that is constant or collinear with earlier ones is named.
    """
    return _observed(data, p, mode, paper_convention)[1]


def _observed(data, p: int, mode, paper_convention: bool):
    """(detrended (1, T, K) stack, sweep) of one sample, as :func:`observed_sweep`."""
    _check_lag_order(p)
    mode = DetrendMode(mode)
    values = _as_values(data)
    detrended = isinstance(data, DetrendedSeries)
    tilde, sweep = sweep_samples(
        values[None], p, DetrendMode.NONE if detrended else mode, paper_convention,
        data.retrend()[None] if detrended else None,
    )
    if sweep.reason[0]:
        names = data.names if isinstance(data, TimeSeriesData) else None
        raise _sweep_error(sweep, tilde, names)
    return tilde, sweep


def sweep_samples(
    values: np.ndarray,
    p: int,
    mode: DetrendMode | str = DetrendMode.NONE,
    paper_convention: bool = False,
    levels: np.ndarray | None = None,
):
    """(tilde, sweep): the detrended (n, T, K) copy of a stack of samples
    ``values`` and its reduced-rank sweeps, each one bitwise its
    :func:`observed_sweep`; a sample the sweep cannot finish is flagged in
    its reason bits, not raised (:func:`_sweep_error` names it).

    A copy of ``values`` is detrended with ``mode``.  A column that
    detrending leaves within 1e-10 of the magnitude of its ``levels``
    (``values`` by default; far above rounding, far below real variation)
    is constant and is swept as 0.  The sweep reads the Gram matrices over
    the effective sample.  Raises like :func:`observed_sweep` for a bad
    ``p`` or too few observations.
    """
    _check_lag_order(p)
    mode = DetrendMode(mode)
    n_obs, n_vars = values.shape[1:]
    need = _min_obs(n_vars, p)
    if n_obs < need:
        raise DataError(f"need at least K*p + 10 = {need} observations for p = {p}, got {n_obs}")
    # A copy: detrending runs in place, but ``values`` is the caller's own array.
    tilde = values.copy()
    _batch.detrend_batch(tilde, mode)
    levels = values if levels is None else levels
    constant = np.abs(tilde).max(axis=1) <= 1e-10 * np.abs(levels).max(axis=1)
    np.copyto(tilde, 0.0, where=constant[:, None, :])
    # The minimal sample drops p presample rows, the alternative convention one more.
    t_eff = n_obs - p - (1 if paper_convention else 0)
    # numpy's warnings about a sample the sweep cannot finish would only
    # repeat its reason bits.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return tilde, _batch.sweep_batch(_batch.gram_batch(tilde, p, t_eff), p, t_eff)


def _signed_columns(vectors: np.ndarray) -> np.ndarray:
    """(B, K, K) vectors with each column's first coordinate above 1e-12 of
    its largest magnitude made positive; the same on every platform."""
    scale = np.abs(vectors).max(axis=1, keepdims=True)
    big = np.abs(vectors) > 1e-12 * np.maximum(scale, np.finfo(float).tiny)
    first = np.argmax(big, axis=1)  # (B, K) column-wise first index
    lead = np.take_along_axis(vectors, first[:, None, :], axis=1)[:, 0, :]
    return vectors * np.where(lead < 0, -1.0, 1.0)[:, None, :]


def fit_vecm(
    data,
    p: int,
    rank: int,
    mode: DetrendMode | str = DetrendMode.NONE,
    paper_convention: bool = False,
) -> VecmFit:
    """Reduced-rank quasi-ML fit at ``rank`` from the :func:`observed_sweep`
    of ``data``; raises like it, and ConfigError unless ``rank`` is an
    integer in 0..K.

    Rank K reproduces the unrestricted OLS fit; rank 0 sets Pi to zero and
    regresses the differences on the lagged differences alone.

    This is where beta's sign convention is set, the one place alpha and
    beta reach a user: in each column, the first coordinate above 1e-12 of
    the column's largest magnitude is positive, so the fit does not depend
    on the signs the eigensolver gives.  Pi and everything else the package
    computes read the sweep's vectors through alpha beta' or alpha alpha',
    in which those signs cancel exactly.
    """
    tilde, sweep = _observed(data, p, mode, paper_convention)
    check_integer("rank", rank)
    if rank < 0 or rank > sweep.n_vars:
        raise ConfigError(f"rank must lie in 0..{sweep.n_vars}, got {rank}")
    beta = _signed_columns(sweep.vectors)[:, :, :rank]
    alpha = sweep.S01 @ beta
    pi, gammas = _batch.rank_fit_batch(sweep, rank)
    return VecmFit(
        rank=rank,
        alpha=alpha[0],
        beta=beta[0],
        Pi=pi[0],
        Gammas=tuple(gammas[0]),
        Sigma_u=_batch.sigma_batch(sweep, rank)[0],
        residuals=_batch.residuals_batch(tilde, pi, gammas, sweep.t_eff)[0],
        eigenvalues=sweep.eigenvalues[0],
        p=sweep.p,
        t_eff=sweep.t_eff,
    )


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
    return _batch.companion_batch(np.stack(var.A)[None])[0]


def irf_reduced(var: VarLevels, h_max: int) -> IrfArray:
    """Forecast-error impulse responses Psi_0..Psi_h of the levels VAR.

    Psi_0 = I and Psi_j = sum_{i=1..min(j,p)} A_i Psi_{j-i}, computed as
    Psi_h = J C^h J' with C = :func:`companion_matrix` and J = [I_K 0], by
    doubling the powers of C: ceil(log2(h_max+1)) matrix products, which
    equal the recursion up to rounding.
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
