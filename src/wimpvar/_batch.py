"""Estimation kernels over stacks of samples: the one implementation.

Every estimator step (detrending, the reduced-rank sweep, rank fits and
residuals, VAR conversion, impulse responses, trace statistics, rank
selection, weights and the Hall order statistic) works on a stack of B
samples.  The lag alignment of the regression has one implementation, the
design fill that the sweep and the residuals read.  The bootstrap runs
whole batches of replications through them; the single-sample functions
of :mod:`wimpvar.timeseries`, :mod:`wimpvar.vecm`, :mod:`wimpvar.ranks` and
:mod:`wimpvar.bootstrap` are B=1 calls that validate their input and turn
a failure into a typed error.
Samples that fail numerically are flagged in a per-sample ``reason``
bitmask instead of raising, so one bad sample cannot abort a batch.

Shapes use B for the batch axis, T for time, K for variables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Squared canonical correlations above this bound indicate a (numerically)
# perfect fit and break the log-likelihood identities.
_EIG_CEIL = 1.0 - 1e-12
_EIG_FLOOR = -1e-10

# Sweep failure reasons, one bit each, in the order the sweep meets them.
NONFINITE = 1  # non-finite sample or regressors
SINGULAR_Z2 = 2  # lagged-difference moment matrix Z2'Z2 not positive definite
SINGULAR_S11 = 4
SINGULAR_S00 = 8
EIG_CEIL = 16  # largest squared canonical correlation at or above 1
EIG_FLOOR = 32  # an eigenvalue below the numerical floor, or not finite

# Asymptotic quantiles of the trace statistic for a system estimated without
# deterministic terms, dimensions 1..12, from the standard published
# response-surface tables (not derived in this project).  Columns are the
# 90%, 95% and 99% quantiles.
TRACE_CRIT_LEVELS = (0.10, 0.05, 0.01)
TRACE_CRIT_VALUES = np.array(
    [
        [2.9762, 4.1296, 6.9406],
        [10.4741, 12.3212, 16.3640],
        [21.7781, 24.2761, 29.5147],
        [37.0339, 40.1749, 46.5716],
        [56.2839, 60.0627, 67.6367],
        [79.5329, 83.9383, 92.7136],
        [106.7351, 111.7797, 121.7375],
        [137.9954, 143.6691, 154.7977],
        [173.2292, 179.5199, 191.8122],
        [212.4721, 219.4051, 232.8291],
        [255.6732, 263.2603, 277.9962],
        [302.9054, 311.1288, 326.9716],
    ]
)


def trace_critical_value(dim: int, level: float) -> float:
    """Critical value for a `dim`-dimensional trace test at `level`."""
    if not 1 <= dim <= TRACE_CRIT_VALUES.shape[0]:
        raise ConfigError(
            f"no trace critical values for dimension {dim}; use an information criterion"
        )
    for idx, lvl in enumerate(TRACE_CRIT_LEVELS):
        if abs(level - lvl) < 1e-9:
            return float(TRACE_CRIT_VALUES[dim - 1, idx])
    raise ConfigError(f"level must be one of {TRACE_CRIT_LEVELS}, got {level}")


def detrend_batch(y: np.ndarray, mode: str):
    """Per-sample OLS detrending of a (B, T, K) stack.

    ``mode`` is a detrend mode value (``none``, ``constant`` or
    ``constant_and_trend``); the regressors are 1 and t = 1..T.  Returns
    (detrended stack, coefficients (B, d, K)) with d the number of
    deterministic terms, 0 for ``none``.
    """
    n_batch, n_obs, n_vars = y.shape
    if mode == "none":
        return y, np.zeros((n_batch, 0, n_vars))
    t = np.arange(1.0, n_obs + 1.0)
    if mode == "constant":
        design = np.ones((n_obs, 1))
    else:
        design = np.column_stack([np.ones(n_obs), t])
    proj = np.linalg.solve(design.T @ design, design.T)  # (d, T)
    coef = proj @ y  # broadcasts to (B, d, K)
    tilde = design @ coef
    return np.subtract(y, tilde, out=tilde), coef


# Samples per design chunk of the sweep and rows per matrix product of the
# shared-coefficient recursion.  Either way every BLAS call has a shape fixed
# by the problem, not by the batch, so a sample's result does not depend on
# the batch around it.
_CHUNK = 64


def _fill_design(out: np.ndarray, tilde: np.ndarray) -> None:
    """Variable-major regression design of a (m, T, K) stack into ``out``,
    (m, K(p+1), T_eff).

    Column s explains the last T_eff times, t = T - T_eff + s (0-based), and
    holds, top to bottom, [dy_{t-1} ... dy_{t-p+1} | y_{t-1} | dy_t] with
    dy_t = y_t - y_{t-1}: the lagged differences (Z2), the lagged level (Z1)
    and the difference (Z0).
    """
    n_obs, n_vars = tilde.shape[1:]
    p = out.shape[1] // n_vars - 1
    start = n_obs - 1 - out.shape[2]
    levels = np.swapaxes(tilde, 1, 2)
    for lag in range(p):
        row = n_vars * (lag - 1 if lag else p)
        np.subtract(
            levels[:, :, start + 1 - lag : n_obs - lag],
            levels[:, :, start - lag : n_obs - 1 - lag],
            out=out[:, row : row + n_vars],
        )
    out[:, n_vars * (p - 1) : n_vars * p] = levels[:, :, start : n_obs - 1]


def _design_shape(tilde: np.ndarray, p: int, paper_convention: bool):
    """(K(p+1), T_eff): the minimal sample drops p presample rows, the
    alternative convention one more."""
    n_obs, n_vars = tilde.shape[1:]
    return n_vars * (p + 1), n_obs - p - (1 if paper_convention else 0)


def _design_chunks(tilde: np.ndarray, p: int, paper_convention: bool):
    """Yield (lo, hi, design): the design of samples lo:hi of a (B, T, K)
    stack, _CHUNK samples at a time, filled into one reused buffer."""
    n_batch = tilde.shape[0]
    buf = np.empty((min(n_batch, _CHUNK),) + _design_shape(tilde, p, paper_convention))
    for lo in range(0, n_batch, _CHUNK):
        hi = min(lo + _CHUNK, n_batch)
        _fill_design(buf[: hi - lo], tilde[lo:hi])
        yield lo, hi, buf[: hi - lo]


def _spd_mask(mats: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """True where a stack of symmetric matrices is safely positive definite.

    Non-finite matrices are marked False without being fed to the
    eigensolver, so one bad sample cannot abort the whole batch.
    """
    finite = np.isfinite(mats).all(axis=(-2, -1))
    safe = np.where(finite[..., None, None], mats, 0.0)
    ev = np.linalg.eigvalsh((safe + np.swapaxes(safe, -1, -2)) / 2.0)
    scale = np.maximum(ev[..., -1], np.finfo(float).tiny)
    return finite & (ev[..., 0] > floor * scale)


def _masked(mats: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Replace failed samples with the identity so batched solves never raise."""
    if ok.all():
        return mats
    out = mats.copy()
    out[~ok] = np.eye(mats.shape[-1])
    return out


@dataclass
class BatchSweep:
    """Rank-generic reduced-rank regression pieces for a batch of samples."""

    eigenvalues: np.ndarray  # (B, K) descending, clipped to [0, 1)
    vectors: np.ndarray  # (B, K, K), columns normalized V' S11 V = I
    S00: np.ndarray  # (B, K, K)
    S01: np.ndarray  # (B, K, K)
    P20: np.ndarray  # (B, K(p-1), K) (Z2'Z2)^{-1} Z2'Z0
    P21: np.ndarray  # (B, K(p-1), K) (Z2'Z2)^{-1} Z2'Z1
    ln_det_s00: np.ndarray  # (B,)
    tilde: np.ndarray  # (B, T, K) the detrended stack swept, not a copy
    p: int
    paper_convention: bool  # the sample convention of the design
    t_eff: int
    reason: np.ndarray  # (B,) failure bits, 0 for a usable sample

    @property
    def n_vars(self) -> int:
        return self.S00.shape[-1]

    @property
    def ok(self) -> np.ndarray:
        """Usable samples, (B,) bool; a new array on each access."""
        return self.reason == 0

    def take(self, mask: np.ndarray) -> BatchSweep:
        """The samples selected by ``mask`` (a boolean or index array)."""
        return BatchSweep(
            **{
                name: value[mask] if isinstance(value, np.ndarray) else value
                for name, value in vars(self).items()
            }
        )


def _flag(reason: np.ndarray, good: np.ndarray, bit: int) -> None:
    reason[~good] |= bit


def sweep_batch(tilde: np.ndarray, p: int, paper_convention: bool = False) -> BatchSweep:
    """Batched reduced-rank regression sweep with per-sample failure bits.

    Every moment comes from one Gram matrix per sample, G = X X' of the
    variable-major design X = [Z2 | Z1 | Z0]' (see :func:`_fill_design`),
    filled _CHUNK samples at a time.  The Schur complement of G22 gives the
    moments of Z0 and Z1 with Z2 partialled out, S_ij = (G_ij - G_i2
    G22^{-1} G_2j) / T_eff (Johansen 1995, ch. 6), and one solve gives
    [P21 P20] = G22^{-1} [G21 G20].  The generalized eigenproblem ``lam *
    S11 v = S10 S00^{-1} S01 v`` is then solved as in :func:`_canonical`.
    One sweep serves every rank.
    """
    n_batch, _, n_vars = tilde.shape
    width, t_eff = _design_shape(tilde, p, paper_convention)
    gram = np.empty((n_batch, width, width))
    for lo, hi, design in _design_chunks(tilde, p, paper_convention):
        np.matmul(design, np.swapaxes(design, 1, 2), out=gram[lo:hi])
    reason = np.zeros(n_batch, dtype=np.int64)
    finite = np.isfinite(np.diagonal(gram, axis1=1, axis2=2)).all(axis=1)
    _flag(reason, finite, NONFINITE)
    # A non-finite sample is swept as an all-zero one: it fails every moment
    # check instead of aborting the batch in the eigensolver.
    gram[~finite] = 0.0

    lagged = width - 2 * n_vars
    cross, moments = gram[:, :lagged, lagged:], gram[:, lagged:, lagged:]
    if lagged:
        g22 = gram[:, :lagged, :lagged]
        _flag(reason, _spd_mask(g22), SINGULAR_Z2)
        coef = np.linalg.solve(_masked(g22, reason == 0), cross)  # [P21 P20]
        moments = moments - np.swapaxes(cross, 1, 2) @ coef
    else:
        coef = cross
    # [[S11 S10], [S01 S00]], made exactly symmetric
    s = (moments + np.swapaxes(moments, 1, 2)) / (2.0 * t_eff)
    s11, s01, s00 = s[:, :n_vars, :n_vars], s[:, n_vars:, :n_vars], s[:, n_vars:, n_vars:]
    lam, vectors, ln_det = _canonical(s00, s01, s11, reason)
    return BatchSweep(
        eigenvalues=lam,
        vectors=vectors,
        S00=s00,
        S01=s01,
        P20=coef[:, :, n_vars:],
        P21=coef[:, :, :n_vars],
        ln_det_s00=ln_det,
        tilde=tilde,
        p=p,
        paper_convention=paper_convention,
        t_eff=t_eff,
        reason=reason,
    )


def _canonical(s00: np.ndarray, s01: np.ndarray, s11: np.ndarray, reason: np.ndarray):
    """Eigenvalues (B, K), vectors (B, K, K) and ln det S00 (B,) of the
    reduced-rank problem ``lam * S11 v = S10 S00^{-1} S01 v``, adding failure
    bits to ``reason`` in place.

    A Cholesky factor of S11 reduces it to an ordinary symmetric problem.
    """
    _flag(reason, _spd_mask(s11), SINGULAR_S11)
    _flag(reason, _spd_mask(s00), SINGULAR_S00)
    ok = reason == 0
    chol = np.linalg.cholesky(_masked(s11, ok))
    # Whiten: M = C^{-1} S10 S00^{-1} S01 C^{-T} is symmetric PSD with the
    # same eigenvalues as the generalized problem.
    x = np.linalg.solve(_masked(s00, ok), s01)
    inner = np.swapaxes(s01, 1, 2) @ x
    m = np.linalg.solve(chol, np.swapaxes(np.linalg.solve(chol, inner), 1, 2))
    m = np.swapaxes(m, 1, 2)
    m = (m + np.swapaxes(m, 1, 2)) / 2.0
    lam, w = np.linalg.eigh(m)
    lam = lam[:, ::-1]
    w = w[:, :, ::-1]

    finite = np.isfinite(lam).all(axis=1)
    _flag(reason, ~finite | (lam[:, 0] < _EIG_CEIL), EIG_CEIL)
    _flag(reason, finite & (lam[:, -1] > _EIG_FLOOR), EIG_FLOOR)
    lam = np.clip(lam, 0.0, _EIG_CEIL)

    vectors = np.linalg.solve(np.swapaxes(chol, 1, 2), w)
    # Sign convention, deterministic across platforms: the first coordinate
    # of each column exceeding the tolerance is made positive.
    scale = np.abs(vectors).max(axis=1, keepdims=True)
    big = np.abs(vectors) > 1e-12 * np.maximum(scale, np.finfo(float).tiny)
    first = np.argmax(big, axis=1)  # (B, K) column-wise first index
    lead = np.take_along_axis(vectors, first[:, None, :], axis=1)[:, 0, :]
    signs = np.where(lead < 0, -1.0, 1.0)
    vectors = vectors * signs[:, None, :]

    sign, ln_det = np.linalg.slogdet(s00)
    _flag(reason, (sign > 0) & np.isfinite(ln_det), SINGULAR_S00)
    return lam, vectors, ln_det


def loadings_batch(sweep: BatchSweep, rank: int):
    """(alpha (B, K, r), beta (B, K, r)) for one imposed rank r."""
    beta = sweep.vectors[:, :, :rank]
    return sweep.S01 @ beta, beta


def rank_fit_batch(sweep: BatchSweep, rank: int):
    """Pi and Gamma stacks for one imposed rank.

    Returns (Pi (B, K, K), Gammas (B, p-1, K, K)).  Rank 0 gives Pi = 0 and
    regresses the differences on the lagged differences alone.
    """
    n_batch, n_vars = sweep.eigenvalues.shape
    alpha, beta = loadings_batch(sweep, rank)
    pi = alpha @ np.swapaxes(beta, 1, 2)
    stack = sweep.P20 - sweep.P21 @ np.swapaxes(pi, 1, 2)  # (B, K(p-1), K)
    gammas = np.swapaxes(stack.reshape(n_batch, sweep.p - 1, n_vars, n_vars), 2, 3)
    return pi, gammas


def residuals_batch(sweep: BatchSweep, pi: np.ndarray) -> np.ndarray:
    """Error-correction residuals dy_t - Pi y_{t-1} - sum_i Gamma_i dy_{t-i}
    implied by a Pi stack, (B, T_eff, K), with the Gammas of that Pi.

    Built from the swept stack's design chunks, one product per sample.
    """
    n_batch, n_vars = pi.shape[:2]
    width = n_vars * sweep.p
    pi_t = np.swapaxes(pi, 1, 2)
    # [Gamma_1 ... Gamma_{p-1} | Pi]' stacked, (B, Kp, K), as in rank_fit_batch
    coef = np.concatenate([sweep.P20 - sweep.P21 @ pi_t, pi_t], axis=1)
    resid = np.empty((n_batch, sweep.t_eff, n_vars))
    for lo, hi, design in _design_chunks(sweep.tilde, sweep.p, sweep.paper_convention):
        blocks = np.swapaxes(design, 1, 2)  # (m, T_eff, K(p+1)), [Z2 Z1 Z0]
        fit = np.matmul(blocks[:, :, :width], coef[lo:hi], out=resid[lo:hi])
        np.subtract(blocks[:, :, width:], fit, out=fit)
    return resid


def sigma_batch(sweep: BatchSweep, rank: int) -> np.ndarray:
    """Residual covariance S00 - alpha alpha' for one imposed rank.

    Equals residuals' residuals / T_eff in exact arithmetic.
    """
    alpha, _ = loadings_batch(sweep, rank)
    return sweep.S00 - alpha @ np.swapaxes(alpha, 1, 2)


def var_matrices_batch(pi: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Levels VAR matrices (B, p, K, K) from error-correction parameters."""
    n_batch, n_vars = pi.shape[0], pi.shape[1]
    p = gammas.shape[1] + 1
    eye = np.eye(n_vars)
    mats = np.empty((n_batch, p, n_vars, n_vars))
    if p == 1:
        mats[:, 0] = eye + pi
        return mats
    mats[:, 0] = eye + pi + gammas[:, 0]
    for j in range(1, p - 1):
        mats[:, j] = gammas[:, j] - gammas[:, j - 1]
    mats[:, p - 1] = -gammas[:, p - 2]
    return mats


def companion_batch(mats: np.ndarray) -> np.ndarray:
    """Companion stack (B, Kp, Kp) of levels VAR stacks (B, p, K, K): the
    first K rows hold [A_1 ... A_p], the rows below shift the lags down."""
    n_batch, p, n_vars, _ = mats.shape
    width = p * n_vars
    comp = np.zeros((n_batch, width, width))
    comp[:, :n_vars] = mats.transpose(0, 2, 1, 3).reshape(n_batch, n_vars, width)
    comp[:, n_vars:, : width - n_vars] = np.eye(width - n_vars)
    return comp


def irf_batch(mats: np.ndarray, h_max: int) -> np.ndarray:
    """Reduced-form responses (B, h_max+1, K, K) of a levels VAR stack.

    Psi_h = J C^h J' with C the companion matrix and J = [I_K 0].  The rows
    R_h = J C^h are filled by doubling: R[n:n+m] = R[:m] C^n, one batched
    product into R's own rows, then C^n is squared; ceil(log2(h_max+1))
    products in all.  The result is R's first K columns, R itself when
    p = 1 and else a compact copy, so the p times wider R is freed here.
    """
    n_batch, p, n_vars, _ = mats.shape
    width = p * n_vars
    power = companion_batch(mats)
    rows = np.empty((n_batch, h_max + 1, n_vars, width))
    rows[:, 0] = np.eye(n_vars, width)
    flat = rows.reshape(n_batch, (h_max + 1) * n_vars, width)
    done = 1
    while done <= h_max:
        m = min(done, h_max + 1 - done)
        np.matmul(flat[:, : m * n_vars], power, out=flat[:, done * n_vars : (done + m) * n_vars])
        done += m
        if done <= h_max:
            power = power @ power
    return np.ascontiguousarray(rows[..., :n_vars])


# Steps per block of the shared-coefficient recursion.  Every product has
# the same (_CHUNK, (p + _BLOCK) K) shape, so BLAS rounds each row the same
# way whatever the batch around it.
_BLOCK = 8


def _step_levels(out: np.ndarray, mats: np.ndarray, start: int) -> None:
    """Per-step levels recursion in place: rows ``start:`` of ``out`` (B, T, K)
    hold innovations on entry and levels on exit; ``mats`` is (B, p, K, K)."""
    for t in range(start, out.shape[1]):
        for lag in range(1, mats.shape[1] + 1):
            out[:, t] += np.einsum("bij,bj->bi", mats[:, lag - 1], out[:, t - lag])


def _step_map(mats: np.ndarray) -> np.ndarray:
    """The ((p + L) K, L K) map from [p lagged levels, next L innovations] to
    the next L levels, L = _BLOCK, for shared ``mats`` (p, K, K): the
    per-step recursion run on the identity basis."""
    p, n_vars = mats.shape[0], mats.shape[1]
    width = (p + _BLOCK) * n_vars
    basis = np.eye(width).reshape(width, p + _BLOCK, n_vars)
    _step_levels(basis, np.broadcast_to(mats, (width,) + mats.shape), p)
    return basis[:, p:].reshape(width, _BLOCK * n_vars)


def rebuild_levels_batch(mats: np.ndarray, errors: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Recursive levels-VAR resampling paths.

    Parameters
    ----------
    mats : (p, K, K) shared or (B, p, K, K) per-sample levels VAR matrices,
        e.g. ``var_matrices_batch(pi, gammas)`` of an error-correction fit.
    errors : (B, n, K) innovations for the steps after the initial rows.
    init : (m, K) shared initial rows, or (B, m, K) per-sample rows, m >= p.

    Returns
    -------
    (B, m + n, K).  Shared coefficients advance _BLOCK steps per matrix
    product; per-sample coefficients advance one step at a time.
    """
    n_batch, n_steps, n_vars = errors.shape
    n_init = init.shape[-2]
    # einsum's rounding depends on the operand layout: a contiguous copy
    # gives the same paths whatever layout the matrices arrive in.
    mats = np.ascontiguousarray(mats)
    out = np.empty((n_batch, n_init + n_steps, n_vars))
    out[:, :n_init] = init
    out[:, n_init:] = errors
    if mats.ndim == 4:
        _step_levels(out, mats, n_init)
        return out
    p = mats.shape[0]
    step_map = _step_map(mats)
    n_chunks = -(-n_batch // _CHUNK)
    window = np.zeros((n_chunks * _CHUNK, (p + _BLOCK) * n_vars))
    for t in range(n_init, n_init + n_steps, _BLOCK):
        steps = min(_BLOCK, n_init + n_steps - t)
        cols = (p + steps) * n_vars
        window[:n_batch, :cols] = out[:, t - p : t + steps].reshape(n_batch, cols)
        chunks = window[:, :cols].reshape(n_chunks, _CHUNK, cols)
        levels = chunks @ step_map[:cols, : steps * n_vars]
        out[:, t : t + steps] = levels.reshape(-1, steps, n_vars)[:n_batch]
    return out


def ols_var_levels_batch(y: np.ndarray, p: int):
    """Levels VAR(p) OLS without deterministics on a (B, T, K) stack.

    Returns (mats (B, p, K, K), residuals (B, T-p, K), ok (B,)).
    """
    n_batch, n_obs, n_vars = y.shape
    target = y[:, p:]
    design = np.concatenate([y[:, p - lag : n_obs - lag] for lag in range(1, p + 1)], axis=2)
    gram = np.swapaxes(design, 1, 2) @ design
    ok = np.isfinite(y).all(axis=(1, 2)) & _spd_mask(gram)
    coef = np.linalg.solve(_masked(gram, ok), np.swapaxes(design, 1, 2) @ target)
    resid = target - design @ coef
    mats = np.swapaxes(coef.reshape(n_batch, p, n_vars, n_vars), 2, 3)
    return mats, resid, ok


def cholesky_batch(sigmas: np.ndarray):
    """Lower Cholesky factors of a (B, K, K) stack; returns (factors, ok).

    A matrix that is not safely positive definite is flagged and factored
    as the identity instead.
    """
    ok = _spd_mask(sigmas)
    return np.linalg.cholesky(_masked(sigmas, ok)), ok


def trace_stats_batch(eigenvalues: np.ndarray, t_eff: int) -> np.ndarray:
    """Trace statistics J[r] = -T * sum_{i>r} ln(1 - lam_i), r = 0..K, (B, K+1).

    J[K] = 0 exactly (empty sum).
    """
    terms = np.log1p(-eigenvalues)
    tails = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    stats = -t_eff * np.concatenate([tails, np.zeros((eigenvalues.shape[0], 1))], axis=1)
    return stats + 0.0  # normalize -0.0 so J[K] is exactly zero


def ic_param_count(rank, n_vars: int, p: int):
    """Free short/long-run parameters that vary with the rank restriction."""
    return 2 * n_vars * rank - rank * rank + n_vars * n_vars * (p - 1)


def ic_values_batch(
    eigenvalues: np.ndarray, ln_det_s00: np.ndarray, t_eff: int, p: int, criterion: str
) -> np.ndarray:
    """Information-criterion values for ranks 0..K per sample, (B, K+1).

    Uses the determinant identity ln det Sigma(r) = ln det S00 +
    sum_{i<=r} ln(1 - lam_i), so no per-rank refitting is needed.
    """
    if criterion == "aic":
        c_t = 2.0
    elif criterion == "bic":
        c_t = float(np.log(t_eff))
    else:
        raise ConfigError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    n_batch, n_vars = eigenvalues.shape
    cum = np.concatenate(
        [np.zeros((n_batch, 1)), np.cumsum(np.log1p(-eigenvalues), axis=1)], axis=1
    )
    penalty = c_t * ic_param_count(np.arange(n_vars + 1), n_vars, p) / t_eff
    return ln_det_s00[:, None] + cum + penalty[None, :]


def seq_select_batch(sweep: BatchSweep, level: float) -> np.ndarray:
    """Smallest rank whose trace statistic fails to reject, K if all reject, (B,)."""
    n_vars = sweep.n_vars
    stats = trace_stats_batch(sweep.eigenvalues, sweep.t_eff)
    crit = np.array([trace_critical_value(n_vars - r, level) for r in range(n_vars)])
    below = stats[:, :n_vars] < crit[None, :]
    any_below = below.any(axis=1)
    first = np.argmax(below, axis=1)
    return np.where(any_below, first, n_vars)


def select_batch(sweep: BatchSweep, selector) -> np.ndarray:
    """The rank a :class:`~wimpvar.ranks.RankSelector` picks per sample, (B,).

    Information criteria break ties toward the smaller rank.
    """
    if selector.method in ("aic", "bic"):
        values = ic_values_batch(
            sweep.eigenvalues, sweep.ln_det_s00, sweep.t_eff, sweep.p, selector.method
        )
        return np.argmin(values, axis=1)
    if selector.method == "sequential_trace":
        return seq_select_batch(sweep, selector.level)
    return np.full(sweep.eigenvalues.shape[0], selector.rank, dtype=int)


def weights_batch(trace_stats: np.ndarray, t_eff: int, c1: float, c2: float):
    """Plausibility weights per sample; returns (raw, normalized), each (B, K+1).

    With a = c1 * T_eff**(-c2): raw[0] = exp(-a J[0]) and raw[r] =
    exp(-a J[r]) - exp(-a J[r-1]), which telescopes to a unit sum.
    """
    shrink = c1 * float(t_eff) ** (-c2)
    survivals = np.exp(-shrink * trace_stats)
    raw = np.empty_like(survivals)
    raw[:, 0] = survivals[:, 0]
    raw[:, 1:] = survivals[:, 1:] - survivals[:, :-1]
    raw = np.maximum(raw, 0.0)
    return raw, raw / raw.sum(axis=1, keepdims=True)


def hall_quantiles(stats: np.ndarray, points) -> list:
    """Order statistics ceil((n+1) g), clamped to 1..n, along axis 0.

    One (n, ...) stack of bootstrap statistics in, one array of shape
    ``stats.shape[1:]`` out per quantile point g.  The stack is sorted in
    place: pass a temporary, or a copy.
    """
    n = stats.shape[0]
    stats.sort(axis=0)
    return [stats[min(max(int(np.ceil((n + 1) * g)), 1), n) - 1] for g in points]
