"""Estimation kernels over stacks of samples: the one implementation.

Every estimator step (detrending, the reduced-rank sweep, rank fits and
residuals, VAR conversion, impulse responses, trace statistics, rank
selection, weights and the Hall order statistic) works on a stack of B
samples.  The lag alignment of the regression has one implementation, the
block fill that the Gram matrices and the residuals read; the sweep reads
Gram matrices alone and holds moments only.  The unrestricted levels
VAR(p) is the sweep's fit at rank K, not a regression of its own.  The
bootstrap runs whole batches of replications through them; the
single-sample functions of :mod:`wimpvar.timeseries`, :mod:`wimpvar.vecm`,
:mod:`wimpvar.ranks` and :mod:`wimpvar.bootstrap` are B=1 calls that
validate their input and turn a failure into a typed error.
Samples that fail numerically are flagged in a per-sample ``reason``
bitmask instead of raising, so one bad sample cannot abort a batch.  One
factor, :func:`cholesky_batch`, decides whether a moment matrix is positive
definite, by a test that does not depend on units; its inverse,
:func:`tril_inverse_batch`, turns every solve on it into a stacked product.

Shapes use B for the batch axis, T for time, K for variables.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

# Squared canonical correlations above this bound indicate a (numerically)
# perfect fit and break the log-likelihood identities.
_EIG_CEIL = 1.0 - 1e-12
_EIG_FLOOR = -1e-10

# Sweep failure reasons, one bit each, in the order the sweep meets them.
NONFINITE = 1  # non-finite sample or regressors, or a canonical matrix that overflows
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


# Samples per block fill of the sweep and the residuals, and rows per matrix
# product of the shared-coefficient recursion.  Either way every BLAS call
# has a shape fixed by the problem, not by the batch, so a sample's result
# does not depend on the batch around it.
_CHUNK = 64


def detrend_batch(y: np.ndarray, mode: str) -> np.ndarray:
    """Per-sample OLS detrending of a (B, T, K) stack, in place.

    ``mode`` is a detrend mode value (``none``, ``constant`` or
    ``constant_and_trend``); the regressors are 1 and t = 1..T.  ``y`` is
    overwritten by the residuals; returns the coefficients (B, d, K) with d
    the number of deterministic terms, 0 for ``none``.  The fit is formed
    _CHUNK samples at a time in one reused buffer, so no second (B, T, K)
    array is made.
    """
    n_batch, n_obs, n_vars = y.shape
    if mode == "none":
        return np.zeros((n_batch, 0, n_vars))
    design, proj = _trend_design(n_obs, mode != "constant")
    coef = proj @ y  # broadcasts to (B, d, K)
    fit = np.empty((min(n_batch, _CHUNK), n_obs, n_vars))
    for lo in range(0, n_batch, _CHUNK):
        hi = min(lo + _CHUNK, n_batch)
        np.subtract(y[lo:hi], np.matmul(design, coef[lo:hi], out=fit[: hi - lo]), out=y[lo:hi])
    return coef


@lru_cache(maxsize=8)
def _trend_design(n_obs: int, trend: bool):
    """The deterministic regressors (T, d), 1 and with ``trend`` also t =
    1..T, and their least-squares projection (d, T), read-only; formed once
    per (T, trend), as a chunked build detrends many stacks alike."""
    if trend:
        design = np.column_stack([np.ones(n_obs), np.arange(1.0, n_obs + 1.0)])
    else:
        design = np.ones((n_obs, 1))
    proj = np.linalg.solve(design.T @ design, design.T)
    design.flags.writeable = proj.flags.writeable = False
    return design, proj


def _lag_blocks(tilde: np.ndarray, p: int, t_eff: int):
    """Yield (lo, hi, v, lags) for samples lo:hi of a (B, T, K) stack,
    _CHUNK samples at a time, as views of one reused buffer.

    Each chunk fills one (m, 2K, T_eff + p) buffer: rows :K get the levels
    y_s of the last T_eff + p times, one transposing copy, and rows K: their
    differences dy_s = y_s - y_{s-1}, one contiguous subtraction that leaves
    the last column unused.  Over the last T_eff times t, ``v`` (m, 2K,
    T_eff) is the view [y_{t-1}; dy_t] and ``lags[i]`` (m, K, T_eff) is the
    view dy_{t-i}, i = 0..p-1, the difference rows shifted by i.  No other
    copy is made.
    """
    n_batch, n_obs, n_vars = tilde.shape
    buf = np.empty((min(n_batch, _CHUNK), 2 * n_vars, t_eff + p))
    for lo in range(0, n_batch, _CHUNK):
        hi = min(lo + _CHUNK, n_batch)
        block = buf[: hi - lo]
        levels = block[:, :n_vars]
        levels[...] = np.swapaxes(tilde[lo:hi, n_obs - t_eff - p :], 1, 2)
        np.subtract(levels[:, :, 1:], levels[:, :, :-1], out=block[:, n_vars:, :-1])
        v = block[:, :, p - 1 : p - 1 + t_eff]
        yield lo, hi, v, [block[:, n_vars:, p - 1 - lag : p - 1 - lag + t_eff] for lag in range(p)]


def gram_batch(tilde: np.ndarray, p: int, t_eff: int, out: np.ndarray | None = None) -> np.ndarray:
    """Gram matrices G = X X' (B, K(p+1), K(p+1)) of the variable-major
    regression design X = [Z2 | Z1 | Z0]' of the last T_eff times t of a
    (B, T, K) stack, whose rows are [dy_{t-1} ... dy_{t-p+1} | y_{t-1} | dy_t],
    written into ``out`` when given.

    X is never filled; the products read the views of :func:`_lag_blocks`.
    Three kinds of block:
    - V V' with V = [y_{t-1}; dy_t]: the product V y_{t-1}' and the i = 0
      product below, with the y_{t-1} dy_t' block mirrored from dy_t
      y_{t-1}'.  numpy hands a product of one buffer with its own
      transpose, such as V V', to BLAS SYRK, which at these shapes is about
      twice as slow as GEMM; no product here is of that form;
    - sum_t dy_{t-i} V_t', i = 0..p-1, one product each on a shifted view
      of the differences;
    - sum_t dy_{t-i} dy_{t-j}', 1 <= i <= j < p, the same sum at lags
      (i-1, j-1) over a window one step later: it adds dy_{t0-i} dy_{t0-j}'
      at the first time t0 and drops dy_{T-i} dy_{T-j}' at T.  Its rounding
      error is relative to the largest of those terms, not to the block.
    """
    n_batch, _, n_vars = tilde.shape
    lagged = n_vars * (p - 1)
    width = lagged + 2 * n_vars
    levels, diffs = slice(lagged, lagged + n_vars), slice(lagged + n_vars, width)
    gram = np.empty((n_batch, width, width)) if out is None else out
    # Gram rows of dy_{t-i}, i = 0..p-1
    at = [diffs] + [slice(n_vars * i, n_vars * (i + 1)) for i in range(p - 1)]
    for lo, hi, v, lags in _lag_blocks(tilde, p, t_eff):
        g = gram[lo:hi]
        v_t = np.swapaxes(v, 1, 2)
        np.matmul(v, v_t[:, :, :n_vars], out=g[:, lagged:, levels])
        for lag in range(p):
            np.matmul(lags[lag], v_t, out=g[:, at[lag], lagged:])
        g[:, levels, diffs] = np.swapaxes(g[:, diffs, levels], 1, 2)
        g[:, lagged:, :lagged] = np.swapaxes(g[:, :lagged, lagged:], 1, 2)
        for i in range(1, p):
            for j in range(i, p):
                block = g[:, at[i - 1], at[j - 1]] + lags[i][:, :, :1] * lags[j][:, None, :, 0]
                block -= lags[i - 1][:, :, -1:] * lags[j - 1][:, None, :, -1]
                g[:, at[i], at[j]] = block
                g[:, at[j], at[i]] = np.swapaxes(block, 1, 2)
    return gram


_PIVOT_FLOOR = 1e-12


def cholesky_batch(mats: np.ndarray):
    """Lower Cholesky factors of a (B, n, n) stack; returns (factors, ok).

    Reads the lower triangle column by column and never raises.  A sample
    fails, and gets the identity, when it is not finite or a pivot is not
    above _PIVOT_FLOOR times its diagonal entry.  That share is 1 - R^2 of
    the column on the earlier ones, which no rescaling of a variable moves.
    """
    n = mats.shape[-1]
    ok = np.isfinite(mats).all(axis=(1, 2))
    mats = np.where(ok[:, None, None], mats, 0.0)
    factor = np.zeros_like(mats)
    for j in range(n):
        # column j of A minus the part the earlier columns explain, rows j..n-1
        col = mats[:, j:, j] - (factor[:, j:, :j] @ factor[:, j, :j, None])[:, :, 0]
        ok &= col[:, 0] > _PIVOT_FLOOR * mats[:, j, j]
        root = np.sqrt(np.where(ok, col[:, 0], 1.0))
        factor[:, j, j] = root
        factor[:, j + 1 :, j] = np.where(ok[:, None], col[:, 1:] / root[:, None], 0.0)
    factor[~ok] = np.eye(n)
    return factor, ok


def tril_inverse_batch(factor: np.ndarray) -> np.ndarray:
    """Inverses of a (B, n, n) stack of lower-triangular factors with a
    nonzero diagonal, such as :func:`cholesky_batch` gives, built row by
    row: row i of X = L^{-1} is (e_i - L[i, :i] X[:i]) / L[i, i].  An
    identity factor gets the identity exactly.
    """
    n = factor.shape[-1]
    inv = np.zeros_like(factor)
    for i in range(n):
        row = -(factor[:, i : i + 1, :i] @ inv[:, :i, : i + 1])[:, 0]
        row[:, i] += 1.0
        inv[:, i, : i + 1] = row / factor[:, i, i, None]
    return inv


@dataclass
class BatchSweep:
    """Rank-generic reduced-rank regression moments for a batch of samples;
    a caller that needs the samples themselves passes them beside it."""

    eigenvalues: np.ndarray  # (B, K) descending, clipped to [0, 1)
    vectors: np.ndarray  # (B, K, K), columns normalized V' S11 V = I, signs arbitrary
    S00: np.ndarray  # (B, K, K)
    S01: np.ndarray  # (B, K, K)
    P20: np.ndarray  # (B, K(p-1), K) (Z2'Z2)^{-1} Z2'Z0
    P21: np.ndarray  # (B, K(p-1), K) (Z2'Z2)^{-1} Z2'Z1
    ln_det_s00: np.ndarray  # (B,)
    p: int
    t_eff: int  # rows of the effective sample, which fixes the sample convention
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


def sweep_batch(gram: np.ndarray, p: int, t_eff: int) -> BatchSweep:
    """Batched reduced-rank regression sweep with per-sample failure bits.

    Every moment comes from one Gram matrix per sample, ``gram`` (B, K(p+1),
    K(p+1)), G = X X' of the variable-major design X = [Z2 | Z1 | Z0]' over
    the last ``t_eff`` times (see :func:`gram_batch`); the sweep overwrites
    it.  The caller fixes T_eff, and with it the sample convention.
    The Schur complement of G22 gives the moments of Z0 and Z1 with Z2
    partialled out, S_ij = (G_ij - G_i2 G22^{-1} G_2j) / T_eff (Johansen
    1995, ch. 6): with G22 = L L' (its test sets SINGULAR_Z2) and H = L^{-1}
    [G21 G20], that is H'H, and [P21 P20] = L^{-T} H, two stacked products
    by the one inverse L^{-1}; H'H takes a copy of H as its right operand,
    so numpy runs it as GEMM, not SYRK.  The generalized eigenproblem ``lam
    * S11 v = S10 S00^{-1} S01 v`` is then solved as in :func:`_canonical`,
    whose vectors have arbitrary column signs.  One sweep serves every rank.
    """
    n_batch, n_vars = len(gram), gram.shape[-1] // (p + 1)
    reason = np.zeros(n_batch, dtype=np.int64)
    finite = np.isfinite(np.diagonal(gram, axis1=1, axis2=2)).all(axis=1)
    _flag(reason, finite, NONFINITE)
    # A non-finite sample is swept as an all-zero one: it fails every moment
    # check instead of aborting the batch in the eigensolver.
    gram[~finite] = 0.0

    lagged = n_vars * (p - 1)
    cross, moments = gram[:, :lagged, lagged:], gram[:, lagged:, lagged:]
    if lagged:
        chol, good = cholesky_batch(gram[:, :lagged, :lagged])
        _flag(reason, good, SINGULAR_Z2)
        inv = tril_inverse_batch(chol)
        half = inv @ cross  # L^{-1} [G21 G20], G22 = L L'
        # H'H with a copy of H on the right: GEMM, not SYRK (see _canonical)
        moments = moments - np.swapaxes(half, 1, 2) @ half.copy()
        coef = np.swapaxes(inv, 1, 2) @ half  # [P21 P20]
    else:
        coef = cross.copy()  # empty, and unlike the view it does not keep ``gram`` alive
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
        p=p,
        t_eff=t_eff,
        reason=reason,
    )


def _canonical(s00: np.ndarray, s01: np.ndarray, s11: np.ndarray, reason: np.ndarray):
    """Eigenvalues (B, K), vectors (B, K, K) and ln det S00 (B,) of the
    reduced-rank problem ``lam * S11 v = S10 S00^{-1} S01 v``, adding failure
    bits to ``reason`` in place.

    One :func:`cholesky_batch` and one :func:`tril_inverse_batch` of the
    (2B, K, K) stack [S11; S00] give S11 = L11 L11' and S00 = L00 L00' and
    their inverses; the two halves of the factor's ``ok`` set SINGULAR_S11
    and SINGULAR_S00.  Both kernels treat each matrix alone, so the stack
    changes no bit.  M = Q'Q with Q = L00^{-1} S01 L11^{-T} is symmetric
    with the same eigenvalues, the vectors are L11^{-T} times M's, and
    ln det S00 = 2 sum ln diag L00.  Every step is a stacked product; Q'Q
    has a copy of Q as its right operand, so numpy sends it to GEMM, not to
    the slower SYRK, with the same bits at these shapes.

    The vectors' column signs are whatever the eigensolver gives: every
    product inside the package reads them through alpha beta' or alpha
    alpha', in which a column's sign cancels exactly.
    :func:`~wimpvar.vecm.fit_vecm` fixes the signs a user sees.
    """
    n_batch = s00.shape[0]
    chol, good = cholesky_batch(np.concatenate([s11, s00]))
    _flag(reason, good[:n_batch], SINGULAR_S11)
    _flag(reason, good[n_batch:], SINGULAR_S00)
    inv = tril_inverse_batch(chol)
    inv11_t = np.swapaxes(inv[:n_batch], 1, 2)  # L11^{-T}
    q = inv[n_batch:] @ s01 @ inv11_t
    m = np.swapaxes(q, 1, 2) @ q.copy()
    # A finite but explosive sample can overflow M: flagged and solved as
    # zeros, so it cannot stop the eigensolver for the whole batch.
    finite = np.isfinite(m).all(axis=(1, 2))
    _flag(reason, finite, NONFINITE)
    m[~finite] = 0.0
    lam, w = np.linalg.eigh(m)
    lam = lam[:, ::-1]
    w = w[:, :, ::-1]

    finite = np.isfinite(lam).all(axis=1)
    _flag(reason, ~finite | (lam[:, 0] < _EIG_CEIL), EIG_CEIL)
    _flag(reason, finite & (lam[:, -1] > _EIG_FLOOR), EIG_FLOOR)
    lam = np.clip(lam, 0.0, _EIG_CEIL)

    vectors = inv11_t @ w
    ln_det = 2.0 * np.log(np.diagonal(chol[n_batch:], axis1=1, axis2=2)).sum(axis=1)
    return lam, vectors, ln_det


def loadings_batch(sweep: BatchSweep, rank: int):
    """(alpha (B, K, r), beta (B, K, r)) for one imposed rank r, with the
    sweep's arbitrary column signs."""
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


def residuals_batch(
    tilde: np.ndarray, pi: np.ndarray, gammas: np.ndarray, t_eff: int
) -> np.ndarray:
    """Error-correction residuals dy_t - Pi y_{t-1} - sum_i Gamma_i dy_{t-i}
    of a fit (Pi (B, K, K), Gammas (B, p-1, K, K), as :func:`rank_fit_batch`
    gives them) over the last ``t_eff`` times of the detrended (B, T, K)
    stack ``tilde``, (B, T_eff, K).

    Read from the blocks of :func:`_lag_blocks` of ``tilde``: one product
    for the lagged level and one per lagged difference.
    """
    n_batch, n_vars = pi.shape[:2]
    p = gammas.shape[1] + 1
    lagged = n_vars * (p - 1)
    pi_t = np.swapaxes(pi, 1, 2)
    # [Gamma_1 ... Gamma_{p-1} | Pi]' stacked, (B, Kp, K)
    coef = np.concatenate([np.swapaxes(gammas, 2, 3).reshape(n_batch, lagged, n_vars), pi_t], 1)
    resid = np.empty((n_batch, t_eff, n_vars))
    for lo, hi, v, lags in _lag_blocks(tilde, p, t_eff):
        fit = np.matmul(np.swapaxes(v[:, :n_vars], 1, 2), coef[lo:hi, lagged:], out=resid[lo:hi])
        for lag in range(1, p):
            rows = coef[lo:hi, n_vars * (lag - 1) : n_vars * lag]
            fit += np.swapaxes(lags[lag], 1, 2) @ rows
        np.subtract(np.swapaxes(lags[0], 1, 2), fit, out=fit)
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
    hold innovations on entry and levels on exit; ``mats`` is (B, p, K, K).

    The recursion runs batch-last: ``out`` is copied once into a time-major
    (T K, B) array and back at the end.  Each step contracts [A_p ... A_1],
    laid side by side in a (K, pK, B) copy, against the window y_{t-p..t-1},
    a contiguous (pK, B) view, with one einsum into a (K, B) buffer, then
    adds it to the innovation.  The einsum's inner loop runs along the
    batch, so each sample's sum is a plain multiply-then-add over its pK
    terms in order, whatever batch it is in.  A lone sample would take
    einsum's other loop, a reduction that rounds otherwise, so it runs as
    the first of a pair.
    """
    n_batch, p, n_vars, _ = mats.shape
    if n_batch == 1:
        pair = np.concatenate([out, out])
        _step_levels(pair, np.concatenate([mats, mats]), start)
        out[...] = pair[:1]
        return
    lags = p * n_vars
    wide = np.ascontiguousarray(mats[:, ::-1].transpose(2, 1, 3, 0)).reshape(n_vars, lags, n_batch)
    flat = out.reshape(n_batch, -1)  # a view: both callers own a C-contiguous ``out``
    levels = np.ascontiguousarray(flat.T)
    step = np.empty((n_vars, n_batch))
    for t in range(start * n_vars, len(levels), n_vars):
        np.einsum("ijb,jb->ib", wide, levels[t - lags : t], out=step)
        row = levels[t : t + n_vars]
        row += step
    flat[...] = levels.T


def _step_map(mats: np.ndarray) -> np.ndarray:
    """The ((p + L) K, L K) map from [p lagged levels, next L innovations] to
    the next L levels, L = _BLOCK, for shared ``mats`` (p, K, K): the
    per-step recursion run on the identity basis.  Read-only, and formed
    once for the same matrices (:func:`_step_map_of`), as a chunked build
    rebuilds many stacks under them."""
    mats = np.ascontiguousarray(mats, dtype=float)
    return _step_map_of(mats.tobytes(), mats.shape)


@lru_cache(maxsize=8)
def _step_map_of(data: bytes, shape: tuple) -> np.ndarray:
    mats = np.frombuffer(data).reshape(shape)
    p, n_vars = shape[0], shape[1]
    width = (p + _BLOCK) * n_vars
    basis = np.eye(width).reshape(width, p + _BLOCK, n_vars)
    _step_levels(basis, np.broadcast_to(mats, (width,) + mats.shape), p)
    step_map = basis[:, p:].reshape(width, _BLOCK * n_vars)
    step_map.flags.writeable = False
    return step_map


def rebuild_levels_batch(mats: np.ndarray, errors: np.ndarray, n_init: int) -> np.ndarray:
    """Recursive levels-VAR resampling paths, built in place.

    Parameters
    ----------
    mats : (p, K, K) shared or (B, p, K, K) per-sample levels VAR matrices,
        e.g. ``var_matrices_batch(pi, gammas)`` of an error-correction fit.
    errors : (B, m + n, K) C-contiguous path buffer, named for what it holds
        on entry: the initial rows in rows :m and the innovations of the n
        steps after them in rows m:.
    n_init : the number m >= p of initial rows.

    Returns
    -------
    ``errors`` itself, each innovation row overwritten by its level; the
    initial rows are left as they are.  Shared coefficients advance _BLOCK
    steps per matrix product, by a map that :func:`_step_levels` builds;
    per-sample coefficients run :func:`_step_levels` itself, one einsum of
    all p lags per step across the whole batch.  Either way a path's bytes
    do not depend on the batch around it.
    """
    n_batch, n_obs, n_vars = errors.shape
    if not errors.flags.c_contiguous:
        raise ValueError("the path buffer must be C-contiguous: it is written through a flat view")
    paths = errors
    if mats.ndim == 4:
        _step_levels(paths, mats, n_init)
        return paths
    p = mats.shape[0]
    step_map = _step_map(mats)
    # Each product multiplies a stack of (_CHUNK, (p + steps) K) matrices by
    # the map.  The whole chunks are read in place, as a strided view of the
    # buffer; the tail, fewer than _CHUNK paths, is copied into a zero-padded
    # window first.
    full, tail = divmod(n_batch, _CHUNK)
    chunks = paths[: full * _CHUNK].reshape(full, _CHUNK, n_obs * n_vars)
    rest = paths[full * _CHUNK :].reshape(tail, n_obs * n_vars)
    window = np.zeros((1, _CHUNK, (p + _BLOCK) * n_vars)) if tail else None
    for t in range(n_init, n_obs, _BLOCK):
        steps = min(_BLOCK, n_obs - t)
        cols = (p + steps) * n_vars
        lags = slice((t - p) * n_vars, (t + steps) * n_vars)
        new = slice(t * n_vars, lags.stop)
        step = step_map[:cols, : steps * n_vars]
        if full:
            chunks[:, :, new] = chunks[:, :, lags] @ step
        if tail:
            window[0, :tail, :cols] = rest[:, lags]
            rest[:, new] = (window[:, :, :cols] @ step)[0, :tail]
    return paths


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
