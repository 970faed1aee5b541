"""Reference implementations that the package no longer ships.

The package evaluates queries through compiled batch gathers, writes CSV
rows with one format per table, builds responses by doubling, builds each
sample's Gram matrix from the lag structure of the design without filling
it, sweeps that Gram matrix, fits a levels VAR as the sweep's full-rank fit
and builds bootstrap paths in place; these are the plain per-query,
per-cell, step-by-step, explicitly indexed, explicitly partialled,
least-squares, out-of-place and one-sample-at-a-time versions the tests
check it against.  It rebuilds shared-coefficient paths through the
buffer, and builds every bootstrap batch _CHUNK replications at a time,
keeping no paths; the zero-padded window rebuild and the whole-batch
builds (draw every replication in passes, rebuild, detrend, then sweep the
stack, keeping its paths) of level one, of FDBB's level two and of the
lag-augmented bootstrap are kept here too, the Hall step on a whole
centred copy of the statistics, and the residuals whose Gammas come from
the sweep rather than from the fit.
"""
from types import SimpleNamespace

import numpy as np

from wimpvar import ConfigError, IrfArray, IrfQuery, VarLevels, _batch, bootstrap, companion_matrix
from wimpvar.vecm import REDUCED_FORM, STRUCTURAL_CHOLESKY


def companion_roots(var: VarLevels) -> np.ndarray:
    """Moduli of the companion-matrix eigenvalues, sorted descending."""
    moduli = np.abs(np.linalg.eigvals(companion_matrix(var)))
    return np.sort(moduli)[::-1]


def irf_stepwise(mats: np.ndarray, h_max: int) -> np.ndarray:
    """Reduced-form responses (B, h_max+1, K, K) of a levels VAR stack by
    the step recursion Psi_0 = I, Psi_j = sum_{i=1..min(j,p)} A_i Psi_{j-i}."""
    n_batch, p, n_vars, _ = mats.shape
    psi = np.empty((n_batch, h_max + 1, n_vars, n_vars))
    psi[:, 0] = np.eye(n_vars)
    for j in range(1, h_max + 1):
        acc = mats[:, 0] @ psi[:, j - 1]
        for i in range(2, min(j, p) + 1):
            acc += mats[:, i - 1] @ psi[:, j - i]
        psi[:, j] = acc
    return psi


def irf_structural(irf: IrfArray, chol: np.ndarray) -> IrfArray:
    """Structural responses Phi_j = Psi_j P for a given impact factor P."""
    if irf.kind != REDUCED_FORM:
        raise ConfigError("structural responses are built from reduced-form ones")
    return IrfArray(irf.values @ chol, STRUCTURAL_CHOLESKY)


def evaluate_zeta(irf: IrfArray, query: IrfQuery) -> float:
    """Evaluate one impulse-response functional on an IRF stack."""
    if query.kind != irf.kind:
        raise ConfigError(
            f"query kind {query.kind!r} does not match responses of kind {irf.kind!r}"
        )
    n_vars = irf.n_vars
    if query.a > n_vars or query.b > n_vars:
        raise ConfigError(
            f"indices (a={query.a}, b={query.b}) out of range for K={n_vars}"
        )
    if query.needed_horizon > irf.h_max:
        raise ConfigError(
            f"query needs horizon {query.needed_horizon} but responses stop at {irf.h_max}"
        )
    series = irf.values[:, query.a - 1, query.b - 1]
    if query.functional == "element":
        return float(series[query.horizon])
    return float(series[: query.h_max + 1].max())


def format_cell(value) -> str:
    """One CSV cell: a string as it is, an integer in decimal, any other
    number with 17 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def regressor_blocks(tilde: np.ndarray, p: int, paper_convention: bool = False):
    """The (Z0, Z1, Z2) regression blocks of a (B, T, K) stack, indexed
    time by time.

    Row s of every block is calendar time t = first + s (0-based), with
    first = p, or p + 1 under the alternative sample convention.  Z0 holds
    the differences y_t - y_{t-1}, Z1 the lagged levels y_{t-1} and Z2 the
    lagged differences y_{t-i} - y_{t-i-1}, i = 1..p-1, side by side.
    """
    n_batch, n_obs, n_vars = tilde.shape
    rows = range(p + (1 if paper_convention else 0), n_obs)
    z0 = np.array([[y[t] - y[t - 1] for t in rows] for y in tilde])
    z1 = np.array([[y[t - 1] for t in rows] for y in tilde])
    z2 = np.array(
        [[[y[t - i] - y[t - i - 1] for i in range(1, p)] for t in rows] for y in tilde]
    ).reshape(n_batch, len(rows), n_vars * (p - 1))
    return z0, z1, z2


def sweep_of(tilde: np.ndarray, p: int, paper_convention: bool = False):
    """The kernel sweep of a detrended (B, T, K) stack at lag order ``p``,
    from its Gram matrices over T - p rows, or T - p - 1 under the
    alternative convention; the package forms them in ``sweep_samples``."""
    t_eff = tilde.shape[1] - p - (1 if paper_convention else 0)
    return _batch.sweep_batch(_batch.gram_batch(tilde, p, t_eff), p, t_eff)


def residuals_from_sweep(tilde: np.ndarray, sweep, pi: np.ndarray) -> np.ndarray:
    """Error-correction residuals dy_t - Pi y_{t-1} - sum_i Gamma_i dy_{t-i}
    of a Pi stack, (B, T_eff, K), for the detrended (B, T, K) stack
    ``tilde`` that ``sweep`` was formed from, with the Gammas that the sweep
    gives that Pi, [Gamma_1 ... Gamma_{p-1}]' = P20 - P21 Pi': the form the
    package used before ``residuals_batch`` read the Gammas of the fit.
    """
    n_batch, n_vars = pi.shape[:2]
    lagged = n_vars * (sweep.p - 1)
    pi_t = np.swapaxes(pi, 1, 2)
    coef = np.concatenate([sweep.P20 - sweep.P21 @ pi_t, pi_t], axis=1)
    resid = np.empty((n_batch, sweep.t_eff, n_vars))
    for lo, hi, v, lags in _batch._lag_blocks(tilde, sweep.p, sweep.t_eff):
        fit = np.matmul(np.swapaxes(v[:, :n_vars], 1, 2), coef[lo:hi, lagged:], out=resid[lo:hi])
        for lag in range(1, sweep.p):
            rows = coef[lo:hi, n_vars * (lag - 1) : n_vars * lag]
            fit += np.swapaxes(lags[lag], 1, 2) @ rows
        np.subtract(np.swapaxes(lags[0], 1, 2), fit, out=fit)
    return resid


def sweep_partialled(z0: np.ndarray, z1: np.ndarray, z2: np.ndarray, p: int):
    """The reduced-rank sweep by explicit partialling: R0 and R1 are the
    residuals of Z0 and Z1 on Z2, and the moments are their products.  The
    eigenproblem is solved by the package's own step, ``_batch._canonical``.

    Returns a namespace with the fields of ``_batch.BatchSweep`` that the
    moments determine, plus S11, R0 and R1.
    """
    n_batch, t_eff, n_vars = z0.shape
    reason = np.zeros(n_batch, dtype=np.int64)
    finite = (
        np.isfinite(z0).all(axis=(1, 2))
        & np.isfinite(z1).all(axis=(1, 2))
        & np.isfinite(z2).all(axis=(1, 2))
    )
    _batch._flag(reason, finite, _batch.NONFINITE)
    # A non-finite sample is swept as zeros, as the package sweeps it.
    z0, z1, z2 = (np.where(finite[:, None, None], z, 0.0) for z in (z0, z1, z2))
    if z2.shape[2]:
        a22 = np.swapaxes(z2, 1, 2) @ z2
        _, good = _batch.cholesky_batch(a22)
        _batch._flag(reason, good, _batch.SINGULAR_Z2)
        a22[reason != 0] = np.eye(a22.shape[-1])
        p20 = np.linalg.solve(a22, np.swapaxes(z2, 1, 2) @ z0)
        p21 = np.linalg.solve(a22, np.swapaxes(z2, 1, 2) @ z1)
        r0 = z0 - z2 @ p20
        r1 = z1 - z2 @ p21
    else:
        p20 = np.empty((n_batch, 0, n_vars))
        p21 = np.empty((n_batch, 0, n_vars))
        r0, r1 = z0, z1
    s00 = np.swapaxes(r0, 1, 2) @ r0 / t_eff
    s01 = np.swapaxes(r0, 1, 2) @ r1 / t_eff
    s11 = np.swapaxes(r1, 1, 2) @ r1 / t_eff
    lam, vectors, ln_det = _batch._canonical(s00, s01, s11, reason)
    return SimpleNamespace(
        eigenvalues=lam, vectors=vectors, S00=s00, S01=s01, S11=s11, R0=r0, R1=r1,
        P20=p20, P21=p21, ln_det_s00=ln_det, p=p, t_eff=t_eff, reason=reason,
    )


def rebuild_levels(mats: np.ndarray, errors: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Paths of ``_batch.rebuild_levels_batch`` in a new (B, m + n, K) array,
    from innovations (B, n, K) and initial rows, shared (m, K) or per sample
    (B, m, K); the caller's arrays are left as they are."""
    n_batch, n_steps, n_vars = errors.shape
    n_init = init.shape[-2]
    paths = np.empty((n_batch, n_init + n_steps, n_vars))
    paths[:, :n_init], paths[:, n_init:] = init, errors
    return _batch.rebuild_levels_batch(mats, paths, n_init)


def rebuild_levels_stepwise(mats: np.ndarray, errors: np.ndarray, init: np.ndarray) -> np.ndarray:
    """The paths of :func:`rebuild_levels` by the explicit recursion y_t =
    e_t + sum_{i=1..p} A_i y_{t-i}, one sample, one step and one lag at a
    time; ``mats`` is shared (p, K, K) or per sample (B, p, K, K), ``init``
    shared (m, K) or per sample (B, m, K)."""
    n_batch, n_steps, n_vars = errors.shape
    mats = np.broadcast_to(mats, (n_batch,) + mats.shape[-3:])
    init = np.broadcast_to(init, (n_batch,) + init.shape[-2:])
    n_init = init.shape[1]
    paths = np.empty((n_batch, n_init + n_steps, n_vars))
    for b in range(n_batch):
        paths[b, :n_init] = init[b]
        for t in range(n_init, n_init + n_steps):
            level = errors[b, t - n_init].copy()
            for lag in range(1, mats.shape[1] + 1):
                level += mats[b, lag - 1] @ paths[b, t - lag]
            paths[b, t] = level
    return paths


def levels_ols(y: np.ndarray, p: int, first: int | None = None):
    """Levels VAR(p) without deterministic terms by least squares on one
    (T, K) sample: y_t on y_{t-1}, ..., y_{t-p} over the rows t = first..T-1
    (0-based), first = p unless given.

    Returns (mats (p, K, K) with mats[i] = A_{i+1}, residuals (T - first, K),
    residuals' residuals / (T - first)).
    """
    n_obs, n_vars = y.shape
    rows = np.arange(p if first is None else first, n_obs)
    design = np.hstack([y[rows - lag] for lag in range(1, p + 1)])
    coef, *_ = np.linalg.lstsq(design, y[rows], rcond=None)
    resid = y[rows] - design @ coef
    mats = coef.T.reshape(n_vars, p, n_vars).transpose(1, 0, 2)
    return mats, resid, resid.T @ resid / len(rows)


def rebuild_levels_window(mats: np.ndarray, errors: np.ndarray, n_init: int) -> np.ndarray:
    """``_batch.rebuild_levels_batch`` under shared ``mats`` (p, K, K), in
    place, with every product read from a zero-padded window: each _BLOCK
    steps the whole batch's lagged levels and innovations are copied into
    one (n_chunks _CHUNK, (p + _BLOCK) K) array, multiplied by the block
    map chunk by chunk, and the levels copied back."""
    n_batch, n_obs, n_vars = errors.shape
    p = mats.shape[0]
    step_map = _batch._step_map(mats)
    n_chunks = -(-n_batch // _batch._CHUNK)
    window = np.zeros((n_chunks * _batch._CHUNK, (p + _batch._BLOCK) * n_vars))
    for t in range(n_init, n_obs, _batch._BLOCK):
        steps = min(_batch._BLOCK, n_obs - t)
        cols = (p + steps) * n_vars
        window[:n_batch, :cols] = errors[:, t - p : t + steps].reshape(n_batch, cols)
        chunks = window[:, :cols].reshape(n_chunks, _batch._CHUNK, cols)
        levels = chunks @ step_map[:cols, : steps * n_vars]
        errors[:, t : t + steps] = levels.reshape(-1, steps, n_vars)[:n_batch]
    return errors


_PASS_INDICES = 32768  # residual indices drawn per pass; bounds the index buffer


def draw_errors_in_passes(resid, cfg, level: int, code: int, init, paths: np.ndarray) -> None:
    """Innovations of every replication of a build drawn into ``paths``
    (n_boot, m + n_draw, K) behind the initial rows ``init``, in passes of
    ``_PASS_INDICES // n_draw`` replications, each pass one call of the
    build's stream for its (rows, n_draw) indices.  ``resid`` is (1, n, K),
    one pool for every replication, or (n_boot, n, K), one pool each."""
    n_pools, n_pool, n_vars = resid.shape
    n_init, n_draw = len(init), paths.shape[1] - len(init)
    pool = np.concatenate([
        (resid - bootstrap._pool_means(resid)).reshape(-1, n_vars), init,
    ])
    stream = bootstrap._stream(cfg.seed, level, code)
    step = max(1, _PASS_INDICES // max(n_draw, 1))
    for start in range(0, cfg.n_boot, step):
        stop = min(start + step, cfg.n_boot)
        rows = np.empty((stop - start, n_init + n_draw), dtype=np.int64)
        rows[:, :n_init] = np.arange(len(pool) - n_init, len(pool))
        rows[:, n_init:] = bootstrap._draw_index_matrix(stream, stop - start, n_pool, n_draw)
        if n_pools > 1:
            rows[:, n_init:] += np.arange(start * n_pool, stop * n_pool, n_pool)[:, None]
        paths[start:stop] = pool[rows]


def _swept(paths: np.ndarray, prep, spoil=()):
    """The sweep at the sample's p and convention of rebuilt ``paths``: rows
    ``spoil`` get an infinite last row first, then every non-finite path is
    zeroed and flagged and the stack detrended in place."""
    for row in spoil:
        paths[row, -1] = np.inf
    finite = np.isfinite(paths).all(axis=(1, 2))
    paths[~finite] = 0.0
    _batch.detrend_batch(paths, prep.mode)
    sweep = sweep_of(paths, prep.p, prep.cfg.paper_sample_convention)
    sweep.reason[~finite] |= _batch.NONFINITE
    return sweep


def level1_whole(preps, dgp_rank: int, spoil=()):
    """The level-1 sweeps of ``preps`` at ``dgp_rank``, each sample's batch
    built whole: all its replications drawn in passes
    (:func:`draw_errors_in_passes`) and rebuilt in one window rebuild
    (:func:`rebuild_levels_window`); then the group's stack is detrended,
    each non-finite path zeroed first and flagged, and swept as one.  Row g
    of the stack, for g in ``spoil``, gets an infinite last row after the
    rebuild.  Returns one (detrended paths, sweep) pair per sample: the
    paths are kept."""
    first = preps[0]
    n_boot, n_init = first.cfg.n_boot, first.p + 1
    paths = np.empty((len(preps) * n_boot, first.n_obs, first.n_vars))
    for i, prep in enumerate(preps):
        mats, resid = bootstrap._dgp(prep, dgp_rank)
        part = paths[i * n_boot : (i + 1) * n_boot]
        draw_errors_in_passes(resid, prep.cfg, 1, dgp_rank, prep.raw[:n_init], part)
        rebuild_levels_window(mats, part, n_init)
    sweep = _swept(paths, first, spoil)
    rows = [slice(i * n_boot, (i + 1) * n_boot) for i in range(len(preps))]
    return [(paths[part], sweep.take(part)) for part in rows]


def fdbb_whole(prep, selector, level1, spoil=()):
    """FDBB's (interval set or the error it raises, level-two sweep), built
    whole from ``level1``, the sample's (kept paths, sweep) at its DGP rank
    (:func:`level1_whole`).

    Level two takes every replication's residuals at its selected rank from
    the kept paths, draws all of level two in passes on the stream (seed, 2,
    selector code) from those n_boot pools, rebuilds the whole batch under
    the per-replication fits, and sweeps it (:func:`_swept`, with
    ``spoil``).
    """
    cfg, n_init = prep.cfg, prep.p + 1
    tilde, level1 = level1
    ranks = _batch.select_batch(level1, selector)
    values, ok1, (pi, gammas) = bootstrap._zeta_at_rank(level1, ranks, prep.cq)
    paths = np.empty((cfg.n_boot, prep.n_obs, prep.n_vars))
    code = bootstrap._SELECTOR_CODES[selector.method]
    resid = residuals_from_sweep(tilde, level1, pi)
    draw_errors_in_passes(resid, cfg, 2, code, prep.raw[:n_init], paths)
    _batch.rebuild_levels_batch(_batch.var_matrices_batch(pi, gammas), paths, n_init)
    sweep = _swept(paths, prep, spoil)
    values2, ok2, _ = bootstrap._zeta_at_rank(sweep, _batch.select_batch(sweep, selector), prep.cq)
    result = bootstrap._attempt(
        bootstrap._finalize, prep, f"fdbb_{selector.label}", prep.select_rank(selector), values2,
        ok1 & ok2, None, "the double bootstrap", centre=values, ranks=ranks,
    )
    return result, sweep


def lavar_whole(prep, level1):
    """The lag-augmented bootstrap's (interval set or the error it raises,
    bootstrap sweep) from ``level1``, the sample's rank-K (kept paths,
    level-1 sweep) (:func:`level1_whole`): one VAR(p+1) sweep of the kept
    paths, which keeps the batch's non-finite flags.  (None, None) when the
    observed sample's VAR(p+1) sweep fails."""
    n_vars, p = prep.n_vars, prep.p
    tilde, level1 = level1
    observed = sweep_of(prep.tilde, p + 1)
    (points,), (ok_point,), _ = bootstrap._zeta_at_rank(observed, n_vars, prep.cq, p)
    if observed.reason[0] or not ok_point:
        return None, None  # the observed sample is refused
    sweep = sweep_of(tilde, p + 1)
    sweep.reason |= level1.reason & _batch.NONFINITE
    values, ok, _ = bootstrap._zeta_at_rank(sweep, n_vars, prep.cq, p)
    result = bootstrap._attempt(
        bootstrap._finalize, prep, "lavar", None, values, ok, points, "the lag-augmented bootstrap"
    )
    return result, sweep


def hall_bounds_centred(stats, points, gamma):
    """Hall bounds [points - q(1 - gamma/2), points - q(gamma/2)] per column
    of (B, Q) statistics, with q the order statistics ceil((B+1) g),
    clamped to 1..B, of the centred copy ``stats - points``, sorted whole:
    the finisher's form for a fixed centre before it shifted its two order
    statistics instead."""
    centred = np.subtract(stats, points, order="F")
    centred.sort(axis=0)
    n = len(centred)
    q_lo, q_hi = (
        centred[min(max(int(np.ceil((n + 1) * g)), 1), n) - 1] for g in (gamma / 2, 1 - gamma / 2)
    )
    return points - q_hi, points - q_lo
