"""Resampling-based confidence intervals for impulse-response functionals.

Implements the shared recursive-residual bootstrap and, on top of it, the
five interval constructions: fixed rank, endogenous rank re-selection,
model averaging, fast-double-bootstrap bagging and the lag-augmented
levels variant.  All of them share the Hall percentile machinery: with
q*(g) the g-quantile of the centered bootstrap statistics, the interval is
[point - q*(1 - gamma/2), point - q*(gamma/2)].

Randomness is counter-based: every bootstrap replication draws from a
stream keyed by (seed, level, DGP code, replication index), so results are
bit-identical regardless of scheduling or of which other methods run.

Every construction is a function of one prepared sample (``_prepare``,
exported as ``wimpvar.prepare``).  ``METHODS`` names every construction;
``run_methods`` runs a set of them on one prepared sample, building each
level-1 batch once.
"""
from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import _batch
from ._batch import cholesky_batch as _chol_batch  # its own layer in perfbench/tracing.py
from .errors import ConfigError, DataError, EstimationError, check_integer, check_weight_constants
from .ranks import RankSelector, plausibility_weights
from .timeseries import DetrendedSeries, DetrendMode, TimeSeriesData
from .vecm import IrfQuery, REDUCED_FORM, STRUCTURAL_CHOLESKY, observed_sweep
from .wimp import wimp_bounds

__all__ = [
    "BootstrapConfig",
    "IntervalSet",
    "hall_quantile",
    "fixed_rank_interval",
    "bers_interval",
    "ma_interval",
    "fdbb_interval",
    "lag_augmented_interval",
    "wimp_interval",
]

_LAVAR_CODE = 1001
_SELECTOR_CODES = {"aic": 1, "bic": 2, "sequential_trace": 3, "fixed": 4}


@dataclass(frozen=True)
class BootstrapConfig:
    """Replication count, nominal miscoverage and determinism settings."""

    n_boot: int = 399
    gamma: float = 0.05
    seed: int = 0
    detrend_bootstrap: bool = True
    max_failure_share: float = 0.05
    paper_sample_convention: bool = False

    def __post_init__(self):
        check_integer("n_boot", self.n_boot)
        check_integer("seed", self.seed)
        if self.n_boot < 39:
            raise ConfigError(f"need at least 39 bootstrap replications, got {self.n_boot}")
        if not 0 < self.gamma < 1:
            raise ConfigError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0 <= self.max_failure_share < 1:
            raise ConfigError(
                f"max_failure_share must lie in [0, 1), got {self.max_failure_share}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must be a non-negative 64-bit integer")


@dataclass
class IntervalSet:
    """Per-query interval estimates from one bootstrap run.

    ``lower``, ``upper`` and ``point`` are read-only float arrays aligned
    with ``queries``.  An infinite bound is an unbounded end; a NaN bound, a
    non-finite point or bounds out of order raise :class:`EstimationError`.
    """

    method: str
    gamma: float
    rank: int | None
    queries: tuple
    lower: np.ndarray
    upper: np.ndarray
    point: np.ndarray
    n_boot: int
    n_failed: int
    rank_counts: dict | None = None

    def __post_init__(self):
        self.queries = tuple(self.queries)
        for name in ("lower", "upper", "point"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (len(self.queries),):
                raise ConfigError(
                    f"{name} has shape {values.shape}, expected ({len(self.queries)},)"
                )
            values.flags.writeable = False
            setattr(self, name, values)
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise EstimationError(f"the {self.method} interval set has a NaN bound")
        if not np.isfinite(self.point).all():
            raise EstimationError(f"the {self.method} interval set has a non-finite point")
        disordered = np.flatnonzero(self.lower > self.upper)
        if disordered.size:
            i = disordered[0]
            raise EstimationError(
                f"interval bounds out of order: [{self.lower[i]}, {self.upper[i]}]"
            )

    @property
    def n_success(self) -> int:
        return self.n_boot - self.n_failed


def hall_quantile(centered_stats, gamma_point: float) -> float:
    """Order statistic ceil((B+1) * g), clamped to 1..B, of the sorted stats."""
    stats = np.asarray(centered_stats, dtype=float).ravel()
    if stats.size == 0:
        raise ValueError("cannot take a quantile of zero bootstrap statistics")
    if not np.isfinite(stats).all():
        raise ValueError("bootstrap statistics must be finite")
    if not 0 < gamma_point < 1:
        raise ValueError(f"quantile point must lie in (0, 1), got {gamma_point}")
    return float(_batch.hall_quantiles(stats.copy(), (gamma_point,))[0])


def _hall_bounds(centered: np.ndarray, points: np.ndarray, gamma: float):
    """Vectorized Hall interval bounds per query column; sorts the
    temporary ``centered`` in place."""
    q_lo, q_hi = _batch.hall_quantiles(centered, (gamma / 2.0, 1.0 - gamma / 2.0))
    return points - q_hi, points - q_lo


# ---------------------------------------------------------------------------
# query compilation


@dataclass(frozen=True, eq=False)
class _CompiledQueries:
    """Queries compiled into flat indices over (..., H+1, K, K) response stacks.

    ``groups`` holds one (kind, indices) gather per response kind for the
    element queries, with (n,) indices, and one per kind and maximum
    horizon for the maxima, with (n, h_max+1) indices reduced by ``max``.
    The groups' values, concatenated, are the queries permuted by
    ``order`` (None when already in query order).
    """

    queries: tuple
    h_need: int
    need_structural: bool
    n_vars: int
    groups: tuple
    order: np.ndarray | None

    def evaluate(self, psi: np.ndarray, phi: np.ndarray | None) -> np.ndarray:
        """Evaluate all queries on (B, H+1, K, K) stacks, returns (B, Q)."""
        lead = psi.shape[:-3]
        flat = {REDUCED_FORM: psi.reshape(lead + (-1,))}
        if phi is not None:
            flat[STRUCTURAL_CHOLESKY] = phi.reshape(lead + (-1,))
        parts = []
        for kind, indices in self.groups:
            values = flat[kind][..., indices]
            parts.append(values if indices.ndim == 1 else values.max(axis=-1))
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        return out if self.order is None else out[..., self.order]


def _compile_queries(queries, n_vars: int) -> _CompiledQueries:
    queries = tuple(queries)
    if not queries:
        raise ConfigError("at least one impulse-response query is required")
    # group key -> (query positions, flat indices); element queries first
    by_key: dict = {}
    for pos, query in enumerate(queries):
        if not isinstance(query, IrfQuery):
            raise ConfigError(f"queries must be IrfQuery instances, got {type(query)!r}")
        if query.a > n_vars or query.b > n_vars:
            raise ConfigError(
                f"query indices (a={query.a}, b={query.b}) out of range for K={n_vars}"
            )
        cell = (query.a - 1) * n_vars + query.b - 1
        if query.functional == "element":
            key = (1, query.kind, -1)
            index = query.horizon * n_vars * n_vars + cell
        else:
            key = (2, query.kind, query.h_max)
            index = [h * n_vars * n_vars + cell for h in range(query.h_max + 1)]
        positions, indices = by_key.setdefault(key, ([], []))
        positions.append(pos)
        indices.append(index)
    groups, positions = [], []
    for (_, kind, _), (group_positions, indices) in sorted(by_key.items()):
        groups.append((kind, np.array(indices, dtype=np.intp)))
        positions.extend(group_positions)
    order = None if positions == list(range(len(queries))) else np.argsort(positions)
    return _CompiledQueries(
        queries=queries,
        h_need=max(q.needed_horizon for q in queries),
        need_structural=any(q.kind == STRUCTURAL_CHOLESKY for q in queries),
        n_vars=n_vars,
        groups=tuple(groups),
        order=order,
    )


# ---------------------------------------------------------------------------
# shared preparation of the observed sample


@dataclass
class _Prepared:
    """One observed sample and what its methods share: its sweep (a batch of
    one, run through the same kernels as the replications), compiled
    queries with the sample's query values at every rank, method settings,
    fixed-rank fan and one level-1 batch."""

    raw: np.ndarray
    sweep: _batch.BatchSweep
    p: int
    mode: DetrendMode
    cfg: BootstrapConfig
    cq: _CompiledQueries
    points: tuple  # ((K+1, Q) query values at ranks 0..K, (K+1,) ok)
    c1: float = 1.0
    c2: float = 0.5
    true_rank: int | None = None
    _fan: dict = field(default_factory=dict)  # rank -> IntervalSet or the error it raised
    _held: _BootBatch | None = None

    @property
    def n_vars(self) -> int:
        return self.raw.shape[1]

    @property
    def n_obs(self) -> int:
        return self.raw.shape[0]

    @property
    def queries(self) -> tuple:
        return self.cq.queries

    def point_zetas(self, rank: int) -> np.ndarray:
        """Query values of the observed sample at ``rank``, (Q,)."""
        values, ok = self.points
        if not ok[rank]:
            raise EstimationError("covariance matrix is not positive definite")
        return values[rank]

    def select_rank(self, selector: RankSelector) -> int:
        return int(_batch.select_batch(self.sweep, selector)[0])

    def weights(self):
        """Plausibility weights of the observed sample, with ``c1`` and ``c2``."""
        stats = _batch.trace_stats_batch(self.sweep.eigenvalues, self.sweep.t_eff)[0]
        return plausibility_weights(stats, self.sweep.t_eff, self.c1, self.c2)

    def level1(self, dgp_rank: int) -> _BootBatch:
        """The level-1 batch at ``dgp_rank``; only the latest one is held."""
        if self._held is None or self._held.dgp_rank != dgp_rank:
            self._held = None  # free the old batch before building the next
            self._held = _level1_batch(self, dgp_rank)
        return self._held

    def fan(self, rank: int) -> IntervalSet:
        """Fixed-rank interval set at ``rank``, computed once; re-raises its error."""
        if rank not in self._fan:
            self._fan[rank] = _attempt(fixed_rank_interval, self, rank)
        entry = self._fan[rank]
        if isinstance(entry, Exception):
            raise entry
        return entry


def _prepare(
    data,
    p: int,
    queries,
    cfg: BootstrapConfig,
    mode: DetrendMode | str = DetrendMode.NONE,
    c1: float = 1.0,
    c2: float = 0.5,
    true_rank: int | None = None,
) -> _Prepared:
    """Prepare one observed sample for the interval methods.

    Sweeps ``data`` (raw T x K levels) once for every rank through
    :func:`~wimpvar.vecm.observed_sweep`, which detrends and validates it,
    and compiles ``queries``, evaluating them on the sample at every rank 0..K
    as one (K+1)-row batch.  ``c1`` and ``c2`` set the plausibility weights;
    ``true_rank`` is the rank of a known data-generating process.
    """
    check_weight_constants(c1, c2)
    if isinstance(data, DetrendedSeries):
        raise ConfigError("pass raw observations; detrending happens inside the bootstrap")
    mode = DetrendMode(mode)
    sweep = observed_sweep(data, p, mode, cfg.paper_sample_convention)
    # observed_sweep has checked these levels.
    raw = data.values if isinstance(data, TimeSeriesData) else np.asarray(data, dtype=float)
    if raw.ndim == 1:
        raw = raw[:, None]
    n_vars = raw.shape[1]
    cq = _compile_queries(queries, n_vars)
    copies = sweep.take(np.zeros(n_vars + 1, dtype=int))
    values, ok, _ = _zeta_at_rank(copies, np.arange(n_vars + 1), cq)
    values.flags.writeable = False
    return _Prepared(
        raw=raw, sweep=sweep, p=p, mode=mode, cfg=cfg, cq=cq, points=(values, ok),
        c1=c1, c2=c2, true_rank=true_rank,
    )


# ---------------------------------------------------------------------------
# counter-based streams


def _stream(seed: int, level: int, code: int, rep: int):
    key = (int(seed) << 64) | (level << 48) | (code << 32) | int(rep)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 constants (Salmon et al., SC 2011), as in numpy's Philox.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_DRAW_CELLS = 8192  # counter-grid cells per pass; keeps the round temporaries in cache


def _mulhilo(m: np.uint64, x: np.ndarray):
    """High and low 64-bit words of the 128-bit products m * x."""
    m_lo, m_hi = m & _M32, m >> _S32
    x_lo, x_hi = x & _M32, x >> _S32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _S32)
    w = (t & _M32) + x_lo * m_hi
    return x_hi * m_hi + (t >> _S32) + (w >> _S32), x * m


def _philox4x64(key0: np.ndarray, key1: np.ndarray, counter: np.ndarray):
    """Philox4x64-10 blocks for counters (counter, 0, 0, 0), broadcast over keys.

    Returns the four output words of every block; with numpy's ``Philox``
    they are what ``random_raw`` yields, in order, for that block.
    """
    zero = np.zeros(1, dtype=np.uint64)
    x0, x1, x2, x3 = counter, zero, zero, zero
    for rnd in range(10):
        if rnd:
            key0 = key0 + _PHILOX_W[0]
            key1 = key1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ key1, lo0
    return x0, x1, x2, x3


def _draw_index_matrix(seed, level, code, n_boot, pool_size, n_draw):
    """Residual indices, (n_boot, n_draw); row r equals
    ``_stream(seed, level, code, r).integers(0, pool_size, size=n_draw)``.

    Runs Philox4x64-10 over the whole (replication x block) counter grid:
    key word 0 is ``level<<48 | code<<32 | r``, key word 1 is ``seed`` and
    the counters run 1, 2, ...  Each 64-bit output gives its low 32-bit word,
    then its high one, and word w maps to (w * pool_size) >> 32, numpy's
    buffered Lemire method (Lemire, ACM TOMACS 2019).  A row that meets a
    word Lemire rejects (chance below pool_size / 2**32 per word) is redrawn
    from the reference generator.
    """
    if not 1 <= pool_size <= 2**32:
        raise ValueError(f"pool size must lie in 1..2**32, got {pool_size}")
    n_blocks = -(-n_draw // 8)
    idx = np.empty((n_boot, n_draw), dtype=np.int64)
    rejected = np.zeros(n_boot, dtype=bool)
    n = np.uint64(pool_size)
    threshold = np.uint64((2**32 - pool_size) % pool_size)
    counters = np.arange(1, n_blocks + 1, dtype=np.uint64)
    seed_word = np.full(1, seed, dtype=np.uint64)
    stream_bits = np.uint64((level << 48) | (code << 32))
    rows_per_pass = max(1, _DRAW_CELLS // max(n_blocks, 1))
    for start in range(0, n_boot, rows_per_pass):
        reps = np.arange(start, min(start + rows_per_pass, n_boot), dtype=np.uint64)
        words = np.empty((reps.size, n_blocks, 8), dtype=np.uint64)
        block = _philox4x64(reps[:, None] | stream_bits, seed_word, counters)
        for i, x in enumerate(block):
            np.bitwise_and(x, _M32, out=words[:, :, 2 * i])
            np.right_shift(x, _S32, out=words[:, :, 2 * i + 1])
        scaled = words.reshape(reps.size, n_blocks * 8)[:, :n_draw] * n
        if threshold:
            rejected[start : start + reps.size] = ((scaled & _M32) < threshold).any(axis=1)
        np.right_shift(scaled, _S32, out=idx[start : start + reps.size], casting="unsafe")
    for rep in np.flatnonzero(rejected):
        idx[rep] = _stream(seed, level, code, int(rep)).integers(0, pool_size, size=n_draw)
    return idx


# ---------------------------------------------------------------------------
# level-1 bootstrap batches


@dataclass
class _BootBatch:
    """A level-1 batch: the sweep of its rebuilt paths at one DGP rank and the
    per-batch results its methods share, keyed by step (read-only arrays).

    The sweep holds the detrended paths, from which FDBB level two builds
    its residuals; the paths start from the observed initial rows, which
    is all level two reads of the paths themselves.
    """

    sweep: _batch.BatchSweep
    dgp_rank: int
    memo: dict = field(default_factory=dict)


def _redetrend(samples: np.ndarray, prep: _Prepared):
    """Detrend rebuilt paths like the observed sample, non-finite paths zeroed;
    returns (detrended paths, finite mask)."""
    finite = np.isfinite(samples).all(axis=(1, 2))
    if not finite.all():
        samples = np.where(finite[:, None, None], samples, 0.0)
    use_mode = prep.mode if prep.cfg.detrend_bootstrap else DetrendMode.NONE
    tilde, _ = _batch.detrend_batch(samples, use_mode)
    return tilde, finite


def _resweep(samples: np.ndarray, prep: _Prepared) -> _batch.BatchSweep:
    """Sweep of rebuilt paths; a non-finite path is flagged."""
    tilde, finite = _redetrend(samples, prep)
    sweep = _batch.sweep_batch(tilde, prep.p, prep.cfg.paper_sample_convention)
    sweep.reason[~finite] |= _batch.NONFINITE
    return sweep


def _draw_errors(resid: np.ndarray, cfg: BootstrapConfig, level: int, code: int, n_draw: int):
    """Innovations drawn i.i.d. from column-centered residuals on the (level,
    code) streams, (n_boot, n_draw, K); ``resid`` is (1, n, K), one pool shared by
    every replication, or (n_boot, n, K), one pool each."""
    centered = resid - resid.mean(axis=1, keepdims=True)
    n_pool, n_vars = centered.shape[1:]
    idx = _draw_index_matrix(cfg.seed, level, code, cfg.n_boot, n_pool, n_draw)
    if centered.shape[0] > 1:
        idx += np.arange(0, centered.shape[0] * n_pool, n_pool)[:, None]
    return np.take(centered.reshape(-1, n_vars), idx, axis=0)  # a faster gather than [idx]


def _level1_batch(prep: _Prepared, dgp_rank: int) -> _BootBatch:
    pi, gammas = _batch.rank_fit_batch(prep.sweep, dgp_rank)
    resid = _batch.residuals_batch(prep.sweep, pi)
    n_draw = prep.n_obs - prep.p - 1
    samples = _batch.rebuild_levels_batch(
        _batch.var_matrices_batch(pi, gammas)[0],
        _draw_errors(resid, prep.cfg, 1, dgp_rank, n_draw),
        prep.raw[: prep.p + 1],
    )
    return _BootBatch(sweep=_resweep(samples, prep), dgp_rank=dgp_rank)


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _zeta_at_rank(sweep: _batch.BatchSweep, rank, cq: _CompiledQueries):
    """Per-sample query values at an imposed rank, an int or a (B,) array of
    per-sample ranks; returns ((B, Q) values, (B,) ok, (Pi, Gammas) fit).

    Each distinct rank is fitted once on the whole batch (Sigma too, when a
    query is structural) and its rows are scattered into the first rank's
    fit, so row b equals the int-rank call at ``rank[b]``.
    """
    ranks = np.broadcast_to(rank, sweep.reason.shape)
    fit = None
    for r in np.unique(ranks):
        part = _batch.rank_fit_batch(sweep, int(r))
        if cq.need_structural:
            part += (_batch.sigma_batch(sweep, int(r)),)
        if fit is None:
            fit = part
            continue
        mask = ranks == r
        for whole, piece in zip(fit, part):
            whole[mask] = piece[mask]
    pi, gammas, *sigma = fit
    values, ok = _query_values(_batch.var_matrices_batch(pi, gammas), sweep.ok, cq, *sigma)
    return values, ok, (pi, gammas)


def _query_values(mats: np.ndarray, ok: np.ndarray, cq: _CompiledQueries, sigma=None):
    """((B, Q) query values, ok) of levels VAR stacks; structural queries use ``sigma``."""
    psi = _batch.irf_batch(mats, cq.h_need)
    phi = None
    if cq.need_structural:
        chol, chol_ok = _chol_batch(sigma)
        ok = ok & chol_ok
        # one (B, (H+1)K, K) @ (B, K, K) product per batch, bitwise the per-horizon ones
        phi = (psi.reshape(len(psi), -1, psi.shape[-1]) @ chol).reshape(psi.shape)
    return cq.evaluate(psi, phi), ok


def _census(ok: np.ndarray, cfg: BootstrapConfig, what: str) -> int:
    n_failed = int(ok.size - ok.sum())
    # A zero share tolerates no failure; max_failure_share < 1, so a run in
    # which every replication failed is always refused.
    if n_failed and n_failed >= cfg.max_failure_share * ok.size:
        raise EstimationError(
            f"{n_failed} of {ok.size} bootstrap replications failed during {what}; "
            "the fitted model is too unstable for resampling"
        )
    return n_failed


def _finalize(zeta_star, ok, points, cfg, what):
    """Drop failed replications, apply the failure budget, take Hall bounds
    of the replications centered at ``points``."""
    ok = ok & np.isfinite(zeta_star).all(axis=1)
    n_failed = _census(ok, cfg, what)
    if n_failed:
        zeta_star = zeta_star[ok]
    lower, upper = _hall_bounds(zeta_star - points, points, cfg.gamma)
    return lower, upper, n_failed


def _to_interval_set(method, rank, cq, lower, upper, points, cfg, n_failed, **extra):
    return IntervalSet(
        method=method,
        gamma=cfg.gamma,
        rank=rank,
        queries=cq.queries,
        lower=lower,
        upper=upper,
        point=points,
        n_boot=cfg.n_boot,
        n_failed=n_failed,
        **extra,
    )


# ---------------------------------------------------------------------------
# the five interval constructions


def fixed_rank_interval(prep: _Prepared, rank: int) -> IntervalSet:
    """Hall percentile interval with the rank imposed throughout.

    Fits the error-correction model at ``rank``, rebuilds ``cfg.n_boot``
    samples recursively from the centered residuals, re-detrends and refits
    each at the same rank, and inverts the centered bootstrap distribution.
    ``prep.fan(rank)`` holds this interval, computed once per sample.
    """
    cq, cfg = prep.cq, prep.cfg
    if rank < 0 or rank > prep.n_vars:
        raise ConfigError(f"rank must lie in 0..{prep.n_vars}, got {rank}")
    points = prep.point_zetas(rank)
    zeta_star, ok, _ = _zeta_at_rank(prep.level1(rank).sweep, rank, cq)
    lower, upper, n_failed = _finalize(zeta_star, ok, points, cfg, f"the rank-{rank} bootstrap")
    return _to_interval_set("fixed_rank", rank, cq, lower, upper, points, cfg, n_failed)


def _rank_census(ranks: np.ndarray, ok: np.ndarray, n_boot: int) -> dict:
    counts = {int(r): int(((ranks == r) & ok).sum()) for r in np.unique(ranks[ok])}
    n_failed = int(n_boot - ok.sum())
    if n_failed:
        counts[-1] = n_failed
    return counts


def _reselect(prep: _Prepared, selector: RankSelector, dgp_rank_mode: str):
    """Level one of the rank re-selection bootstraps: the observed rank, the
    level-1 batch, its per-sample selected ranks and the replications' query
    values, ok flags and fit at those ranks.  The batch keeps the per-sample
    part, so ``bers_*`` and ``fdbb_*`` with one selector compute it once."""
    r_hat = prep.select_rank(selector)
    boot = prep.level1(r_hat if dgp_rank_mode == "estimated" else prep.n_vars)
    key = ("reselect", selector)
    if key not in boot.memo:
        ranks_star = _batch.select_batch(boot.sweep, selector)
        values, ok, (pi, gammas) = _zeta_at_rank(boot.sweep, ranks_star, prep.cq)
        _read_only(ranks_star, values, ok, pi, gammas)
        boot.memo[key] = (ranks_star, values, ok, (pi, gammas))
    return (r_hat, boot, *boot.memo[key])


def bers_interval(
    prep: _Prepared, selector: RankSelector, dgp_rank_mode: str = "estimated"
) -> IntervalSet:
    """Bootstrap with the rank re-selected inside every replication.

    The bootstrap process is built at the selected rank (``estimated``) or
    at the full rank K (``full_K``); every replication re-runs the selector
    and refits at its own rank.  The interval centers at the point estimate
    under the rank selected on the observed data.
    """
    if dgp_rank_mode not in ("estimated", "full_K"):
        raise ConfigError(f"dgp_rank_mode must be 'estimated' or 'full_K', got {dgp_rank_mode!r}")
    cq, cfg = prep.cq, prep.cfg
    r_hat, _, ranks_star, zeta_star, ok, _ = _reselect(prep, selector, dgp_rank_mode)
    points = prep.point_zetas(r_hat)
    lower, upper, n_failed = _finalize(
        zeta_star, ok, points, cfg, "the rank re-selection bootstrap"
    )
    return _to_interval_set(
        f"bers_{selector.label}", r_hat, cq, lower, upper, points, cfg, n_failed,
        rank_counts=_rank_census(ranks_star, ok & np.isfinite(zeta_star).all(axis=1), cfg.n_boot),
    )


def _ma_sums(prep: _Prepared, boot: _BootBatch):
    """The replications' per-rank query values averaged with their own
    weights and with the observed-data weights, (B, Q) each, and ok.

    One pass over ranks 0..K serves ``ma`` and ``ma_fixed``; each rank's
    values go straight into the two sums, summed in rank order from zero.
    """
    if "ma" not in boot.memo:
        sweep = boot.sweep
        stats = _batch.trace_stats_batch(sweep.eigenvalues, sweep.t_eff)
        _, weights_star = _batch.weights_batch(stats, sweep.t_eff, prep.c1, prep.c2)
        data_weights = prep.weights().normalized
        endogenous = np.zeros((sweep.reason.size, len(prep.queries)))
        fixed = np.zeros_like(endogenous)
        ok = sweep.ok
        for rank in range(prep.n_vars + 1):
            values, rank_ok, _ = _zeta_at_rank(sweep, rank, prep.cq)
            ok &= rank_ok
            fixed += data_weights[rank] * values
            values *= weights_star[:, rank, None]
            endogenous += values
        boot.memo["ma"] = _read_only(endogenous, fixed, ok)
    return boot.memo["ma"]


def ma_interval(prep: _Prepared, weights_mode: str = "endogenous") -> IntervalSet:
    """Interval for the plausibility-weighted average across all ranks.

    The point estimate averages the K+1 fixed-rank estimates with the
    trace-based weights; the bootstrap statistic is the same average on
    each replication, with weights recomputed per replication when
    ``weights_mode="endogenous"`` and frozen at the observed-data weights
    otherwise.  The weights use the sample's ``c1`` and ``c2``; the
    bootstrap process is built at the reference rank.
    """
    if weights_mode not in ("endogenous", "fixed"):
        raise ConfigError(f"weights_mode must be 'endogenous' or 'fixed', got {weights_mode!r}")
    cq, cfg = prep.cq, prep.cfg
    data_weights = prep.weights()
    per_rank_points = np.stack([prep.point_zetas(r) for r in range(prep.n_vars + 1)])
    points = data_weights.normalized @ per_rank_points
    endogenous, fixed, ok = _ma_sums(prep, prep.level1(data_weights.reference_rank))
    zeta_star = endogenous if weights_mode == "endogenous" else fixed
    lower, upper, n_failed = _finalize(zeta_star, ok, points, cfg, "the model-averaging bootstrap")
    return _to_interval_set(
        "ma" if weights_mode == "endogenous" else "ma_fixed",
        data_weights.reference_rank,
        cq, lower, upper, points, cfg, n_failed,
    )


def fdbb_interval(
    prep: _Prepared, selector: RankSelector, dgp_rank_mode: str = "estimated"
) -> IntervalSet:
    """Fast-double-bootstrap bagging interval.

    Level one matches the rank re-selection bootstrap.  From every level-one
    sample exactly one second-level sample is rebuilt under that sample's
    selected rank; the interval centers at the bagged (averaged) level-one
    estimate and inverts the distribution of the level-two minus level-one
    statistics.
    """
    if dgp_rank_mode not in ("estimated", "full_K"):
        raise ConfigError(f"dgp_rank_mode must be 'estimated' or 'full_K', got {dgp_rank_mode!r}")
    cq, cfg = prep.cq, prep.cfg
    r_hat, boot, ranks_star, zeta_star, ok1, (pi_star, gam_star) = _reselect(
        prep, selector, dgp_rank_mode
    )

    # Level two: one sample per level-one sample, rebuilt under its own
    # selected rank, with the same centered-residual resampling scheme and
    # the same initial rows, the observed ones.
    code, n_draw = _SELECTOR_CODES[selector.method], prep.n_obs - prep.p - 1
    samples2 = _batch.rebuild_levels_batch(
        _batch.var_matrices_batch(pi_star, gam_star),
        _draw_errors(_batch.residuals_batch(boot.sweep, pi_star), cfg, 2, code, n_draw),
        prep.raw[: prep.p + 1],
    )
    sweep2 = _resweep(samples2, prep)
    zeta_2, ok2, _ = _zeta_at_rank(sweep2, _batch.select_batch(sweep2, selector), cq)

    ok = ok1 & ok2 & np.isfinite(zeta_star).all(axis=1) & np.isfinite(zeta_2).all(axis=1)
    n_failed = _census(ok, cfg, "the double bootstrap")
    # The mean reads the mask copy even when nothing failed: the copy is
    # C-ordered, so the mean adds its rows one by one, whereas on the
    # F-ordered query gathers it would sum pairwise and round otherwise.
    bagged = zeta_star[ok].mean(axis=0)
    if n_failed:
        zeta_star, zeta_2 = zeta_star[ok], zeta_2[ok]
    lower, upper = _hall_bounds(zeta_2 - zeta_star, bagged, cfg.gamma)
    return _to_interval_set(
        f"fdbb_{selector.label}", r_hat, cq, lower, upper, bagged, cfg, n_failed,
        rank_counts=_rank_census(ranks_star, ok, cfg.n_boot),
    )


def lag_augmented_interval(prep: _Prepared) -> IntervalSet:
    """Levels bootstrap with one extra estimation lag.

    The bootstrap process is a levels VAR(p) fitted by OLS; both the point
    estimate and every bootstrap estimate come from a VAR(p+1) in levels of
    which only the first p coefficient matrices feed the responses.
    """
    cq, cfg, n_vars, p = prep.cq, prep.cfg, prep.n_vars, prep.p
    if prep.n_obs < n_vars * (p + 1) + 10:
        raise DataError(
            f"lag augmentation needs at least K*(p+1) + 10 = {n_vars * (p + 1) + 10} observations"
        )
    tilde = prep.sweep.tilde[0]
    (points,), (ok_point,) = _lavar_zetas(tilde[None], p, cq)
    if not ok_point:
        raise EstimationError("singular design in the lag-augmented levels regression")

    mats_dgp, resid_dgp, ok_dgp = _batch.ols_var_levels_batch(tilde[None], p)
    if not ok_dgp[0]:
        raise EstimationError("singular design in the levels bootstrap regression")
    samples = _batch.rebuild_levels_batch(
        mats_dgp[0], _draw_errors(resid_dgp, cfg, 1, _LAVAR_CODE, prep.n_obs - p - 1),
        prep.raw[: p + 1],
    )
    tilde_star, finite = _redetrend(samples, prep)
    zeta_star, ok = _lavar_zetas(tilde_star, p, cq)
    lower, upper, n_failed = _finalize(
        zeta_star, ok & finite, points, cfg, "the lag-augmented bootstrap"
    )
    return _to_interval_set("lavar", None, cq, lower, upper, points, cfg, n_failed)


def _lavar_zetas(tilde: np.ndarray, p: int, cq: _CompiledQueries):
    """Query values of a levels VAR(p+1) fit, first p lags only; ((B, Q), ok)."""
    mats, resid, ok = _batch.ols_var_levels_batch(tilde, p + 1)
    sigma = np.swapaxes(resid, 1, 2) @ resid / resid.shape[1] if cq.need_structural else None
    return _query_values(mats[:, :p], ok, cq, sigma)


# ---------------------------------------------------------------------------
# combined interval


def wimp_interval(prep: _Prepared) -> IntervalSet:
    """Plausibility-weighted combination of the full per-rank fan.

    The reported point estimate is the weighted average of the fixed-rank
    estimates, the natural companion estimator; the interval itself is
    anchored at the reference rank and does not depend on it.  The fan
    members are ``prep.fan(rank)`` and the weights ``prep.weights()``.
    """
    members = [prep.fan(rank) for rank in range(prep.n_vars + 1)]
    weights = prep.weights()
    lowers = np.stack([member.lower for member in members])
    uppers = np.stack([member.upper for member in members])
    points = weights.normalized @ np.stack([member.point for member in members])
    lower, upper = wimp_bounds(lowers, uppers, weights)
    n_failed = max(member.n_failed for member in members)
    return _to_interval_set(
        "wimp", weights.reference_rank, prep.cq, lower, upper, points, prep.cfg, n_failed
    )


# ---------------------------------------------------------------------------
# method registry


@dataclass(frozen=True)
class _Method:
    """A method's runner, ``run(prep)``; ``rank(prep)`` is the DGP rank of the
    level-1 batch it reads (None: none), ``fan(prep)`` the fan ranks it reads."""

    run: Callable
    rank: Callable = lambda prep: None
    fan: Callable = lambda prep: ()


def _fan_lookup(name: str, rank_of) -> _Method:
    return _Method(
        run=lambda prep: replace(prep.fan(rank_of(prep)), method=name),
        fan=lambda prep: (rank_of(prep),),
    )


def _selected(selector: RankSelector):
    return lambda prep: prep.select_rank(selector)


def _reference_rank(prep: _Prepared) -> int:
    return prep.weights().reference_rank


def _known_rank(prep: _Prepared) -> int:
    if prep.true_rank is None:
        raise ConfigError("true_rank needs the rank of a known data-generating process")
    return prep.true_rank


_AIC, _BIC = RankSelector("aic"), RankSelector("bic")
_EXTRA_METHODS: dict = {}  # added by register_method; shadows a built-in name
# The runners look each constructor up by name when they run, so wrappers
# installed on this module's names (profilers, tracers) see every call.
METHODS = ChainMap(_EXTRA_METHODS, {
    "ols": _fan_lookup("ols", lambda prep: prep.n_vars),
    "true_rank": _fan_lookup("true_rank", _known_rank),
    "aic": _fan_lookup("aic", _selected(_AIC)),
    "bic": _fan_lookup("bic", _selected(_BIC)),
    "bers_aic": _Method(lambda prep: bers_interval(prep, _AIC), _selected(_AIC)),
    "bers_bic": _Method(lambda prep: bers_interval(prep, _BIC), _selected(_BIC)),
    "ma": _Method(lambda prep: ma_interval(prep), _reference_rank),
    "ma_fixed": _Method(lambda prep: ma_interval(prep, weights_mode="fixed"), _reference_rank),
    "fdbb_aic": _Method(lambda prep: fdbb_interval(prep, _AIC), _selected(_AIC)),
    "fdbb_bic": _Method(lambda prep: fdbb_interval(prep, _BIC), _selected(_BIC)),
    "wimp": _Method(lambda prep: wimp_interval(prep), fan=lambda prep: range(prep.n_vars + 1)),
    "lavar": _Method(lambda prep: lag_augmented_interval(prep)),
})


def register_method(name: str, runner) -> None:
    """Register ``runner`` as the interval method ``name``.

    ``runner(prep)`` receives the prepared sample (``raw``, ``p``, ``mode``,
    ``cfg``, ``queries``, ``c1``, ``c2``, ``true_rank``) and returns an
    :class:`IntervalSet` or a (lower, upper) pair aligned with ``prep.queries``.
    """
    _EXTRA_METHODS[name] = _Method(runner)


def _attempt(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except (DataError, EstimationError) as exc:
        return exc


def run_methods(prep: _Prepared, names) -> dict:
    """Run the named methods on one prepared sample.

    Returns name -> the method's result, or the :class:`DataError` or
    :class:`EstimationError` it raised; a :class:`ConfigError` propagates.
    Fan members and methods run in ascending level-1 rank, so each batch is
    built once and at most one is held.  The order changes no result:
    every method draws from its own counter-keyed streams.
    """
    fan_ranks = {rank for name in names for rank in METHODS[name].fan(prep)}
    at_rank = {name: METHODS[name].rank(prep) for name in names}
    out = {}
    for rank in [*sorted(fan_ranks.union(at_rank.values()) - {None}), None]:
        if rank in fan_ranks:
            _attempt(prep.fan, rank)  # an error stays in the fan for its readers
        for name, method_rank in at_rank.items():
            if method_rank == rank:
                out[name] = _attempt(METHODS[name].run, prep)
    prep._held = None
    return {name: out[name] for name in names}
