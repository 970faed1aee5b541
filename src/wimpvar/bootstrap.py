"""Resampling-based confidence intervals for impulse-response functionals.

Implements the shared recursive-residual bootstrap and, on top of it, the
five interval constructions: fixed rank, endogenous rank re-selection,
model averaging, fast-double-bootstrap bagging and the lag-augmented
levels variant.  One finisher, ``_finalize``, ends each of them: it drops
the failed replications, applies the failure budget and takes the Hall
percentile interval: with q*(g) the g-quantile of the centered bootstrap
statistics, the interval is [point - q*(1 - gamma/2), point - q*(gamma/2)].

Every bootstrap build (a level-1 batch, FDBB's level two) draws its
residual indices from one Philox stream, ``_stream``, keyed by (seed,
level, DGP code); replication r takes the stream's r-th run of draws.  So
results are bit-identical whatever the worker count and whichever other
methods run, in any order, and the first B replications of a larger build
equal a build of B.

Every construction is a function of one prepared sample (``_prepare``,
exported as ``wimpvar.prepare``; ``_prepare_many`` prepares a stack of
samples with one sweep).  ``METHODS`` names every construction;
``run_methods`` runs a set of them on one prepared sample or on a group of
them.  Its plan names, per level-1 rank, the methods that read each batch.
It builds each level-1 batch once, in chunks of 64 replications or more,
each chunk writing its rows of the batch's Gram matrices (and its rows at
p + 1 too when the lag-augmented bootstrap reads the batch), and at each
rank it sweeps the batches of the whole group as one stack; everything
downstream of the sweep (responses, query values, Hall bounds) runs per
sample, on its slice.  A result that methods share on a batch is computed
for the methods that read it and freed once the last of them has run.  A
sweep holds moments only, so no batch keeps its paths: FDBB level two
replays the chunks of the batch it reads, which gives the same bits, and
draws its own chunks over them, so no build holds an (n_boot, T, K) array.
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
from .timeseries import DetrendedSeries, DetrendMode, TimeSeriesData, _as_values
from .vecm import (
    IrfQuery, REDUCED_FORM, STRUCTURAL_CHOLESKY, _check_lag_order, _min_obs, _sweep_error,
    sweep_samples,
)
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

_SELECTOR_CODES = {"aic": 1, "bic": 2, "sequential_trace": 3, "fixed": 4}


@dataclass(frozen=True)
class BootstrapConfig:
    """Replication count, nominal miscoverage and determinism settings."""

    n_boot: int = 399
    gamma: float = 0.05
    seed: int = 0
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


def _hall_bounds(stats: np.ndarray, points: np.ndarray, gamma: float, shift=None):
    """Vectorized Hall interval bounds per query column of the centred
    statistics ``stats - shift`` (``stats`` itself when ``shift`` is None);
    sorts the temporary ``stats`` in place.

    A (Q,) ``shift`` is subtracted from the two order statistics only:
    fl(x - c) is monotone in x, so the k-th smallest of a shifted column is
    the shifted k-th smallest, bitwise what sorting a centred copy gives.
    """
    q_lo, q_hi = _batch.hall_quantiles(stats, (gamma / 2.0, 1.0 - gamma / 2.0))
    if shift is not None:
        q_lo, q_hi = q_lo - shift, q_hi - shift
    return points - q_hi, points - q_lo


# ---------------------------------------------------------------------------
# query compilation


@dataclass(frozen=True, eq=False)
class _CompiledQueries:
    """Queries compiled into flat indices over (..., H+1, K, K) response stacks.

    ``groups`` holds one (kind, indices) read per response kind for the
    element queries, with (n,) indices, and one per kind and maximum
    horizon for the maxima, with (n, h_max+1) indices reduced by ``max``.
    An element group whose indices are one ascending contiguous run holds
    them as a ``slice``.  The groups' values, concatenated, are the queries
    permuted by ``order`` (None when already in query order).
    """

    queries: tuple
    h_need: int
    need_structural: bool
    need_reduced: bool
    n_vars: int
    groups: tuple
    order: np.ndarray | None

    def evaluate(self, psi: np.ndarray | None, phi: np.ndarray | None) -> np.ndarray:
        """Evaluate all queries on (B, H+1, K, K) stacks, returns (B, Q).
        ``psi`` may be None when no query is reduced-form, ``phi`` when none
        is structural.

        One element group in query order, held as a slice, returns a view
        of ``psi`` or ``phi``; otherwise the values are gathered into a new
        array.
        """
        flat = {
            kind: stack.reshape(stack.shape[:-3] + (-1,))
            for kind, stack in ((REDUCED_FORM, psi), (STRUCTURAL_CHOLESKY, phi))
            if stack is not None
        }
        parts = []
        for kind, indices in self.groups:
            values = flat[kind][..., indices]
            parts.append(values.max(axis=-1) if np.ndim(indices) == 2 else values)
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        return out if self.order is None else out[..., self.order]


def _as_run(indices: np.ndarray):
    """``indices`` as a slice when they are one ascending contiguous run of
    flat elements, so the read is a view; else unchanged."""
    if indices.ndim == 1:
        start, stop = int(indices[0]), int(indices[0]) + indices.size
        if np.array_equal(indices, np.arange(start, stop)):
            return slice(start, stop)
    return indices


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
        groups.append((kind, _as_run(np.array(indices, dtype=np.intp))))
        positions.extend(group_positions)
    order = None if positions == list(range(len(queries))) else np.argsort(positions)
    return _CompiledQueries(
        queries=queries,
        h_need=max(q.needed_horizon for q in queries),
        need_structural=any(q.kind == STRUCTURAL_CHOLESKY for q in queries),
        need_reduced=any(q.kind == REDUCED_FORM for q in queries),
        n_vars=n_vars,
        groups=tuple(groups),
        order=order,
    )


# ---------------------------------------------------------------------------
# shared preparation of the observed sample


@dataclass
class _Prepared:
    """One observed sample and what its methods share: its sweep (a batch of one,
    run through the same kernels as the replications), compiled queries with the
    sample's query values at every rank, method settings and fixed-rank fan."""

    raw: np.ndarray
    tilde: np.ndarray  # (1, T, K) the detrended sample that ``sweep`` was formed from
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

    def level1(self, dgp_rank: int, boot: _BootBatch | None = None, reader=None) -> _BootBatch:
        """``boot`` if it is the level-1 batch at ``dgp_rank``, else a fresh one
        read by ``reader`` alone (a method name, None for the fan member), in a
        fresh chunk buffer; ``run_methods`` shares a group's (:func:`_level1_batches`)."""
        if boot is None or boot.dgp_rank != dgp_rank:
            (boot,) = _level1_batches([self], dgp_rank, _chunk_buffer(self), [(reader,)])
        return boot

    def check_rank(self, rank) -> int:
        """``rank`` as an int; ConfigError unless it is an integer in 0..K."""
        rank = check_integer("rank", rank)
        if rank < 0 or rank > self.n_vars:
            raise ConfigError(f"rank must lie in 0..{self.n_vars}, got {rank}")
        return rank

    def fan(self, rank: int, boot: _BootBatch | None = None) -> IntervalSet:
        """Fixed-rank interval set at ``rank``, computed once, from ``boot``
        when it is the level-1 batch at ``rank``; re-raises its error."""
        rank = self.check_rank(rank)
        if rank not in self._fan:
            self._fan[rank] = _attempt(fixed_rank_interval, self, rank, boot=boot)
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

    Sweeps ``data`` (raw T x K levels) once for every rank, as a stack of
    one (:func:`_prepare_many`), which detrends it and raises like
    :func:`~wimpvar.vecm.observed_sweep`, and compiles ``queries``,
    evaluating them on the sample at every rank 0..K as one (K+1)-row
    batch.  ``c1`` and ``c2`` set the plausibility weights; ``true_rank``
    is the rank of a known data-generating process.
    """
    check_weight_constants(c1, c2)
    if isinstance(data, DetrendedSeries):
        raise ConfigError("pass raw observations; detrending happens inside the bootstrap")
    mode = DetrendMode(mode)
    _check_lag_order(p)
    names = data.names if isinstance(data, TimeSeriesData) else None
    (prep,) = _prepare_many(
        _as_values(data)[None], p, queries, [cfg], mode, c1, c2, true_rank, names
    )
    if isinstance(prep, EstimationError):
        raise prep
    return prep


def _prepare_many(
    samples: np.ndarray,
    p: int,
    queries,
    cfgs,
    mode: DetrendMode | str = DetrendMode.NONE,
    c1: float = 1.0,
    c2: float = 0.5,
    true_rank: int | None = None,
    names=None,
) -> list:
    """:func:`_prepare` for each of a (n, T, K) stack of finite raw samples,
    with ``cfgs[i]`` for sample i: one sweep of the stack
    (:func:`~wimpvar.vecm.sweep_samples`) and one query table of n (K+1)
    rows serve them all.

    Returns each sample's prepared sample, bitwise the one :func:`_prepare`
    gives, or the :class:`EstimationError` it raises, naming the columns
    ``names``.  A bad ``p``, too few observations or a bad query or weight
    constant raise for the whole stack.
    """
    check_weight_constants(c1, c2)
    mode = DetrendMode(mode)
    tilde, sweep = sweep_samples(samples, p, mode, cfgs[0].paper_sample_convention)
    n_samples, _, n_vars = samples.shape
    cq = _compile_queries(queries, n_vars)
    width = n_vars + 1
    copies = sweep.take(np.repeat(np.arange(n_samples), width))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # flagged in ``ok``
        values, ok, _ = _zeta_at_rank(copies, np.tile(np.arange(width), n_samples), cq)
    values.flags.writeable = False
    preps = []
    for i, cfg in enumerate(cfgs):
        one, rows = slice(i, i + 1), slice(i * width, (i + 1) * width)
        own = sweep.take(one)
        preps.append(_sweep_error(own, tilde[one], names) if own.reason[0] else _Prepared(
            raw=samples[i], tilde=tilde[one], sweep=own, p=p, mode=mode, cfg=cfg, cq=cq,
            points=(values[rows], ok[rows]),
            c1=c1, c2=c2, true_rank=true_rank,
        ))
    return preps


# ---------------------------------------------------------------------------
# random streams


def _stream(seed: int, level: int, code: int, rep: int = 0):
    """numpy's Philox generator keyed by ``seed<<64 | level<<48 | code<<32 | rep``.

    Each field must fit its width, so no two (seed, level, code, rep) share a key.
    """
    seed, level, code, rep = int(seed), int(level), int(code), int(rep)
    if not (0 <= level < 2**16 and 0 <= code < 2**16 and 0 <= rep < 2**32 and 0 <= seed < 2**64):
        raise ValueError(
            f"stream key fields out of range: seed={seed}, level={level}, code={code}, rep={rep}"
        )
    key = (seed << 64) | (level << 48) | (code << 32) | rep
    return np.random.Generator(np.random.Philox(key=key))


def _draw_index_matrix(stream, n_rows: int, pool_size: int, n_draw: int) -> np.ndarray:
    """The next ``n_rows`` runs of ``n_draw`` residual indices in
    0..pool_size-1 from ``stream``, (n_rows, n_draw) int64.

    numpy's generator continues its stream across calls, so splitting a
    build's rows over several calls gives the same indices as one call.
    """
    if pool_size < 1:
        raise ValueError(f"pool size must be at least 1, got {pool_size}")
    return stream.integers(0, pool_size, size=(n_rows, n_draw))


# ---------------------------------------------------------------------------
# level-1 bootstrap batches


@dataclass
class _BootBatch:
    """A level-1 batch: the sweep of its rebuilt paths at one DGP rank, the
    methods that read it and the per-batch results they share.

    The sweep is the sample's slice of its group's stacked sweep, made from
    Gram matrices; like every sweep it holds moments only, not paths.  FDBB
    level two, which needs the paths themselves, replays the batch's chunks
    (:func:`_replay`).  ``readers`` names the methods that read the batch,
    in the order they run (None: the fan member).  ``memo`` maps the names
    of the methods that share a result to it (read-only arrays); a memo
    goes once none of its methods is left to read it (:meth:`release`).
    """

    sweep: _batch.BatchSweep
    dgp_rank: int
    readers: tuple
    memo: dict = field(default_factory=dict)

    def release(self, left) -> None:
        """Drops each memo that no method named in ``left`` reads."""
        for names in [names for names in self.memo if not any(name in left for name in names)]:
            del self.memo[names]


# A build runs in chunks of whole _CHUNKs of replications, as many as fit in
# about this many bytes of paths, and at least one: 64 short paths are too
# little work per kernel call.
_CHUNK_BYTES = 1 << 20


def _chunk_rows(prep: _Prepared) -> int:
    """Replications per chunk of a build (see _CHUNK_BYTES), at most n_boot."""
    per_chunk = _batch._CHUNK * prep.n_obs * prep.n_vars * 8
    return min(prep.cfg.n_boot, _batch._CHUNK * max(1, _CHUNK_BYTES // per_chunk))


def _chunk_buffer(prep: _Prepared) -> np.ndarray:
    """A fresh buffer for one chunk of a streamed build, (_chunk_rows, T, K)."""
    return np.empty((_chunk_rows(prep), prep.n_obs, prep.n_vars))


def _pool_means(resid: np.ndarray) -> np.ndarray:
    """Column means (n_pools, 1, K) of C-contiguous (n_pools, n, K) residual
    pools.

    numpy's mean sums the middle axis row after row, in a loop that is slow
    at these shapes; einsum sums each pool about four times faster, and
    alike wherever the pool sits in the batch.  For K >= 2 it sums the rows
    in the mean's order, so the result is bitwise the mean's.
    """
    return (np.einsum("btk->bk", resid) / resid.shape[1])[:, None]


def _drawer(cfg: BootstrapConfig, level: int, code: int, init):
    """A function ``draw(paths, resid)`` that fills a C-contiguous (m, n_obs,
    K) buffer with the next m replications of a build: the initial rows
    ``init`` first, then innovations drawn i.i.d. from the column-centred
    residual pools ``resid`` on the build's stream ``_stream(cfg.seed,
    level, code)``.  Each call passes its own pools: (1, n, K), one pool
    shared by its replications, or (m, n, K), one pool each.

    Replication r takes the r-th run of n_obs - len(init) indices of the
    stream, so the first B replications of a larger build equal a build of
    B, and however the calls split the replications, the draws are the
    same: numpy's generator continues its stream across calls.  The initial
    rows sit at the end of the call's pool, so a call gathers whole rows,
    contiguous in the buffer, and np.take writes straight into it.  The
    pools are centred by :func:`_pool_means`.
    """
    n_init = len(init)
    stream = _stream(cfg.seed, level, code)

    def draw(paths: np.ndarray, resid: np.ndarray) -> None:
        count, n_obs, n_vars = paths.shape
        n_pools, n_pool = resid.shape[:2]
        pool = np.empty((n_pools * n_pool + n_init, n_vars))
        np.subtract(resid, _pool_means(resid), out=pool[: n_pools * n_pool].reshape(resid.shape))
        pool[n_pools * n_pool :] = init
        idx = np.empty((count, n_obs), dtype=np.int64)
        idx[:, :n_init] = np.arange(len(pool) - n_init, len(pool))
        idx[:, n_init:] = _draw_index_matrix(stream, count, n_pool, n_obs - n_init)
        if n_pools > 1:
            idx[:, n_init:] += np.arange(0, count * n_pool, n_pool)[:, None]
        # Every index is in range, and "clip", unlike "raise", gathers
        # straight into ``paths`` instead of through a copy.
        np.take(pool, idx, axis=0, out=paths, mode="clip")

    return draw


def _detrend_finite(paths: np.ndarray, mode: DetrendMode) -> np.ndarray:
    """Rebuilt paths detrended in place like the observed sample, each
    non-finite path zeroed first; returns which paths were finite, (B,)."""
    finite = np.isfinite(paths).all(axis=(1, 2))
    if not finite.all():
        paths[~finite] = 0.0
    _batch.detrend_batch(paths, mode)
    return finite


def _dgp(prep: _Prepared, rank: int):
    """The observed sample's rank-``rank`` fit as a bootstrap process: its
    levels VAR matrices (p, K, K) and residuals (1, T_eff, K)."""
    pi, gammas = _batch.rank_fit_batch(prep.sweep, rank)
    resid = _batch.residuals_batch(prep.tilde, pi, gammas, prep.sweep.t_eff)
    return _batch.var_matrices_batch(pi, gammas)[0], resid


def _level1_chunks(prep: _Prepared, dgp_rank: int, paths: np.ndarray):
    """The sample's level-1 batch at ``dgp_rank``, a chunk of replications at
    a time in the chunk buffer ``paths`` (:func:`_chunk_rows`: 64 at T =
    800, K = 3; all 199 at once at T = 100, K = 3).

    Each chunk draws its rows from the build's one stream (:func:`_drawer`),
    is rebuilt, has its non-finite paths zeroed and is detrended
    (:func:`_detrend_finite`).  Yields (first replication, chunk, which of
    its paths were finite); the next chunk overwrites the buffer.
    """
    n_boot, n_init = prep.cfg.n_boot, prep.p + 1
    mats, resid = _dgp(prep, dgp_rank)
    draw = _drawer(prep.cfg, 1, dgp_rank, prep.raw[:n_init])
    for lo in range(0, n_boot, len(paths)):
        chunk = paths[: min(len(paths), n_boot - lo)]
        draw(chunk, resid)
        _batch.rebuild_levels_batch(mats, chunk, n_init)
        yield lo, chunk, _detrend_finite(chunk, prep.mode)


def _replay(prep: _Prepared, boot: _BootBatch):
    """The chunks of the built level-1 batch ``boot`` once more
    (:func:`_level1_chunks`), in a fresh chunk buffer: the same stream and
    the same steps, so the same bits as its build.  FDBB level two is its caller."""
    return _level1_chunks(prep, boot.dgp_rank, _chunk_buffer(prep))


def _grams(chunks, grams) -> np.ndarray:
    """Writes the rows of each chunk that ``chunks`` yields, as (first row,
    detrended chunk, finite), into every Gram stack of ``grams``, a list of
    (stack (B, K(q+1), K(q+1)), lag order q, T_eff); returns which paths
    were finite, (B,)."""
    finite = np.empty(len(grams[0][0]), dtype=bool)
    for lo, chunk, ok in chunks:
        rows = slice(lo, lo + len(chunk))
        finite[rows] = ok
        for gram, p, t_eff in grams:
            _batch.gram_batch(chunk, p, t_eff, out=gram[rows])
    return finite


def _sweep_grams(gram, finite, p: int, t_eff: int) -> _batch.BatchSweep:
    """The sweep at lag order ``p`` of a batch from its Gram matrices over
    ``t_eff`` rows (:func:`_grams`), a non-finite path flagged."""
    sweep = _batch.sweep_batch(gram, p, t_eff)
    sweep.reason[~finite] |= _batch.NONFINITE
    return sweep


def _level1_batch(prep: _Prepared, dgp_rank: int, paths: np.ndarray, grams):
    """Builds the sample's level-1 batch at ``dgp_rank`` in the chunk buffer
    ``paths`` (:func:`_level1_chunks`), each chunk writing its rows of the
    Gram stacks ``grams`` (:func:`_grams`), which :func:`_level1_batches`
    sweeps; returns which of its n_boot paths were finite, (n_boot,)."""
    return _grams(_level1_chunks(prep, dgp_rank, paths), grams)


def _gram_stack(n_rows: int, n_vars: int, p: int) -> np.ndarray:
    """An empty (n_rows, K(p+1), K(p+1)) stack of Gram matrices at lag order ``p``."""
    width = n_vars * (p + 1)
    return np.empty((n_rows, width, width))


def _level1_batches(preps, dgp_rank: int, paths: np.ndarray, readers):
    """Each sample's level-1 batch at ``dgp_rank`` (:func:`_level1_batch`),
    built in turn through the one chunk buffer ``paths`` and swept as one
    stack from their Gram matrices.  ``readers[i]``, a tuple, names the
    methods that read sample i's batch (:class:`_BootBatch`).

    When ``lavar`` reads the rank-K batches, every sample also writes its
    Gram rows at p + 1 as it builds.  Those p + 1 Gram matrices are swept
    as one stack, and so are the observed samples at p + 1; each batch
    keeps its slices of the two for ``lavar`` (:func:`lag_augmented_interval`).

    Each build keeps its own stream and its own recursion, so a sample's
    slice is bitwise what it would be alone: every kernel treats each
    sample of a stack alone.  The samples share their shape and settings
    (see :func:`run_methods`).
    """
    first = preps[0]
    n_boot, n_vars, p = first.cfg.n_boot, first.n_vars, first.p
    rows = [slice(i * n_boot, (i + 1) * n_boot) for i in range(len(preps))]
    # lavar reads the rank-K batch; a sample too short for it gets its DataError instead
    lavar = dgp_rank == n_vars and any("lavar" in n for n in readers) and not _lavar_error(first)
    # lavar's VAR(p + 1) fits use rows t = p+2..T under either sample convention
    t_eff, t_lavar = first.sweep.t_eff, first.n_obs - p - 1
    gram = _gram_stack(len(preps) * n_boot, n_vars, p)
    augmented = _gram_stack(len(gram), n_vars, p + 1) if lavar else None
    finite = np.empty(len(gram), dtype=bool)
    for prep, part in zip(preps, rows):
        grams = [(gram[part], p, t_eff)]
        if lavar:
            grams.append((augmented[part], p + 1, t_lavar))
        finite[part] = _level1_batch(prep, dgp_rank, paths, grams)
    sweep = _sweep_grams(gram, finite, p, t_eff)
    boots = [_BootBatch(sweep.take(part), dgp_rank, names) for part, names in zip(rows, readers)]
    if lavar:
        sweep_lavar = _sweep_grams(augmented, finite, p + 1, t_lavar)
        # a replication whose level-1 sweep met a non-finite value fails here
        # too: a spoilt path, or a Gram or canonical matrix that overflowed at p
        sweep_lavar.reason |= sweep.reason & _batch.NONFINITE
        tilde = np.concatenate([prep.tilde for prep in preps])
        observed = _batch.sweep_batch(_batch.gram_batch(tilde, p + 1, t_lavar), p + 1, t_lavar)
        for i, (boot, part) in enumerate(zip(boots, rows)):
            boot.memo[("lavar",)] = (observed.take(slice(i, i + 1)), sweep_lavar.take(part))
    return boots


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _rank_fit(sweep: _batch.BatchSweep, rank: int, structural: bool) -> tuple:
    """(Pi, Gammas) at ``rank``, and Sigma too when ``structural``."""
    fit = _batch.rank_fit_batch(sweep, rank)
    return fit + (_batch.sigma_batch(sweep, rank),) if structural else fit


def _zeta_at_rank(sweep: _batch.BatchSweep, rank, cq: _CompiledQueries, n_lags=None):
    """Per-sample query values at an imposed rank, an int or a (B,) array of
    per-sample ranks; returns ((B, Q) values, (B,) ok, (Pi, Gammas) fit).
    The first ``n_lags`` levels matrices (all by default) feed the responses.

    Each distinct rank is fitted on its own rows only (Sigma too, when a
    query is structural), and the fits are scattered into one, so row b
    equals the int-rank call at ``rank[b]``.  When no query is reduced-form
    the reduced-form responses are freed before the gather.
    """
    ranks = np.broadcast_to(rank, sweep.reason.shape)
    distinct = np.unique(ranks)
    if len(distinct) == 1:
        fit = _rank_fit(sweep, int(distinct[0]), cq.need_structural)
    else:
        fit = None
        for r in distinct:
            rows = ranks == r
            part = _rank_fit(sweep.take(rows), int(r), cq.need_structural)
            if fit is None:
                fit = tuple(np.empty(ranks.shape + piece.shape[1:]) for piece in part)
            for whole, piece in zip(fit, part):
                whole[rows] = piece
    pi, gammas, *sigma = fit
    psi = _batch.irf_batch(_batch.var_matrices_batch(pi, gammas)[:, :n_lags], cq.h_need)
    ok, phi = sweep.ok, None
    if cq.need_structural:
        chol, chol_ok = _chol_batch(sigma[0])
        ok &= chol_ok
        # one (B, (H+1)K, K) @ (B, K, K) product per batch, bitwise the per-horizon ones
        phi = (psi.reshape(len(psi), -1, psi.shape[-1]) @ chol).reshape(psi.shape)
        if not cq.need_reduced:
            psi = None
    return cq.evaluate(psi, phi), ok, (pi, gammas)


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


def _finalize(prep: _Prepared, method, rank, stats, ok, points, what, *, centre=None, ranks=None):
    """The interval set of replication statistics ``stats`` (B, Q): Hall bounds
    around ``points`` of ``stats - centre``.  ``centre`` is ``points`` unless
    FDBB passes its level-one (B, Q) values; the mean of their kept rows, the
    bagged estimate, is then the point.  A replication fails when ``ok`` is
    false or a statistic of it is not finite; the failed ones are dropped and
    the budget applies (:func:`_census`).  The re-selected ``ranks`` give
    ``rank_counts``: the kept replications per rank, ``-1`` the failed ones.

    Both forms sort one F-ordered (B, Q) temporary, so the sort runs down
    contiguous columns: for a fixed centre a plain copy of the statistics,
    whose two order statistics :func:`_hall_bounds` shifts by the points
    (bitwise the centred sort), for FDBB's the centred statistics."""
    cfg = prep.cfg
    ok = ok & np.isfinite(stats).all(axis=1)
    if centre is not None:
        ok &= np.isfinite(centre).all(axis=1)
    n_failed = _census(ok, cfg, what)
    counts = None
    if ranks is not None:
        counts = {r: int(n) for r, n in enumerate(np.bincount(ranks[ok])) if n}
        if n_failed:
            counts[-1] = n_failed
    if n_failed:
        stats = stats[ok]
    if centre is None:
        lower, upper = _hall_bounds(np.array(stats, order="F"), points, cfg.gamma, points)
    else:
        # The mean reads a mask copy even when nothing failed: the copy is
        # C-ordered, so the mean adds its rows one by one, whereas on F-ordered
        # query gathers it would sum pairwise and round otherwise.  The copy is
        # a temporary: held through the Hall step, it would add (B, Q) to the peak.
        points = centre[ok].mean(axis=0)
        if n_failed:
            centre = centre[ok]
        lower, upper = _hall_bounds(np.subtract(stats, centre, order="F"), points, cfg.gamma)
    return _to_interval_set(method, rank, prep.cq, lower, upper, points, cfg, n_failed, counts)


def _to_interval_set(method, rank, cq, lower, upper, points, cfg, n_failed, rank_counts=None):
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
        rank_counts=rank_counts,
    )


# ---------------------------------------------------------------------------
# the five interval constructions


def fixed_rank_interval(prep: _Prepared, rank: int, *, boot=None) -> IntervalSet:
    """Hall percentile interval with the rank imposed throughout.

    Fits the error-correction model at ``rank``, rebuilds ``cfg.n_boot``
    samples recursively from the centered residuals, re-detrends and refits
    each at the same rank, and inverts the centered bootstrap distribution.
    ``prep.fan(rank)`` holds this interval, computed once per sample.  Each
    construction reads ``boot`` if it is the level-1 batch at its DGP rank.
    """
    rank = prep.check_rank(rank)
    points = prep.point_zetas(rank)
    zeta_star, ok, _ = _zeta_at_rank(prep.level1(rank, boot).sweep, rank, prep.cq)
    return _finalize(prep, "fixed_rank", rank, zeta_star, ok, points, f"the rank-{rank} bootstrap")


def _reselect(prep: _Prepared, selector: RankSelector, dgp_rank_mode: str, boot, reader):
    """Level one of the rank re-selection bootstrap ``reader``: the observed
    rank, the level-1 batch, its per-sample selected ranks and the
    replications' query values, ok flags and fit at those ranks.  The batch
    keeps the per-sample part for the two methods that read it, so
    ``bers_*`` and ``fdbb_*`` with one selector compute it once."""
    if dgp_rank_mode not in ("estimated", "full_K"):
        raise ConfigError(f"dgp_rank_mode must be 'estimated' or 'full_K', got {dgp_rank_mode!r}")
    r_hat = prep.select_rank(selector)
    boot = prep.level1(r_hat if dgp_rank_mode == "estimated" else prep.n_vars, boot, reader)
    key = (f"bers_{selector.label}", f"fdbb_{selector.label}")
    if key not in boot.memo:
        ranks_star = _batch.select_batch(boot.sweep, selector)
        values, ok, (pi, gammas) = _zeta_at_rank(boot.sweep, ranks_star, prep.cq)
        _read_only(ranks_star, values, ok, pi, gammas)
        boot.memo[key] = (ranks_star, values, ok, (pi, gammas))
    return (r_hat, boot, *boot.memo[key])


def bers_interval(
    prep: _Prepared, selector: RankSelector, dgp_rank_mode: str = "estimated", *, boot=None
) -> IntervalSet:
    """Bootstrap with the rank re-selected inside every replication.

    The bootstrap process is built at the selected rank (``estimated``) or
    at the full rank K (``full_K``); every replication re-runs the selector
    and refits at its own rank.  The interval centers at the point estimate
    under the rank selected on the observed data.
    """
    name = f"bers_{selector.label}"
    r_hat, _, ranks_star, zeta_star, ok, _ = _reselect(prep, selector, dgp_rank_mode, boot, name)
    return _finalize(
        prep, name, r_hat, zeta_star, ok, prep.point_zetas(r_hat),
        "the rank re-selection bootstrap", ranks=ranks_star,
    )


_MA_NAMES = ("ma", "ma_fixed")


def _ma_sums(prep: _Prepared, boot: _BootBatch, name: str):
    """The replications' per-rank query values averaged under the weighting
    of the MA method ``name``, (B, Q), and ok: with each replication's own
    weights (``ma``) or with the observed-data weights (``ma_fixed``).

    One pass over ranks 0..K sums ``name``'s weighting and the other one
    when the batch's ``readers`` name it; each rank's values go straight
    into the sums, summed in rank order from zero.  Each sum is the memo of
    its one method.
    """
    if (name,) not in boot.memo:
        sweep = boot.sweep
        wanted = [each for each in _MA_NAMES if each == name or each in boot.readers]
        sums = {each: np.zeros((sweep.reason.size, len(prep.queries))) for each in wanted}
        if "ma" in sums:
            stats = _batch.trace_stats_batch(sweep.eigenvalues, sweep.t_eff)
            _, weights_star = _batch.weights_batch(stats, sweep.t_eff, prep.c1, prep.c2)
        if "ma_fixed" in sums:
            data_weights = prep.weights().normalized
        ok = sweep.ok
        for rank in range(prep.n_vars + 1):
            values, rank_ok, _ = _zeta_at_rank(sweep, rank, prep.cq)
            ok &= rank_ok
            if "ma_fixed" in sums:
                sums["ma_fixed"] += data_weights[rank] * values
            if "ma" in sums:
                values *= weights_star[:, rank, None]
                sums["ma"] += values
            del values  # freed before the next rank's are made
        _read_only(ok, *sums.values())
        boot.memo.update({(each,): (total, ok) for each, total in sums.items()})
    return boot.memo[(name,)]


def ma_interval(prep: _Prepared, weights_mode: str = "endogenous", *, boot=None) -> IntervalSet:
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
    name = "ma" if weights_mode == "endogenous" else "ma_fixed"
    data_weights = prep.weights()
    per_rank_points = np.stack([prep.point_zetas(r) for r in range(prep.n_vars + 1)])
    points = data_weights.normalized @ per_rank_points
    zeta_star, ok = _ma_sums(prep, prep.level1(data_weights.reference_rank, boot, name), name)
    return _finalize(
        prep, name, data_weights.reference_rank, zeta_star, ok, points,
        "the model-averaging bootstrap",
    )


def _level_two(prep: _Prepared, boot: _BootBatch, code: int, pi_star, gam_star):
    """FDBB's level two, a chunk at a time, as :func:`_level1_chunks` yields
    level one: one sample per level-one sample, drawn on the stream (seed,
    2, ``code``) from that sample's centred residuals at its selected rank
    (``pi_star``, ``gam_star``), from the observed initial rows, rebuilt
    under that fit, zeroed where non-finite and detrended.

    Level one's chunks are replayed (:func:`_replay`), so each chunk's
    residuals come from its paths and its rows of the selected fits; then
    its level-two chunk is drawn over it, in the one chunk buffer.
    """
    n_init, t_eff = prep.p + 1, prep.sweep.t_eff
    draw = _drawer(prep.cfg, 2, code, prep.raw[:n_init])
    for lo, chunk, _ in _replay(prep, boot):
        rows = slice(lo, lo + len(chunk))
        draw(chunk, _batch.residuals_batch(chunk, pi_star[rows], gam_star[rows], t_eff))
        mats = _batch.var_matrices_batch(pi_star[rows], gam_star[rows])
        _batch.rebuild_levels_batch(mats, chunk, n_init)
        yield lo, chunk, _detrend_finite(chunk, prep.mode)


def fdbb_interval(
    prep: _Prepared, selector: RankSelector, dgp_rank_mode: str = "estimated", *, boot=None
) -> IntervalSet:
    """Fast-double-bootstrap bagging interval.

    Level one matches the rank re-selection bootstrap.  From every level-one
    sample exactly one second-level sample is rebuilt under that sample's
    selected rank; the interval centers at the bagged (averaged) level-one
    estimate and inverts the distribution of the level-two minus level-one
    statistics.
    """
    name = f"fdbb_{selector.label}"
    r_hat, boot, ranks_star, zeta_star, ok1, (pi_star, gam_star) = _reselect(
        prep, selector, dgp_rank_mode, boot, name
    )
    p, t_eff = prep.p, prep.sweep.t_eff
    gram = _gram_stack(prep.cfg.n_boot, prep.n_vars, p)
    chunks = _level_two(prep, boot, _SELECTOR_CODES[selector.method], pi_star, gam_star)
    sweep2 = _sweep_grams(gram, _grams(chunks, [(gram, p, t_eff)]), p, t_eff)
    zeta_2, ok2, _ = _zeta_at_rank(sweep2, _batch.select_batch(sweep2, selector), prep.cq)
    return _finalize(
        prep, name, r_hat, zeta_2, ok1 & ok2, None, "the double bootstrap",
        centre=zeta_star, ranks=ranks_star,
    )


def _lavar_error(prep: _Prepared) -> DataError | None:
    """The DataError of a sample too short for ``lavar``'s VAR(p + 1), or None."""
    p, n_obs, need = prep.p, prep.n_obs, _min_obs(prep.n_vars, prep.p + 1)
    if n_obs >= need:
        return None
    return DataError(
        f"lavar fits a VAR(p + 1) = VAR({p + 1}) for p = {p}: it needs at least"
        f" K*(p+1) + 10 = {need} observations, got {n_obs}"
    )


def lag_augmented_interval(prep: _Prepared, *, boot=None) -> IntervalSet:
    """Levels bootstrap with one extra estimation lag.

    A levels VAR without deterministic terms is the error-correction fit at
    full rank K.  The bootstrap process is the sample's rank-K fit, so the
    bootstrap paths are the level-1 batch at rank K, which the rank-K fan
    member reads too; built for ``lavar``, each of its chunks writes its
    Gram rows at p+1 too, and the batch keeps their sweep and the observed
    sample's at p+1 (:func:`_level1_batches`).  A batch built without them
    is not read: ``lavar`` builds its own.  The point estimate and every
    bootstrap estimate come from the rank-K fit of a VAR(p+1), of which
    only the first p levels matrices feed the responses.  The VAR(p+1) fits
    use rows t = p+2..T under either sample convention; a path that turned
    non-finite fails.  A sample too short for p+1 lags raises DataError.
    """
    error = _lavar_error(prep)
    if error is not None:
        raise error
    if boot is not None and ("lavar",) not in boot.memo:
        boot = None
    observed, sweep = prep.level1(prep.n_vars, boot, "lavar").memo[("lavar",)]
    if observed.reason[0]:
        raise _sweep_error(observed, prep.tilde, None)
    (points,), (ok_point,), _ = _zeta_at_rank(observed, prep.n_vars, prep.cq, prep.p)
    if not ok_point:
        raise EstimationError("covariance matrix is not positive definite")
    zeta_star, ok, _ = _zeta_at_rank(sweep, prep.n_vars, prep.cq, prep.p)
    return _finalize(prep, "lavar", None, zeta_star, ok, points, "the lag-augmented bootstrap")


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
    """A method's runner, ``run(prep, boot)``; ``rank(prep)`` is the DGP rank
    of the level-1 batch ``boot`` (None: none) and ``fan(prep)`` the fan
    ranks it reads."""

    run: Callable
    rank: Callable = lambda prep: None
    fan: Callable = lambda prep: ()


def _fan_lookup(name: str, rank_of) -> _Method:
    return _Method(
        run=lambda prep, _: replace(prep.fan(rank_of(prep)), method=name),
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
    "bers_aic": _Method(lambda prep, boot: bers_interval(prep, _AIC, boot=boot), _selected(_AIC)),
    "bers_bic": _Method(lambda prep, boot: bers_interval(prep, _BIC, boot=boot), _selected(_BIC)),
    "ma": _Method(lambda prep, boot: ma_interval(prep, boot=boot), _reference_rank),
    "ma_fixed": _Method(lambda prep, boot: ma_interval(prep, "fixed", boot=boot), _reference_rank),
    "fdbb_aic": _Method(lambda prep, boot: fdbb_interval(prep, _AIC, boot=boot), _selected(_AIC)),
    "fdbb_bic": _Method(lambda prep, boot: fdbb_interval(prep, _BIC, boot=boot), _selected(_BIC)),
    "wimp": _Method(lambda prep, _: wimp_interval(prep), fan=lambda prep: range(prep.n_vars + 1)),
    "lavar": _Method(lambda prep, boot: lag_augmented_interval(prep, boot=boot),
                     lambda prep: prep.n_vars),
})


def register_method(name: str, runner) -> None:
    """Register ``runner`` as the interval method ``name``.

    ``runner(prep)`` receives the prepared sample (``raw``, ``p``, ``mode``,
    ``cfg``, ``queries``, ``c1``, ``c2``, ``true_rank``) and returns an
    :class:`IntervalSet` or a (lower, upper) pair aligned with ``prep.queries``.
    """
    _EXTRA_METHODS[name] = _Method(lambda prep, _: runner(prep))


def _check_methods(names) -> tuple:
    """``names`` as a tuple, repeats dropped; ConfigError for a bare string or unknown name."""
    if isinstance(names, str):
        raise ConfigError(f"methods must be a sequence of names, got the string {names!r}")
    names = tuple(names)
    unknown = [str(name) for name in names if not isinstance(name, str) or name not in METHODS]
    if unknown:
        raise ConfigError(f"unknown methods: {', '.join(unknown)}")
    return tuple(dict.fromkeys(names))


def _attempt(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except (DataError, EstimationError) as exc:
        # Its traceback's frames would keep the caller's batches and buffers alive.
        return exc.with_traceback(None)


def run_methods(preps, names):
    """Run the named methods on one prepared sample or on a group of them.

    Returns, for one sample, name -> the method's result, or the
    :class:`DataError` or :class:`EstimationError` it raised; for a
    sequence, one such dict per sample, in order.  A :class:`ConfigError`
    propagates, for an unknown method name too.  The samples of a group share
    their shape, lag order, detrending and bootstrap size; seeds may differ.

    Fan members and methods run in ascending level-1 rank.  The plan lists,
    per rank and sample, the readers of the batch in the order they run,
    and the build gets it (:func:`_level1_batches`): every sample that reads
    the rank builds its batch, on its own stream, through the run's one
    chunk buffer (:func:`_chunk_buffer`), writing ``lavar``'s p + 1 Gram
    rows too when ``lavar`` reads it; one sweep covers the stack, and each
    sample runs its fan member and methods there on its own batch.  A memo
    on the batch goes once its last reader has run (:meth:`_BootBatch.release`),
    and the batch once all have.  No batch keeps its paths: FDBB level two
    replays the chunks of the batch it reads in a chunk buffer of its own
    (:func:`_replay`), drawing over them.  So no run holds an (n_boot, T,
    K) array.  The order changes no result: every build draws from its own Philox stream, keyed
    by (seed, level, code), and every kernel treats each sample alone.
    Numpy's floating-point warnings are silenced: a replication they concern
    is flagged by the kernels and counted as failed.
    """
    single = isinstance(preps, _Prepared)
    group = [preps] if single else list(preps)
    names = _check_methods(names)
    shared = {
        (prep.raw.shape, prep.p, prep.mode, prep.cfg.n_boot, prep.cfg.paper_sample_convention)
        for prep in group
    }
    if len(shared) > 1:
        raise ConfigError(
            "samples run together must share their shape, lag order, detrending and bootstrap size"
        )
    out = [{} for _ in group]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        plan: dict = {}  # rank -> [(sample index, readers)]; reader None, first, is the fan
        for i, prep in enumerate(group):
            reads = {rank: [None] for name in names for rank in METHODS[name].fan(prep)}
            for name in names:
                reads.setdefault(METHODS[name].rank(prep), []).append(name)
            for rank, readers in reads.items():
                plan.setdefault(rank, []).append((i, tuple(readers)))
        # made only when some rank is built, right before the first build
        paths = _chunk_buffer(group[0]) if set(plan) - {None} else None
        for rank, reads in sorted(plan.items(), key=lambda item: (item[0] is None, item[0] or 0)):
            boots = [None] * len(reads)
            if rank is not None:
                boots = _level1_batches(
                    [group[i] for i, _ in reads], rank, paths, [readers for _, readers in reads]
                )
            for i, readers in reads:
                prep, boot = group[i], boots.pop(0)
                for k, name in enumerate(readers):
                    if name is None:
                        _attempt(prep.fan, rank, boot)  # an error stays in the fan for its readers
                    else:
                        out[i][name] = _attempt(METHODS[name].run, prep, boot)
                    if boot is not None:
                        boot.release(readers[k + 1 :])
                del boot  # the batch goes once its readers have run
    out = [{name: results[name] for name in names} for results in out]
    return out[0] if single else out
