"""Coverage and width experiments for the interval methods.

A design is data: a levels VAR's matrices (:class:`DgpSpec`), simulated
and answered by the batch kernels.  :func:`make_dgp` builds the two
built-in three-variable VAR(1)s; :func:`run_experiment` runs any design,
every requested interval method on the same simulated samples, and
aggregates per-cell coverage rates and mean widths.  Replications are
independent tasks; the reduction is an ordered fold over fixed-size
chunks, so the output is bit-identical for any worker count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import _batch
from . import bootstrap as bt
from ._memory import pin_allocator
from .errors import ConfigError, EstimationError, check_integer, check_weight_constants
from .timeseries import DetrendMode
from .vecm import IrfArray, IrfQuery, REDUCED_FORM, _min_obs

__all__ = [
    "DgpSpec",
    "ExperimentConfig",
    "CoverageTable",
    "make_dgp",
    "simulate_path",
    "true_irf",
    "run_experiment",
]

_CHUNK = 16  # fixed reduction granularity; must not depend on the worker count
# Replications whose bootstrap batches are swept as one stack.  Bigger
# groups save more calls and hold one more path buffer per replication.
_GROUP = 4


@dataclass(frozen=True, eq=False)
class DgpSpec:
    """The levels VAR y_t = A_1 y_{t-1} + ... + A_p y_{t-p} + e_t as data:
    ``mats`` (p, K, K) holds A_1..A_p, kept as a read-only float copy, and
    ``T`` the simulated rows.  Specs compare by identity (an array field has
    no value equality)."""

    mats: np.ndarray
    T: int

    def __post_init__(self):
        mats = np.array(self.mats, dtype=float)
        if mats.ndim != 3 or min(mats.shape) < 1 or mats.shape[1] != mats.shape[2]:
            raise ConfigError(f"mats must have shape (p, K, K) with p, K >= 1, got {mats.shape}")
        if not np.isfinite(mats).all():
            raise ConfigError("mats must be finite")
        check_integer("T", self.T)
        if self.T < 1:
            raise ConfigError(f"T must be at least 1, got {self.T}")
        mats.flags.writeable = False
        object.__setattr__(self, "mats", mats)

    def __reduce__(self):
        # Unpickling, as in a run_experiment pool worker, goes through the
        # constructor, so the copy is checked and its ``mats`` read-only too.
        return DgpSpec, (self.mats, self.T)

    @property
    def n_vars(self) -> int:
        return self.mats.shape[1]

    @property
    def Pi(self) -> np.ndarray:
        """The error-correction matrix A_1 + ... + A_p - I."""
        return self.mats.sum(axis=0) - np.eye(self.n_vars)

    @property
    def companion(self) -> np.ndarray:
        return _batch.companion_batch(self.mats[None])[0]

    @property
    def true_rank(self) -> int:
        return int(np.linalg.matrix_rank(self.Pi, tol=1e-12))


def make_dgp(variant: str, T: int) -> DgpSpec:
    """The weak (``dgp1``) or strong (``dgp2``) cointegration design: the
    VAR(1) y_t = (I + Pi) y_{t-1} + e_t in three variables, with
    Pi = d1 a1 b1' + d2 a2 b2' on fixed loadings a and relations b."""
    weights = {"dgp1": (0.05, 0.02), "dgp2": (1.0, 1.0)}
    if variant not in weights:
        raise ConfigError(f"unknown DGP variant {variant!r}; expected 'dgp1' or 'dgp2'")
    d1, d2 = weights[variant]
    a1, a2 = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    b1, b2 = np.array([2.0, -1.0, 0.0]), np.array([1.0, -1.0, -1.0])
    pi = d1 * np.outer(a1, b1) + d2 * np.outer(a2, b2)
    return DgpSpec((np.eye(3) + pi)[None], T)


def simulate_path(spec: DgpSpec, rng, innovations: np.ndarray | None = None) -> np.ndarray:
    """Simulate T rows from p zero rows with standard-normal innovations.

    ``innovations`` overrides the shocks (a T x K array), which is useful
    for noise-free checks.
    """
    p, n_vars = spec.mats.shape[:2]
    if innovations is None:
        innovations = rng.standard_normal((spec.T, n_vars))
    elif np.shape(innovations) != (spec.T, n_vars):
        raise ConfigError(f"innovations must have shape ({spec.T}, {n_vars})")
    path = np.zeros((1, p + spec.T, n_vars))
    path[0, p:] = innovations
    return _batch.rebuild_levels_batch(spec.mats, path, p)[0, p:]


def true_irf(spec: DgpSpec, h_max: int) -> IrfArray:
    """True responses Psi_0..Psi_h of the design's levels VAR."""
    if h_max < 0:
        raise ConfigError(f"h_max must be >= 0, got {h_max}")
    return IrfArray(_batch.irf_batch(spec.mats[None], h_max)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Monte Carlo design; defaults follow the full-scale experiment."""

    dgp: DgpSpec
    n_mc: int = 1000
    n_boot: int = 399
    gamma: float = 0.05
    h_max: int = 60
    methods: tuple = ("ols", "true_rank", "wimp")
    seed: int = 0
    p: int = 1
    mode: DetrendMode = DetrendMode.NONE
    c1: float = 1.0
    c2: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "methods", bt._check_methods(self.methods))
        object.__setattr__(self, "mode", DetrendMode(self.mode))
        for name in ("n_mc", "h_max", "p", "seed"):
            check_integer(name, getattr(self, name))
        check_weight_constants(self.c1, self.c2)
        if self.n_mc < 1:
            raise ConfigError("n_mc must be positive")
        if self.h_max < 1:
            raise ConfigError("h_max must be at least 1")
        min_obs = _min_obs(self.dgp.n_vars, self.p)  # the estimator's own minimum
        if self.dgp.T < min_obs:
            raise ConfigError(f"T must be at least K*p + 10 = {min_obs}, got {self.dgp.T}")
        # lavar sweeps at p + 1, so below its minimum every replication would fail
        min_lavar = _min_obs(self.dgp.n_vars, self.p + 1)
        if "lavar" in self.methods and self.dgp.T < min_lavar:
            raise ConfigError(
                f"lavar fits a VAR(p + 1): T must be at least K*(p+1) + 10 = {min_lavar},"
                f" got {self.dgp.T}"
            )
        # fail fast on settings the per-replication bootstrap would reject
        bt.BootstrapConfig(n_boot=self.n_boot, gamma=self.gamma, seed=self.seed)


@dataclass
class CoverageTable:
    """Aggregated coverage counts and width sums per (method, a, b, horizon)."""

    methods: tuple
    n_mc: int
    h_max: int
    n_vars: int
    covered: np.ndarray  # (M, K, K, H) int
    width_sum: np.ndarray  # (M, K, K, H) float
    success: np.ndarray  # (M,) int

    def _m(self, method: str) -> int:
        return self.methods.index(method)

    def n_failed(self, method: str) -> int:
        return self.n_mc - int(self.success[self._m(method)])

    def coverage(self, method: str) -> np.ndarray:
        """Coverage rates (K, K, H); NaN when every replication failed."""
        m = self._m(method)
        if self.success[m] == 0:
            return np.full(self.covered.shape[1:], np.nan)
        return self.covered[m] / self.success[m]

    def mean_width(self, method: str) -> np.ndarray:
        m = self._m(method)
        if self.success[m] == 0:
            return np.full(self.width_sum.shape[1:], np.nan)
        return self.width_sum[m] / self.success[m]

    def median_coverage(self, method: str) -> np.ndarray:
        """Median across the K*K response pairs, per horizon."""
        rates = self.coverage(method)
        return np.median(rates.reshape(-1, rates.shape[-1]), axis=0)

    def min_coverage(self, method: str) -> np.ndarray:
        rates = self.coverage(method)
        return rates.reshape(-1, rates.shape[-1]).min(axis=0)

    def mean_width_by_horizon(self, method: str) -> np.ndarray:
        widths = self.mean_width(method)
        return widths.reshape(-1, widths.shape[-1]).mean(axis=0)

    def coverage_rows(self):
        """Flat rows (method, response, shock, horizon, coverage, mean_width,
        n_covered, n_success, n_fail)."""
        # (a, b, h) in the C order of the (K, K, H) arrays, whose whole-array
        # tolist() gives the cells as Python floats and ints
        cells = [
            (a + 1, b + 1, h + 1)
            for a in range(self.n_vars) for b in range(self.n_vars) for h in range(self.h_max)
        ]
        rows = []
        for m, method in enumerate(self.methods):
            n_success = int(self.success[m])
            columns = (self.coverage(method), self.mean_width(method), self.covered[m])
            rows.extend(
                [method, a, b, h, rate, width, covered, n_success, self.n_mc - n_success]
                for (a, b, h), rate, width, covered in zip(
                    cells, *(column.ravel().tolist() for column in columns)
                )
            )
        return rows

    def summary_rows(self):
        """Flat rows (method, horizon, median_cp, min_cp, mean_width)."""
        rows = []
        for method in self.methods:
            med = self.median_coverage(method)
            low = self.min_coverage(method)
            wid = self.mean_width_by_horizon(method)
            for h in range(self.h_max):
                rows.append(
                    [method, h + 1, float(med[h]), float(low[h]), float(wid[h])]
                )
        return rows


# ---------------------------------------------------------------------------
# per-replication machinery


def _bounds_from(method: str, result, n_queries: int):
    """A method's (lower, upper) arrays, checked against the query count.

    Raises ConfigError naming the method when the result is not a pair of
    ``n_queries`` bounds each, and EstimationError when a bound is NaN or
    a lower bound exceeds its upper bound (an infinite bound is an
    unbounded end).
    """
    if isinstance(result, bt.IntervalSet):
        lower, upper = result.lower, result.upper
    else:
        try:
            lower, upper = (np.asarray(bounds, float).ravel() for bounds in result)
        except (TypeError, ValueError):
            raise ConfigError(f"method {method!r} must return a (lower, upper) pair") from None
    if lower.shape != (n_queries,) or upper.shape != (n_queries,):
        raise ConfigError(
            f"method {method!r} returned {lower.size} lower and {upper.size} upper "
            f"bounds for {n_queries} queries"
        )
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise EstimationError(f"method {method!r} returned a NaN bound")
    if np.any(lower > upper):
        raise EstimationError(f"method {method!r} returned a lower bound above its upper bound")
    return lower, upper


def _run_chunk(cfg: ExperimentConfig, rep_indices):
    n_methods = len(cfg.methods)
    n_vars, h_max = cfg.dgp.n_vars, cfg.h_max
    # Horizon-major, as the tables are filled: the queries are (h, a, b),
    # the layout of the response stacks, so they read a view of each stack.
    covered = np.zeros((n_methods, h_max, n_vars, n_vars), dtype=np.int64)
    width_sum = np.zeros((n_methods, h_max, n_vars, n_vars))
    success = np.zeros(n_methods, dtype=np.int64)
    truth = true_irf(cfg.dgp, h_max).values[1:]  # (H, K, K)
    queries = tuple(
        IrfQuery(a=a, b=b, horizon=j, functional="element", kind=REDUCED_FORM)
        for j in range(1, h_max + 1)
        for a in range(1, n_vars + 1)
        for b in range(1, n_vars + 1)
    )

    reps = list(rep_indices)
    samples = np.stack([simulate_path(cfg.dgp, bt._stream(cfg.seed, 7, 901, rep)) for rep in reps])
    bcfgs = [
        bt.BootstrapConfig(
            n_boot=cfg.n_boot, gamma=cfg.gamma,
            seed=int(bt._stream(cfg.seed, 7, 902, rep).integers(0, 2**63)),
        )
        for rep in reps
    ]
    # A rejected sample (an EstimationError) fails every method of its replication.
    preps = [
        prep
        for prep in bt._prepare_many(
            samples, cfg.p, queries, bcfgs, cfg.mode,
            c1=cfg.c1, c2=cfg.c2, true_rank=cfg.dgp.true_rank,
        )
        if isinstance(prep, bt._Prepared)
    ]
    while preps:
        # A group's prepared samples and results are dropped once reduced.
        group, preps[:_GROUP] = preps[:_GROUP], []
        for results in bt.run_methods(group, cfg.methods):
            for m, method in enumerate(cfg.methods):
                if isinstance(results[method], Exception):
                    continue  # the method failed on this replication
                try:
                    lower, upper = _bounds_from(method, results[method], len(queries))
                except EstimationError:
                    continue  # NaN or disordered bounds fail, as in IntervalSet
                low = lower.reshape(h_max, n_vars, n_vars)
                upp = upper.reshape(h_max, n_vars, n_vars)
                covered[m] += (low <= truth) & (truth <= upp)
                width_sum[m] += upp - low
                success[m] += 1
    # CoverageTable's (M, K, K, H) layout, C-ordered: its per-horizon means add rows in order
    covered, width_sum = (np.ascontiguousarray(np.moveaxis(t, 1, -1)) for t in (covered, width_sum))
    return covered, width_sum, success


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        value = os.environ.get("WIMPVAR_WORKERS", "1")
        try:
            workers = int(value)
        except ValueError:
            raise ConfigError(f"WIMPVAR_WORKERS must be an integer, got {value!r}") from None
    check_integer("workers", workers)
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return workers


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> CoverageTable:
    """Run the coverage experiment; output is independent of `workers`.

    Replications are processed in fixed 16-replication chunks and reduced
    in chunk order, so the result is bit-identical whether it is computed
    in-process (``workers=1``) or on a process pool of at most one worker
    per chunk.  Pool workers pin glibc's allocator thresholds
    (:func:`~wimpvar._memory.pin_allocator`); the caller's own process is
    left as it is.
    """
    workers = _resolve_workers(workers)
    chunks = [
        range(start, min(start + _CHUNK, cfg.n_mc)) for start in range(0, cfg.n_mc, _CHUNK)
    ]
    if workers == 1:
        partials = [_run_chunk(cfg, chunk) for chunk in chunks]
    else:
        # Imported here: the pool machinery (multiprocessing) would add a
        # few milliseconds to every import of the package, and only a pool
        # run needs it.
        from concurrent.futures import ProcessPoolExecutor

        # A forking pool starts all its workers at once: no more than the chunks.
        size = min(workers, len(chunks))
        with ProcessPoolExecutor(max_workers=size, initializer=pin_allocator) as pool:
            partials = list(pool.map(_run_chunk, [cfg] * len(chunks), chunks))

    covered, width_sum, success = (sum(parts) for parts in zip(*partials))
    return CoverageTable(
        methods=cfg.methods,
        n_mc=cfg.n_mc,
        h_max=cfg.h_max,
        n_vars=cfg.dgp.n_vars,
        covered=covered,
        width_sum=width_sum,
        success=success,
    )
