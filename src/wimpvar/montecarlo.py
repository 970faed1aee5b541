"""Coverage and width experiments for the interval methods.

Simulates a three-variable VAR(1) with two cointegrating relations (in a
weak and a strong variant), runs every requested interval method on the
same simulated samples, and aggregates per-cell coverage rates and mean
widths.  Replications are independent tasks; the reduction is an ordered
fold over fixed-size chunks, so the output is bit-identical for any worker
count.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bootstrap as bt
from .errors import ConfigError, DataError, EstimationError, check_integer
from .timeseries import DetrendMode
from .vecm import IrfArray, IrfQuery, REDUCED_FORM

__all__ = [
    "DgpSpec",
    "ExperimentConfig",
    "CoverageTable",
    "make_dgp",
    "simulate_path",
    "true_irf",
    "run_experiment",
    "KNOWN_METHODS",
]

# Fixed loading/cointegration vectors of the simulation design.
_ALPHA1 = np.array([0.0, 1.0, 0.0])
_ALPHA2 = np.array([0.0, 0.0, 1.0])
_BETA1 = np.array([2.0, -1.0, 0.0])
_BETA2 = np.array([1.0, -1.0, -1.0])

_CHUNK = 16  # fixed reduction granularity; must not depend on the worker count


@dataclass(frozen=True)
class DgpSpec:
    """Three-variable VAR(1) process y_t = (I + Pi) y_{t-1} + e_t."""

    variant: str
    d1: float
    d2: float
    T: int

    @property
    def Pi(self) -> np.ndarray:
        return self.d1 * np.outer(_ALPHA1, _BETA1) + self.d2 * np.outer(_ALPHA2, _BETA2)

    @property
    def companion(self) -> np.ndarray:
        return np.eye(3) + self.Pi

    @property
    def n_vars(self) -> int:
        return 3

    @property
    def true_rank(self) -> int:
        return int(np.linalg.matrix_rank(self.Pi, tol=1e-12))


def make_dgp(variant: str, T: int) -> DgpSpec:
    """The weak (``dgp1``) or strong (``dgp2``) cointegration design."""
    if variant == "dgp1":
        return DgpSpec("dgp1", 0.05, 0.02, T)
    if variant == "dgp2":
        return DgpSpec("dgp2", 1.0, 1.0, T)
    raise ConfigError(f"unknown DGP variant {variant!r}; expected 'dgp1' or 'dgp2'")


def simulate_path(spec: DgpSpec, rng, innovations: np.ndarray | None = None) -> np.ndarray:
    """Simulate T rows from y_0 = 0 with standard-normal innovations.

    ``innovations`` overrides the shocks (a T x 3 array), which is useful
    for noise-free checks.
    """
    if innovations is None:
        innovations = rng.standard_normal((spec.T, 3))
    else:
        innovations = np.asarray(innovations, dtype=float)
        if innovations.shape != (spec.T, 3):
            raise ConfigError(f"innovations must have shape ({spec.T}, 3)")
    growth = spec.companion
    out = np.empty((spec.T, 3))
    prev = np.zeros(3)
    for t in range(spec.T):
        prev = growth @ prev + innovations[t]
        out[t] = prev
    return out


def true_irf(spec: DgpSpec, h_max: int) -> IrfArray:
    """True responses Psi_j = (I + Pi)^j."""
    psi = np.empty((h_max + 1, 3, 3))
    psi[0] = np.eye(3)
    for j in range(1, h_max + 1):
        psi[j] = spec.companion @ psi[j - 1]
    return IrfArray(psi, REDUCED_FORM)


KNOWN_METHODS = tuple(bt.METHODS)


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
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "mode", DetrendMode(self.mode))
        for name in ("n_mc", "h_max", "p", "seed"):
            check_integer(name, getattr(self, name))
        unknown = [m for m in self.methods if m not in bt.METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {', '.join(unknown)}")
        if self.n_mc < 1:
            raise ConfigError("n_mc must be positive")
        if self.h_max < 1:
            raise ConfigError("h_max must be at least 1")
        min_obs = self.dgp.n_vars * self.p + 10  # the estimator's own minimum
        if self.dgp.T < min_obs:
            raise ConfigError(f"T must be at least K*p + 10 = {min_obs}, got {self.dgp.T}")
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
        rows = []
        for m, method in enumerate(self.methods):
            rates = self.coverage(method)
            widths = self.mean_width(method)
            n_success = int(self.success[m])
            for a in range(self.n_vars):
                for b in range(self.n_vars):
                    for h in range(self.h_max):
                        rows.append(
                            [
                                method,
                                a + 1,
                                b + 1,
                                h + 1,
                                float(rates[a, b, h]),
                                float(widths[a, b, h]),
                                int(self.covered[m, a, b, h]),
                                n_success,
                                self.n_mc - n_success,
                            ]
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
    ``n_queries`` bounds each, and EstimationError when a lower bound
    exceeds its upper bound.
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
    if np.any(lower > upper):
        raise EstimationError(f"method {method!r} returned a lower bound above its upper bound")
    return lower, upper


def _run_chunk(cfg: ExperimentConfig, rep_indices):
    n_methods = len(cfg.methods)
    n_vars, h_max = 3, cfg.h_max
    covered = np.zeros((n_methods, n_vars, n_vars, h_max), dtype=np.int64)
    width_sum = np.zeros((n_methods, n_vars, n_vars, h_max))
    success = np.zeros(n_methods, dtype=np.int64)
    truth = np.moveaxis(true_irf(cfg.dgp, h_max).values[1:], 0, -1)  # (K, K, H)
    queries = tuple(
        IrfQuery(a=a, b=b, horizon=j, functional="element", kind=REDUCED_FORM)
        for a in range(1, n_vars + 1)
        for b in range(1, n_vars + 1)
        for j in range(1, h_max + 1)
    )

    for rep in rep_indices:
        data = simulate_path(cfg.dgp, bt._stream(cfg.seed, 7, 901, rep))
        boot_seed = int(bt._stream(cfg.seed, 7, 902, rep).integers(0, 2**63))
        bcfg = bt.BootstrapConfig(n_boot=cfg.n_boot, gamma=cfg.gamma, seed=boot_seed)
        try:
            prep = bt._prepare(
                data, cfg.p, queries, bcfg, cfg.mode,
                c1=cfg.c1, c2=cfg.c2, true_rank=cfg.dgp.true_rank,
            )
        except (DataError, EstimationError):
            continue  # every method fails for this replication
        results = bt.run_methods(prep, cfg.methods)
        for m, method in enumerate(cfg.methods):
            if isinstance(results[method], Exception):
                continue  # the method failed on this replication
            try:
                lower, upper = _bounds_from(method, results[method], len(queries))
            except EstimationError:
                continue  # bounds out of order count as a failure, as in IntervalSet
            low = lower.reshape(n_vars, n_vars, h_max)
            upp = upper.reshape(n_vars, n_vars, h_max)
            covered[m] += (low <= truth) & (truth <= upp)
            width_sum[m] += upp - low
            success[m] += 1
    return covered, width_sum, success


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        value = os.environ.get("WIMPVAR_WORKERS", "1")
        try:
            workers = int(value)
        except ValueError:
            raise ConfigError(f"WIMPVAR_WORKERS must be an integer, got {value!r}") from None
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return workers


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> CoverageTable:
    """Run the coverage experiment; output is independent of `workers`.

    Replications are processed in fixed 16-replication chunks and reduced
    in chunk order, so the result is bit-identical whether it is computed
    in-process (``workers=1``) or on a process pool.
    """
    workers = _resolve_workers(workers)
    chunks = [
        range(start, min(start + _CHUNK, cfg.n_mc)) for start in range(0, cfg.n_mc, _CHUNK)
    ]
    if workers == 1:
        partials = [_run_chunk(cfg, chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_chunk, [cfg] * len(chunks), chunks))

    n_methods = len(cfg.methods)
    covered = np.zeros((n_methods, 3, 3, cfg.h_max), dtype=np.int64)
    width_sum = np.zeros((n_methods, 3, 3, cfg.h_max))
    success = np.zeros(n_methods, dtype=np.int64)
    for part_covered, part_width, part_success in partials:
        covered += part_covered
        width_sum += part_width
        success += part_success
    return CoverageTable(
        methods=cfg.methods,
        n_mc=cfg.n_mc,
        h_max=cfg.h_max,
        n_vars=3,
        covered=covered,
        width_sum=width_sum,
        success=success,
    )
