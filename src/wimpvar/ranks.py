"""Cointegration-rank selection and trace-based plausibility weights."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .timeseries import DetrendedSeries, DetrendMode, build_vecm_regressors, detrend
from .vecm import johansen_decomposition, trace_stats_from_eigenvalues

__all__ = [
    "RankSelector",
    "PlausibilityWeights",
    "TRACE_CRIT_LEVELS",
    "TRACE_CRIT_VALUES",
    "ic_values_from_eigenvalues",
    "select_rank",
    "select_rank_ic",
    "select_rank_sequential",
    "plausibility_weights",
    "plausibility_weights_from_fit",
    "relative_plausibility",
]

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


@dataclass(frozen=True)
class RankSelector:
    """A rank selection rule: ``aic``, ``bic``, ``sequential_trace`` or ``fixed``.

    ``sequential_trace`` needs a significance ``level`` in {0.01, 0.05, 0.10};
    ``fixed`` always returns ``rank`` and exists as the degenerate selector
    (useful for reducing rank-re-selection schemes to the fixed-rank one).
    """

    method: str
    level: float = 0.05
    rank: int | None = None

    def __post_init__(self):
        if self.method not in ("aic", "bic", "sequential_trace", "fixed"):
            raise ConfigError(f"unknown rank selection method {self.method!r}")
        if self.method == "sequential_trace" and not any(
            abs(self.level - lvl) < 1e-9 for lvl in TRACE_CRIT_LEVELS
        ):
            raise ConfigError(f"sequential level must be one of {TRACE_CRIT_LEVELS}")
        if self.method == "fixed" and (self.rank is None or self.rank < 0):
            raise ConfigError("fixed selector needs a non-negative rank")

    @property
    def label(self) -> str:
        if self.method == "sequential_trace":
            return f"trace{int(round(self.level * 100))}"
        if self.method == "fixed":
            return f"fixed{self.rank}"
        return self.method


def ic_param_count(rank: int, n_vars: int, p: int) -> int:
    """Free short/long-run parameters that vary with the rank restriction."""
    return 2 * n_vars * rank - rank * rank + n_vars * n_vars * (p - 1)


def ic_values_from_eigenvalues(
    eigenvalues: np.ndarray, ln_det_s00: float, t_eff: int, p: int, criterion: str
) -> np.ndarray:
    """Information-criterion values for ranks 0..K from one decomposition.

    Uses the determinant identity ln det Sigma(r) = ln det S00 +
    sum_{i<=r} ln(1 - lam_i), so no per-rank refitting is needed.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n_vars = lam.size
    if criterion == "aic":
        c_t = 2.0
    elif criterion == "bic":
        c_t = float(np.log(t_eff))
    else:
        raise ConfigError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    ln_det = ln_det_s00 + np.concatenate([[0.0], np.cumsum(np.log1p(-lam))])
    ranks = np.arange(n_vars + 1)
    penalty = c_t * (2 * n_vars * ranks - ranks**2 + n_vars**2 * (p - 1)) / t_eff
    return ln_det + penalty


def _decompose(data, p, mode, paper_convention):
    tilde = data if isinstance(data, DetrendedSeries) else detrend(data, mode)
    return johansen_decomposition(build_vecm_regressors(tilde, p, paper_convention))


def select_rank(jd, selector: RankSelector) -> int:
    """The rank ``selector`` picks from one Johansen decomposition."""
    if selector.method == "fixed":
        return int(selector.rank)
    if selector.method in ("aic", "bic"):
        values = ic_values_from_eigenvalues(
            jd.eigenvalues, jd.ln_det_s00, jd.t_eff, jd.p, selector.method
        )
        return int(np.argmin(values))
    n_vars = jd.n_vars
    stats = trace_stats_from_eigenvalues(jd.eigenvalues, jd.t_eff)
    for rank in range(n_vars):
        if stats[rank] < trace_critical_value(n_vars - rank, selector.level):
            return rank
    return n_vars


def select_rank_ic(
    data,
    p: int,
    criterion: str,
    mode: DetrendMode | str = DetrendMode.NONE,
    paper_convention: bool = False,
) -> int:
    """Rank minimizing ln det Sigma(r) + c_T * pi(r) / T_eff.

    ``criterion`` is ``"aic"`` (c_T = 2) or ``"bic"`` (c_T = ln T_eff); ties
    break toward the smaller rank.
    """
    if criterion not in ("aic", "bic"):
        raise ConfigError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    return select_rank(_decompose(data, p, mode, paper_convention), RankSelector(criterion))


def select_rank_sequential(
    data,
    p: int,
    level: float = 0.05,
    mode: DetrendMode | str = DetrendMode.NONE,
    paper_convention: bool = False,
) -> int:
    """Smallest rank whose trace statistic fails to reject, K if all reject."""
    selector = RankSelector("sequential_trace", level=level)
    return select_rank(_decompose(data, p, mode, paper_convention), selector)


@dataclass(frozen=True)
class PlausibilityWeights:
    """Normalized trace-based weights over ranks 0..K.

    ``raw`` already sums to one by the telescoping structure of the weight
    formula; ``normalized`` divides by the float sum anyway.  The reference
    rank maximizes the weight, ties broken toward the smaller rank.
    """

    raw: np.ndarray
    normalized: np.ndarray
    c1: float
    c2: float
    trace_stats: np.ndarray
    t_eff: int
    reference_rank: int

    @property
    def n_vars(self) -> int:
        return self.raw.size - 1


def plausibility_weights(
    trace_stats: np.ndarray, t_eff: int, c1: float = 1.0, c2: float = 0.5
) -> PlausibilityWeights:
    """Exponential trace-statistic weights over ranks 0..K.

    With a = c1 * T_eff**(-c2) and J the K+1 trace statistics (J[K] = 0):
    weight(0) = exp(-a J[0]) and weight(r) = exp(-a J[r]) - exp(-a J[r-1])
    for r >= 1, which telescopes to a unit sum.

    Raises
    ------
    ValueError
        If c1 <= 0, c2 outside (0, 1), or J is not non-increasing.
    """
    stats = np.asarray(trace_stats, dtype=float)
    if stats.ndim != 1 or stats.size < 2:
        raise ValueError("trace statistics must be a vector over ranks 0..K")
    if not np.isfinite(stats).all():
        raise ValueError("trace statistics must be finite")
    if np.any(np.diff(stats) > 1e-8 * np.maximum(1.0, np.abs(stats[:-1]))):
        raise ValueError("trace statistics must be non-increasing in the rank")
    if abs(stats[-1]) > 1e-8:
        raise ValueError("the last trace statistic J[K] must be zero")
    if c1 <= 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    if not 0 < c2 < 1:
        raise ValueError(f"c2 must lie in (0, 1), got {c2}")
    if t_eff < 1:
        raise ValueError(f"t_eff must be positive, got {t_eff}")

    shrink = c1 * float(t_eff) ** (-c2)
    survivals = np.exp(-shrink * stats)
    raw = np.empty_like(survivals)
    raw[0] = survivals[0]
    raw[1:] = survivals[1:] - survivals[:-1]
    raw = np.maximum(raw, 0.0)
    normalized = raw / raw.sum()
    return PlausibilityWeights(
        raw=raw,
        normalized=normalized,
        c1=float(c1),
        c2=float(c2),
        trace_stats=stats,
        t_eff=int(t_eff),
        reference_rank=int(np.argmax(normalized)),
    )


def plausibility_weights_from_fit(fit, c1: float = 1.0, c2: float = 0.5) -> PlausibilityWeights:
    """Weights computed from a fit's eigenvalues and effective sample size."""
    stats = trace_stats_from_eigenvalues(fit.eigenvalues, fit.t_eff)
    return plausibility_weights(stats, fit.t_eff, c1, c2)


def relative_plausibility(weights: PlausibilityWeights, r: int, s: int) -> float:
    """X(r, s) = W(r) / W(s); +inf when only the denominator weight is zero."""
    w = weights.normalized
    if w[s] > 0:
        return float(w[r] / w[s])
    return float("inf") if w[r] > 0 else 1.0
