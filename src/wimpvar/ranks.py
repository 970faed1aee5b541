"""Cointegration-rank selection and trace-based plausibility weights."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batch
from ._batch import TRACE_CRIT_LEVELS, TRACE_CRIT_VALUES, ic_param_count, trace_critical_value
from .errors import ConfigError
from .timeseries import DetrendMode
from .vecm import observed_sweep

__all__ = [
    "RankSelector",
    "PlausibilityWeights",
    "TRACE_CRIT_LEVELS",
    "TRACE_CRIT_VALUES",
    "ic_param_count",
    "ic_values_from_eigenvalues",
    "select_rank",
    "select_rank_ic",
    "select_rank_sequential",
    "plausibility_weights",
    "relative_plausibility",
    "trace_critical_value",
]


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


def ic_values_from_eigenvalues(
    eigenvalues: np.ndarray, ln_det_s00: float, t_eff: int, p: int, criterion: str
) -> np.ndarray:
    """Information-criterion values for ranks 0..K from one decomposition.

    Uses the determinant identity ln det Sigma(r) = ln det S00 +
    sum_{i<=r} ln(1 - lam_i), so no per-rank refitting is needed.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    return _batch.ic_values_batch(lam[None], np.array([ln_det_s00]), t_eff, p, criterion)[0]


def select_rank(sweep: _batch.BatchSweep, selector: RankSelector) -> int:
    """The rank ``selector`` picks from the sweep of one sample."""
    return int(_batch.select_batch(sweep, selector)[0])


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
    return select_rank(observed_sweep(data, p, mode, paper_convention), RankSelector(criterion))


def select_rank_sequential(
    data,
    p: int,
    level: float = 0.05,
    mode: DetrendMode | str = DetrendMode.NONE,
    paper_convention: bool = False,
) -> int:
    """Smallest rank whose trace statistic fails to reject, K if all reject."""
    selector = RankSelector("sequential_trace", level=level)
    return select_rank(observed_sweep(data, p, mode, paper_convention), selector)


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

    (raw,), (normalized,) = _batch.weights_batch(stats[None], t_eff, c1, c2)
    return PlausibilityWeights(
        raw=raw,
        normalized=normalized,
        c1=float(c1),
        c2=float(c2),
        trace_stats=stats,
        t_eff=int(t_eff),
        reference_rank=int(np.argmax(normalized)),
    )


def relative_plausibility(weights: PlausibilityWeights, r: int, s: int) -> float:
    """X(r, s) = W(r) / W(s); +inf when only the denominator weight is zero."""
    w = weights.normalized
    if w[s] > 0:
        return float(w[r] / w[s])
    return float("inf") if w[r] > 0 else 1.0
