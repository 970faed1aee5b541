"""Combination of fixed-rank intervals into a plausibility-weighted interval.

The combined interval anchors at the most plausible (reference) rank and is
extended toward each rival rank's bounds in proportion to that rank's
relative plausibility.  By construction it always contains the reference
interval and never exceeds the hull of all per-rank intervals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .ranks import PlausibilityWeights

__all__ = [
    "RankContribution",
    "WimpInterval",
    "PrudenceReport",
    "wimp_bounds",
    "wimp_combine",
    "check_prudence",
]


@dataclass(frozen=True)
class RankContribution:
    rank: int
    relative_plausibility: float
    lower_extension: float
    upper_extension: float


@dataclass(frozen=True)
class WimpInterval:
    """Combined interval with per-rank extension bookkeeping."""

    lower: float
    upper: float
    reference_rank: int
    gamma: float
    contributions: tuple


def _relative_plausibilities(
    weights: PlausibilityWeights, transform: Callable[[float], float] | None
) -> np.ndarray:
    w = weights.normalized
    ref = weights.reference_rank
    with np.errstate(invalid="ignore"):
        x = np.where(w[ref] > 0, w / max(w[ref], np.finfo(float).tiny), 0.0)
    if transform is not None:
        x = np.array([transform(float(v)) for v in x])
    # Clip so the prudence guarantees (cover the reference, stay inside the
    # hull) survive arbitrary user transforms.
    x = np.clip(x, 0.0, 1.0)
    x[ref] = 1.0
    return x


def _combined(lowers, uppers, weights: PlausibilityWeights, transform):
    """The combined bounds of per-rank bounds (ranks along axis 0) with what
    they were built from: (lower, upper, relative plausibilities (K+1,),
    lower extensions, upper extensions).  Refuses bounds that miss a rank
    or are not finite."""
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    if lowers.shape != uppers.shape or lowers.shape[0] != weights.raw.size:
        raise ConfigError("per-rank bounds must cover all ranks 0..K")
    if not (np.isfinite(lowers).all() and np.isfinite(uppers).all()):
        raise ConfigError("per-rank bounds must be finite for every rank (no missing ranks)")
    x = _relative_plausibilities(weights, transform)
    ref = weights.reference_rank
    x_col = x.reshape((-1,) + (1,) * (lowers.ndim - 1))
    low_ext = x_col * np.maximum(lowers[ref] - lowers, 0.0)
    upp_ext = x_col * np.maximum(uppers - uppers[ref], 0.0)
    return lowers[ref] - low_ext.max(axis=0), uppers[ref] + upp_ext.max(axis=0), x, low_ext, upp_ext


def wimp_bounds(
    lowers: np.ndarray,
    uppers: np.ndarray,
    weights: PlausibilityWeights,
    transform: Callable[[float], float] | None = None,
):
    """Vectorized combination over queries.

    Parameters
    ----------
    lowers, uppers : ndarray, shape (K+1, ...) with ranks along axis 0.
    weights : PlausibilityWeights

    Returns
    -------
    (lower, upper) arrays of shape ``lowers.shape[1:]``.
    """
    return _combined(lowers, uppers, weights, transform)[:2]


def wimp_combine(
    lowers,
    uppers,
    weights: PlausibilityWeights,
    gamma: float,
    transform: Callable[[float], float] | None = None,
) -> WimpInterval:
    """Combine the K+1 per-rank interval bounds for one query.

    Parameters
    ----------
    lowers, uppers : array_like, length K+1
        Fixed-rank interval bounds for ranks 0..K; every rank must be
        present (partial combination is refused).
    weights : PlausibilityWeights
    gamma : float
        Nominal miscoverage of the inputs, recorded on the output.
    transform : callable, optional
        Monotone map applied to the weight ratios; the linear ratio is the
        default.  Values are clipped to [0, 1].
    """
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    if lowers.ndim != 1 or lowers.shape != uppers.shape:
        raise ConfigError("lowers and uppers must be equal-length vectors over ranks")
    if lowers.size != weights.raw.size:
        raise ConfigError(
            f"expected bounds for all {weights.raw.size} ranks, got {lowers.size}"
        )
    lower, upper, x, low_ext, upp_ext = _combined(lowers, uppers, weights, transform)
    if np.any(lowers > uppers):
        raise ConfigError("every per-rank interval needs lower <= upper")
    contributions = tuple(
        RankContribution(r, float(x[r]), float(low_ext[r]), float(upp_ext[r]))
        for r in range(lowers.size)
    )
    return WimpInterval(
        lower=float(lower),
        upper=float(upper),
        reference_rank=weights.reference_rank,
        gamma=float(gamma),
        contributions=contributions,
    )


@dataclass(frozen=True)
class PrudenceReport:
    """Outcome of the four prudence checks for one combined interval.

    1. covers the reference interval;
    2. among equally plausible ranks, the farther bound extends more;
    3. among equally distant bounds, the more plausible rank extends more;
    4. stays inside the hull of all per-rank intervals.
    """

    covers_reference: bool
    distance_monotone: bool
    plausibility_monotone: bool
    within_hull: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.covers_reference
            and self.distance_monotone
            and self.plausibility_monotone
            and self.within_hull
        )


def check_prudence(
    lowers, uppers, weights: PlausibilityWeights, result: WimpInterval
) -> PrudenceReport:
    """Verify the prudence conditions on a combined interval (report only)."""
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    ref = result.reference_rank
    covers = result.lower <= lowers[ref] and result.upper >= uppers[ref]
    within = result.lower >= lowers.min() - 0.0 and result.upper <= uppers.max() + 0.0

    x = np.array([c.relative_plausibility for c in result.contributions])
    low_dist = np.maximum(lowers[ref] - lowers, 0.0)
    upp_dist = np.maximum(uppers - uppers[ref], 0.0)
    low_ext = np.array([c.lower_extension for c in result.contributions])
    upp_ext = np.array([c.upper_extension for c in result.contributions])

    distance_ok = True
    plaus_ok = True
    n = lowers.size
    for r in range(n):
        for s in range(n):
            if x[r] == x[s]:
                if low_dist[r] >= low_dist[s] and low_ext[r] < low_ext[s]:
                    distance_ok = False
                if upp_dist[r] >= upp_dist[s] and upp_ext[r] < upp_ext[s]:
                    distance_ok = False
            if low_dist[r] == low_dist[s] and x[r] >= x[s] and low_ext[r] < low_ext[s]:
                plaus_ok = False
            if upp_dist[r] == upp_dist[s] and x[r] >= x[s] and upp_ext[r] < upp_ext[s]:
                plaus_ok = False
    return PrudenceReport(bool(covers), distance_ok, plaus_ok, bool(within))
