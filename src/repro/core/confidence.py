"""Uncertainty quantification for population estimates.

The paper reports point estimates; operators prioritising remediation
also want to know how much to trust them.  This module adds two
principled interval constructions:

* :func:`poisson_interval` — for MP: conditional on ``n`` visible
  activations over an uncovered exposure ``E``, the activation rate has
  an exact Gamma(n, E) likelihood, so the population ``N = λ·W`` gets
  Gamma quantile bounds.
* :func:`coverage_profile_interval` — for MB's positionwise model: a
  profile-likelihood interval over the Bernoulli coverage likelihood
  (all ``N`` whose log-likelihood is within ``χ²₁(1−α)/2`` of the
  maximum).

Both need ``scipy.stats``; it is imported inside them, so importing this
module (and the daemon that imports it) stays scipy-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ConfidenceInterval",
    "poisson_interval",
    "coverage_profile_interval",
    "widen_for_loss",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval around a point estimate."""

    low: float
    point: float
    high: float
    level: float

    def __post_init__(self) -> None:
        if not 0 < self.level < 1:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if not self.low <= self.point <= self.high:
            raise ValueError(
                f"interval must bracket the point: "
                f"{self.low} <= {self.point} <= {self.high}"
            )

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval (inclusive)."""
        return self.low <= value <= self.high


def poisson_interval(
    n_visible: int,
    exposure: float,
    window: float,
    level: float = 0.9,
) -> ConfidenceInterval:
    """Gamma interval for the MP population estimate.

    Args:
        n_visible: number of visible activations in the window.
        exposure: total uncovered exposure ``Σ Δi (+ tail)`` in seconds.
        window: observation-window length in seconds.
        level: two-sided coverage level.
    """
    if n_visible < 0:
        raise ValueError("n_visible must be >= 0")
    if exposure <= 0 or window <= 0:
        raise ValueError("exposure and window must be positive")
    if n_visible == 0:
        # One-sided: rate below the (level)-quantile of Exp(exposure).
        high = -math.log(1 - level) / exposure * window
        return ConfidenceInterval(0.0, 0.0, high, level)
    # scipy.stats is imported here, not at module level: it costs ~0.7 s
    # and ~65 MB per process, and botmeterd never builds intervals.
    from scipy.stats import gamma

    alpha = 1 - level
    # Jeffreys-style Gamma bounds on the rate λ given n events in E.
    low_rate = gamma.ppf(alpha / 2, n_visible, scale=1.0 / exposure)
    high_rate = gamma.ppf(1 - alpha / 2, n_visible + 1, scale=1.0 / exposure)
    point = n_visible / exposure * window
    return ConfidenceInterval(low_rate * window, point, high_rate * window, level)


def widen_for_loss(
    interval: ConfidenceInterval, loss_fraction: float
) -> ConfidenceInterval:
    """Widen an interval for degraded-channel observation loss.

    The service's per-epoch quality annotation reports an estimated loss
    fraction ``l`` (records dropped, quarantined or late relative to the
    records charted).  Under the random-thinning model — each lookup is
    independently lost with probability ``l`` — the effective number of
    observations behind the estimate shrinks by ``(1 - l)``, so both
    interval arms are stretched by ``1 / (1 - l)`` around the point
    estimate.  ``l`` is clamped to 0.95 so a catastrophic epoch yields a
    very wide interval rather than an infinite one; the lower arm is
    floored at zero (populations are non-negative).
    """
    if loss_fraction < 0:
        raise ValueError(f"loss_fraction must be >= 0, got {loss_fraction}")
    clamped = min(loss_fraction, 0.95)
    if clamped == 0.0:
        return interval
    scale = 1.0 / (1.0 - clamped)
    low = max(0.0, interval.point - (interval.point - interval.low) * scale)
    high = interval.point + (interval.high - interval.point) * scale
    return ConfidenceInterval(low, interval.point, high, interval.level)


def _coverage_log_likelihood(
    population: float,
    weights: np.ndarray,
    covered: np.ndarray,
    circle_size: int,
) -> float:
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-weights / circle_size)
    log_miss_n = population * log_miss
    succ = -np.expm1(log_miss_n)
    succ = np.clip(succ, 1e-300, 1.0)
    miss = np.clip(np.exp(log_miss_n), 1e-300, 1.0)
    return float(np.sum(np.where(covered, np.log(succ), np.log(miss))))


def coverage_profile_interval(
    weights: Sequence[int],
    covered: Sequence[bool],
    circle_size: int,
    point: float,
    level: float = 0.9,
) -> ConfidenceInterval:
    """Profile-likelihood interval for the MB positionwise model.

    Finds the ``N`` range where the Bernoulli coverage log-likelihood is
    within ``χ²₁(level)/2`` of its value at ``point`` (the MLE).
    """
    if point < 0:
        raise ValueError("point estimate must be >= 0")
    w = np.asarray(weights, dtype=float)
    x = np.asarray(covered, dtype=bool)
    if w.size != x.size:
        raise ValueError("weights and coverage must align")
    if w.size == 0 or point == 0:
        return ConfidenceInterval(0.0, point, max(point, 1.0), level)

    from scipy.stats import chi2  # lazily, as in poisson_interval

    threshold = chi2.ppf(level, df=1) / 2.0
    peak = _coverage_log_likelihood(max(point, 1e-9), w, x, circle_size)

    def deficit(population: float) -> float:
        return peak - _coverage_log_likelihood(population, w, x, circle_size)

    low = _bisect_to_threshold(deficit, point, threshold, downward=True)
    high = _bisect_to_threshold(deficit, point, threshold, downward=False)
    return ConfidenceInterval(low, point, high, level)


def _bisect_to_threshold(deficit, point: float, threshold: float, downward: bool) -> float:
    """Find where the likelihood deficit crosses ``threshold`` on one side."""
    inner = point
    if downward:
        outer = point / 2.0
        while outer > 1e-9 and deficit(outer) < threshold:
            inner, outer = outer, outer / 2.0
        if outer <= 1e-9 and deficit(outer) < threshold:
            return 0.0
    else:
        outer = point * 2.0 + 1.0
        while outer < 1e9 and deficit(outer) < threshold:
            inner, outer = outer, outer * 2.0
        if outer >= 1e9:
            return outer
    for _ in range(80):
        mid = 0.5 * (inner + outer)
        if deficit(mid) < threshold:
            inner = mid
        else:
            outer = mid
    return 0.5 * (inner + outer)
