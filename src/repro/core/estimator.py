"""Shared estimator interfaces and result types.

Every analytical model in the library (§IV) consumes the same inputs —
the matched, cache-filtered lookups of one local server plus an
:class:`EstimationContext` describing the observation window and the
target DGA — and produces a :class:`PopulationEstimate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, Sequence, runtime_checkable

from ..dga.base import Dga
from ..timebase import SECONDS_PER_DAY, Timeline

__all__ = [
    "MatchedLookup",
    "EstimationContext",
    "PopulationEstimate",
    "Estimator",
]


class MatchedLookup(NamedTuple):
    """One vantage-point lookup that matched the target DGA's domains.

    A named tuple, not a dataclass: epoch closes build one per matched
    lookup, and a tuple is about twice as cheap to construct.
    """

    timestamp: float
    server: str
    domain: str
    day_index: int


@dataclass(frozen=True)
class EstimationContext:
    """Everything an estimator may need besides the lookups themselves.

    Attributes:
        dga: the target DGA (parameters, daily pools, registered sets).
        timeline: simulation/calendar time base.
        window_start: observation-window start (seconds).
        window_end: observation-window end (seconds, exclusive).
        negative_ttl: ``δl`` of the local negative caches, seconds.
        timestamp_granularity: coarseness of collected timestamps,
            seconds; estimators use it as their timing tolerance.
        detected_nxds_by_day: optional D3 detection windows — for each day
            index, the subset of the pool's NXDs the D3 algorithm knows.
            ``None`` means a perfect D3 (full pool coverage).
    """

    dga: Dga
    timeline: Timeline
    window_start: float
    window_end: float
    negative_ttl: float = 7_200.0
    timestamp_granularity: float = 0.1
    detected_nxds_by_day: dict[int, frozenset[str]] | None = None

    def __post_init__(self) -> None:
        if self.window_end <= self.window_start:
            raise ValueError("observation window must have positive length")
        if self.negative_ttl <= 0:
            raise ValueError("negative TTL must be positive")

    @property
    def n_epochs(self) -> int:
        """Number of (possibly partial) one-day epochs in the window."""
        first = int(self.window_start // SECONDS_PER_DAY)
        last = int((self.window_end - 1e-9) // SECONDS_PER_DAY)
        return last - first + 1

    def epoch_bounds(self) -> list[tuple[int, float, float]]:
        """``(day_index, start, end)`` for each epoch the window touches."""
        bounds = []
        first = int(self.window_start // SECONDS_PER_DAY)
        last = int((self.window_end - 1e-9) // SECONDS_PER_DAY)
        for day in range(first, last + 1):
            start = max(self.window_start, day * SECONDS_PER_DAY)
            end = min(self.window_end, (day + 1) * SECONDS_PER_DAY)
            bounds.append((day, start, end))
        return bounds

    def detected_nxds(self, day_index: int) -> frozenset[str]:
        """The NXDs the D3 algorithm can match on ``day_index``."""
        if self.detected_nxds_by_day is not None:
            window = self.detected_nxds_by_day.get(day_index)
            if window is not None:
                return window
        return self.dga.window(self.timeline.date_for_day(day_index))


@dataclass
class PopulationEstimate:
    """The output of one estimator run.

    ``value`` is the headline estimate — the average active population
    per epoch over the observation window, matching the paper's
    evaluation protocol ("average the estimates over the number of
    epochs").
    """

    value: float
    estimator: str
    per_epoch: dict[int, float] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"population estimate must be >= 0, got {self.value}")


@runtime_checkable
class Estimator(Protocol):
    """An analytical population-estimation model (§IV)."""

    name: str

    def estimate(
        self, lookups: Sequence[MatchedLookup], context: EstimationContext
    ) -> PopulationEstimate:
        """Estimate the active bot population behind one local server."""
        ...


def average_per_epoch(per_epoch: dict[int, float]) -> float:
    """Average of per-epoch estimates (0.0 when no epoch produced one)."""
    if not per_epoch:
        return 0.0
    return sum(per_epoch.values()) / len(per_epoch)
