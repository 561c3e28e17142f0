"""The BotMeter pipeline (Figure 2).

Tapped at a border DNS server, BotMeter (1) matches the forwarded lookup
stream against the target DGA's confirmed domains (or patterns), (2)
partitions the matches by forwarding local server, and (3) runs the
selected analytical model per server, producing the **landscape**: one
population estimate per sub-network, ready for remediation
prioritisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..dga.base import Dga
from ..dns.message import ForwardedLookup
from ..timebase import SECONDS_PER_DAY, Timeline
from .estimator import EstimationContext, Estimator, PopulationEstimate
from .matcher import DgaDomainMatcher, group_by_server
from .taxonomy import applicable_estimators, recommended_estimator
from .bernoulli import BernoulliEstimator
from .ensemble import EnsembleEstimator
from .occupancy import OccupancyEstimator
from .poisson import PoissonEstimator
from .renewal import RenewalEstimator
from .timing import TimingEstimator

__all__ = ["BotMeter", "Landscape", "make_estimator"]

_ESTIMATOR_FACTORIES = {
    "timing": TimingEstimator,
    "poisson": PoissonEstimator,
    "bernoulli": BernoulliEstimator,
    "renewal": RenewalEstimator,
    "occupancy": OccupancyEstimator,
    "ensemble": EnsembleEstimator,
}


def make_estimator(name: str) -> Estimator:
    """Instantiate an estimator from the analytic model library by name."""
    try:
        return _ESTIMATOR_FACTORIES[name]()
    except KeyError:
        known = ", ".join(sorted(_ESTIMATOR_FACTORIES))
        raise KeyError(f"unknown estimator {name!r}; library has: {known}") from None


@dataclass
class Landscape:
    """The charted DGA-botnet landscape of a network.

    Per-local-server population estimates, ordered views for remediation
    prioritisation, and the matched-lookup counts behind them.
    """

    dga_name: str
    estimator_name: str
    per_server: dict[str, PopulationEstimate] = field(default_factory=dict)
    matched_counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Estimated bots across the whole network."""
        return sum(e.value for e in self.per_server.values())

    def ranked(self) -> list[tuple[str, float]]:
        """Servers by estimated infection, most infected first."""
        return sorted(
            ((s, e.value) for s, e in self.per_server.items()),
            key=lambda item: (-item[1], item[0]),
        )

    def summary(self) -> str:
        """Human-readable remediation-priority table."""
        lines = [
            f"DGA-botnet landscape — {self.dga_name} ({self.estimator_name} estimator)",
            f"{'server':<12} {'est. bots':>10} {'matched lookups':>16}",
        ]
        for server, value in self.ranked():
            lines.append(
                f"{server:<12} {value:>10.1f} {self.matched_counts.get(server, 0):>16d}"
            )
        lines.append(f"{'TOTAL':<12} {self.total:>10.1f}")
        return "\n".join(lines)


class BotMeter:
    """Charts DGA-bot populations from a vantage-point stream.

    Args:
        dga: the target DGA (provides daily pools and parameters — the
            "parameter specification" of Figure 2).
        estimator: an :class:`Estimator` instance, a library name
            (``"timing"``, ``"poisson"``, ``"bernoulli"``), or ``"auto"``
            to pick the paper's recommendation for the DGA's class.
        detection_windows: optional per-day-index detected NXD sets (the
            D3 detection window).  ``None`` assumes a perfect D3.
        negative_ttl: ``δl`` of the local negative caches.
        timestamp_granularity: collection timestamp coarseness.
        timeline: calendar anchoring of simulation time.
    """

    def __init__(
        self,
        dga: Dga,
        estimator: Estimator | str = "auto",
        detection_windows: dict[int, frozenset[str]] | None = None,
        negative_ttl: float = 7_200.0,
        timestamp_granularity: float = 0.1,
        timeline: Timeline | None = None,
    ) -> None:
        self._dga = dga
        self._timeline = timeline or Timeline()
        self._negative_ttl = negative_ttl
        self._granularity = timestamp_granularity
        self._detection_windows = detection_windows
        if isinstance(estimator, str):
            if estimator == "auto":
                self._estimator = recommended_estimator(dga)
            else:
                if estimator not in applicable_estimators(dga) and estimator in _ESTIMATOR_FACTORIES:
                    # Allowed but off-protocol; the paper only applies MP
                    # to AU and MB to AR.  Users may still force it.
                    pass
                self._estimator = make_estimator(estimator)
        else:
            self._estimator = estimator

    @property
    def estimator(self) -> Estimator:
        return self._estimator

    def _window_bounds(
        self,
        records: Sequence[ForwardedLookup],
        window_start: float | None,
        window_end: float | None,
    ) -> tuple[float, float]:
        if window_start is None:
            first = min((r.timestamp for r in records), default=0.0)
            window_start = (first // SECONDS_PER_DAY) * SECONDS_PER_DAY
        if window_end is None:
            last = max((r.timestamp for r in records), default=window_start)
            window_end = (last // SECONDS_PER_DAY + 1) * SECONDS_PER_DAY
        return window_start, window_end

    def _matcher_windows(self, start: float, end: float) -> dict[int, frozenset[str]]:
        first = int(start // SECONDS_PER_DAY)
        last = int((end - 1e-9) // SECONDS_PER_DAY)
        windows: dict[int, frozenset[str]] = {}
        for day in range(first, last + 1):
            if self._detection_windows is not None and day in self._detection_windows:
                windows[day] = self._detection_windows[day]
            else:
                windows[day] = self._dga.window(self._timeline.date_for_day(day))
        return windows

    def chart(
        self,
        observable: Iterable[ForwardedLookup],
        window_start: float | None = None,
        window_end: float | None = None,
    ) -> Landscape:
        """Estimate per-local-server populations over the window.

        The window defaults to the full epochs spanned by the stream.
        """
        records = list(observable)
        start, end = self._window_bounds(records, window_start, window_end)
        if end <= start:
            raise ValueError("empty observation window")

        matcher = DgaDomainMatcher(self._matcher_windows(start, end))
        matches = [
            m for m in matcher.match(records) if start <= m.timestamp < end
        ]
        by_server = group_by_server(matches)

        context = EstimationContext(
            dga=self._dga,
            timeline=self._timeline,
            window_start=start,
            window_end=end,
            negative_ttl=self._negative_ttl,
            timestamp_granularity=self._granularity,
            detected_nxds_by_day=self._detection_windows,
        )
        landscape = Landscape(
            dga_name=self._dga.name, estimator_name=self._estimator.name
        )
        for server, server_matches in sorted(by_server.items()):
            landscape.per_server[server] = self._estimator.estimate(
                server_matches, context
            )
            landscape.matched_counts[server] = len(server_matches)
        return landscape
