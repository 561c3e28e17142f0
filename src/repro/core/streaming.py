"""Online landscape charting.

The batch :class:`~repro.core.botmeter.BotMeter` wants the whole
observation window up front; a deployed tap sees an endless stream.
:class:`StreamingBotMeter` consumes forwarded lookups one at a time (in
roughly chronological order), matches them incrementally against the
daily detection windows, and emits one :class:`Landscape` per completed
epoch — either returned from :meth:`ingest` or delivered to an
``on_epoch`` callback.

Epoch closure is watermark-based: an epoch is finalised once a record
arrives ``grace`` seconds past its end, which tolerates the bounded
reordering and midnight-straddling activations a real collector
produces.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..dga.base import Dga
from ..dns.message import ForwardedLookup
from ..timebase import SECONDS_PER_DAY, Timeline
from .botmeter import Landscape, make_estimator
from .estimator import EstimationContext, Estimator, MatchedLookup, PopulationEstimate
from .matcher import DayIndex, group_by_server
from .taxonomy import recommended_estimator

__all__ = ["StreamingBotMeter"]


class StreamingBotMeter:
    """Incremental, epoch-at-a-time BotMeter.

    Args:
        dga: the target DGA.
        estimator: instance, library name, or ``"auto"``.
        detection_windows: optional per-day detected NXD sets.
        negative_ttl / timestamp_granularity / timeline: as in
            :class:`~repro.core.botmeter.BotMeter`.
        grace: seconds past an epoch's end before it is finalised.
        on_epoch: optional callback ``(day_index, Landscape) -> None``.
    """

    def __init__(
        self,
        dga: Dga,
        estimator: Estimator | str = "auto",
        detection_windows: dict[int, frozenset[str]] | None = None,
        negative_ttl: float = 7_200.0,
        timestamp_granularity: float = 0.1,
        timeline: Timeline | None = None,
        grace: float = 900.0,
        on_epoch: Callable[[int, Landscape], None] | None = None,
    ) -> None:
        if grace < 0:
            raise ValueError("grace must be >= 0")
        self._dga = dga
        self._timeline = timeline or Timeline()
        self._negative_ttl = negative_ttl
        self._granularity = timestamp_granularity
        self._detection_windows = detection_windows
        self._grace = grace
        self._on_epoch = on_epoch
        if isinstance(estimator, str):
            self._estimator = (
                recommended_estimator(dga)
                if estimator == "auto"
                else make_estimator(estimator)
            )
        else:
            self._estimator = estimator

        self._pending: dict[int, list[MatchedLookup]] = {}
        self._index: DayIndex | None = None  # built by the first unrouted ingest
        self._watermark = float("-inf")
        self._set_cursor(0)
        self._ingested = 0
        self._matched = 0
        self._estimate_failures = 0
        self.landscapes: list[tuple[int, Landscape]] = []

    def _set_cursor(self, day: int) -> None:
        """Move the epoch cursor; ``_deadline`` is the watermark at which
        epoch ``day`` closes."""
        self._next_epoch_to_close = day
        self._deadline = (day + 1) * SECONDS_PER_DAY + self._grace

    def _match_day(self, record: ForwardedLookup) -> int | None:
        if self._index is None:
            name = self._dga.name
            self._index = DayIndex(
                {name: self._dga}, self._timeline, {name: self._detection_windows or {}}
            )
        routes = self._index.routes(record.domain, record.timestamp)
        return routes[0][1] if routes else None

    # -- epoch lifecycle ----------------------------------------------------

    def _close_epoch(self, day: int) -> Landscape:
        matches = self._pending.pop(day, [])
        context = EstimationContext(
            dga=self._dga,
            timeline=self._timeline,
            window_start=day * SECONDS_PER_DAY,
            window_end=(day + 1) * SECONDS_PER_DAY,
            negative_ttl=self._negative_ttl,
            timestamp_granularity=self._granularity,
            detected_nxds_by_day=self._detection_windows,
        )
        landscape = Landscape(
            dga_name=self._dga.name, estimator_name=self._estimator.name
        )
        for server, server_matches in sorted(group_by_server(matches).items()):
            ordered = sorted(server_matches, key=lambda m: m.timestamp)
            try:
                estimate = self._estimator.estimate(ordered, context)
            except Exception:
                # Degenerate epochs (all-duplicate timestamps, skewed
                # out-of-window residue...) must degrade, not crash: fall
                # back to the raw matched count as a floor estimate.
                self._estimate_failures += 1
                estimate = PopulationEstimate(
                    float(len(ordered)), estimator=self._estimator.name
                )
            landscape.per_server[server] = estimate
            landscape.matched_counts[server] = len(ordered)
        self.landscapes.append((day, landscape))
        if self._on_epoch is not None:
            self._on_epoch(day, landscape)
        return landscape

    # -- public API ----------------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Counters: records ingested/matched, estimator fallbacks."""
        return {
            "ingested": self._ingested,
            "matched": self._matched,
            "estimate_failures": self._estimate_failures,
        }

    @property
    def watermark(self) -> float:
        """Highest timestamp seen (``-inf`` before the first record)."""
        return self._watermark

    @property
    def next_epoch_to_close(self) -> int:
        """Day index of the oldest epoch still open."""
        return self._next_epoch_to_close

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-serialisable snapshot of the mutable ingest state.

        Captures everything :meth:`import_state` needs to make a fresh
        instance (same DGA / estimator / windows configuration) continue
        the stream exactly where this one stood: watermark, epoch
        cursor, counters, and the pending matches of open epochs.
        Already-closed landscapes are *not* included — the caller owns
        emitted output.
        """
        return {
            "watermark": None if self._watermark == float("-inf") else self._watermark,
            "next_epoch_to_close": self._next_epoch_to_close,
            "ingested": self._ingested,
            "matched": self._matched,
            "estimate_failures": self._estimate_failures,
            "pending": {
                str(day): [[m.timestamp, m.server, m.domain, m.day_index] for m in matches]
                for day, matches in sorted(self._pending.items())
            },
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        watermark = state["watermark"]
        self._watermark = float("-inf") if watermark is None else float(watermark)
        self._set_cursor(int(state["next_epoch_to_close"]))
        self._ingested = int(state["ingested"])
        self._matched = int(state["matched"])
        self._estimate_failures = int(state.get("estimate_failures", 0))
        self._pending = {
            int(day): [
                MatchedLookup(float(t), server, domain, int(match_day))
                for t, server, domain, match_day in matches
            ]
            for day, matches in state["pending"].items()
        }

    def skip_to_epoch(self, day: int) -> None:
        """Start the epoch cursor at ``day`` (a shard born mid-stream in
        a sharded service must not re-close epochs the service already
        emitted).  Only legal before any record was ingested."""
        if self._ingested or self._pending:
            raise RuntimeError("skip_to_epoch is only legal on a fresh shard")
        self._set_cursor(max(self._next_epoch_to_close, int(day)))

    def ingest(
        self, record: ForwardedLookup, matched_day: int | None = None
    ) -> list[Landscape]:
        """Consume one record; return the landscapes of any epochs this
        record's watermark just closed (usually empty).

        ``matched_day`` is the day whose window holds the record, passed
        by a caller that already matched it (the sharded engine routes
        with :class:`~repro.core.matcher.DayIndex`); ``None`` matches the
        record here by the same rule.
        """
        self._ingested += 1
        if matched_day is None:
            matched_day = self._match_day(record)
        if matched_day is not None:
            self._matched += 1
            if matched_day >= self._next_epoch_to_close:
                self._pending.setdefault(matched_day, []).append(
                    MatchedLookup(record.timestamp, record.server, record.domain, matched_day)
                )
        if record.timestamp > self._watermark:
            self._watermark = record.timestamp
        if self._watermark >= self._deadline:
            return self.advance_watermark(self._watermark)
        return []

    def advance_watermark(self, timestamp: float) -> list[Landscape]:
        """Advance the watermark without a record (e.g. driven by the
        global clock of a sharded service) and close any epoch the new
        watermark finalises.  Never moves the watermark backwards."""
        self._watermark = max(self._watermark, timestamp)
        closed = []
        while self._deadline <= self._watermark:
            day = self._next_epoch_to_close
            closed.append(self._close_epoch(day))
            self._set_cursor(day + 1)
        return closed

    def ingest_many(self, records: Iterable[ForwardedLookup]) -> list[Landscape]:
        """Consume a batch; returns every landscape closed along the way."""
        closed: list[Landscape] = []
        for record in records:
            closed.extend(self.ingest(record))
        return closed

    def finalize(self) -> list[Landscape]:
        """Close every epoch that still has pending matches (stream end)."""
        closed = []
        for day in sorted(self._pending):
            if day >= self._next_epoch_to_close:
                closed.append(self._close_epoch(day))
                self._set_cursor(day + 1)
        return closed
