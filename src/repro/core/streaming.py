"""Online landscape charting.

The batch :class:`~repro.core.botmeter.BotMeter` wants the whole
observation window up front; a deployed tap sees an endless stream.
:class:`StreamingBotMeter` consumes forwarded lookups in roughly
chronological order — one at a time, or as column slices
(:meth:`~StreamingBotMeter.ingest_lookups`) — matches them
incrementally against the daily detection windows, and emits one
:class:`Landscape` per completed epoch — either returned from the
ingest call or delivered to an ``on_epoch`` callback.

Epoch closure is watermark-based: an epoch is finalised once a record
arrives ``grace`` seconds past its end, which tolerates the bounded
reordering and midnight-straddling activations a real collector
produces.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from ..dga.base import Dga
from ..dns.message import ForwardedLookup
from ..timebase import SECONDS_PER_DAY, Timeline
from .botmeter import Landscape, make_estimator
from .estimator import EstimationContext, Estimator, MatchedLookup, PopulationEstimate
from .matcher import DayIndex
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

        #: Open epochs' matches as column slices ``(timestamps, server,
        #: domains)``, in ingest order; ``server`` is one name for the
        #: whole slice or an object array per record.
        self._pending: dict[int, list[tuple[np.ndarray, Any, np.ndarray]]] = {}
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

    def _match_day(self, record: ForwardedLookup) -> int:
        """The day whose window holds ``record``, or -1 (no match)."""
        if self._index is None:
            name = self._dga.name
            self._index = DayIndex(
                {name: self._dga}, self._timeline, {name: self._detection_windows or {}}
            )
        routes = self._index.routes(record.domain, record.timestamp)
        return routes[0][1] if routes else -1

    def _matches(self, day: int) -> Iterator[MatchedLookup]:
        """The pending matches of ``day``, in ingest order."""
        for ts, server, domains in self._pending.get(day, ()):
            servers = repeat(server) if isinstance(server, str) else server.tolist()
            yield from map(
                MatchedLookup, ts.tolist(), servers, domains.tolist(), repeat(day)
            )

    def _by_server(self, day: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The pending matches of ``day`` per server: timestamps and
        domains, in ingest order."""
        parts: dict[str, tuple[list, list]] = {}
        for ts, server, domains in self._pending.get(day, ()):
            if isinstance(server, str):
                pieces = ((server, slice(None)),)
            else:
                pieces = ((s, server == s) for s in dict.fromkeys(server.tolist()))
            for name, pick in pieces:
                times, names = parts.setdefault(name, ([], []))
                times.append(ts[pick])
                names.append(domains[pick])
        return {
            server: (np.concatenate(times), np.concatenate(names))
            for server, (times, names) in parts.items()
        }

    # -- epoch lifecycle ----------------------------------------------------

    def _close_epoch(self, day: int) -> Landscape:
        by_server = self._by_server(day)
        self._pending.pop(day, None)
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
        for server, (ts, domains) in sorted(by_server.items()):
            order = np.argsort(ts, kind="stable")
            ordered = list(
                map(
                    MatchedLookup,
                    ts[order].tolist(),
                    repeat(server),
                    domains[order].tolist(),
                    repeat(day),
                )
            )
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
                str(day): [
                    [m.timestamp, m.server, m.domain, m.day_index]
                    for m in self._matches(day)
                ]
                for day in sorted(self._pending)
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
        self._pending = {}
        for day, matches in state["pending"].items():
            if matches:
                ts, servers, domains, _ = zip(*matches)
                self._pending[int(day)] = [
                    (
                        np.array(ts, dtype=np.float64),
                        np.array(servers, dtype=object),
                        np.array(domains, dtype=object),
                    )
                ]
            else:
                self._pending[int(day)] = []

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
        by a caller that already matched it; ``None`` matches the record
        here by the same rule.
        """
        if matched_day is None:
            matched_day = self._match_day(record)
        return self.ingest_lookups(
            np.array([record.timestamp], dtype=np.float64),
            record.server,
            np.array([record.domain], dtype=object),
            np.array([matched_day], dtype=np.int64),
        )

    def ingest_lookups(
        self, ts: np.ndarray, server: Any, domains: np.ndarray, days: np.ndarray
    ) -> list[Landscape]:
        """Consume records in stream order, as columns; return the
        landscapes of the epochs they closed.

        ``server`` is one server name for every record or an object
        array per record; ``days`` holds each record's matched day (the
        sharded engine routes with :class:`~repro.core.matcher.DayIndex`)
        or -1 for a record no window holds.  The result equals ingesting
        the records one at a time: the slice is cut after the record
        whose timestamp reaches the open epoch's deadline, that epoch
        closes there, and later records of a closed epoch are counted
        but not kept.
        """
        n = len(ts)
        self._ingested += n
        self._matched += int(np.count_nonzero(days >= 0))
        closed: list[Landscape] = []
        start = 0
        while start < n:
            stop = n
            if self._watermark >= self._deadline:
                stop = start + 1
            elif ts[start:].max() >= self._deadline:
                stop = start + int(np.argmax(ts[start:] >= self._deadline)) + 1
            self._keep(ts, server, domains, days, start, stop)
            top = float(ts[start:stop].max())
            if top > self._watermark:
                self._watermark = top
            if self._watermark >= self._deadline:
                closed.extend(self.advance_watermark(self._watermark))
            start = stop
        return closed

    def _keep(
        self,
        ts: np.ndarray,
        server: Any,
        domains: np.ndarray,
        days: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        """Add records ``start:stop`` whose epoch is still open to the
        pending matches, one slice per matched day."""
        part = days[start:stop]
        first = int(part[0])
        if first >= self._next_epoch_to_close and (part == first).all():
            picks: Iterable[tuple[int, Any]] = ((first, slice(start, stop)),)
        else:
            open_days = np.unique(part[part >= self._next_epoch_to_close]).tolist()
            picks = ((day, np.flatnonzero(part == day) + start) for day in open_days)
        for day, pick in picks:
            self._pending.setdefault(day, []).append(
                (
                    ts[pick],
                    server if isinstance(server, str) else server[pick],
                    domains[pick],
                )
            )

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
        records = list(records)
        return self.ingest_lookups(
            np.array([r.timestamp for r in records], dtype=np.float64),
            np.array([r.server for r in records], dtype=object),
            np.array([r.domain for r in records], dtype=object),
            np.array([self._match_day(r) for r in records], dtype=np.int64),
        )

    def finalize(self) -> list[Landscape]:
        """Close every epoch that still has pending matches (stream end)."""
        closed = []
        for day in sorted(self._pending):
            if day >= self._next_epoch_to_close:
                closed.append(self._close_epoch(day))
                self._set_cursor(day + 1)
        return closed
