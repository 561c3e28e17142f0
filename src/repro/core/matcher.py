"""DGA-domain matching (component ③ of Figure 2).

The matcher is the front end of BotMeter: it filters the vantage-point
stream down to the lookups that belong to the target DGA, using either
plain per-day domain lists (the D3 detection window) or algorithmic
patterns (regular expressions), and tags every match with its epoch and
forwarding server.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..dga.base import Dga
from ..dns.message import ForwardedLookup
from ..timebase import SECONDS_PER_DAY, Timeline
from .estimator import MatchedLookup

__all__ = ["DayIndex", "DgaDomainMatcher", "PatternMatcher", "Routes", "group_by_server"]

#: Where one record goes: ``((family, matched_day), ...)`` in sorted
#: family order; empty when no family window holds the domain.
Routes = tuple[tuple[str, int], ...]

#: Record days a :class:`DayIndex` keeps a table for: the current day,
#: plus the previous one for records the reorder buffer releases late.
_KEEP_DAYS = 2


class DayIndex:
    """The streaming matching rule, as one dict probe per record.

    A record of day ``d`` belongs to a family when its domain is in the
    family's day-``d`` window, else in its day ``d-1`` window (so
    activations that straddle midnight keep matching); ``matched_day``
    is the day whose window held it.  For each record day the index
    holds one dict, ``domain -> Routes``, built from the windows of
    ``d`` and ``d-1``, and keeps at most two of them.

    Windows come from ``detection_windows[family][day]`` when given,
    else from :meth:`Dga.window`, which memoises them per instance:
    every index over the same :class:`Dga` objects shares one window per
    day.  The family set is fixed; a new family needs a new index.
    """

    def __init__(
        self,
        dgas: Mapping[str, Dga],
        timeline: Timeline,
        detection_windows: Mapping[str, Mapping[int, frozenset[str]]] | None = None,
    ) -> None:
        self._dgas = dgas
        self._families = sorted(dgas)
        self._timeline = timeline
        self._detection_windows = detection_windows or {}
        self._tables: dict[int, dict[str, Routes]] = {}
        self._day: int | None = None
        self._current: dict[str, Routes] = {}

    def _window(self, family: str, day: int) -> frozenset[str]:
        """The domains ``family`` generates for day index ``day``."""
        if day < 0:
            return frozenset()
        override = self._detection_windows.get(family)
        if override is not None and day in override:
            return override[day]
        return self._dgas[family].window(self._timeline.date_for_day(day))

    def _build(self, day: int) -> dict[str, Routes]:
        """``domain -> Routes`` for records whose timestamp falls on ``day``."""
        table: dict[str, Routes] = {}
        for family in self._families:
            for hit, domains in (
                (((family, day),), self._window(family, day)),
                (((family, day - 1),), self._window(family, day - 1)),
            ):
                for domain in domains:
                    known = table.get(domain)
                    if known is None:
                        table[domain] = hit
                    elif known[-1][0] != family:
                        table[domain] = known + hit
        if len(self._tables) >= _KEEP_DAYS:
            del self._tables[next(iter(self._tables))]
        self._tables[day] = table
        return table

    def _day_table(self, day: int) -> dict[str, Routes]:
        if day != self._day:
            table = self._tables.get(day)
            self._current = self._build(day) if table is None else table
            self._day = day
        return self._current

    def routes(self, domain: str, timestamp: float) -> Routes:
        """Where a record with this domain and timestamp goes."""
        return self._day_table(int(timestamp // SECONDS_PER_DAY)).get(domain, ())

    def route_columns(
        self, ts: np.ndarray, domain_id: np.ndarray, domains: Sequence[str]
    ) -> list[Routes]:
        """:meth:`routes` of many records, probing the index once per
        distinct (domain id, day), days ascending."""
        days = np.floor_divide(ts, SECONDS_PER_DAY).astype(np.int64)
        order = np.lexsort((domain_id, days))
        days, ids = days[order], domain_id[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (days[1:] != days[:-1]) | (ids[1:] != ids[:-1])
        days, ids, found = days[new], ids[new], []
        for day in dict.fromkeys(days.tolist()):
            names = map(domains.__getitem__, ids[days == day].tolist())
            found.extend(map(self._day_table(day).get, names, repeat(())))
        which = np.empty(len(order), dtype=np.int64)
        which[order] = np.cumsum(new) - 1
        return list(map(found.__getitem__, which.tolist()))


class DgaDomainMatcher:
    """Matches a vantage-point stream against per-day domain sets.

    ``windows`` maps a day index to the set of domains known to belong to
    the target DGA on that day (typically a D3 detection window over the
    daily pool).  A lookup matches when its domain is in the window of
    the epoch containing its timestamp; the previous day's window is also
    consulted so activations that straddle midnight keep matching.
    """

    def __init__(self, windows: dict[int, frozenset[str] | set[str]]) -> None:
        self._windows = {day: frozenset(domains) for day, domains in windows.items()}

    @property
    def days(self) -> list[int]:
        return sorted(self._windows)

    def window_for(self, day_index: int) -> frozenset[str]:
        """The detection window of one day (empty if unknown)."""
        return self._windows.get(day_index, frozenset())

    def match(self, records: Iterable[ForwardedLookup]) -> list[MatchedLookup]:
        """All records whose domain belongs to the target DGA."""
        matches: list[MatchedLookup] = []
        for record in records:
            day = int(record.timestamp // SECONDS_PER_DAY)
            if record.domain in self.window_for(day):
                matched_day = day
            elif record.domain in self.window_for(day - 1):
                matched_day = day - 1
            else:
                continue
            matches.append(
                MatchedLookup(record.timestamp, record.server, record.domain, matched_day)
            )
        return matches

    def match_rate(self, records: Sequence[ForwardedLookup]) -> float:
        """Fraction of the stream that matches (diagnostics)."""
        if not records:
            return 0.0
        return len(self.match(records)) / len(records)


class PatternMatcher:
    """Matches on algorithmic patterns (anchored regular expressions).

    This is the "algorithmic patterns of DGA domains" input mode of
    Figure 2: when the analyst has reverse-engineered the label shape
    (e.g. 28 hex characters under ``.net`` for newGoZ) but not the exact
    daily pool.  Matches carry the epoch of their timestamp.
    """

    def __init__(self, patterns: Iterable[str]) -> None:
        compiled = []
        for pattern in patterns:
            compiled.append(re.compile(pattern if pattern.endswith("$") else pattern + "$"))
        if not compiled:
            raise ValueError("need at least one pattern")
        self._patterns = compiled

    def matches_domain(self, domain: str) -> bool:
        """Whether any pattern matches ``domain`` exactly."""
        return any(p.match(domain) for p in self._patterns)

    def match(self, records: Iterable[ForwardedLookup]) -> list[MatchedLookup]:
        """All records whose domain matches one of the patterns."""
        return [
            MatchedLookup(
                r.timestamp, r.server, r.domain, int(r.timestamp // SECONDS_PER_DAY)
            )
            for r in records
            if self.matches_domain(r.domain)
        ]


def group_by_server(matches: Iterable[MatchedLookup]) -> dict[str, list[MatchedLookup]]:
    """Partition matched lookups by forwarding local server.

    Landscape charting estimates one population per local server; this is
    the partition step (matches arrive time-sorted and stay time-sorted
    within each server).
    """
    by_server: dict[str, list[MatchedLookup]] = {}
    for match in matches:
        by_server.setdefault(match.server, []).append(match)
    return by_server
