"""A local DGArchive-style lookup service.

The paper builds its "pool dataset" by querying DGArchive — a service
that, given a domain, answers which DGA family generated it and for
which dates, and can enumerate each family's daily pools.  This module
provides the same capability over this library's deterministic families:

* :meth:`DgaArchive.build` pre-generates every pool over a date range
  and indexes domain → (family, date) hits;
* :meth:`DgaArchive.lookup` answers point queries (the DGArchive API);
* :meth:`DgaArchive.detection_windows` materialises per-day matcher
  windows for BotMeter;
* :meth:`DgaArchive.collisions` finds pool domains that coincide with a
  benign set (the paper's "collision cases", §II-B).

Because every family is a pure function of ``(name, seed, date)``, the
archive serialises to a tiny manifest — families and the date range —
and rebuilds its index on load.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .base import Dga
from .families import make_family

__all__ = ["ArchiveHit", "DgaArchive"]


@dataclass(frozen=True)
class ArchiveHit:
    """One lookup answer: the family that generated a domain, on a date."""

    family: str
    date: _dt.date


class DgaArchive:
    """Domain → (family, date) index over deterministic DGA families."""

    def __init__(self) -> None:
        self._dgas: dict[str, Dga] = {}
        self._seeds: dict[str, int] = {}
        self._index: dict[str, list[ArchiveHit]] = {}
        self._start: _dt.date | None = None
        self._end: _dt.date | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        families: Iterable[tuple[str, int]],
        start: _dt.date,
        end: _dt.date,
    ) -> "DgaArchive":
        """Index every listed ``(family, seed)`` over ``[start, end]``."""
        if end < start:
            raise ValueError("end date precedes start date")
        archive = cls()
        archive._start, archive._end = start, end
        for name, seed in families:
            if name in archive._dgas:
                raise ValueError(f"family {name!r} listed twice")
            archive._dgas[name] = make_family(name, seed)
            archive._seeds[name] = seed
        day = start
        while day <= end:
            for name, dga in archive._dgas.items():
                for domain in dga.pool(day):
                    archive._index.setdefault(domain, []).append(
                        ArchiveHit(name, day)
                    )
            day += _dt.timedelta(days=1)
        return archive

    # -- queries --------------------------------------------------------------

    @property
    def date_range(self) -> tuple[_dt.date, _dt.date]:
        if self._start is None or self._end is None:
            raise RuntimeError("archive is empty")
        return self._start, self._end

    def families(self) -> list[str]:
        """Archived family names, sorted."""
        return sorted(self._dgas)

    def __len__(self) -> int:
        """Number of distinct indexed domains."""
        return len(self._index)

    def lookup(self, domain: str) -> list[ArchiveHit]:
        """All (family, date) attributions of ``domain`` (empty if benign)."""
        return list(self._index.get(domain, ()))

    def is_dga_domain(self, domain: str) -> bool:
        """Whether any archived family generated ``domain``."""
        return domain in self._index

    def pool(self, family: str, date: _dt.date) -> list[str]:
        """A family's full pool on a date (regenerated, not stored)."""
        return self._dga(family).pool(date)

    def nxdomains(self, family: str, date: _dt.date) -> list[str]:
        """A family's NXDs (pool minus registered) on a date."""
        return self._dga(family).nxdomains(date)

    def dga(self, family: str) -> Dga:
        """The family's DGA instance (for BotMeter construction)."""
        return self._dga(family)

    def _dga(self, family: str) -> Dga:
        try:
            return self._dgas[family]
        except KeyError:
            known = ", ".join(self.families())
            raise KeyError(f"family {family!r} not archived; have: {known}") from None

    def detection_windows(
        self, family: str, timeline, day_indices: Iterable[int]
    ) -> dict[int, frozenset[str]]:
        """Per-day-index NXD windows for the matcher (perfect coverage)."""
        dga = self._dga(family)
        return {
            day: dga.window(timeline.date_for_day(day))
            for day in day_indices
        }

    def collisions(self, benign_domains: Iterable[str]) -> dict[str, list[ArchiveHit]]:
        """Benign domains that collide with generated pools (§II-B)."""
        return {
            domain: self.lookup(domain)
            for domain in benign_domains
            if self.is_dga_domain(domain)
        }

    def summary(self) -> dict[str, int]:
        """Distinct indexed domains per family."""
        counts: dict[str, int] = {name: 0 for name in self._dgas}
        for hits in self._index.values():
            for family in {hit.family for hit in hits}:
                counts[family] += 1
        return counts

    # -- persistence ------------------------------------------------------------

    def save_manifest(self, path: str | Path) -> None:
        """Persist the archive as a manifest (families + date range).

        The domain index is *not* stored — pools are deterministic, so
        :meth:`load_manifest` rebuilds it exactly.
        """
        start, end = self.date_range
        manifest = {
            "start": start.isoformat(),
            "end": end.isoformat(),
            "families": [
                {"name": name, "seed": self._seeds[name]}
                for name in self.families()
            ],
        }
        Path(path).write_text(json.dumps(manifest, indent=2))

    @classmethod
    def load_manifest(cls, path: str | Path) -> "DgaArchive":
        manifest = json.loads(Path(path).read_text())
        return cls.build(
            [(f["name"], f["seed"]) for f in manifest["families"]],
            _dt.date.fromisoformat(manifest["start"]),
            _dt.date.fromisoformat(manifest["end"]),
        )
