"""The columnar lookup batch every botmeterd input produces.

A :class:`LookupBatch` holds ``n`` vantage-point records as three
parallel columns — ``ts`` (``float64``), ``server_id`` and
``domain_id`` (integer ids, ``uint32`` as decoded) — plus the string
tables the id columns index into.  The wire-v2 decoder builds one per
RECORDS frame (it *is* the frame's column layout) and the NDJSON decoder
one per run of canonical lines; the network ingest tier builds one from
the records it decodes (:meth:`from_records`).
The engine reorders, routes and ingests a whole batch without creating
a per-record object; :meth:`materialize` turns a batch back into
:class:`~repro.dns.message.ForwardedLookup` objects for the few callers
that want them (the inline D3 gate, compatibility shims).
"""

from __future__ import annotations

import bisect
import operator
from typing import Iterable, Sequence

import numpy as np

from ..dns.message import ForwardedLookup

__all__ = ["LookupBatch", "StringTable"]


class StringTable:
    """Strings with stable ids, one id per distinct string.

    Batches re-expressed over one table (:meth:`ids`) share an id space
    in which equal ids mean equal strings, which :meth:`LookupBatch.key_order`
    and :meth:`LookupBatch.searchsorted` rely on.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.index: dict[str, int] = {}

    def ids(self, names: Sequence[str]) -> np.ndarray:
        """The id of each name, adding the new ones."""
        index = self.index
        new = [name for name in dict.fromkeys(names) if name not in index]
        if new:
            index.update(zip(new, range(len(index), len(index) + len(new))))
            self.names.extend(new)
        return np.array(list(map(index.__getitem__, names)), dtype=np.int64)

    def compact(self, used: np.ndarray) -> np.ndarray:
        """Keep only the ``used`` ids, renumbered; returns ``used``
        remapped.  :attr:`names` becomes a new list, so batches that
        still read the old one stay valid."""
        live, inverse = np.unique(used, return_inverse=True)
        self.names = list(map(self.names.__getitem__, live.tolist()))
        self.index = dict(zip(self.names, range(len(self.names))))
        return inverse.reshape(used.shape).astype(np.int64)


def _ranks(names: Sequence[str], ids: np.ndarray) -> np.ndarray:
    """Each id's rank in string order (ids unique per string)."""
    live, inverse = np.unique(ids, return_inverse=True)
    strings = list(map(names.__getitem__, live.tolist()))
    rank = np.empty(len(live), dtype=np.int64)
    rank[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
    return rank[inverse]


def _rising(names: Sequence[str], ids: np.ndarray, at: np.ndarray) -> bool:
    """Whether ``names[ids[i]] < names[ids[i + 1]]`` for every ``i`` in ``at``."""
    get = names.__getitem__
    return all(map(operator.lt, map(get, ids[at].tolist()), map(get, ids[at + 1].tolist())))


class LookupBatch:
    """``n`` lookup records as columns over per-batch string tables.

    ``servers`` and ``domains`` may hold entries no record uses, and a
    decoded table may repeat a string.  :meth:`key_order` and
    :meth:`searchsorted` need tables that do not (a
    :class:`StringTable`'s), where equal ids mean equal strings.
    """

    __slots__ = ("ts", "server_id", "domain_id", "servers", "domains")

    def __init__(
        self,
        ts: np.ndarray,
        server_id: np.ndarray,
        domain_id: np.ndarray,
        servers: Sequence[str],
        domains: Sequence[str],
    ) -> None:
        self.ts = ts
        self.server_id = server_id
        self.domain_id = domain_id
        self.servers = servers
        self.domains = domains

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_records(cls, records: Iterable[ForwardedLookup]) -> "LookupBatch":
        """The batch of ``records``, in order, with first-seen tables."""
        servers: dict[str, int] = {}
        domains: dict[str, int] = {}
        ts = []
        sid = []
        did = []
        for record in records:
            ts.append(record.timestamp)
            sid.append(servers.setdefault(record.server, len(servers)))
            did.append(domains.setdefault(record.domain, len(domains)))
        return cls(
            np.array(ts, dtype=np.float64),
            np.array(sid, dtype=np.uint32),
            np.array(did, dtype=np.uint32),
            tuple(servers),
            tuple(domains),
        )

    @classmethod
    def concat(
        cls, parts: Sequence["LookupBatch | Sequence[ForwardedLookup]"]
    ) -> "LookupBatch":
        """One batch of ``parts`` in order: batches, and runs of records,
        which are gathered into batches of their own first."""
        batches: list[LookupBatch] = []
        records: list[ForwardedLookup] = []
        for part in parts:
            if isinstance(part, LookupBatch):
                if records:
                    batches.append(cls.from_records(records))
                    records = []
                batches.append(part)
            else:
                records.extend(part)
        if records:
            batches.append(cls.from_records(records))
        if len(batches) == 1:
            return batches[0]
        servers: list[str] = []
        domains: list[str] = []
        sids = []
        dids = []
        for batch in batches:
            sids.append(batch.server_id.astype(np.uint32) + len(servers))
            dids.append(batch.domain_id.astype(np.uint32) + len(domains))
            servers.extend(batch.servers)
            domains.extend(batch.domains)
        return cls(
            np.concatenate([batch.ts for batch in batches]),
            np.concatenate(sids),
            np.concatenate(dids),
            servers,
            domains,
        )

    def slice(self, start: int, stop: int | None = None) -> "LookupBatch":
        """Records ``start:stop`` (views of the columns, same tables)."""
        return LookupBatch(
            self.ts[start:stop],
            self.server_id[start:stop],
            self.domain_id[start:stop],
            self.servers,
            self.domains,
        )

    def take(self, index: np.ndarray) -> "LookupBatch":
        """The records at ``index`` (positions or a boolean mask)."""
        return LookupBatch(
            self.ts[index],
            self.server_id[index],
            self.domain_id[index],
            self.servers,
            self.domains,
        )

    def key_order(self) -> np.ndarray | None:
        """Record indices in trace order — ``(timestamp, server,
        domain)``, arrival order among equal keys — or ``None`` when the
        records already are in that order.  The tables must not repeat
        a string (a :class:`StringTable`'s do not)."""
        ts, sid, did = self.ts, self.server_id, self.domain_id
        if len(ts) < 2:
            return None
        step = np.diff(ts)
        if (step >= 0).all():
            # Already ordered if, at equal timestamps, the servers rise
            # or, on one server, the domains do not fall.
            ties = np.flatnonzero(step == 0)
            cross = sid[ties] != sid[ties + 1]
            same = ties[~cross & (did[ties] != did[ties + 1])]
            if _rising(self.servers, sid, ties[cross]) and _rising(
                self.domains, did, same
            ):
                return None
        return np.lexsort((_ranks(self.domains, did), _ranks(self.servers, sid), ts))

    def key(self, i: int) -> tuple[float, str, str]:
        """Record ``i``'s trace-order key ``(timestamp, server, domain)``."""
        return (
            float(self.ts[i]),
            self.servers[self.server_id[i]],
            self.domains[self.domain_id[i]],
        )

    def max_key(self) -> tuple[float, str, str]:
        """The largest trace-order key (record 0's when a timestamp is
        NaN, which equals nothing)."""
        tied = np.flatnonzero(self.ts == self.ts.max()).tolist()
        return max(map(self.key, tied), default=self.key(0))

    def count_below(self, key: tuple[float, str, str], inclusive: bool) -> int:
        """How many leading records have keys below ``key`` (or equal to
        it, when ``inclusive``)."""
        ts = self.ts
        past = ts > key[0]
        for i in np.flatnonzero(ts == key[0]).tolist():
            # Equal timestamps are rare: compare the whole key.
            other = self.key(i)
            past[i] = other > key or (other == key and not inclusive)
        return int(past.argmax()) if past.any() else len(ts)

    def key_ranks(self) -> np.ndarray:
        """Dense ranks of the records' trace-order keys (equal keys share
        a rank); any tables will do."""
        ts = self.ts
        n = len(ts)
        order = np.argsort(ts, kind="stable")
        step = np.ones(n, dtype=bool)
        step[1:] = ts[order[1:]] != ts[order[:-1]]
        starts = np.flatnonzero(step)
        sizes = np.diff(np.append(starts, n))
        for a, size in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
            # Equal timestamps are rare: order them by the whole key.
            idx = order[a : a + size]
            keys = list(map(self.key, idx.tolist()))
            perm = sorted(range(size), key=keys.__getitem__)
            order[a : a + size] = idx[perm]
            pairs = zip(perm, perm[1:])
            step[a + 1 : a + size] = [keys[i] != keys[j] for i, j in pairs]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.cumsum(step)
        return rank

    def searchsorted(self, keys: "LookupBatch") -> np.ndarray:
        """For each record of ``keys`` (in trace order, same tables),
        how many records of this trace-ordered batch sort at or before
        it: ``np.searchsorted(..., side="right")`` on the trace key."""
        ts = self.ts
        if not len(keys) or not len(ts) or keys.ts[0] > ts[-1]:
            return np.full(len(keys), len(ts), dtype=np.int64)
        lo = np.searchsorted(ts, keys.ts, side="left")
        at = np.searchsorted(ts, keys.ts, side="right")
        servers, domains = self.servers, self.domains
        for i in np.flatnonzero(at > lo).tolist():
            a, b = int(lo[i]), int(at[i])
            tied = list(
                zip(
                    map(servers.__getitem__, self.server_id[a:b].tolist()),
                    map(domains.__getitem__, self.domain_id[a:b].tolist()),
                )
            )
            key = (servers[keys.server_id[i]], domains[keys.domain_id[i]])
            at[i] = a + bisect.bisect_right(tied, key)
        return at

    def materialize(self) -> list[ForwardedLookup]:
        """Per-record :class:`ForwardedLookup` objects, in batch order."""
        servers = self.servers
        domains = self.domains
        return [
            ForwardedLookup(t, servers[s], domains[d])
            for t, s, d in zip(
                self.ts.tolist(), self.server_id.tolist(), self.domain_id.tolist()
            )
        ]
