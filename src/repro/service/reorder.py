"""Bounded reorder buffer with explicit backpressure.

A real collector delivers the vantage-point stream *roughly* ordered:
parallel resolver threads, retransmissions and batching displace records
by seconds.  The daemon runs every record through this buffer — a
bounded buffer keyed on the deterministic trace order
``(timestamp, server, domain)``, ties broken by arrival — so the
downstream engine sees the same order a sorted batch file would give,
as long as displacement stays within the buffer's capacity.

The buffer is the service's backpressure point.  Once it holds
``capacity`` records, every push gives up one record: the smaller of
the new record's key and the smallest held key.  The configured
:class:`Backpressure` policy decides what happens to it:

* ``BLOCK`` — it is *released* downstream (synchronously, this is the
  producer blocking until the consumer made room; nothing is ever lost);
* ``DROP_OLDEST`` — it is *discarded* and counted, shedding load while
  keeping the freshest data.

The held set is always the ``capacity`` largest keys seen so far.
:meth:`ReorderBuffer.plan` applies that rule to a whole
:class:`~repro.service.lookups.LookupBatch` at once; a push-at-a-time
min-heap (``tests/test_reorder_batch.py``) gives up the same records.
"""

from __future__ import annotations

import enum
import heapq
from itertools import repeat
from typing import Any, NamedTuple, Sequence

import numpy as np

from ..dns.message import ForwardedLookup
from .lookups import LookupBatch, StringTable

__all__ = ["Backpressure", "ReorderBuffer", "ReorderPlan"]

#: Interned strings kept before the tables are compacted to what the
#: buffer still holds.
_COMPACT_AT = 1 << 12


def _intern_used(
    table: StringTable, names: Sequence[str], ids: np.ndarray
) -> np.ndarray:
    """``ids`` re-expressed over ``table``, interning only the names they
    use: a short slice of a long run keeps its run's whole tables."""
    used = np.zeros(len(names), dtype=bool)
    used[ids] = True
    live = np.flatnonzero(used)
    remap = np.zeros(len(names), dtype=np.int64)
    remap[live] = table.ids(list(map(names.__getitem__, live.tolist())))
    return remap[ids]


class Backpressure(enum.Enum):
    """What a full reorder buffer does with its oldest record."""

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"

    @classmethod
    def parse(cls, value: "Backpressure | str") -> "Backpressure":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown backpressure policy {value!r}; options: {options}"
            ) from None


class ReorderPlan(NamedTuple):
    """What pushing one batch does, computed without applying it:
    ``out[j]`` is given up (released or dropped, as the policy says) by
    push ``max(first_step + j, 0)``; a restored buffer over capacity
    gives up its excess on its first push."""

    pushed: int
    first_step: int
    out: LookupBatch
    dropping: bool
    held: LookupBatch
    max_seen: float
    reordered: int

    @property
    def released(self) -> LookupBatch:
        return self.out.slice(0, 0) if self.dropping else self.out

    @property
    def dropped(self) -> LookupBatch:
        return self.out if self.dropping else self.out.slice(0, 0)


class ReorderBuffer:
    """Bounded buffer that restores bounded-displacement stream order.

    Args:
        capacity: maximum records held; pushing past it triggers the
            backpressure policy.
        policy: :class:`Backpressure` (or its string value).

    Counters (all monotonic): ``reordered`` — records that arrived with
    a timestamp below the highest already seen; ``dropped`` — records
    shed by ``DROP_OLDEST``; ``released`` — records delivered
    downstream.
    """

    def __init__(
        self, capacity: int = 1024, policy: Backpressure | str = Backpressure.BLOCK
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.policy = Backpressure.parse(policy)
        self._clear()
        self._max_seen = float("-inf")
        self.reordered = 0
        self.dropped = 0
        self.released = 0

    def __len__(self) -> int:
        return len(self._held)

    @property
    def depth(self) -> int:
        """Records currently buffered."""
        return len(self._held)

    @property
    def max_seen(self) -> float:
        """Highest timestamp ever pushed — buffered records included.

        Two invariants hang off this bound: every record still held has
        a timestamp ``<= max_seen``, and the downstream watermark only
        advances on *released* records, so ``watermark <= max_seen``
        always.  It is checkpointed with the buffer, so a restored
        buffer keeps counting reorders exactly."""
        return self._max_seen

    @property
    def saturated(self) -> bool:
        """Whether the buffer is at capacity — the next push triggers
        the backpressure policy.  Upstream tiers (the network ingest
        server) poll this to pause reads instead of pushing into a
        policy decision."""
        return len(self._held) >= self.capacity

    # -- record-at-a-time wrappers -------------------------------------------

    def push(self, record: ForwardedLookup) -> list[ForwardedLookup]:
        """Buffer one record; return the records this push released."""
        return self._push(record)

    def _push(self, record: ForwardedLookup) -> list[ForwardedLookup]:
        return self.push_batch(LookupBatch.from_records((record,))).released.materialize()

    def flush(self) -> list[ForwardedLookup]:
        """Release everything still buffered, in order (stream end)."""
        return self.flush_batch().materialize()

    # -- the batch path ------------------------------------------------------

    def push_batch(self, batch: LookupBatch) -> ReorderPlan:
        """Push every record of ``batch`` in order; returns what it did."""
        self.commit(plan := self.plan(batch))
        return plan

    def flush_batch(self) -> LookupBatch:
        """Release everything still buffered, in key order."""
        out, self._held = self._held, self._held.slice(0, 0)
        self.released += len(out)
        return out

    def commit(self, plan: ReorderPlan) -> None:
        """Apply a :meth:`plan` made against the buffer as it stands."""
        self._max_seen = plan.max_seen
        self.reordered += plan.reordered
        if plan.dropping:
            self.dropped += len(plan.out)
        else:
            self.released += len(plan.out)
        held = plan.held
        interned = len(self._servers.names) + len(self._domains.names)
        if interned > max(_COMPACT_AT, 4 * self.capacity):
            ts, sid, did = held.ts, held.server_id, held.domain_id
            held = self._batch(ts, self._servers.compact(sid), self._domains.compact(did))
        self._held = held

    def _clear(self) -> None:
        self._servers = StringTable()
        self._domains = StringTable()
        empty = np.zeros(0, np.int64)
        self._held = self._batch(np.zeros(0), empty, empty)  # in key order

    def _batch(self, ts: np.ndarray, sid: np.ndarray, did: np.ndarray) -> LookupBatch:
        return LookupBatch(ts, sid, did, self._servers.names, self._domains.names)

    def _intern(self, batch: LookupBatch) -> LookupBatch:
        return self._batch(
            np.asarray(batch.ts, dtype=np.float64),
            _intern_used(self._servers, batch.servers, batch.server_id),
            _intern_used(self._domains, batch.domains, batch.domain_id),
        )

    def plan(self, batch: LookupBatch) -> ReorderPlan:
        """What pushing ``batch`` record by record would do; only the
        string tables change.  Nothing is given up until the buffer is
        full; then each push gives up the smaller of its own key and the
        smallest held key, so the held set ends as the ``capacity``
        largest keys overall."""
        n = len(batch)
        new = self._intern(batch)
        held = self._held
        h = len(held)
        n_out = max(h + n - self.capacity, 0) if n else 0
        first_step = n - n_out
        # Where each batch record (in key order) lands among the held
        # ones, and so its index in the merged key order.
        order = new.key_order()
        at = held.searchsorted(new if order is None else new.take(order))
        pairs = zip(
            (held.ts, held.server_id, held.domain_id),
            (new.ts, new.server_id, new.domain_id),
        )
        picks: slice | list[int] = slice(0, n_out)
        if order is None and (not n or at[0] == h):
            # Already in key order after every held record: nothing can
            # pass through, and the merge is a concatenation.
            merged = self._batch(*(np.concatenate(pair) for pair in pairs))
        else:
            if order is None:
                order = np.arange(n)
            merged_pos = at + np.arange(n)
            from_batch = np.zeros(h + n, dtype=bool)
            from_batch[merged_pos] = True
            columns = []
            for old, col in pairs:
                column = np.empty(h + n, dtype=col.dtype)
                column[merged_pos] = col[order]
                column[~from_batch] = old
                columns.append(column)
            merged = self._batch(*columns)
            # The rule on merged positions (a sorted list is a heap):
            # heappushpop gives up the smaller of new and smallest held.
            heap = np.flatnonzero(~from_batch).tolist()
            arrivals = merged_pos[np.argsort(order)].tolist()
            filling = max(first_step, 0)
            for position in arrivals[:filling]:
                heapq.heappush(heap, position)
            rest = arrivals[filling:]
            picks = list(map(heapq.heappushpop, repeat(heap), rest[:1]))
            picks += [heapq.heappop(heap) for _ in range(-first_step)]
            picks += map(heapq.heappushpop, repeat(heap), rest[1:])
        # Records behind the highest timestamp seen before them.
        ts, max_seen = new.ts, self._max_seen
        if order is None:
            reordered = int(np.searchsorted(ts, max_seen))
        else:
            reordered = int(np.count_nonzero(ts < np.maximum.accumulate(np.maximum(ts, max_seen))))
        if n:
            max_seen = max(max_seen, float(ts.max()))
        return ReorderPlan(
            n,
            first_step,
            merged.take(picks),
            self.policy is Backpressure.DROP_OLDEST,
            merged.slice(n_out),
            max_seen,
            reordered,
        )

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """JSON-serialisable snapshot (contents, cursor, counters)."""
        return {
            "capacity": self.capacity,
            "policy": self.policy.value,
            "max_seen": None if self._max_seen == float("-inf") else self._max_seen,
            "contents": [r.to_dict() for r in self._held.materialize()],
            "reordered": self.reordered,
            "dropped": self.dropped,
            "released": self.released,
        }

    def import_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self.capacity = int(state["capacity"])
        self.policy = Backpressure.parse(state["policy"])
        max_seen = state["max_seen"]
        self._max_seen = float("-inf") if max_seen is None else float(max_seen)
        self._clear()
        contents = (ForwardedLookup.from_dict(data) for data in state["contents"])
        # A reshard can merge buffers past capacity: the next push sheds it.
        held = self._intern(LookupBatch.from_records(contents))
        order = held.key_order()
        self._held = held if order is None else held.take(order)
        self.reordered = int(state["reordered"])
        self.dropped = int(state["dropped"])
        self.released = int(state["released"])
