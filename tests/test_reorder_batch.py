"""The batched reorder buffer releases and drops exactly what a heap does.

:class:`ReorderBuffer` takes a whole :class:`LookupBatch` per push and
computes all of its releases at once.  The reference below is
the record-at-a-time bounded min-heap the buffer used to be: push the
record keyed on ``(timestamp, server, domain, arrival)``, then, while
the heap holds more than ``capacity`` records, pop the smallest and
release it (``block``) or drop it (``drop-oldest``).  Both sides are
driven with the same random stream, cut into random batches, and must
agree on every release/drop, on the counters and on the checkpoint.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dns.message import ForwardedLookup
from repro.service.lookups import LookupBatch
from repro.service.reorder import Backpressure, ReorderBuffer


class HeapReference:
    """The sequential bounded min-heap, one record per push."""

    def __init__(self, capacity: int, policy: str) -> None:
        self.capacity = capacity
        self.policy = Backpressure.parse(policy)
        self.heap: list = []
        self.seq = 0
        self.max_seen = float("-inf")
        self.reordered = self.dropped = self.released = 0

    def push(self, record: ForwardedLookup) -> list[ForwardedLookup]:
        """Returns the records this push released or dropped, in order."""
        if record.timestamp < self.max_seen:
            self.reordered += 1
        else:
            self.max_seen = record.timestamp
        key = (record.timestamp, record.server, record.domain, self.seq)
        heapq.heappush(self.heap, (key, record))
        self.seq += 1
        out = []
        while len(self.heap) > self.capacity:
            out.append(heapq.heappop(self.heap)[1])
            if self.policy is Backpressure.BLOCK:
                self.released += 1
            else:
                self.dropped += 1
        return out

    def flush(self) -> list[ForwardedLookup]:
        out = [heapq.heappop(self.heap)[1] for _ in range(len(self.heap))]
        self.released += len(out)
        return out

    def export_state(self) -> dict:
        return {
            "capacity": self.capacity,
            "policy": self.policy.value,
            "max_seen": None if self.max_seen == float("-inf") else self.max_seen,
            "contents": [record.to_dict() for _, record in sorted(self.heap)],
            "reordered": self.reordered,
            "dropped": self.dropped,
            "released": self.released,
        }


def triples(records):
    return [(r.timestamp, r.server, r.domain) for r in records]


# Few distinct values, so duplicate (ts, server, domain) keys and
# timestamp ties that (server, domain) must break are common.
records_st = st.builds(
    ForwardedLookup,
    st.integers(0, 40).map(lambda t: t / 4),
    st.sampled_from(["s0", "s1", "s2"]),
    st.sampled_from(["a.example", "b.example", "c.example", "zz.example"]),
)


@st.composite
def sorted_with_displacement(draw):
    """A sorted stream with records moved far back (beyond any capacity)."""
    records = sorted(draw(st.lists(records_st, min_size=1, max_size=80)),
                     key=lambda r: (r.timestamp, r.server, r.domain))
    for _ in range(draw(st.integers(0, 6))):
        src = draw(st.integers(0, len(records) - 1))
        dst = draw(st.integers(0, len(records) - 1))
        records.insert(dst, records.pop(src))
    return records


def check(records, capacity, policy, cuts, flush_every, sides=None):
    """Drive both sides; ``cuts`` are batch lengths (cycled), and every
    ``flush_every``-th batch is followed by a flush (0 = only at the end).
    ``sides`` is a prepared ``(buffer, reference)`` pair, else fresh ones."""
    buffer, reference = sides or (
        ReorderBuffer(capacity, policy),
        HeapReference(capacity, policy),
    )
    start = 0
    batch_no = 0
    while start < len(records):
        size = cuts[batch_no % len(cuts)]
        chunk = records[start : start + size]
        start += size
        batch_no += 1
        expected = []
        for record in chunk:
            expected.extend(reference.push(record))
        plan = buffer.push_batch(LookupBatch.from_records(chunk))
        got = plan.released if buffer.policy is Backpressure.BLOCK else plan.dropped
        assert triples(got.materialize()) == triples(expected)
        assert len(plan.dropped if got is plan.released else plan.released) == 0
        assert buffer.reordered == reference.reordered
        assert buffer.dropped == reference.dropped
        assert buffer.released == reference.released
        assert buffer.max_seen == reference.max_seen
        assert buffer.depth == len(reference.heap)
        assert buffer.export_state() == reference.export_state()
        if flush_every and batch_no % flush_every == 0:
            assert triples(buffer.flush()) == triples(reference.flush())
    assert triples(buffer.flush()) == triples(reference.flush())
    assert buffer.export_state() == reference.export_state()


@given(
    records=st.one_of(st.lists(records_st, max_size=80), sorted_with_displacement()),
    capacity=st.integers(1, 16),
    policy=st.sampled_from(["block", "drop-oldest"]),
    cuts=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    flush_every=st.integers(0, 4),
)
@settings(max_examples=400, deadline=None)
@example(
    records=[ForwardedLookup(5.0, "s", "d"), ForwardedLookup(3.0, "s", "d"),
             ForwardedLookup(1.0, "s", "d")],
    capacity=1, policy="block", cuts=[3], flush_every=0,
)
def test_batched_buffer_matches_heap(records, capacity, policy, cuts, flush_every):
    check(records, capacity, policy, cuts, flush_every)


@given(
    records=st.lists(records_st, max_size=60),
    capacity=st.integers(1, 16),
    policy=st.sampled_from(["block", "drop-oldest"]),
)
@settings(max_examples=150, deadline=None)
def test_batches_of_one_match_heap(records, capacity, policy):
    check(records, capacity, policy, [1], 0)


@given(
    records=st.lists(records_st, max_size=60),
    capacity=st.integers(1, 16),
    policy=st.sampled_from(["block", "drop-oldest"]),
    cut=st.integers(0, 60),
)
@settings(max_examples=100, deadline=None)
def test_checkpoint_mid_stream_resumes_identically(records, capacity, policy, cut):
    """A buffer restored from ``export_state`` continues like the heap."""
    reference = HeapReference(capacity, policy)
    first = ReorderBuffer(capacity, policy)
    first.push_batch(LookupBatch.from_records(records[:cut]))
    for record in records[:cut]:
        reference.push(record)
    restored = ReorderBuffer(1)
    restored.import_state(first.export_state())
    expected = []
    for record in records[cut:]:
        expected.extend(reference.push(record))
    plan = restored.push_batch(LookupBatch.from_records(records[cut:]))
    got = plan.released if restored.policy is Backpressure.BLOCK else plan.dropped
    assert triples(got.materialize()) == triples(expected)
    assert triples(restored.flush()) == triples(reference.flush())
    assert restored.export_state() == reference.export_state()


def test_string_tables_compact_without_changing_releases():
    """Past its string-table limit the buffer renumbers the tables down
    to the strings it still holds; releases, drops and checkpoints still
    match the heap."""
    from repro.service import reorder as reorder_mod

    records = [
        ForwardedLookup(float((i * 7) % 97), f"s{i % 3}", f"d{i}.example")
        for i in range(400)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reorder_mod, "_COMPACT_AT", 8)
        for policy in ("block", "drop-oldest"):
            check(records, 4, policy, [7, 1, 30], 0)
        buffer = ReorderBuffer(4)
        for start in range(0, len(records), 50):
            buffer.push_batch(LookupBatch.from_records(records[start : start + 50]))
        assert len(buffer._domains.names) <= 16


def test_a_slice_interns_only_the_names_it_uses():
    """A short slice of a long run keeps the run's whole string tables;
    pushing it interns the names its records use, not the tables (a
    capacity this large never compacts them)."""
    big = LookupBatch.from_records(
        ForwardedLookup(float(i), "s0", f"d{i}.example") for i in range(10_000)
    )
    buffer = ReorderBuffer(1 << 12)
    buffer.push_batch(big.slice(0, 1))
    assert buffer._domains.names == ["d0.example"]
    assert buffer._servers.names == ["s0"]


@given(
    records=st.lists(records_st, min_size=1, max_size=60),
    held=st.integers(0, 16),
    capacity=st.integers(1, 16),
    policy=st.sampled_from(["block", "drop-oldest"]),
    cuts=st.lists(st.integers(1, 20), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_restored_over_capacity_gives_up_the_excess(records, held, capacity, policy, cuts):
    """A reshard can merge buffers into one checkpoint holding more than
    ``capacity`` records; like the heap, the next push gives up the
    excess and each push after that one record."""
    first = ReorderBuffer(16, policy)
    first.push_batch(LookupBatch.from_records(records[:held]))
    state = first.export_state()
    state["capacity"] = capacity
    buffer = ReorderBuffer(1)
    buffer.import_state(state)
    reference = HeapReference(capacity, policy)
    contents = [ForwardedLookup.from_dict(data) for data in state["contents"]]
    reference.heap = [
        ((r.timestamp, r.server, r.domain, seq), r) for seq, r in enumerate(contents)
    ]
    reference.seq = len(contents)
    reference.max_seen = first.max_seen
    reference.reordered = first.reordered
    assert buffer.export_state() == state
    check(records[held:], capacity, policy, cuts, 0, sides=(buffer, reference))
