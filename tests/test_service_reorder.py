"""Tests for the bounded reorder buffer and its backpressure policies."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import ForwardedLookup
from repro.service.reorder import Backpressure, ReorderBuffer


def rec(t, server="s", domain="d"):
    return ForwardedLookup(float(t), server, domain)


def drain(buffer, records):
    """Push everything, collect releases, then flush."""
    out = []
    for record in records:
        out.extend(buffer.push(record))
    out.extend(buffer.flush())
    return out


class TestOrdering:
    def test_restores_sorted_order_within_capacity(self):
        shuffled = [rec(3), rec(1), rec(4), rec(0), rec(2)]
        buffer = ReorderBuffer(capacity=8)
        assert drain(buffer, shuffled) == sorted(shuffled, key=lambda r: r.timestamp)

    def test_order_key_matches_trace_order(self):
        """Ties on timestamp break on (server, domain), like sort_observable."""
        records = [rec(1, "b", "y"), rec(1, "a", "z"), rec(1, "a", "x")]
        buffer = ReorderBuffer(capacity=8)
        released = drain(buffer, records)
        assert [(r.server, r.domain) for r in released] == [
            ("a", "x"),
            ("a", "z"),
            ("b", "y"),
        ]

    def test_duplicate_records_all_survive(self):
        records = [rec(1), rec(1), rec(1)]
        buffer = ReorderBuffer(capacity=8)
        assert len(drain(buffer, records)) == 3

    @given(
        st.lists(
            st.floats(0.0, 1000.0, allow_nan=False), min_size=1, max_size=60
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_any_stream_leaves_sorted(self, times):
        buffer = ReorderBuffer(capacity=4)
        released = drain(buffer, [rec(t) for t in times])
        # With BLOCK nothing is lost, and each release batch pops the heap
        # minimum — but records arriving later than capacity allows can
        # still land behind an already-released newer record, so only the
        # multiset is guaranteed in general; with displacement <= capacity
        # the order is fully sorted (covered above).
        assert sorted(r.timestamp for r in released) == sorted(times)
        assert len(released) == len(times)


class TestBackpressure:
    def test_block_releases_oldest_when_full(self):
        buffer = ReorderBuffer(capacity=2, policy=Backpressure.BLOCK)
        assert buffer.push(rec(5)) == []
        assert buffer.push(rec(3)) == []
        released = buffer.push(rec(4))
        assert [r.timestamp for r in released] == [3.0]
        assert buffer.depth == 2
        assert buffer.dropped == 0
        assert buffer.released == 1

    def test_drop_oldest_sheds_and_counts(self):
        buffer = ReorderBuffer(capacity=2, policy="drop-oldest")
        buffer.push(rec(5))
        buffer.push(rec(3))
        assert buffer.push(rec(4)) == []
        assert buffer.dropped == 1
        assert sorted(r.timestamp for r in buffer.flush()) == [4.0, 5.0]

    def test_reordered_counter(self):
        buffer = ReorderBuffer(capacity=8)
        buffer.push(rec(10))
        buffer.push(rec(5))  # behind the max seen
        buffer.push(rec(10))  # equal is not "reordered"
        buffer.push(rec(11))
        assert buffer.reordered == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(capacity=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ReorderBuffer(capacity=4, policy="drop-newest")

    def test_policy_parse_accepts_value_strings(self):
        assert Backpressure.parse("block") is Backpressure.BLOCK
        assert Backpressure.parse(Backpressure.DROP_OLDEST) is Backpressure.DROP_OLDEST


class TestHorizonBoundary:
    """Displacement exactly at the buffer's capacity is the edge the
    fault injector's reorder gap leans on: a record displaced by at most
    `capacity` positions is restored, one position further is not."""

    def displaced(self, capacity, gap):
        """Move record 0 `gap` positions later in a sorted stream."""
        times = list(range(12))
        stream = times[1 : 1 + gap] + [times[0]] + times[1 + gap :]
        buffer = ReorderBuffer(capacity=capacity)
        return [r.timestamp for r in drain(buffer, [rec(t) for t in stream])]

    def test_displacement_equal_to_capacity_is_restored(self):
        assert self.displaced(capacity=4, gap=4) == sorted(range(12))

    def test_displacement_past_capacity_is_not_restored(self):
        released = self.displaced(capacity=4, gap=5)
        assert released != sorted(range(12))
        assert sorted(released) == sorted(range(12))  # still nothing lost

    def test_full_buffer_release_is_deterministic_at_the_boundary(self):
        # Exactly at capacity the release order must not depend on how
        # pushes interleave with releases: run twice, byte-equal.
        stream = [rec(t) for t in (5, 6, 7, 8, 1, 9, 2, 10, 3)]
        a = drain(ReorderBuffer(capacity=4), list(stream))
        b = drain(ReorderBuffer(capacity=4), list(stream))
        assert a == b


class TestDropOldestTies:
    """DROP_OLDEST with equal (timestamp, server, domain) keys.  Which
    duplicate is shed cannot be seen once records are stored as columns;
    tests/test_reorder_batch.py checks every release and drop against
    the arrival-order heap on streams full of duplicates."""

    def test_equal_keys_never_count_as_reordered(self):
        buffer = ReorderBuffer(capacity=2, policy="drop-oldest")
        for _ in range(5):
            buffer.push(rec(3))
        assert buffer.reordered == 0

    def test_tie_handling_survives_checkpoint(self):
        buffer = ReorderBuffer(capacity=2, policy="drop-oldest")
        buffer.push(rec(1, domain="a"))
        buffer.push(rec(1, domain="a"))
        state = json.loads(json.dumps(buffer.export_state()))
        resumed = ReorderBuffer(capacity=2)
        resumed.import_state(state)
        resumed.push(rec(2))
        assert resumed.dropped == 1
        assert [r.timestamp for r in resumed.flush()] == [1.0, 2.0]


class TestCheckpointing:
    def test_export_import_round_trip_equals_uninterrupted(self):
        records = [rec(t, f"s{t % 2:.0f}") for t in (8, 2, 9, 1, 7, 3, 6, 4, 5)]
        uninterrupted = drain(ReorderBuffer(capacity=3), list(records))

        first = ReorderBuffer(capacity=3)
        released = []
        for record in records[:5]:
            released.extend(first.push(record))
        # Round trip the snapshot through real JSON, as a checkpoint would.
        state = json.loads(json.dumps(first.export_state()))
        second = ReorderBuffer(capacity=1)  # config is overwritten by import
        second.import_state(state)
        for record in records[5:]:
            released.extend(second.push(record))
        released.extend(second.flush())

        assert released == uninterrupted
        assert second.released == len(records)

    def test_export_preserves_counters(self):
        buffer = ReorderBuffer(capacity=1, policy="drop-oldest")
        buffer.push(rec(5))
        buffer.push(rec(1))
        state = buffer.export_state()
        assert state["dropped"] == 1
        assert state["reordered"] == 1
        assert state["max_seen"] == 5.0

    def test_empty_buffer_round_trip(self):
        buffer = ReorderBuffer(capacity=4)
        state = buffer.export_state()
        assert state["max_seen"] is None
        fresh = ReorderBuffer(capacity=4)
        fresh.import_state(state)
        assert fresh.depth == 0
        assert fresh.push(rec(1)) == []
