"""Day-index routing against the per-family matching rule.

The engine, its ingest workers and the inline D3 route every record with
one :class:`~repro.core.matcher.DayIndex` probe.  The rule that index
encodes is written out here a second time, per family and from
``Dga.nxdomains`` directly: a record of day ``d`` matches a family whose
day-``d`` window holds its domain, else one whose day-``d-1`` window does.

Generated multi-family traces carry midnight spill (yesterday's domains
after midnight), records from older and future windows, benign names and
records delayed past their epoch's emission.  Every run also registers a
twin family mid-stream (each of its domains then routes to two families)
and overrides one family's window with a detection window that borrows
another family's domains.  The engine's counters must equal the rule's at
every ``on_emit`` and at the end of every batch, and the emitted bytes
must agree across batch sizes 1 and 256, wire-v2 frames and two ingest
workers.  With workers, matched counts reach the parent only at sync
points, so they are compared at every ``on_emit`` and after finalize.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.matcher import DayIndex
from repro.core.timing import TimingEstimator
from repro.dga.families import make_family
from repro.dns.message import ForwardedLookup
from repro.service.engine import ShardedLandscapeEngine
from repro.service.reorder import ReorderBuffer
from repro.service.wire import encode_landscape
from repro.service.wire2 import LookupColumns
from repro.timebase import SECONDS_PER_DAY as DAY
from repro.timebase import Timeline

TIMELINE = Timeline()
GRACE = 900.0
CAPACITY = 8
SERVERS = ("s0", "s1", "s2")
#: name -> (builder, family seed); small pools keep each example cheap.
BASE = {"murofet": ("murofet", 3), "qakbot": ("qakbot", 1), "srizbi": ("srizbi", 5)}
TWIN = ("murofet-twin", ("murofet", 3))
DGAS = {name: make_family(*spec) for name, spec in BASE.items()}

_NXD_CACHE: dict[tuple[str, int, int], frozenset[str]] = {}


def nxds(spec: tuple[str, int], day: int) -> frozenset[str]:
    """A family's NXDs on a day index, straight from ``Dga.nxdomains``."""
    if day < 0:
        return frozenset()
    key = (*spec, day)
    if key not in _NXD_CACHE:
        _NXD_CACHE[key] = frozenset(make_family(*spec).nxdomains(TIMELINE.date_for_day(day)))
    return _NXD_CACHE[key]


#: qakbot's day-1 window is replaced by half of it plus murofet domains,
#: so some domains route to two base families on day 1 (and day 2).
OVERRIDE = {
    "qakbot": {
        1: frozenset(sorted(nxds(BASE["qakbot"], 1))[:120])
        | frozenset(sorted(nxds(BASE["murofet"], 1))[:60])
    }
}


def window(family: str, day: int) -> frozenset[str]:
    if day >= 0 and day in OVERRIDE.get(family, {}):
        return OVERRIDE[family][day]
    spec = TWIN[1] if family == TWIN[0] else BASE[family]
    return nxds(spec, day)


def rule(domain: str, timestamp: float, families) -> list[tuple[str, int]]:
    """The per-family matching rule, family by family."""
    day = int(timestamp // DAY)
    routes = []
    for family in sorted(families):
        if domain in window(family, day):
            routes.append((family, day))
        elif domain in window(family, day - 1):
            routes.append((family, day - 1))
    return routes


# -- traces --------------------------------------------------------------------

_record = st.tuples(
    st.integers(0, 3),  # day
    st.one_of(st.integers(0, 7_200), st.integers(0, 863_999)),  # tenths of a second
    st.sampled_from(sorted(BASE) + ["benign"]),
    st.sampled_from([0, 0, -1, -1, -2, 1]),  # which day's window the domain is from
    st.integers(0, 10_000),
    st.sampled_from(SERVERS),
    st.one_of(st.just(0.0), st.just(0.0), st.floats(0, 2 * DAY)),  # arrival delay
)


def fixed_raw(seed: int, n: int = 200) -> list[tuple]:
    """A seeded trace in ``_record`` form: every run checks at least one
    trace with emissions, late records and both kinds of overlap."""
    rng = random.Random(seed)
    return [
        (
            rng.randrange(4),
            rng.randrange(864_000),
            rng.choice(sorted(BASE) + ["benign"]),
            rng.choice([0, 0, -1, -1, -2, 1]),
            rng.randrange(10_000),
            rng.choice(SERVERS),
            rng.choice([0.0] * 8 + [rng.uniform(0, 2 * DAY)]),
        )
        for _ in range(n)
    ]


def build_trace(raw) -> list[ForwardedLookup]:
    """Records in arrival order: by timestamp plus each record's delay."""
    keyed = []
    for day, tenths, family, offset, pick, server, delay in raw:
        timestamp = day * DAY + tenths / 10
        pool = sorted(window(family, day + offset)) if family != "benign" else []
        domain = pool[pick % len(pool)] if pool else f"benign{pick}.example"
        keyed.append((timestamp + delay, ForwardedLookup(timestamp, server, domain)))
    keyed.sort(key=lambda item: (item[0], item[1].timestamp, item[1].server, item[1].domain))
    return [record for _, record in keyed]


def reference(records, register_at):
    """Counters ``(ingested, matched, late)`` after every push and after
    finalize, by the rule, with the engine's reorder and emission order."""
    buffer = ReorderBuffer(CAPACITY)
    watermark = float("-inf")
    cursor = 0
    matched: dict[str, int] = {}
    late = 0
    states = []

    def route(released, families):
        nonlocal watermark, late
        for record in released:
            watermark = max(watermark, record.timestamp)
            for family, matched_day in rule(record.domain, record.timestamp, families):
                matched[family] = matched.get(family, 0) + 1
                late += matched_day < cursor

    families = sorted(BASE)
    for index, record in enumerate(records):
        if index == register_at:
            families = sorted([*BASE, TWIN[0]])
        route(buffer.push(record), families)
        while (cursor + 1) * DAY + GRACE <= watermark:
            cursor += 1
        states.append((index + 1, dict(matched), late))
    if register_at >= len(records):
        families = sorted([*BASE, TWIN[0]])
    route(buffer.flush(), families)
    return states, (len(records), dict(matched), late)


# -- engine drivers ---------------------------------------------------------------


def counters(engine):
    metrics = engine.metrics
    matched_metric = metrics.counter("botmeterd_records_matched_total")
    matched = {
        dict(key)["family"]: int(value) for key, value in matched_metric.series() if value
    }
    return (
        int(metrics.counter("botmeterd_records_ingested_total").value()),
        matched,
        int(metrics.counter("botmeterd_records_late_total").value()),
    )


def encode(epochs):
    return [encode_landscape(e.family, e.day_index, e.landscape, e.quality) for e in epochs]


def to_columns(records) -> LookupColumns:
    servers = tuple(sorted({r.server for r in records}))
    domains = tuple(sorted({r.domain for r in records}))
    return LookupColumns(
        np.array([r.timestamp for r in records], dtype=np.float64),
        np.array([servers.index(r.server) for r in records], dtype=np.uint32),
        np.array([domains.index(r.domain) for r in records], dtype=np.uint32),
        servers,
        domains,
    )


def drive(records, register_at, mode, batch):
    """Run the engine; returns (emissions, batch-end counters, final)."""
    engine = ShardedLandscapeEngine(
        dict(DGAS),
        estimator=TimingEstimator(),
        detection_windows=OVERRIDE,
        timeline=TIMELINE,
        grace=GRACE,
        reorder_capacity=CAPACITY,
        ingest_workers=2 if mode == "workers" else 1,
    )
    emissions = []
    batch_ends = []
    try:

        def submit(start, chunk):
            def on_emit(index, epochs):
                emissions.append((start + index, encode(epochs), counters(engine)))

            if mode == "submit":
                epochs = engine.submit(chunk[0])
                if epochs:
                    on_emit(0, epochs)
            elif mode == "columns":
                engine.submit_columns(to_columns(chunk), on_emit)
            else:
                engine.submit_batch(chunk, on_emit)
            batch_ends.append((start + len(chunk) - 1, counters(engine)))

        for start in range(0, register_at, batch):
            submit(start, records[start : min(start + batch, register_at)])
        engine.register_family(TWIN[0], make_family(*TWIN[1]))
        for start in range(register_at, len(records), batch):
            submit(start, records[start : start + batch])
        final = encode(engine.finalize())
        return emissions, batch_ends, (final, counters(engine))
    finally:
        engine.close()


def check(raw, register_frac, mode, batch):
    records = build_trace(raw)
    register_at = int(register_frac * len(records))
    states, final_state = reference(records, register_at)
    emissions, batch_ends, (final, final_counters) = drive(records, register_at, mode, batch)
    for index, _, seen in emissions:
        assert seen == states[index]
    if mode != "workers":
        for index, seen in batch_ends:
            assert seen == states[index]
    assert final_counters == final_state
    baseline = drive(records, register_at, "submit", 1)
    assert [(i, lines) for i, lines, _ in emissions] == [
        (i, lines) for i, lines, _ in baseline[0]
    ]
    assert final == baseline[2][0]


# -- properties ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.floats(0, DAY, exclude_max=True),
            st.sampled_from(sorted(BASE) + [TWIN[0], "benign"]),
            st.integers(-2, 1),
            st.integers(0, 10_000),
        ),
        max_size=40,
    )
)
def test_day_index_matches_the_per_family_rule(raw):
    families = {**DGAS, TWIN[0]: make_family(*TWIN[1])}
    index = DayIndex(families, TIMELINE, OVERRIDE)
    for day, seconds, family, offset, pick in raw:
        timestamp = day * DAY + seconds
        pool = sorted(window(family, day + offset)) if family != "benign" else []
        domain = pool[pick % len(pool)] if pool else f"benign{pick}.example"
        assert list(index.routes(domain, timestamp)) == rule(domain, timestamp, families)


@settings(max_examples=30, deadline=None)
@given(
    raw=st.lists(_record, min_size=1, max_size=300),
    register_frac=st.floats(0, 1),
    mode=st.sampled_from(["submit", "batch", "columns"]),
)
@example(raw=fixed_raw(1), register_frac=0.5, mode="submit")
@example(raw=fixed_raw(2), register_frac=0.3, mode="batch")
@example(raw=fixed_raw(3), register_frac=0.7, mode="columns")
def test_engine_counters_and_bytes_follow_the_rule(raw, register_frac, mode):
    check(raw, register_frac, mode, 1 if mode == "submit" else 256)


@settings(max_examples=5, deadline=None)
@given(raw=st.lists(_record, min_size=1, max_size=300), register_frac=st.floats(0, 1))
@example(raw=fixed_raw(4), register_frac=0.5)
def test_worker_routing_follows_the_rule(raw, register_frac):
    check(raw, register_frac, "workers", 256)
