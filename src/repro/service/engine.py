"""Sharded live landscape-charting engine.

One vantage-point stream, many concurrent DGA families: the engine
demultiplexes each released record into per-``(family × local-server)``
:class:`~repro.core.streaming.StreamingBotMeter` shards, advances a
single global watermark, and emits one merged per-family
:class:`~repro.core.botmeter.Landscape` per closed epoch — exactly what
the batch :class:`~repro.core.botmeter.BotMeter` would produce over the
same records, which is the subsystem's correctness anchor.

Records enter through a bounded :class:`~repro.service.reorder.ReorderBuffer`
(the backpressure point), so a boundedly-shuffled collector stream and a
sorted batch file drive the shards identically.  Epoch closure is
watermark-based, like the underlying shards: epoch ``d`` is emitted once
the global watermark passes ``(d+1)·86400 + grace``.

The engine checkpoints: :meth:`export_state` /
:meth:`import_state` round-trip the watermark, the epoch cursor, the
reorder buffer and every shard, so a killed daemon resumes bit-exactly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.botmeter import Landscape, make_estimator
from ..core.combinatorics import barrel_consumption_pmf
from ..core.estimator import Estimator
from ..core.matcher import DayIndex
from ..core.streaming import StreamingBotMeter
from ..core.taxonomy import recommended_estimator
from ..dga.base import Dga
from ..dga.families import make_family
from ..dns.message import ForwardedLookup
from ..timebase import SECONDS_PER_DAY, Timeline
from .lookups import LookupBatch
from .metrics import MetricsRegistry
from .reorder import Backpressure, ReorderBuffer

__all__ = [
    "ENGINE_STATE_SCHEMA",
    "EpochLandscape",
    "ShardedLandscapeEngine",
]

ENGINE_STATE_SCHEMA = "botmeterd-engine-v1"


@dataclass(frozen=True)
class EpochLandscape:
    """One closed epoch of one family's landscape.

    ``quality`` carries the degradation deltas attributed to this
    emission (``late`` and ``dropped`` records since the previous one);
    the daemon folds in its reader-level ``quarantined`` delta before
    the row hits the wire.  Deltas are charged exactly once — to the
    *first* row of each emission — so summing the annotations over a
    whole series reconstructs the stream totals exactly (the soak
    test's reconciliation).  ``None`` and all-zero mean the same thing —
    a clean epoch — so batch emissions stay byte-identical.
    """

    family: str
    day_index: int
    landscape: Landscape
    quality: dict[str, int] | None = field(default=None, compare=False)


class ShardedLandscapeEngine:
    """Multi-family streaming landscape charting with sharded state.

    Args:
        dgas: ``family name -> Dga`` — every family charted concurrently.
        estimator: ``"auto"`` (per-family paper recommendation), a
            library name, or an :class:`Estimator` instance shared by
            all shards.
        detection_windows: optional ``family -> {day -> detected NXDs}``.
        grace: seconds past an epoch's end before it is emitted.
        reorder_capacity / policy: the bounded reorder buffer and its
            backpressure policy (see :mod:`repro.service.reorder`).
        metrics: a :class:`MetricsRegistry` to publish into (one is
            created if omitted; exposed as :attr:`metrics`).
        on_late: optional sink ``(record, matched_day) -> None`` called
            for every matched record that arrived after its epoch was
            emitted (the daemon wires this to the dead-letter queue).
        tracer: optional :class:`~repro.service.tracing.StageTracer`.
            When set, the engine records ``reorder``, ``route`` and
            ``estimate`` spans and publishes the slow-shard top-K
            gauge.  Purely observational: the emitted landscape stream
            is byte-identical with or without it.
    """

    #: How many of the slowest (family × server) shards the
    #: ``botmeterd_slow_shard_estimate_ns`` gauge surfaces.
    SLOW_SHARD_TOP_K = 5

    def __init__(
        self,
        dgas: Mapping[str, Dga],
        estimator: Estimator | str = "auto",
        detection_windows: Mapping[str, Mapping[int, frozenset[str]]] | None = None,
        negative_ttl: float = 7_200.0,
        timestamp_granularity: float = 0.1,
        timeline: Timeline | None = None,
        grace: float = 900.0,
        reorder_capacity: int = 1024,
        policy: Backpressure | str = Backpressure.BLOCK,
        metrics: MetricsRegistry | None = None,
        on_late: Callable[[ForwardedLookup, int], None] | None = None,
        tracer: Any = None,
    ) -> None:
        if not dgas:
            raise ValueError("need at least one DGA family")
        self._dgas = dict(dgas)
        self._families = sorted(self._dgas)
        self._timeline = timeline or Timeline()
        self._negative_ttl = negative_ttl
        self._granularity = timestamp_granularity
        self._grace = grace
        self._detection_windows = {
            family: dict(windows)
            for family, windows in (detection_windows or {}).items()
        }
        self._estimator_spec = estimator
        self._dynamic: dict[str, dict[str, Any]] = {}
        self._estimators = {
            family: self._estimator_for(dga) for family, dga in self._dgas.items()
        }
        self._index = DayIndex(self._dgas, self._timeline, self._detection_windows)
        self._reorder = ReorderBuffer(reorder_capacity, policy)
        self._tracer = tracer
        self._shard_estimate_ns: dict[tuple[str, str], int] = {}
        self._shards: dict[tuple[str, str], StreamingBotMeter] = {}
        self._closed: dict[tuple[str, int], dict[str, Landscape]] = {}
        self._watermark = float("-inf")
        self._set_cursor(0)
        self._finalized = False
        self._on_late = on_late
        self._late_total = 0
        self._late_mark = 0
        self._dropped_mark = 0
        self._unpublished_matched: dict[str, int] = {}

        # Warm each family's Eqn-2 PMF, which every shard shares.
        for family in self._families:
            params = self._dgas[family].params
            barrel_consumption_pmf(params.n_registered, params.n_nxd, params.barrel_size)

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        m = self.metrics
        self._c_ingested = m.counter(
            "botmeterd_records_ingested_total", "Records accepted by the engine."
        )
        self._c_matched = m.counter(
            "botmeterd_records_matched_total", "Records routed to a family shard."
        )
        self._c_late = m.counter(
            "botmeterd_records_late_total",
            "Matched records that arrived after their epoch was emitted.",
        )
        self._c_reordered = m.counter(
            "botmeterd_records_reordered_total",
            "Records that arrived behind the highest timestamp seen.",
        )
        self._c_dropped = m.counter(
            "botmeterd_records_dropped_total",
            "Records shed by the drop-oldest backpressure policy.",
        )
        self._c_epochs = m.counter(
            "botmeterd_epochs_closed_total", "Per-family epochs emitted."
        )
        self._c_fallbacks = m.counter(
            "botmeterd_estimate_fallbacks_total",
            "Epoch closures where the estimator failed and the matched "
            "count was emitted as a floor estimate.",
        )
        self._g_depth = m.gauge(
            "botmeterd_reorder_buffer_depth", "Records held in the reorder buffer."
        )
        self._g_lag = m.gauge(
            "botmeterd_watermark_lag_seconds",
            "Global watermark minus the start of the shard's oldest open epoch.",
        )
        self._g_slow = (
            m.gauge(
                "botmeterd_slow_shard_estimate_ns",
                "Sampled estimate time accumulated by the top-K slowest "
                "(family x server) shards.",
            )
            if tracer is not None
            else None
        )

    # -- introspection -------------------------------------------------------

    @property
    def families(self) -> list[str]:
        return list(self._families)

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has closed every epoch (no more input)."""
        return self._finalized

    @property
    def watermark(self) -> float:
        return self._watermark

    @property
    def next_epoch_to_emit(self) -> int:
        return self._next_epoch_to_emit

    @property
    def shard_keys(self) -> list[tuple[str, str]]:
        """Existing ``(family, server)`` shards, sorted."""
        return sorted(self._shards)

    def estimator_name(self, family: str) -> str:
        return self._estimators[family].name

    def _estimator_for(self, dga: Dga) -> Estimator:
        """The construction-time estimator policy applied to ``dga``."""
        spec = self._estimator_spec
        if not isinstance(spec, str):
            return spec
        return recommended_estimator(dga) if spec == "auto" else make_estimator(spec)

    def dga_for(self, family: str):
        """The generator behind ``family`` (dynamic families included)."""
        return self._dgas[family]

    # -- dynamic taxonomy registry -------------------------------------------

    def register_family(
        self, name: str, dga: Any, spec: Mapping[str, Any] | None = None
    ) -> None:
        """Onboard a family live: new id, kernel warm, no restart.

        The registry exists for the unknown-DGA case — a cluster a D3
        pipeline identifies mid-stream (or a re-keyed campaign announced
        by a ``register`` control line).  The family joins the taxonomy
        immediately: its router matches from the next submitted record,
        its shards are born pre-skipped past already-emitted epochs (so
        the rectangular landscape stays monotone), and the estimator
        follows the engine's construction-time policy.

        ``spec`` (``{"name", "base", "seed"}``) is recorded so
        :meth:`export_state` can carry the registration and
        :meth:`import_state` can rebuild the identical generator on a
        restored engine — dynamic families survive a SIGKILL/resume.
        """
        if self._finalized:
            raise RuntimeError("cannot register a family on a finalized engine")
        if name in self._dgas:
            raise ValueError(f"family {name!r} is already registered")
        self._dgas[name] = dga
        self._families = sorted(self._dgas)
        self._estimators[name] = self._estimator_for(dga)
        self._index = DayIndex(self._dgas, self._timeline, self._detection_windows)
        params = dga.params
        barrel_consumption_pmf(params.n_registered, params.n_nxd, params.barrel_size)
        self._dynamic[name] = (
            dict(spec) if spec is not None else {"name": name}
        )

    # -- sharding ------------------------------------------------------------

    def _shard(self, family: str, server: str) -> StreamingBotMeter:
        key = (family, server)
        shard = self._shards.get(key)
        if shard is None:
            shard = StreamingBotMeter(
                self._dgas[family],
                estimator=self._estimators[family],
                detection_windows=self._detection_windows.get(family),
                negative_ttl=self._negative_ttl,
                timestamp_granularity=self._granularity,
                timeline=self._timeline,
                grace=self._grace,
                on_epoch=lambda day, landscape, _key=key: self._closed.setdefault(
                    (_key[0], day), {}
                ).__setitem__(_key[1], landscape),
            )
            if self._next_epoch_to_emit:
                # A shard born mid-stream must not re-close already
                # emitted epochs.
                shard.skip_to_epoch(self._next_epoch_to_emit)
            self._shards[key] = shard
        return shard

    # -- ingest --------------------------------------------------------------

    def _set_cursor(self, day: int) -> None:
        """Move the emission cursor; ``_deadline`` is the watermark at
        which epoch ``day`` is emitted."""
        self._next_epoch_to_emit = day
        self._deadline = (day + 1) * SECONDS_PER_DAY + self._grace

    def _publish(self, ingested: int = 0) -> None:
        """Bring the ingest metrics up to the engine's exact totals: at
        the end of every submit call, before every ``on_emit`` callback,
        in :meth:`finalize` and in :meth:`export_state`, so every
        observer sees exact totals at a cost per batch, not per record.
        """
        if ingested:
            self._c_ingested.inc(ingested)
        matched = self._unpublished_matched
        for family in sorted(matched):
            self._c_matched.inc(matched[family], family=family)
        matched.clear()
        reorder = self._reorder
        self._c_reordered.set_total(reorder.reordered)
        self._c_dropped.set_total(reorder.dropped)
        self._g_depth.set(reorder.depth)

    def submit(self, record: ForwardedLookup) -> list[EpochLandscape]:
        """Buffer one record; return any epochs its arrival closed."""
        return self.submit_batch((record,))

    def submit_batch(
        self,
        records: LookupBatch | Sequence[ForwardedLookup],
        on_emit: Callable[[int, list[EpochLandscape]], None] | None = None,
    ) -> list[EpochLandscape]:
        """Buffer a batch; return every epoch the batch closed, in order.

        ``on_emit(index, epochs)`` fires as each emission happens, with
        the index of the record whose push triggered it — the daemon
        uses it to attribute reader-level quarantine deltas to the right
        emission even when the trigger sits mid-batch.
        """
        if not isinstance(records, LookupBatch):
            records = LookupBatch.from_records(records)
        return self._submit(records, on_emit)

    def submit_columns(
        self,
        columns: LookupBatch,
        on_emit: Callable[[int, list[EpochLandscape]], None] | None = None,
    ) -> list[EpochLandscape]:
        """Buffer one decoded wire-v2 frame; return closed epochs."""
        return self._submit(columns, on_emit)

    def _submit(
        self,
        batch: LookupBatch,
        on_emit: Callable[[int, list[EpochLandscape]], None] | None,
    ) -> list[EpochLandscape]:
        """The one ingest pass: reorder, route and emit a whole batch, in
        segments cut where the watermark first reaches the next deadline,
        so emissions and late checks happen at the same record as in a
        push-at-a-time loop.  Traced as one ``reorder`` span (records
        pushed) and one ``route`` span (records released)."""
        if self._finalized:
            raise RuntimeError("engine already finalized")
        n = len(batch)
        if not n:
            return []
        reorder = self._reorder
        tracer = self._tracer
        timed = tracer is not None and bool(tracer.plan("reorder", 1))
        timed_route = tracer is not None and bool(tracer.plan("route", 1))
        clock = tracer.clock if tracer is not None else int
        reorder_ns = route_ns = routed = 0
        out: list[EpochLandscape] = []
        pos = published = 0
        while pos < n:
            t0 = clock()
            segment = batch.slice(pos)
            plan = reorder.plan(segment)
            released = plan.released
            ts = released.ts
            if len(ts) and ts.max() >= self._deadline:
                stop = max(plan.first_step + int(np.argmax(ts >= self._deadline)), 0) + 1
                if stop < plan.pushed:
                    plan = reorder.plan(segment.slice(0, stop))
                    released = plan.released
            reorder.commit(plan)
            t1 = clock()
            self._route(released)
            reorder_ns += t1 - t0
            route_ns += clock() - t1
            routed += len(released)
            pos += plan.pushed
            if self._watermark >= self._deadline:
                self._publish(pos - published)
                published = pos
                epochs = self._emittable()
                if on_emit is not None:
                    on_emit(pos - 1, epochs)
                out.extend(epochs)
        if timed:
            tracer.record("reorder", reorder_ns, records=n)
        if timed_route:
            tracer.record("route", route_ns, records=routed)
        self._publish(n - published)
        return out

    def _route(self, released: LookupBatch) -> None:
        """Feed released records to their shards: one column slice per
        ``(family, server)`` shard, in stream order (new shards in the
        order of their first record)."""
        if not len(released):
            return
        ts, servers, domains = released.ts, released.servers, released.domains
        self._watermark = max(self._watermark, float(ts.max()))
        sids = released.server_id.tolist()
        cursor = self._next_epoch_to_emit
        rows_of, days_of = defaultdict(list), defaultdict(list)  # by (family, server id)
        late = []
        routed = self._index.route_columns(ts, released.domain_id, domains)
        for i, (routes, sid) in enumerate(zip(routed, sids)):
            for family, day in routes:
                rows_of[family, sid].append(i)
                days_of[family, sid].append(day)
                if day < cursor:
                    late.append((i, day))
        for i, day in late:
            self._c_late.inc()
            self._late_total += 1
            if self._on_late is not None:
                domain = domains[released.domain_id[i]]
                self._on_late(ForwardedLookup(float(ts[i]), servers[sids[i]], domain), day)
        matched = self._unpublished_matched
        for (family, sid), rows in rows_of.items():
            matched[family] = matched.get(family, 0) + len(rows)
            names = map(domains.__getitem__, released.domain_id[rows].tolist())
            self._shard(family, servers[sid]).ingest_lookups(
                ts[rows],
                servers[sid],
                np.array(list(names), dtype=object),
                np.array(days_of[family, sid], dtype=np.int64),
            )

    def _advance_shards(self, target: float) -> None:
        """Advance every shard, timing each as an ``estimate`` span over
        the matched lookups it closed."""
        tracer = self._tracer
        for (family, server), shard in self._shards.items():
            t0 = tracer.start("estimate") if tracer is not None else 0
            closed = shard.advance_watermark(target)
            if not t0:
                continue
            dt = tracer.stop(
                "estimate",
                t0,
                records=sum(sum(landscape.matched_counts.values()) for landscape in closed),
                family=family,
                server=server,
            )
            key = (family, server)
            self._shard_estimate_ns[key] = self._shard_estimate_ns.get(key, 0) + dt

    def _emittable(self) -> list[EpochLandscape]:
        out: list[EpochLandscape] = []
        while self._deadline <= self._watermark:
            self._advance_shards(self._watermark)
            out.extend(self._emit_day(self._next_epoch_to_emit))
            self._set_cursor(self._next_epoch_to_emit + 1)
        return out

    def _emit_day(self, day: int) -> list[EpochLandscape]:
        # Degradation deltas since the previous emission, charged once
        # (to the day's first family row) so series-wide sums stay
        # exact.  Zero on a clean stream, so the annotation stays
        # byte-identical to a batch emission.
        late_delta = self._late_total - self._late_mark
        dropped_delta = self._reorder.dropped - self._dropped_mark
        self._late_mark = self._late_total
        self._dropped_mark = self._reorder.dropped
        self._c_fallbacks.set_total(self._fallback_total())
        results = []
        for index, family in enumerate(self._families):
            quality = (
                {"late": late_delta, "dropped": dropped_delta}
                if index == 0
                else {"late": 0, "dropped": 0}
            )
            merged = Landscape(
                dga_name=self._dgas[family].name,
                estimator_name=self._estimators[family].name,
            )
            closed = self._closed.pop((family, day), {})
            for server in sorted(closed):
                merged.per_server.update(closed[server].per_server)
                merged.matched_counts.update(closed[server].matched_counts)
            self._c_epochs.inc(family=family)
            results.append(EpochLandscape(family, day, merged, quality))
        return results

    def _fallback_total(self) -> int:
        return sum(
            shard.stats["estimate_failures"] for shard in self._shards.values()
        )

    def finalize(self) -> list[EpochLandscape]:
        """Drain the buffer and emit every epoch through the watermark's
        day (stream end).  Quiet ``(family, day)`` cells emit empty
        landscapes, so the series is rectangular: families × days."""
        if self._finalized:
            return []
        flushed = self._reorder.flush_batch()
        tracer = self._tracer
        t0 = tracer.start("route") if tracer is not None else 0
        self._route(flushed)
        if t0:
            tracer.stop("route", t0, records=len(flushed))
        out = self._emittable()
        if self._watermark > float("-inf"):
            last_day = int(self._watermark // SECONDS_PER_DAY)
            target = (last_day + 1) * SECONDS_PER_DAY + self._grace
            self._advance_shards(target)
            while self._next_epoch_to_emit <= last_day:
                out.extend(self._emit_day(self._next_epoch_to_emit))
                self._set_cursor(self._next_epoch_to_emit + 1)
        self._finalized = True
        self._publish()
        self.refresh_gauges()
        return out

    # -- observability -------------------------------------------------------

    def refresh_gauges(self) -> None:
        """Publish the point-in-time gauges (buffer depth, shard lag)."""
        self._g_depth.set(self._reorder.depth)
        for (family, server), shard in sorted(self._shards.items()):
            if self._watermark == float("-inf"):
                lag = 0.0
            else:
                lag = max(
                    0.0,
                    self._watermark - shard.next_epoch_to_close * SECONDS_PER_DAY,
                )
            self._g_lag.set(lag, family=family, server=server)
        if self._g_slow is not None and self._shard_estimate_ns:
            top = sorted(
                self._shard_estimate_ns.items(), key=lambda kv: (-kv[1], kv[0])
            )[: self.SLOW_SHARD_TOP_K]
            for (family, server), ns in top:
                self._g_slow.set(ns, family=family, server=server)

    # -- checkpointing -------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """JSON-serialisable snapshot of the whole engine.

        Only legal between :meth:`submit` calls (epoch emission is
        synchronous, so there is never half-merged state to capture).
        """
        self._publish()
        shards = [
            [family, server, shard.export_state()]
            for (family, server), shard in sorted(self._shards.items())
        ]
        if self._closed:
            raise RuntimeError(
                "cannot checkpoint with un-emitted shard closures pending"
            )
        state: dict[str, Any] = {
            "schema": ENGINE_STATE_SCHEMA,
            "families": list(self._families),
            "watermark": None if self._watermark == float("-inf") else self._watermark,
            "next_epoch_to_emit": self._next_epoch_to_emit,
            "finalized": self._finalized,
            "late_total": self._late_total,
            "late_mark": self._late_mark,
            "dropped_mark": self._dropped_mark,
            "reorder": self._reorder.export_state(),
            "shards": shards,
        }
        if self._dynamic:
            # Registration specs for live-onboarded families, in sorted
            # order — import_state rebuilds each generator from its
            # (base, seed) before the family-set equality check.
            state["dynamic"] = [
                dict(self._dynamic[name]) for name in sorted(self._dynamic)
            ]
        return state

    def import_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`export_state` output onto a same-config engine."""
        schema = state.get("schema")
        if schema != ENGINE_STATE_SCHEMA:
            raise ValueError(f"unknown engine state schema {schema!r}")
        for spec in state.get("dynamic", ()):
            name = str(spec["name"])
            if name not in self._dgas:
                self.register_family(
                    name,
                    make_family(str(spec["base"]), int(spec.get("seed", 0))),
                    spec=spec,
                )
        if sorted(state["families"]) != self._families:
            raise ValueError(
                f"checkpoint families {sorted(state['families'])} do not match "
                f"engine families {self._families}"
            )
        watermark = state["watermark"]
        self._watermark = float("-inf") if watermark is None else float(watermark)
        self._set_cursor(int(state["next_epoch_to_emit"]))
        self._finalized = bool(state["finalized"])
        self._late_total = int(state.get("late_total", 0))
        self._late_mark = int(state.get("late_mark", 0))
        self._dropped_mark = int(state.get("dropped_mark", 0))
        self._reorder.import_state(state["reorder"])
        self._shards = {}
        self._closed = {}
        for family, server, shard_state in state["shards"]:
            # _shard() pre-skips emitted epochs for newborns; import
            # then overwrites the whole cursor/pending state anyway.
            self._shard(family, server).import_state(shard_state)
        self.refresh_gauges()
