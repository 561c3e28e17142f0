"""botmeterd — the long-running landscape-charting daemon.

Ties the subsystem together: one ingest loop (NDJSON or wire-v2, file
or stdin) feeds the sharded engine; closed epochs stream out as NDJSON
landscape lines plus one structured log line each; counters and gauges are
exported in Prometheus text and JSON health form; and the whole mutable
state — input byte offset, emitted-line count, engine, metrics —
checkpoints atomically every ``checkpoint_every`` records, so a
``SIGKILL``-ed daemon resumes from its last checkpoint and the combined
output is byte-identical to an uninterrupted run.

The entry point is :meth:`BotMeterDaemon.run` (the ``serve``/``replay``
loop); :func:`repro.service.reference.batch_series` is the offline
reference its streamed series is checked against.
"""

from __future__ import annotations

import json
import sys
import time
from bisect import bisect_right
from collections import deque
from pathlib import Path
from typing import IO, Any, Iterable, Mapping, Sequence

from ..core.estimator import Estimator
from ..dga.base import Dga
from ..dga.families import family_names, make_family
from ..dns.message import ForwardedLookup
from ..timebase import Timeline
from .checkpoint import CheckpointError, CheckpointStore
from .deadletter import MAX_LINE_SNIPPET, DeadLetterQueue
from .engine import EpochLandscape, ShardedLandscapeEngine
from .faults import FaultInjector, UpstreamStallError
from .liveview import StreamingDetector
from .lookups import LookupBatch
from .metrics import MetricsRegistry
from .reorder import Backpressure
from .supervisor import HealthMonitor
from .tracing import DEFAULT_SAMPLE, StageTracer, TraceSink
from .wire import (
    NdjsonBatchDecoder,
    NdjsonReader,
    Unit,
    encode_landscape,
    families_from_header,
    timeline_from_header,
)
from .wire2 import Wire2BatchDecoder, sniff_wire2

__all__ = ["BotMeterDaemon"]

#: Most bytes one ``read1`` of the input returns; a pipe or a growing
#: file yields what is there.  Output bytes never depend on it.
READ_SIZE = 1 << 18


class BotMeterDaemon:
    """Follow a vantage-point NDJSON stream and chart landscapes live.

    Args:
        input_path: NDJSON trace file, or ``"-"`` for stdin.
        out_path: landscape NDJSON destination (``None`` = stdout).
        checkpoint_path: enables checkpointed recovery (requires a
            seekable input to resume).
        families: ``name -> Dga``; ``None`` reads them from the trace
            header line.
        follow: keep tailing the input at EOF instead of finalizing.
        idle_timeout: in follow mode, finalize after this many seconds
            with no new data (``None`` = follow forever).
        checkpoint_every: records between checkpoints.
        throttle: seconds to sleep per record (crash-drill pacing).
        max_corrupt: corrupt-line budget of the wire reader.
        estimator / grace / negative_ttl / timestamp_granularity /
        reorder_capacity / policy / timeline: forwarded to
            :class:`ShardedLandscapeEngine` (granularity ``None`` defers
            to the trace header, falling back to 0.1 s).
        metrics_path: write the Prometheus text exposition here at every
            checkpoint and at exit.
        health_path: same cadence, JSON health snapshot.
        log_stream: structured (JSON-lines) event log, default stderr.
        fault_injector: optional seeded :class:`FaultInjector` the raw
            input lines are pushed through before the wire reader (fault
            drills and the soak test); its state rides the checkpoint.
        deadletter_path: NDJSON sidecar quarantining every corrupt and
            late record with a reason code.
        health: optional :class:`HealthMonitor` publishing the pipeline
            health state machine through :attr:`metrics`.
        watchdog_deadline: in follow mode, seconds of ingest silence
            before the daemon checkpoints and raises
            :class:`UpstreamStallError` for the supervisor to restart it.
        batch_lines: the most records held per engine submission
            (``1`` = submit each run as it decodes); a decoded run
            submits whole.  Emission, checkpoint and quarantine
            attribution are batch-framing-independent — output bytes
            never change.
        trace_out: optional NDJSON span-event sink (``--trace-out``);
            a fresh run truncates it, a checkpoint resume appends.
        trace_sample: time 1 of every N spans per stage (default
            :data:`~repro.service.tracing.DEFAULT_SAMPLE`); ``0``
            disables Stagewatch entirely (no tracer, no histograms).
            Tracing is purely observational — the landscape NDJSON is
            byte-identical with it on or off.
        finalize_at_eof: when ``False``, the end of the stream *drains*
            instead of finalizing: held batches flush and the open
            engine state (reorder buffer included) checkpoints, but no
            epochs are force-closed.  The cluster tier replays a stream
            in segments and only the last one finalizes.
        d3: inline detection mode — ``None`` (historical behaviour: the
            stream *is* the D3 output), ``"lexical"`` (run the committed
            char-bigram classifier on every record; benign verdicts
            never reach the engine, and quality annotations carry the
            measured ``d3_missed``/``d3_fp``/``d3_miss_rate``), or
            ``"oracle"`` (admit everything, but tally detections — the
            zero-miss baseline an accuracy comparison replays against).
        d3_threshold: lexical decision threshold (score margin).
        d3_training: training-fixture override for the lexical model.
        doh_adoption: estimated encrypted-DNS adoption fraction; every
            emitted epoch's quality carries it as ``doh_loss`` and the
            derived ``loss`` compounds it, so interval widening corrects
            for bots invisible at the border vantage.  ``None`` reads
            the trace header's ``doh_adoption`` (0 when absent).
    """

    def __init__(
        self,
        input_path: str | Path,
        out_path: str | Path | None = None,
        checkpoint_path: str | Path | None = None,
        families: Mapping[str, Dga] | None = None,
        estimator: Estimator | str = "auto",
        grace: float = 900.0,
        negative_ttl: float = 7_200.0,
        timestamp_granularity: float | None = None,
        timeline: Timeline | None = None,
        reorder_capacity: int = 1024,
        policy: Backpressure | str = Backpressure.BLOCK,
        checkpoint_every: int = 500,
        follow: bool = False,
        idle_timeout: float | None = None,
        poll_interval: float = 0.1,
        throttle: float = 0.0,
        max_corrupt: int | None = None,
        metrics_path: str | Path | None = None,
        health_path: str | Path | None = None,
        log_stream: IO[str] | None = None,
        fault_injector: FaultInjector | None = None,
        deadletter_path: str | Path | None = None,
        health: HealthMonitor | None = None,
        watchdog_deadline: float | None = None,
        batch_lines: int = 1,
        trace_out: str | Path | None = None,
        trace_sample: int = DEFAULT_SAMPLE,
        finalize_at_eof: bool = True,
        d3: str | None = None,
        d3_threshold: float = 0.0,
        d3_training: str | Path | None = None,
        doh_adoption: float | None = None,
    ) -> None:
        self.input_path = str(input_path)
        self.out_path = Path(out_path) if out_path is not None else None
        self.store = (
            CheckpointStore(checkpoint_path) if checkpoint_path is not None else None
        )
        self._families = dict(families) if families is not None else None
        self._estimator = estimator
        self._grace = grace
        self._negative_ttl = negative_ttl
        self._granularity = timestamp_granularity
        self._timeline = timeline
        self._reorder_capacity = reorder_capacity
        self._policy = policy
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.follow = follow
        self.idle_timeout = idle_timeout
        self.poll_interval = poll_interval
        self.throttle = throttle
        self.metrics = MetricsRegistry()
        self._c_skipped = self.metrics.counter(
            "botmeterd_records_skipped_total",
            "Blank or corrupt wire lines absorbed by the reader.",
        )
        self.trace_out = Path(trace_out) if trace_out is not None else None
        self.trace_sample = max(0, int(trace_sample))
        self.tracer = (
            StageTracer(metrics=self.metrics, sample=self.trace_sample)
            if self.trace_sample > 0
            else None
        )
        self._trace_sink: TraceSink | None = None
        self.injector = fault_injector
        self.deadletter = (
            DeadLetterQueue(deadletter_path) if deadletter_path is not None else None
        )
        self.health = health
        if self.health is not None:
            self.health.bind(self.metrics)
        self.watchdog_deadline = watchdog_deadline
        self.reader = NdjsonReader(
            max_corrupt=max_corrupt,
            on_corrupt=self._quarantine_corrupt,
            tracer=self.tracer,
        )
        self.engine: ShardedLandscapeEngine | None = None
        self.metrics_path = Path(metrics_path) if metrics_path else None
        self.health_path = Path(health_path) if health_path else None
        self._log = log_stream if log_stream is not None else sys.stderr
        self.landscapes_emitted = 0
        self.records_consumed = 0
        self._since_checkpoint = 0
        self._quarantined_mark = 0
        #: Corrupt dead-letter entries not yet written:
        #: ``(reader corrupt count, line, reason)``.
        self._pending_corrupt: deque[tuple[int, str, str]] = deque()
        self._out_fh: IO[str] | None = None
        self.resumed = False
        self.batch_lines = max(1, int(batch_lines))
        self.finalize_at_eof = bool(finalize_at_eof)
        #: Decoded runs held for the next submission (NDJSON runs or v2
        #: frames), with one corrupt mark per record.
        self._pending_records: list[Sequence[ForwardedLookup] | LookupBatch] = []
        self._pending_marks: list[int] = []
        #: Optional provider of extra checkpoint keys (the network ingest
        #: tier rides its per-sensor cursor map on the daemon checkpoint).
        self.extra_checkpoint_state: Any = None
        # -- Liveview: inline D3, DoH visibility loss, dynamic registry --
        if d3 is not None and d3 not in ("lexical", "oracle"):
            raise ValueError(f"unknown d3 mode {d3!r} (choose 'lexical' or 'oracle')")
        self.d3_mode = d3
        self._d3_threshold = float(d3_threshold)
        self._d3_training = d3_training
        self._d3: StreamingDetector | None = None
        #: Per-record ``(missed, truth, fp)`` snapshots journaled at
        #: ingest time — emission deltas must not depend on how many
        #: records a batch holds before submission (the framing anchor).
        self._pending_d3: list[tuple[int, int, int] | None] = []
        self._d3_missed_mark = 0
        self._d3_fp_mark = 0
        self._doh_adoption = doh_adoption  # None: read from the header
        #: ``register`` control lines journaled at decode position,
        #: applied when consumption reaches them.
        self._pending_controls: list[tuple[int, dict[str, Any]]] = []
        self.reader.on_control = self._on_control_line

    # -- plumbing ------------------------------------------------------------

    def _log_event(self, event: str, **fields: Any) -> None:
        payload = {"event": event, **fields}
        print(json.dumps(payload, sort_keys=True), file=self._log, flush=True)

    def _quarantine_corrupt(self, line: str, reason: str) -> None:
        # Journaled under the reader's corrupt count, not written: decode
        # may run ahead of submission, and late quarantines only fire at
        # submission.  :meth:`_write_corrupt` writes the entry once
        # submission reaches it, so corrupt and late entries interleave
        # in stream order at any batch framing.
        if self.deadletter is not None:
            self._pending_corrupt.append(
                (self.reader.corrupt, line[:MAX_LINE_SNIPPET], reason)
            )
        if self.health is not None:
            self.health.record_quarantined()

    def _write_corrupt(self, mark: int | None = None) -> None:
        """Write the journaled corrupt entries numbered ``<= mark`` (the
        corrupt count stamped on the next record to submit), or all."""
        pending = self._pending_corrupt
        while pending and (mark is None or pending[0][0] <= mark):
            _, line, reason = pending.popleft()
            self.deadletter.quarantine("corrupt", line=line, why=reason)

    def _quarantine_late(self, record: ForwardedLookup, matched_day: int) -> None:
        if self.deadletter is not None:
            self.deadletter.quarantine(
                "late",
                timestamp=record.timestamp,
                server=record.server,
                domain=record.domain,
                epoch=matched_day,
            )
        if self.health is not None:
            self.health.record_quarantined()

    def _resolve_stream_config(self) -> None:
        """Fix families/granularity/timeline (and the DoH adoption rate)
        from explicit arguments or the trace header — shared by the
        engine and the inline D3 detector, whichever is built first."""
        if self._families is None:
            if self.reader.header is None:
                raise ValueError(
                    "no --family given and the trace has no header line"
                )
            self._families = families_from_header(self.reader.header)
        header = self.reader.header or {}
        if self._granularity is None:
            self._granularity = float(header.get("granularity", 0.1))
        if self._timeline is None:
            self._timeline = timeline_from_header(header) or Timeline()
        if self._doh_adoption is None:
            self._doh_adoption = float(header.get("doh_adoption", 0.0) or 0.0)

    def _ensure_d3(self) -> StreamingDetector | None:
        if self.d3_mode is not None and self._d3 is None:
            self._resolve_stream_config()
            assert self._families is not None and self._timeline is not None
            self._d3 = StreamingDetector(
                self._families,
                self._timeline,
                mode=self.d3_mode,
                threshold=self._d3_threshold,
                training_path=self._d3_training,
                metrics=self.metrics,
            )
        return self._d3

    def _ensure_engine(self) -> ShardedLandscapeEngine:
        if self.engine is None:
            self._resolve_stream_config()
            self.engine = ShardedLandscapeEngine(
                self._families,
                estimator=self._estimator,
                negative_ttl=self._negative_ttl,
                timestamp_granularity=self._granularity,
                timeline=self._timeline,
                grace=self._grace,
                reorder_capacity=self._reorder_capacity,
                policy=self._policy,
                metrics=self.metrics,
                on_late=self._quarantine_late,
                tracer=self.tracer,
            )
        return self.engine

    def _emit(
        self,
        epochs: Sequence[EpochLandscape],
        corrupt_snapshot: int | None = None,
        d3_snapshot: tuple[int, int, int] | None = None,
    ) -> None:
        if not epochs:
            return
        # Reader-level quarantines since the last emission, charged once
        # (to the batch's first row, like the engine's late/dropped
        # deltas) so series-wide sums stay exact.  Zero on a clean
        # stream — the byte-identity anchor.  ``corrupt_snapshot``
        # pins the reader's corrupt count as it stood when the emitting
        # record was *decoded*: batched decoding runs ahead of
        # submission, and a corrupt line later in the batch must charge
        # the next emission, exactly as line-at-a-time consumption would.
        snapshot = self.reader.corrupt if corrupt_snapshot is None else corrupt_snapshot
        quarantined_delta = snapshot - self._quarantined_mark
        self._quarantined_mark = snapshot
        # Measured-D3 deltas, pinned the same way: ``d3_snapshot`` is the
        # detector's counters as they stood when the emitting record was
        # enqueued, so emissions attribute misses/FPs independently of
        # batch framing or decode-ahead depth.
        d3_quality: dict[str, Any] | None = None
        if self.d3_mode is not None:
            if d3_snapshot is None:
                detector = self._ensure_d3()
                assert detector is not None
                d3_snapshot = detector.snapshot()
            missed_total, truth_total, fp_total = d3_snapshot
            d3_quality = {
                "d3_missed": missed_total - self._d3_missed_mark,
                "d3_fp": fp_total - self._d3_fp_mark,
                "d3_miss_rate": missed_total / truth_total if truth_total else 0.0,
            }
            self._d3_missed_mark = missed_total
            self._d3_fp_mark = fp_total
        if self._out_fh is None and self.out_path is not None:
            # Usually opened by the first submitted batch; a resumed
            # engine that emits at finalize without having ingested a
            # single record this segment still owes its rows to the file.
            self._out_fh = open(self.out_path, "a")
        tracer = self.tracer
        t0 = tracer.start("emit") if tracer is not None else 0
        for index, epoch in enumerate(epochs):
            quality = dict(epoch.quality or {})
            quality["quarantined"] = quarantined_delta if index == 0 else 0
            if d3_quality is not None:
                quality["d3_missed"] = d3_quality["d3_missed"] if index == 0 else 0
                quality["d3_fp"] = d3_quality["d3_fp"] if index == 0 else 0
                quality["d3_miss_rate"] = d3_quality["d3_miss_rate"]
            if self._doh_adoption:
                quality["doh_loss"] = self._doh_adoption
            line = encode_landscape(
                epoch.family, epoch.day_index, epoch.landscape, quality
            )
            if self._out_fh is not None:
                self._out_fh.write(line + "\n")
                self._out_fh.flush()
            else:
                print(line, flush=True)
            self.landscapes_emitted += 1
            self._log_event(
                "epoch_closed",
                family=epoch.family,
                epoch=epoch.day_index,
                estimator=epoch.landscape.estimator_name,
                total=epoch.landscape.total,
                servers=len(epoch.landscape.per_server),
                emitted=self.landscapes_emitted,
            )
        if t0:
            tracer.stop("emit", t0, records=len(epochs))

    def _dump_observability(self) -> None:
        self._c_skipped.set_total(self.reader.skipped)
        if self.engine is not None:
            self.engine.refresh_gauges()
        if self.metrics_path is not None:
            self.metrics_path.write_text(self.metrics.render_prometheus())
        if self.health_path is not None:
            engine = self.engine
            health = {
                "schema": "botmeterd-health-v1",
                "input": self.input_path,
                "records_consumed": self.records_consumed,
                "landscapes_emitted": self.landscapes_emitted,
                "watermark": (
                    None
                    if engine is None or engine.watermark == float("-inf")
                    else engine.watermark
                ),
                "next_epoch": None if engine is None else engine.next_epoch_to_emit,
                "families": [] if engine is None else engine.families,
                "shards": (
                    []
                    if engine is None
                    else [list(key) for key in engine.shard_keys]
                ),
                "metrics": self.metrics.snapshot(),
            }
            self.health_path.write_text(json.dumps(health, indent=2, sort_keys=True) + "\n")

    def _checkpoint(self, offset: int) -> None:
        # No engine, no --family and no header yet: there is nothing to
        # save (a network sensor's header may still wait in the mux for
        # the record it rides with).
        if self.store is None or (
            self.engine is None
            and self._families is None
            and self.reader.header is None
        ):
            return
        # Decoded-but-unsubmitted records would sit behind the saved
        # offset with no engine state to show for them: flush first.
        # Ditto decoded-but-unapplied control lines — every record before
        # the checkpoint offset has been enqueued by now, so any control
        # still pending is due.
        self._flush_batch()
        while self._pending_controls:
            self._apply_control(self._pending_controls.pop(0)[1])
        self._write_corrupt()
        self._c_skipped.set_total(self.reader.skipped)
        engine = self._ensure_engine()
        state = {
            "input": self.input_path,
            "input_offset": offset,
            "landscapes_emitted": self.landscapes_emitted,
            "records_consumed": self.records_consumed,
            "quarantined_mark": self._quarantined_mark,
            "reader": {
                "records": self.reader.records,
                "blank": self.reader.blank,
                "corrupt": self.reader.corrupt,
                "truncated_tail": self.reader.truncated_tail,
            },
            "engine": engine.export_state(),
            "metrics": self.metrics.export_state(),
        }
        if self.d3_mode is not None:
            detector = self._ensure_d3()
            assert detector is not None
            state["d3"] = {
                "mode": self.d3_mode,
                "counters": detector.export_state(),
                "missed_mark": self._d3_missed_mark,
                "fp_mark": self._d3_fp_mark,
            }
        if self._doh_adoption:
            state["doh_adoption"] = self._doh_adoption
        if self.injector is not None:
            state["injector"] = self.injector.export_state()
        if self.deadletter is not None:
            state["deadletter"] = self.deadletter.export_state()
        if self.extra_checkpoint_state is not None:
            state.update(self.extra_checkpoint_state())
        self.store.save(state)
        self._since_checkpoint = 0
        self._dump_observability()

    def _truncate_output(self, keep_lines: int) -> None:
        """Drop output lines the checkpoint never saw (crash window)."""
        if self.out_path is None or not self.out_path.exists():
            return
        raw = self.out_path.read_bytes().split(b"\n")
        kept = raw[:keep_lines]
        self.out_path.write_bytes(b"\n".join(kept) + (b"\n" if kept else b""))

    def _restore(self, checkpoint: Mapping[str, Any]) -> int:
        if self._doh_adoption is None and "doh_adoption" in checkpoint:
            self._doh_adoption = float(checkpoint["doh_adoption"])
        engine = self._ensure_engine()
        engine.import_state(checkpoint["engine"])
        if self.d3_mode is not None:
            # Counter state rides the checkpoint; the model rebuilds
            # deterministically from the committed fixture.  Families
            # registered live before the crash were just re-registered
            # by the engine import — mirror them into the detector.
            detector = self._ensure_d3()
            assert detector is not None
            for family in engine.families:
                if family not in detector.families:
                    detector.add_family(family, engine.dga_for(family))
            d3_state = checkpoint.get("d3", {})
            detector.import_state(d3_state.get("counters", {}))
            self._d3_missed_mark = int(d3_state.get("missed_mark", 0))
            self._d3_fp_mark = int(d3_state.get("fp_mark", 0))
        self.metrics.import_state(checkpoint["metrics"])
        reader_state = checkpoint["reader"]
        self.reader.records = int(reader_state["records"])
        self.reader.blank = int(reader_state["blank"])
        self.reader.corrupt = int(reader_state["corrupt"])
        self.reader.truncated_tail = int(reader_state.get("truncated_tail", 0))
        self.landscapes_emitted = int(checkpoint["landscapes_emitted"])
        self.records_consumed = int(checkpoint["records_consumed"])
        self._quarantined_mark = int(checkpoint.get("quarantined_mark", 0))
        if self.injector is not None and "injector" in checkpoint:
            self.injector.import_state(checkpoint["injector"])
        if self.deadletter is not None:
            dl_state = checkpoint.get("deadletter", {"entries": 0, "counts": {}})
            self.deadletter.truncate_to(dl_state["entries"], dl_state["counts"])
            self._pending_corrupt.clear()
        self._truncate_output(self.landscapes_emitted)
        self.resumed = True
        self._log_event(
            "resumed",
            input_offset=int(checkpoint["input_offset"]),
            landscapes_emitted=self.landscapes_emitted,
            records_consumed=self.records_consumed,
        )
        return int(checkpoint["input_offset"])

    # -- live detection and the dynamic registry ------------------------------

    def _on_control_line(self, data: Mapping[str, Any]) -> bool:
        """Reader hook: journal a validated ``register`` control line.

        Returns ``False`` (→ the counted-skip corrupt path) for specs
        the registry cannot honour; accepted controls are applied when
        record consumption reaches their decode position, after the
        held batch is submitted, so a family never registers before the
        records that preceded it on the wire.
        """
        name = data.get("family")
        base = data.get("base")
        seed = data.get("seed", 0)
        if not isinstance(name, str) or not name:
            return False
        if not isinstance(base, str) or base not in family_names():
            return False
        if not isinstance(seed, int) or isinstance(seed, bool):
            return False
        self._pending_controls.append(
            (self.reader.records, {"name": name, "base": base, "seed": seed})
        )
        return True

    def _apply_due_controls(self, ordinal: int) -> None:
        """Apply every journaled control at or before record ``ordinal``
        (0-indexed decode position of the record about to be consumed)."""
        while self._pending_controls and self._pending_controls[0][0] <= ordinal:
            self._flush_batch()
            self._apply_control(self._pending_controls.pop(0)[1])

    def _apply_control(self, spec: Mapping[str, Any]) -> None:
        engine = self._live_engine()
        name = str(spec["name"])
        if name in engine.families:
            self._log_event("family_register_skipped", family=name, reason="duplicate")
            return
        dga = make_family(str(spec["base"]), int(spec["seed"]))
        engine.register_family(name, dga, spec=spec)
        detector = self._ensure_d3()
        if detector is not None:
            detector.add_family(name, dga)
        self._log_event(
            "family_registered",
            family=name,
            base=spec["base"],
            seed=spec["seed"],
            families=len(engine.families),
        )

    # -- the one ingest entry ------------------------------------------------

    def _ingest(self, records: Sequence[ForwardedLookup] | LookupBatch) -> None:
        """Take one run of just-decoded records — an NDJSON run or a v2
        RECORDS frame — with the reader's counters standing at the run's
        end (a run never spans a corrupt line).  Due control lines apply
        first, then the inline D3 gate; admitted records are held for the
        next batched submission, each pinned to the reader's corrupt
        count (and the detector's counters) as they stand now, so
        dead-letter order and emission attribution do not depend on
        batch framing.  A rejected record still counts as consumed."""
        n = len(records)
        if not n:
            return
        if self._pending_controls:
            self._apply_due_controls(self.reader.records - n)
        if self.d3_mode is None:
            d3_marks: Sequence[tuple[int, int, int] | None] = (None,) * n
        else:
            detector = self._ensure_d3()
            admitted, d3_marks = [], []
            rows = records.materialize() if isinstance(records, LookupBatch) else records
            for record in rows:
                if detector.admit(record):
                    admitted.append(record)
                    d3_marks.append(detector.snapshot())
            records = admitted
        self._pending_records.append(records)
        self._pending_marks.extend((self.reader.corrupt,) * len(records))
        self._pending_d3.extend(d3_marks)
        self.records_consumed += n
        self._since_checkpoint += n
        if self.health is not None:
            self.health.record_ok(n)
        if self.throttle > 0:
            time.sleep(self.throttle * n)
        if len(self._pending_marks) >= self.batch_lines:
            self._flush_batch()

    def _ingest_released(self, units: Iterable[Unit]) -> None:
        """Take split units the network mux released, in merge order,
        through the file path's decode accounting and :meth:`_ingest`."""
        for run in NdjsonBatchDecoder(self.reader).iter_units(units):
            self._ingest(run)

    def _live_engine(self) -> ShardedLandscapeEngine:
        engine = self._ensure_engine()
        if engine.finalized:
            raise CheckpointError(
                "the checkpoint was written at the end of the stream (every "
                "epoch is closed), but the input continues past it; remove "
                "the checkpoint to chart the longer stream from the start"
            )
        if self._out_fh is None and self.out_path is not None:
            self._out_fh = open(self.out_path, "a")
        return engine

    def _flush_batch(self) -> None:
        if not self._pending_marks:
            return
        records = LookupBatch.concat(self._pending_records)
        marks = self._pending_marks
        d3_marks = self._pending_d3
        self._pending_records = []
        self._pending_marks = []
        self._pending_d3 = []
        engine = self._live_engine()
        # Submit in runs of equal corrupt mark (marks never decrease),
        # each run's corrupt entries written before it, after the late
        # entries of earlier records.  With nothing journaled, one run.
        n = len(records)
        start = 0
        while start < n:
            end = (
                bisect_right(marks, marks[start], start)
                if self._pending_corrupt
                else n
            )
            self._write_corrupt(marks[start])
            engine.submit_batch(
                records.slice(start, end),
                on_emit=lambda index, epochs, base=start: self._emit(
                    epochs,
                    corrupt_snapshot=marks[base + index],
                    d3_snapshot=d3_marks[base + index],
                ),
            )
            start = end

    # -- run-segment scaffolding ---------------------------------------------
    # ``run`` (file/stdin) and the network ingest tier
    # (:class:`repro.service.netingest.NetIngestServer`) share the same
    # begin/finish/cleanup sequence around different ingest loops.

    def _fresh_outputs(self) -> None:
        """A non-resumed run starts with empty output sidecars."""
        if self.out_path is not None:
            self.out_path.write_text("")
        if self.deadletter is not None:
            self.deadletter.reset()
            self._pending_corrupt.clear()

    def _attach_trace_sink(self, resumed: bool) -> None:
        if self.tracer is not None and self.trace_out is not None:
            # One header per run segment: a resumed serve appends to
            # the same trace file instead of discarding history.
            self._trace_sink = TraceSink(
                self.trace_out, sample=self.trace_sample, resume=resumed
            )
            self.tracer.sink = self._trace_sink

    def _finish_stream(self, offset: int) -> None:
        """Stream end: release held batches, close every epoch, persist."""
        self._flush_batch()
        while self._pending_controls:
            # A control with no records after it still registers: the
            # family joins the taxonomy (and the checkpoint) even though
            # it never charted an epoch this segment.
            self._apply_control(self._pending_controls.pop(0)[1])
        self._write_corrupt()
        if self.finalize_at_eof and self.engine is not None:
            self._emit(self.engine.finalize())
        # Persist the end-of-stream state (a cluster partition that owned
        # no records still has the header).  In drain mode
        # (``finalize_at_eof`` off — cluster segments) this captures the
        # *open* engine state, reorder-buffer contents included, without
        # closing any epoch; a later segment or reshard picks it back up.
        self._checkpoint(offset)
        self._dump_observability()
        self._log_event(
            "finished",
            records=self.records_consumed,
            skipped=self.reader.skipped,
            landscapes=self.landscapes_emitted,
        )

    def _cleanup(self) -> None:
        if self.tracer is not None:
            self.tracer.write_summary()
        if self._trace_sink is not None:
            self._trace_sink.close()
            self.tracer.sink = None
            self._trace_sink = None
        if self._out_fh is not None:
            self._out_fh.close()
            self._out_fh = None
        if self.deadletter is not None:
            self._write_corrupt()
            self.deadletter.close()

    # -- the loop ------------------------------------------------------------

    def run(self) -> int:
        """Serve the stream; returns a process exit code.

        The one ingest loop, for every input: ``read1`` chunks go to the
        stream's decoder, each decoded run goes to :meth:`_ingest`, and
        a due checkpoint is taken between input units — an NDJSON line
        (after the fault injector has released everything for it) or a
        v2 frame — so checkpoints land at the same offsets at any batch
        framing and read size.
        """
        use_stdin = self.input_path == "-"
        fh = sys.stdin.buffer if use_stdin else open(self.input_path, "rb")
        try:
            checkpoint = self.store.load() if self.store is not None else None
            # A 4-byte magic probe tells a v2 frame stream from NDJSON.
            # Only seekable inputs sniff: stdin cannot un-read the probe
            # and stays NDJSON.
            wire_v2 = not use_stdin and sniff_wire2(fh.read(4))
            if not use_stdin:
                fh.seek(0)
            if wire_v2 and self.injector is not None:
                raise ValueError(
                    "fault injection requires an NDJSON input: wire-v2 "
                    "frames are not line-framed"
                )
            base = 0
            if checkpoint is not None:
                if use_stdin:
                    raise CheckpointError("cannot resume a checkpoint from stdin")
                # The header (if any) sits before the resume offset; peek
                # it so family/granularity configuration is restored too.
                if wire_v2:
                    peek = Wire2BatchDecoder(self.reader)
                    next(peek.iter_events(fh.read(1 << 16)), None)
                else:
                    self.reader.feed(fh.readline())
                self.reader.records = self.reader.blank = self.reader.corrupt = 0
                base = self._restore(checkpoint)
                fh.seek(base)
            else:
                self._fresh_outputs()
            self._attach_trace_sink(resumed=checkpoint is not None)

            def inject(line: bytes) -> list[str]:
                # One raw line may deliver several records (or hold them
                # back), so with an injector the checkpoint check runs
                # here, at the raw-line boundary before the line: the
                # injector, reader and engine never straddle one line.
                if self._since_checkpoint >= self.checkpoint_every:
                    self._checkpoint(base + decoder.consumed)
                return self.injector.feed(line.decode("utf-8", errors="replace"))

            def ingest(runs: Iterable[Sequence[ForwardedLookup] | LookupBatch]) -> None:
                for run in runs:
                    self._ingest(run)
                    due = self._since_checkpoint >= self.checkpoint_every
                    if due and self.injector is None:
                        self._checkpoint(base + decoder.consumed)

            if wire_v2:
                decoder = Wire2BatchDecoder(self.reader)

                def runs(chunk: bytes) -> Iterable[LookupBatch]:
                    events = decoder.iter_events(chunk)
                    return (e[1] for e in events if e[0] == "columns")

            else:
                # An NDJSON run ends at the record that makes a checkpoint
                # due, so the checkpoint lands at that record's line end.
                decoder = NdjsonBatchDecoder(
                    self.reader,
                    line_filter=None if self.injector is None else inject,
                    run_limit=None
                    if self.store is None
                    else lambda: self.checkpoint_every - self._since_checkpoint,
                )
                runs = decoder.iter_push

            idle_since: float | None = None
            while True:
                chunk = fh.read1(READ_SIZE)
                if chunk:
                    idle_since = None
                    ingest(runs(chunk))
                    continue
                if not self.follow:
                    complete = True  # the stream ended: the tail is a last line
                    break
                # Idle: don't sit on decoded records or journaled
                # dead-letter entries waiting for a full batch the
                # producer may never complete.  Every consumed line is
                # fully ingested here, so a checkpoint the injector
                # deferred to the next raw line is taken now.
                self._flush_batch()
                self._write_corrupt()
                if self._since_checkpoint >= self.checkpoint_every:
                    self._checkpoint(base + decoder.consumed)
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (
                    self.watchdog_deadline is not None
                    and now - idle_since >= self.watchdog_deadline
                ):
                    # Durable stop-point first, then hand the stall to
                    # the supervisor as a restartable failure.
                    position = base + decoder.consumed
                    self._checkpoint(position)
                    self._log_event(
                        "watchdog_stall",
                        idle_seconds=now - idle_since,
                        input_offset=position,
                    )
                    if self.health is not None:
                        self.health.on_stall()
                    raise UpstreamStallError(
                        None, "ingest stalled past the watchdog deadline"
                    )
                elif (
                    self.idle_timeout is not None
                    and now - idle_since >= self.idle_timeout
                ):
                    # A newline-less tail (or partial frame) may still be
                    # in flight: probe it as possibly truncated — counted,
                    # not budgeted corruption, and left unconsumed unless
                    # it decodes to a whole record.
                    complete = False
                    break
                time.sleep(self.poll_interval)
            # Settle the held tail: v2 bytes only ever settle as corrupt
            # events, an NDJSON tail is one last (or probed) line.
            if wire_v2:
                decoder.flush(complete=complete)
            else:
                ingest(decoder.iter_flush(complete))
            # Stream end: release held lines, close every epoch, persist.
            if self.injector is not None:
                for line in self.injector.flush():
                    record = self.reader.feed(line)
                    if record is not None:
                        self._ingest((record,))
            self._finish_stream(base + decoder.consumed)
            return 0
        finally:
            if not use_stdin:
                fh.close()
            self._cleanup()
