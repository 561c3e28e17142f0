"""Stagewatch tests: the exact-merge histogram, the stage tracer, the
trace-event schema, and the tracing crash drill.

The load-bearing properties:

* **split-invariance** — merging per-partition histograms reconstructs
  the single-process histogram *exactly*, for any split of the
  observations (hypothesis property; what makes the cluster's merged
  metrics trustworthy);
* **bucket-boundary exactness** — 0, exact powers of two and overflow
  values land in the buckets the ``le`` semantics promise (frexp, not
  float log2);
* **observational purity** — the landscape stream is byte-identical
  with tracing on or off (also pinned by ``tests/test_golden_traces.py``),
  the span schema is closed so wall-clock can never enter a payload,
  and histogram state survives a SIGKILL through the checkpoint.
"""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.service.daemon import BotMeterDaemon
from repro.service.metrics import (
    HISTOGRAM_BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    bucket_index,
)
from repro.service.netingest import NetIngestServer, SensorClient
from repro.service.tracing import (
    DEFAULT_SAMPLE,
    STAGES,
    StageTracer,
    TraceSink,
    render_stage_table,
    render_trace_report,
    trace_report,
    validate_trace_event,
)

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


class FakeClock:
    """Deterministic monotonic ns clock: each read advances by `step`."""

    def __init__(self, step: int = 100) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------------
# Bucket geometry
# ---------------------------------------------------------------------------


class TestBucketBoundaries:
    def test_bounds_are_powers_of_two(self):
        assert HISTOGRAM_BUCKET_BOUNDS == tuple(2**i for i in range(40))

    def test_zero_lands_in_first_bucket(self):
        assert bucket_index(0) == 0

    def test_one_lands_in_first_bucket(self):
        # le-semantics: bucket 0 covers (-inf, 2**0].
        assert bucket_index(1) == 0

    @pytest.mark.parametrize("k", [1, 2, 7, 20, 38, 39])
    def test_exact_powers_of_two_land_in_their_own_le_bucket(self, k):
        assert bucket_index(2**k) == k
        assert bucket_index(2**k + 1) == min(k + 1, 40)
        assert bucket_index(2**k - 1) == (k if k > 1 else 0)

    def test_overflow_bucket(self):
        top = HISTOGRAM_BUCKET_BOUNDS[-1]
        assert bucket_index(top) == 39
        assert bucket_index(top + 1) == 40
        assert bucket_index(top * 1000) == 40

    def test_midpoints_round_up(self):
        assert bucket_index(3) == 2  # (2, 4]
        assert bucket_index(5) == 3  # (4, 8]


class TestHistogram:
    def test_observe_accumulates_exactly(self):
        h = Histogram("h", "")
        for v in (0, 1, 2, 3, 1024):
            h.observe(v)
        assert h.count() == 5
        assert h.total() == 1030
        assert h.max_value() == 1024
        counts = h.bucket_counts()
        assert counts[0] == 2  # 0 and 1
        assert counts[1] == 1  # 2
        assert counts[2] == 1  # 3
        assert counts[10] == 1  # 1024 == 2**10
        assert sum(counts) == 5

    def test_quantile_nearest_rank(self):
        h = Histogram("h", "")
        for v in range(1, 101):
            h.observe(v)
        # Nearest-rank over buckets: p50 reports the upper bound of the
        # bucket holding the 50th observation, capped by the true max.
        assert h.quantile(0.5) == 64
        assert h.quantile(1.0) == 100  # capped at the observed max
        assert h.quantile(0.01) == 1

    def test_overflow_quantile_reports_max(self):
        h = Histogram("h", "")
        h.observe(2**45)
        assert h.quantile(0.5) == 2**45

    def test_labelled_series_are_independent(self):
        h = Histogram("h", "")
        h.observe(4, stage="decode")
        h.observe(8, stage="emit")
        assert h.count(stage="decode") == 1
        assert h.count(stage="emit") == 1
        assert h.count(stage="route") == 0

    def test_export_import_round_trip(self):
        registry = MetricsRegistry()
        h = registry.histogram("botmeterd_stage_latency_ns", "help")
        for v in (1, 5, 2**39 + 1):
            h.observe(v, stage="decode")
        state = registry.export_state()
        other = MetricsRegistry()
        other.import_state(state)
        restored = other.histogram("botmeterd_stage_latency_ns", "help")
        assert restored.bucket_counts(stage="decode") == h.bucket_counts(
            stage="decode"
        )
        assert restored.total(stage="decode") == h.total(stage="decode")
        assert restored.max_value(stage="decode") == h.max_value(stage="decode")

    def test_mismatched_bucket_count_rejected(self):
        h = Histogram("h", "")
        with pytest.raises(ValueError, match="buckets"):
            h.merge_data({"buckets": [0] * 7, "sum": 0, "count": 0, "max": 0})


# ---------------------------------------------------------------------------
# Split-invariance: the exact-merge property
# ---------------------------------------------------------------------------


@st.composite
def observations_and_split(draw):
    values = draw(
        st.lists(st.integers(min_value=0, max_value=2**44), max_size=60)
    )
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=len(values),
            max_size=len(values),
        )
    )
    return values, assignment


@given(observations_and_split())
@settings(max_examples=120, deadline=None)
def test_merging_any_split_equals_single_process(case):
    """Per-partition histograms merge exactly into the single-process
    histogram, whatever the split of observations."""
    values, assignment = case
    single = Histogram("h", "")
    parts = [Histogram("h", "") for _ in range(4)]
    for value, part in zip(values, assignment):
        single.observe(value, stage="estimate")
        parts[part].observe(value, stage="estimate")
    merged = Histogram("h", "")
    for part in parts:
        merged.merge(part)
    assert merged.bucket_counts(stage="estimate") == single.bucket_counts(
        stage="estimate"
    )
    assert merged.count(stage="estimate") == single.count(stage="estimate")
    assert merged.total(stage="estimate") == single.total(stage="estimate")
    assert merged.max_value(stage="estimate") == single.max_value(stage="estimate")
    assert merged.export_data(stage="estimate") == single.export_data(
        stage="estimate"
    ) or (single.count(stage="estimate") == 0)


@given(observations_and_split())
@settings(max_examples=60, deadline=None)
def test_merge_via_exported_payloads_is_exact(case):
    """The exported form partition registries merge through
    (export_data/merge_data)."""
    values, assignment = case
    single = Histogram("h", "")
    parts = [Histogram("h", "") for _ in range(4)]
    for value, part in zip(values, assignment):
        single.observe(value)
        parts[part].observe(value)
    merged = Histogram("h", "")
    for part in parts:
        payload = part.export_data()
        if payload is not None:
            merged.merge_data(payload)
    assert merged.bucket_counts() == single.bucket_counts()
    assert merged.total() == single.total()


# ---------------------------------------------------------------------------
# StageTracer
# ---------------------------------------------------------------------------


class TestStageTracer:
    def test_sampling_counts_every_span_but_times_one_in_n(self):
        tracer = StageTracer(sample=4, clock=FakeClock())
        for _ in range(10):
            t0 = tracer.start("route")
            tracer.stop("route", t0)
        summary = tracer.summary()["stages"]["route"]
        assert summary["spans"] == 10
        assert summary["timed"] == 3  # spans 0, 4, 8
        assert tracer.latency.count(stage="route") == 3

    def test_first_span_always_sampled(self):
        tracer = StageTracer(sample=1000, clock=FakeClock())
        t0 = tracer.start("emit")
        assert t0 > 0
        assert tracer.stop("emit", t0) is not None

    def test_stop_without_anchor_is_a_noop(self):
        tracer = StageTracer(sample=1, clock=FakeClock())
        assert tracer.stop("route", 0) is None
        assert tracer.latency.count(stage="route") == 0

    def test_plan_samples_the_same_offsets_start_would(self):
        """Batch reservation is just a vectorised `start`: over any
        sequence of batch sizes, the set of sampled span indices must
        equal the one a span-at-a-time tracer produces."""
        batches = [3, 1, 7, 4, 16, 2]
        reference = StageTracer(sample=4, clock=FakeClock())
        sampled_ref = []
        n = 0
        for size in batches:
            for _ in range(size):
                if reference.start("route"):
                    sampled_ref.append(n)
                n += 1
        planned = StageTracer(sample=4, clock=FakeClock())
        sampled_plan = []
        n = 0
        for size in batches:
            offsets = set(planned.plan("route", size))
            for index in range(size):
                if index in offsets:
                    sampled_plan.append(n)
                n += 1
        assert sampled_plan == sampled_ref
        assert (
            planned.summary()["stages"]["route"]["spans"]
            == reference.summary()["stages"]["route"]["spans"]
            == sum(batches)
        )
        assert planned.plan("route", 0) == range(0)

    def test_plan_then_record_equals_start_then_stop(self):
        """A planned batch of one sampled span publishes exactly what
        the span-at-a-time path would (span count, timing, histograms)."""
        clock = FakeClock(step=50)
        planned = StageTracer(sample=1, clock=clock)
        offsets = planned.plan("reorder", 1)
        assert list(offsets) == [0]
        t0 = planned.clock()
        planned.record("reorder", planned.clock() - t0, records=2)
        stopped = StageTracer(sample=1, clock=FakeClock(step=50))
        stopped.stop("reorder", stopped.start("reorder"), records=2)
        assert planned.summary() == stopped.summary()
        assert planned.latency.count(stage="reorder") == 1
        assert planned.batch.count(stage="reorder") == 1

    def test_render_stage_table_orders_stages(self):
        tracer = StageTracer(sample=1, clock=FakeClock())
        for stage in reversed(STAGES):
            t0 = tracer.start(stage)
            tracer.stop(stage, t0)
        table = render_stage_table(tracer.summary())
        positions = [table.index(stage) for stage in STAGES]
        assert positions == sorted(positions)


# ---------------------------------------------------------------------------
# Trace events: schema, sink, report
# ---------------------------------------------------------------------------


class TestTraceSchema:
    def _sink_lines(self, tmp_path, fn):
        path = tmp_path / "events.ndjson"
        sink = TraceSink(path, sample=2)
        tracer = StageTracer(sink=sink, sample=2, clock=FakeClock())
        fn(tracer)
        tracer.write_summary()
        sink.close()
        return path, [json.loads(line) for line in path.read_text().splitlines()]

    def test_every_emitted_line_validates(self, tmp_path):
        def drive(tracer):
            for _ in range(5):
                t0 = tracer.start("decode")
                tracer.stop("decode", t0, records=3)
            # A span shaped like the retired worker pool's drain events:
            # traces recorded before its removal must still validate.
            tracer.sink.span({"stage": "drain", "dt_ns": 500, "worker": 1})

        _, lines = self._sink_lines(tmp_path, drive)
        kinds = [validate_trace_event(line) for line in lines]
        assert kinds[0] == "trace-header"
        assert kinds[-1] == "trace-summary"
        assert kinds.count("span") == 4  # 3 sampled decodes + 1 legacy drain

    def test_span_payloads_carry_only_monotonic_deltas(self, tmp_path):
        def drive(tracer):
            t0 = tracer.start("estimate")
            tracer.stop("estimate", t0, family="murofet", server="ldns-000")

        _, lines = self._sink_lines(tmp_path, drive)
        span = next(line for line in lines if line["type"] == "span")
        assert set(span) <= {
            "v", "type", "seq", "stage", "dt_ns", "records",
            "worker", "family", "server",
        }
        assert isinstance(span["dt_ns"], int)

    def test_unknown_span_key_rejected(self):
        # The closed key set is the wall-clock guard: a timestamp field
        # has nowhere to hide.
        event = {"v": 1, "type": "span", "stage": "emit", "dt_ns": 1,
                 "wall_clock": 1723000000.0}
        with pytest.raises(ValueError, match="unknown keys"):
            validate_trace_event(event)

    def test_bad_events_rejected(self):
        with pytest.raises(ValueError, match="version"):
            validate_trace_event({"v": 2, "type": "span"})
        with pytest.raises(ValueError, match="type"):
            validate_trace_event({"v": 1, "type": "wat"})
        with pytest.raises(ValueError, match="dt_ns"):
            validate_trace_event(
                {"v": 1, "type": "span", "stage": "emit", "dt_ns": -5}
            )
        with pytest.raises(ValueError, match="stage"):
            validate_trace_event({"v": 1, "type": "span", "dt_ns": 5})

    def test_trace_report_aggregates(self, tmp_path):
        def drive(tracer):
            for _ in range(6):
                t0 = tracer.start("route")
                tracer.stop("route", t0)

        path, _ = self._sink_lines(tmp_path, drive)
        report = trace_report(path)
        assert report["headers"] == 1
        route = report["stages"]["route"]
        assert route["count"] == 3
        assert route["p50_ns"] <= route["p95_ns"] <= route["max_ns"]
        assert route["total_ns"] > 0
        rendered = render_trace_report(report)
        assert "route" in rendered and "p95_ms" in rendered

    def test_trace_report_requires_header(self, tmp_path):
        path = tmp_path / "bare.ndjson"
        path.write_text(
            '{"v": 1, "type": "span", "stage": "emit", "dt_ns": 3}\n'
        )
        with pytest.raises(ValueError, match="trace-header"):
            trace_report(path)

    def test_trace_report_points_at_the_bad_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        sink = TraceSink(path, sample=1)
        sink.close()
        with open(path, "a") as fh:
            fh.write('{"v": 1, "type": "span", "stage": "emit"}\n')
        with pytest.raises(ValueError, match=r"bad\.ndjson:2"):
            trace_report(path)


class TestTraceReportSkipMissing:
    """``trace-report --merge`` must tolerate crash debris: a partition
    SIGKILLed before its first header flush leaves a missing or empty
    trace file, and the merged report should skip it with a warning
    rather than die.  Corrupt *content* still raises — that is
    corruption, not a crash artifact."""

    def _valid_trace(self, tmp_path, name="events.ndjson"):
        path = tmp_path / name
        sink = TraceSink(path, sample=1)
        tracer = StageTracer(sink=sink, sample=1, clock=FakeClock())
        t0 = tracer.start("route")
        tracer.stop("route", t0)
        sink.close()
        return path

    def test_missing_and_empty_files_skip_with_merge(self, tmp_path):
        good = self._valid_trace(tmp_path)
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        missing = tmp_path / "never-written.ndjson"
        report = trace_report(good, empty, missing, skip_missing=True)
        assert report["files"] == 1
        assert report["skipped"] == 2
        assert report["skipped_files"] == [str(empty), str(missing)]
        assert "route" in report["stages"]

    def test_without_skip_missing_raises(self, tmp_path):
        good = self._valid_trace(tmp_path)
        with pytest.raises(OSError):
            trace_report(good, tmp_path / "missing.ndjson")

    def test_all_missing_raises(self, tmp_path):
        with pytest.raises(ValueError, match="missing or empty"):
            trace_report(
                tmp_path / "a.ndjson",
                tmp_path / "b.ndjson",
                skip_missing=True,
            )

    def test_content_corruption_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.ndjson"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            trace_report(path, skip_missing=True)

    def test_cli_merge_warns_and_succeeds(self, tmp_path, capsys):
        good = self._valid_trace(tmp_path)
        missing = tmp_path / "gone.ndjson"
        assert (
            main(
                ["trace-report", str(good), str(missing), "--merge", "--json"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "skipped missing/empty trace file" in captured.err
        assert json.loads(captured.out)["skipped"] == 1


# ---------------------------------------------------------------------------
# Determinism + crash drill
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("stagewatch") / "trace.ndjson"
    assert (
        main(
            [
                "export-trace",
                "--family", "murofet",
                "--bots", "10",
                "--servers", "2",
                "--days", "1",
                "--seed", "9",
                "--out", str(path),
            ]
        )
        == 0
    )
    return path


def _net_replay_dirty(trace, workdir, trace_sample):
    """Replay ``trace`` over TCP from one sensor through the batched
    network ingest path; returns ``(landscape bytes, dead-letter bytes)``."""
    workdir.mkdir()
    out = workdir / "net.ndjson"
    dlq = workdir / "dlq.ndjson"
    daemon = BotMeterDaemon(
        "net:dirty",
        out_path=out,
        deadletter_path=dlq,
        batch_lines=256,
        trace_sample=trace_sample,
        log_stream=io.StringIO(),
    )
    server = NetIngestServer(daemon, tcp=("127.0.0.1", 0), expect_sensors=1)
    thread = server.run_in_thread()
    errors = []

    def _send():
        try:
            SensorClient(
                ("tcp", *server.tcp_address), "sensor-00", retry_deadline=60
            ).replay_lines(trace.read_bytes().splitlines())
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    client = threading.Thread(target=_send, daemon=True)
    client.start()
    client.join(timeout=120)
    thread.join(timeout=60)
    if errors:
        server.stop()
        raise errors[0]
    assert server.error is None
    return out.read_bytes(), dlq.read_bytes()


class TestTracingDeterminism:
    def test_landscape_bytes_identical_with_tracing_on_or_off(
        self, trace, tmp_path
    ):
        off = tmp_path / "off.ndjson"
        on = tmp_path / "on.ndjson"
        events = tmp_path / "events.ndjson"
        base = ["replay", str(trace)]
        assert main(base + ["--out", str(off), "--trace-sample", "0"]) == 0
        assert (
            main(
                base
                + [
                    "--out", str(on),
                    "--trace-out", str(events),
                    "--trace-sample", "2",
                ]
            )
            == 0
        )
        assert on.read_bytes() == off.read_bytes()
        # ...and the trace the run produced is schema-valid throughout.
        report = trace_report(events)
        assert report["events"] > 0
        for stage in ("decode", "reorder", "route", "estimate", "emit"):
            assert stage in report["stages"], stage

    @pytest.mark.parametrize("batch_lines", [1, 256])
    def test_every_stage_counts_its_records(self, trace, tmp_path, batch_lines):
        """Per-stage records/s needs a record count on every stage's
        spans: decode, reorder, route, estimate and emit all report
        ``records > 0`` over a traced replay."""
        events = tmp_path / "events.ndjson"
        assert (
            main(
                [
                    "replay", str(trace),
                    "--out", str(tmp_path / "out.ndjson"),
                    "--batch-lines", str(batch_lines),
                    "--trace-out", str(events),
                    "--trace-sample", "2",
                ]
            )
            == 0
        )
        stages = trace_report(events)["stages"]
        assert {"decode", "reorder", "route", "estimate", "emit"} <= set(stages)
        for stage, summary in stages.items():
            assert summary["records"] > 0, stage

    @pytest.mark.parametrize("batch_lines", [1, 256])
    @pytest.mark.parametrize("policy", ["block", "drop-oldest"])
    def test_reorder_spans_count_records_pushed(
        self, trace, tmp_path, batch_lines, policy
    ):
        """One ``reorder`` span per submitted batch counts the records
        entering the buffer — not those it released — so with every span
        timed the counts sum to the records consumed, under either
        backpressure policy."""
        events = tmp_path / "events.ndjson"
        health = tmp_path / "health.json"
        argv = [
            "replay", str(trace),
            "--out", str(tmp_path / "out.ndjson"),
            "--batch-lines", str(batch_lines),
            "--reorder-capacity", "64",
            "--policy", policy,
            "--trace-out", str(events),
            "--trace-sample", "1",
            "--health-out", str(health),
        ]
        assert main(argv) == 0
        consumed = json.loads(health.read_text())["records_consumed"]
        assert consumed > 0
        assert trace_report(events)["stages"]["reorder"]["records"] == consumed

    def test_corrupt_lines_keep_traced_replay_byte_identical(self, tmp_path):
        """Batched submission holds records while later lines decode,
        each pinned to the reader's corrupt count at its own decode;
        file and network ingest share that entry.  Interleave garbage
        lines through a two-day stream (so epoch 0 is emitted mid-stream
        and must be charged only the garbage before it): every framing
        (1 and 256 lines), with tracing off or timing every span, and
        over a socket, must give the same landscape and dead-letter
        bytes."""
        clean = tmp_path / "clean.ndjson"
        assert (
            main(
                [
                    "export-trace",
                    "--family", "murofet",
                    "--bots", "10",
                    "--servers", "2",
                    "--days", "2",
                    "--seed", "9",
                    "--out", str(clean),
                ]
            )
            == 0
        )
        dirty = tmp_path / "dirty.ndjson"
        with open(clean) as src, open(dirty, "w") as dst:
            for lineno, line in enumerate(src):
                dst.write(line)
                if lineno % 7 == 3:
                    dst.write("{this is not json\n")
        outputs = {}
        for batch in ("1", "256"):
            for sample in ("0", "1"):
                out = tmp_path / f"out{batch}-{sample}.ndjson"
                dlq = tmp_path / f"dlq{batch}-{sample}.ndjson"
                assert (
                    main(
                        [
                            "replay", str(dirty),
                            "--out", str(out),
                            "--deadletter", str(dlq),
                            "--batch-lines", batch,
                            "--trace-sample", sample,
                        ]
                    )
                    == 0
                )
                outputs[(batch, sample)] = (out.read_bytes(), dlq.read_bytes())
        reference = outputs[("1", "0")]
        rows = [json.loads(line) for line in reference[0].splitlines()]
        assert [row["epoch"] for row in rows] == [0, 1]
        assert all(row["quality"]["quarantined"] > 0 for row in rows)
        for key, got in outputs.items():
            assert got == reference, key
        for sample in (0, 1):
            assert _net_replay_dirty(dirty, tmp_path / f"net{sample}", sample) == (
                reference
            ), sample

    def test_metrics_dump_includes_histograms(self, trace, tmp_path):
        out = tmp_path / "out.ndjson"
        prom = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "replay", str(trace),
                    "--out", str(out),
                    "--metrics-out", str(prom),
                ]
            )
            == 0
        )
        text = prom.read_text()
        assert "# TYPE botmeterd_stage_latency_ns histogram" in text
        assert 'botmeterd_stage_latency_ns_bucket{stage="decode",le="1"}' in text
        assert 'botmeterd_stage_latency_ns_count{stage="decode"}' in text


class TestTracingCrashDrill:
    def test_sigkill_resume_restores_histograms_and_appends_trace(
        self, trace, tmp_path
    ):
        """SIGKILL mid-stream: the resumed run restores histogram state
        from the checkpoint (counts never go backwards), appends a second
        trace segment, and the landscape output stays byte-identical."""
        reference = tmp_path / "reference.ndjson"
        assert main(["replay", str(trace), "--out", str(reference)]) == 0

        out = tmp_path / "served.ndjson"
        checkpoint = tmp_path / "ck.json"
        events = tmp_path / "events.ndjson"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--input", str(trace),
            "--no-follow",
            "--out", str(out),
            "--checkpoint", str(checkpoint),
            "--checkpoint-every", "50",
            "--trace-out", str(events),
            "--trace-sample", "4",
        ]
        proc = subprocess.Popen(
            argv + ["--throttle", "0.002"], env=env, stderr=subprocess.DEVNULL
        )
        try:
            deadline = time.monotonic() + 60
            while not checkpoint.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, "daemon finished before the kill"
                time.sleep(0.05)
            assert checkpoint.exists(), "no checkpoint appeared within 60 s"
            time.sleep(0.2)
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        def latency_count(state) -> int:
            series = state["metrics"]["botmeterd_stage_latency_ns"]["series"]
            return sum(payload["count"] for _key, payload in series)

        mid = json.loads(checkpoint.read_text())
        mid_count = latency_count(mid)
        assert mid_count > 0, "checkpoint carried no histogram state"

        resumed = subprocess.run(argv, env=env, stderr=subprocess.DEVNULL)
        assert resumed.returncode == 0
        assert out.read_bytes() == reference.read_bytes()

        final = json.loads(checkpoint.read_text())
        # Restored-then-extended, never reset: the final count includes
        # every pre-kill observation the checkpoint preserved.
        assert latency_count(final) >= mid_count

        # One header per run segment: the killed attempt's plus the
        # resumed attempt's, in one appended file.
        report = trace_report(events)
        assert report["headers"] == 2
        assert report["events"] > 2
