"""Stagewatch: end-to-end stage tracing for the botmeterd ingest path.

Sharded ingest and kernel caches make the pipeline fast but opaque: a
record's wall-clock disappears somewhere between *decode* (wire bytes
-> :class:`~repro.dns.message.ForwardedLookup`), *reorder* (the bounded
heap), *route* (family matching + shard dispatch), *estimate* (epoch
closure inside the shards) and *emit* (landscape serialisation).  Stagewatch instruments exactly those five
stages with:

* **latency histograms** — ``botmeterd_stage_latency_ns{stage=...}``,
  built on the exact log2-bucket :class:`~repro.service.metrics.Histogram`,
  so per-partition recordings merge *exactly* into the global
  distribution;
* **span events** — structured NDJSON written to ``--trace-out``: every
  sampled span becomes one line carrying a monotonic-clock delta
  (``dt_ns``) and stage context.  Payloads never contain wall-clock
  timestamps, so enabling tracing cannot leak nondeterminism into
  anything derived from the landscape stream — same-seed runs stay
  byte-identical on the landscape NDJSON with tracing on or off;
* **sampling** — the tracer counts every span but only *times* (and
  publishes) every ``sample``-th one per stage, keeping the overhead of
  always-on histograms within the tracing perf budget
  (``benchmarks/test_perf_tracing.py``).  The first span of each stage
  is always sampled, so even tiny streams populate every stage.

:func:`trace_report` aggregates a trace file back into a per-stage
p50/p95/max table (the ``repro trace-report`` CLI verb); exact
quantiles are computed from the raw deltas, not the histogram buckets.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Mapping

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "STAGES",
    "TRACE_SCHEMA",
    "DEFAULT_SAMPLE",
    "TraceSink",
    "StageTracer",
    "validate_trace_event",
    "trace_report",
    "render_trace_report",
    "render_stage_table",
]

#: The five instrumented pipeline stages, in record order.
STAGES = ("decode", "reorder", "route", "estimate", "emit")

TRACE_SCHEMA = "botmeterd-trace-v1"

#: Default span sampling: time 1 of every N spans per stage.
DEFAULT_SAMPLE = 16

#: The complete legal key set of a span event.  Keeping this closed is
#: the "no wall-clock in payloads" guarantee: there is simply no field
#: a wall-clock timestamp could ride in.  ``worker`` is no longer
#: written, but stays legal so traces recorded by the retired ingest
#: worker pool still validate.
_SPAN_KEYS = frozenset(
    {"v", "type", "seq", "stage", "dt_ns", "records", "worker", "family", "server"}
)
_SUMMARY_STAGE_KEYS = frozenset({"spans", "timed", "total_ns", "max_ns"})


class TraceSink:
    """NDJSON span-event writer (the ``--trace-out`` file).

    A fresh run truncates and writes the ``trace-header`` line; a
    checkpoint-resumed run appends, so one logical serve that survived
    restarts yields one file with one header per attempt.
    """

    def __init__(self, path: str | Path, sample: int, resume: bool = False) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = open(self.path, "a" if resume else "w")
        self._seq = 0
        self._write(
            {"v": 1, "type": "trace-header", "schema": TRACE_SCHEMA, "sample": sample}
        )
        # Flush the header eagerly: even a SIGKILL-ed attempt leaves its
        # run segment countable (spans stay buffered — losing a sampled
        # span is fine, losing segment accounting is not).
        self._fh.flush()

    def _write(self, event: Mapping[str, Any]) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(event, sort_keys=True) + "\n")

    def span(self, event: Mapping[str, Any]) -> None:
        self._seq += 1
        self._write({"v": 1, "type": "span", "seq": self._seq, **event})

    def summary(self, stages: Mapping[str, Any]) -> None:
        self._write({"v": 1, "type": "trace-summary", "stages": dict(stages)})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None


class StageTracer:
    """Low-overhead per-stage span recorder and histogram publisher.

    The hot-path contract: with no tracer attached, instrumented code
    pays one ``None`` check; with a tracer attached, an unsampled span
    pays one dict bump; a sampled span pays two monotonic-clock reads,
    one histogram observe, and (if a sink is attached) one NDJSON line.

    ``start``/``stop`` deliberately avoid a context-manager allocation
    on the per-record path::

        t0 = tracer.start("route") if tracer is not None else 0
        ...work...
        if t0:
            tracer.stop("route", t0)

    Batched callers go one cheaper: :meth:`plan` reserves a whole
    batch's spans in one call and returns the sampled offsets, so the
    per-record cost drops to an integer compare (the engine's traced
    batch path uses this).
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        sink: TraceSink | None = None,
        sample: int = DEFAULT_SAMPLE,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.sample = max(1, int(sample))
        self.sink = sink
        self.clock = self._clock = clock
        self._spans: dict[str, int] = {}
        self._timed: dict[str, int] = {}
        self._total_ns: dict[str, int] = {}
        self._max_ns: dict[str, int] = {}
        self._stage_keys: dict[str, tuple[tuple[str, str], ...]] = {}
        registry = metrics if metrics is not None else MetricsRegistry()
        self.latency: Histogram = registry.histogram(
            "botmeterd_stage_latency_ns",
            "Sampled per-stage span latency (monotonic-clock ns).",
        )
        self.batch: Histogram = registry.histogram(
            "botmeterd_stage_batch_records",
            "Records handled per sampled span or decode chunk.",
        )

    # -- spans ---------------------------------------------------------------

    def start(self, stage: str) -> int:
        """Begin a span: returns a clock anchor, or 0 when sampled out."""
        n = self._spans.get(stage, 0)
        self._spans[stage] = n + 1
        if n % self.sample:
            return 0
        return self._clock()

    def plan(self, stage: str, n: int) -> range:
        """Reserve ``n`` spans of ``stage`` in one counter bump.

        Batch-loop counterpart of :meth:`start`: instead of one method
        call per record, a batched caller reserves the whole batch up
        front and pays a single integer compare per record against the
        returned offsets (the 0-based positions within the reservation
        that fall on the sampling grid).  Sampled offsets are timed with
        an explicit clock read and published via :meth:`record`.
        """
        if n <= 0:
            return range(0)
        base = self._spans.get(stage, 0)
        self._spans[stage] = base + n
        first = (-base) % self.sample
        return range(first, n, self.sample)

    def stop(
        self,
        stage: str,
        t0: int,
        records: int | None = None,
        **fields: Any,
    ) -> int | None:
        """Finish a sampled span; returns its duration in ns (or None)."""
        if not t0:
            return None
        return self.record(stage, self._clock() - t0, records, **fields)

    def record(
        self,
        stage: str,
        dt: int,
        records: int | None = None,
        **fields: Any,
    ) -> int:
        """Publish one already-measured sampled span duration (ns)."""
        self._timed[stage] = self._timed.get(stage, 0) + 1
        self._total_ns[stage] = self._total_ns.get(stage, 0) + dt
        if dt > self._max_ns.get(stage, 0):
            self._max_ns[stage] = dt
        key = self._stage_keys.get(stage)
        if key is None:
            key = self._stage_keys[stage] = (("stage", stage),)
        self.latency.observe_key(dt, key)
        if records is not None:
            self.batch.observe_key(records, key)
        if self.sink is not None:
            event: dict[str, Any] = {"stage": stage, "dt_ns": dt}
            if records is not None:
                event["records"] = records
            event.update(fields)
            self.sink.span(event)
        return dt

    @contextmanager
    def span(self, stage: str, records: int | None = None, **fields: Any) -> Iterator[None]:
        t0 = self.start(stage)
        try:
            yield
        finally:
            self.stop(stage, t0, records, **fields)

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Per-stage span accounting (counts and sampled-time totals)."""
        stages = {}
        for stage in sorted(self._spans):
            stages[stage] = {
                "spans": self._spans.get(stage, 0),
                "timed": self._timed.get(stage, 0),
                "total_ns": self._total_ns.get(stage, 0),
                "max_ns": self._max_ns.get(stage, 0),
            }
        return {"sample": self.sample, "stages": stages}

    def write_summary(self) -> None:
        if self.sink is not None:
            self.sink.summary(self.summary()["stages"])


# ---------------------------------------------------------------------------
# Trace-file schema validation and aggregation
# ---------------------------------------------------------------------------


def validate_trace_event(data: Any) -> str:
    """Validate one parsed trace line; returns its event type.

    Raises:
        ValueError: on any schema violation — unknown type, missing or
            mistyped fields, or keys outside the closed span key set
            (which is what keeps wall-clock timestamps out of traces).
    """
    if not isinstance(data, dict):
        raise ValueError(f"trace event is not an object: {data!r}")
    if data.get("v") != 1:
        raise ValueError(f"unsupported trace version {data.get('v')!r}")
    kind = data.get("type")
    if kind == "trace-header":
        if data.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unknown trace schema {data.get('schema')!r}")
        sample = data.get("sample")
        if not isinstance(sample, int) or sample < 1:
            raise ValueError(f"trace header sample must be an int >= 1, got {sample!r}")
        return kind
    if kind == "span":
        extra = set(data) - _SPAN_KEYS
        if extra:
            raise ValueError(f"span event carries unknown keys {sorted(extra)}")
        stage = data.get("stage")
        if not isinstance(stage, str) or not stage:
            raise ValueError(f"span event needs a stage, got {stage!r}")
        dt = data.get("dt_ns")
        if not isinstance(dt, int) or isinstance(dt, bool) or dt < 0:
            raise ValueError(f"span dt_ns must be a non-negative int, got {dt!r}")
        for field in ("records", "worker", "seq"):
            if field in data and (
                not isinstance(data[field], int) or data[field] < 0
            ):
                raise ValueError(f"span {field} must be a non-negative int")
        return kind
    if kind == "trace-summary":
        stages = data.get("stages")
        if not isinstance(stages, dict):
            raise ValueError("trace-summary needs a stages object")
        for stage, entry in stages.items():
            if not isinstance(entry, dict) or set(entry) != _SUMMARY_STAGE_KEYS:
                raise ValueError(f"malformed trace-summary entry for {stage!r}")
        return kind
    raise ValueError(f"unknown trace event type {kind!r}")


def _exact_quantile(ordered: list[int], q: float) -> int:
    """The q-th observation of an ascending list (nearest-rank)."""
    if not ordered:
        return 0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _collect_trace(
    path: str | Path,
    per_stage: dict[str, list[int]],
    records_per_stage: dict[str, int],
) -> tuple[int, int]:
    """Fold one ``--trace-out`` file's spans into the accumulators;
    returns ``(headers, events)`` for that file."""
    headers = 0
    events = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                data = json.loads(stripped)
                kind = validate_trace_event(data)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            events += 1
            if kind == "trace-header":
                headers += 1
            elif kind == "span":
                per_stage.setdefault(data["stage"], []).append(data["dt_ns"])
                if "records" in data:
                    records_per_stage[data["stage"]] = (
                        records_per_stage.get(data["stage"], 0) + data["records"]
                    )
    if not headers:
        raise ValueError(f"{path}: no trace-header line (not a Stagewatch trace?)")
    return headers, events


def trace_report(
    *paths: str | Path, skip_missing: bool = False
) -> dict[str, Any]:
    """Aggregate one or more ``--trace-out`` files into per-stage stats.

    Every line of every file is schema-validated; spans group by stage
    with exact nearest-rank quantiles over the raw ``dt_ns`` deltas.
    With several files (``trace-report --merge``, the per-partition
    cluster traces) the quantiles are computed over the *union* of the
    deltas — exactly what one merged trace file would have reported —
    and ``headers``/``events`` sum across files.

    With ``skip_missing`` a missing or empty trace file — what a
    partition SIGKILLed before its first header flush leaves behind —
    is skipped instead of raising; the report carries the skipped
    count and names (``skipped``/``skipped_files``) so the footer can
    say so.  A file with *content* that fails validation still raises:
    that is corruption, not a crash artifact.
    """
    if not paths:
        raise ValueError("trace_report needs at least one trace file")
    per_stage: dict[str, list[int]] = {}
    records_per_stage: dict[str, int] = {}
    headers = 0
    events = 0
    skipped: list[str] = []
    for path in paths:
        if skip_missing:
            try:
                if Path(path).stat().st_size == 0:
                    skipped.append(str(path))
                    continue
            except OSError:
                skipped.append(str(path))
                continue
        file_headers, file_events = _collect_trace(path, per_stage, records_per_stage)
        headers += file_headers
        events += file_events
    if skipped and len(skipped) == len(paths):
        raise ValueError(
            f"all {len(paths)} trace file(s) are missing or empty"
        )
    stages: dict[str, dict[str, int]] = {}
    for stage, deltas in per_stage.items():
        ordered = sorted(deltas)
        stages[stage] = {
            "count": len(ordered),
            "records": records_per_stage.get(stage, 0),
            "total_ns": sum(ordered),
            "p50_ns": _exact_quantile(ordered, 0.5),
            "p95_ns": _exact_quantile(ordered, 0.95),
            "max_ns": ordered[-1],
        }
    report: dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "headers": headers,
        "events": events,
        "files": len(paths) - len(skipped),
        "stages": stages,
    }
    if skipped:
        report["skipped"] = len(skipped)
        report["skipped_files"] = skipped
    return report


def _stage_order(stages: Mapping[str, Any]) -> list[str]:
    known = [stage for stage in STAGES if stage in stages]
    extra = sorted(stage for stage in stages if stage not in STAGES)
    return known + extra


def _ms(ns: float) -> str:
    return f"{ns / 1e6:.3f}"


def render_trace_report(report: Mapping[str, Any]) -> str:
    """The ``repro trace-report`` table (per-stage p50/p95/max)."""
    stages = report["stages"]
    header = (
        f"{'stage':<10}{'spans':>8}{'records':>10}"
        f"{'p50_ms':>10}{'p95_ms':>10}{'max_ms':>10}{'total_ms':>11}"
    )
    lines = [header, "-" * len(header)]
    for stage in _stage_order(stages):
        entry = stages[stage]
        lines.append(
            f"{stage:<10}{entry['count']:>8}{entry['records']:>10}"
            f"{_ms(entry['p50_ns']):>10}{_ms(entry['p95_ns']):>10}"
            f"{_ms(entry['max_ns']):>10}{_ms(entry['total_ns']):>11}"
        )
    files = report.get("files", 1)
    merged = f" across {files} merged file(s)" if files > 1 else ""
    skipped = report.get("skipped", 0)
    skip_note = f", {skipped} missing/empty file(s) skipped" if skipped else ""
    lines.append(
        f"({report['events']} events, {report['headers']} run segment(s)"
        f"{merged}{skip_note}; latencies are sampled monotonic-clock deltas)"
    )
    return "\n".join(lines)


def render_stage_table(summary: Mapping[str, Any]) -> str:
    """Per-stage attribution table from a live tracer summary
    (``--profile`` output and supervisor restart logs)."""
    stages = summary["stages"]
    total = sum(entry["total_ns"] for entry in stages.values()) or 1
    header = (
        f"{'stage':<10}{'spans':>10}{'timed':>8}"
        f"{'total_ms':>11}{'max_ms':>10}{'share':>8}"
    )
    lines = [header, "-" * len(header)]
    for stage in _stage_order(stages):
        entry = stages[stage]
        lines.append(
            f"{stage:<10}{entry['spans']:>10}{entry['timed']:>8}"
            f"{_ms(entry['total_ns']):>11}{_ms(entry['max_ns']):>10}"
            f"{entry['total_ns'] / total:>8.1%}"
        )
    lines.append(f"(sampled 1/{summary.get('sample', '?')} spans per stage)")
    return "\n".join(lines)
