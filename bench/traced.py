"""A traced botmeterd run: the CLI with timed wrappers around each layer.

    python bench/traced.py OUT.json -- replay TRACE.ndjson
    python bench/traced.py OUT.json -- serve --input - --d3 lexical ...

Wraps the public callables of every layer listed in :data:`WRAPS` (class
and module attributes; generators are timed per ``next``), then calls
``repro.cli.main(argv)`` — the entry point ``python -m repro.cli`` runs —
and writes the timings to ``OUT.json`` once, at exit.  The program's own
sources are not touched and its output bytes do not change.

Coarse calls (batch submits, window generation, estimates, checkpoints,
landscape encoding) keep full spans ``(name, start, end, parent)``.
Per-record calls (reorder pushes, streaming ingest, D3 admission,
per-line decode) only aggregate calls, total and self time, which bounds
the overhead.  A span's self time is its duration minus the time its
child spans cover.  Time the daemon spends blocked on stdin or in its
follow-loop sleeps is recorded as ``daemon.input_wait``.

:func:`layer_metrics` turns ``OUT.json`` into the per-layer metrics of
:data:`LAYER_METRICS`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

SPAN, AGG, GEN = "span", "agg", "gen"

#: (module, attribute, span name, kind): what is timed.  The span name's
#: prefix is the layer.
WRAPS = (
    ("repro.service.daemon", "BotMeterDaemon.run", "daemon.run", SPAN),
    ("repro.service.daemon", "BotMeterDaemon._checkpoint", "checkpoint.write", SPAN),
    ("repro.service.checkpoint", "CheckpointStore.save", "checkpoint.save", SPAN),
    ("repro.service.engine", "ShardedLandscapeEngine.__init__", "engine.init", SPAN),
    ("repro.service.engine", "ShardedLandscapeEngine.submit", "engine.submit", AGG),
    ("repro.service.engine", "ShardedLandscapeEngine.submit_batch", "engine.submit_batch", SPAN),
    ("repro.service.engine", "ShardedLandscapeEngine.submit_columns", "engine.submit_columns", SPAN),
    ("repro.service.engine", "ShardedLandscapeEngine.finalize", "engine.finalize", SPAN),
    ("repro.service.wire", "NdjsonBatchDecoder.iter_push", "wire.iter_push", GEN),
    ("repro.service.wire", "NdjsonBatchDecoder.flush", "wire.flush", AGG),
    ("repro.service.wire", "NdjsonReader.feed", "wire.feed", AGG),
    ("repro.service.daemon", "encode_landscape", "wire.encode_landscape", SPAN),
    ("repro.service.wire2", "Wire2BatchDecoder.iter_events", "wire2.iter_events", GEN),
    ("repro.service.wire2", "Wire2BatchDecoder.flush", "wire2.flush", AGG),
    ("repro.service.wire2", "LookupColumns.materialize", "wire2.materialize", AGG),
    ("repro.service.liveview", "StreamingDetector.__init__", "liveview.init", SPAN),
    ("repro.service.liveview", "StreamingDetector.admit", "liveview.admit", AGG),
    ("repro.service.reorder", "ReorderBuffer.push", "reorder.push", AGG),
    ("repro.service.reorder", "ReorderBuffer._push", "reorder._push", AGG),
    ("repro.service.reorder", "ReorderBuffer.flush", "reorder.flush", AGG),
    ("repro.dga.base", "Dga.nxdomains", "dga.nxdomains", SPAN),
    ("repro.core.streaming", "StreamingBotMeter.ingest", "streaming.ingest", AGG),
    ("repro.core.streaming", "StreamingBotMeter._close_epoch", "streaming.close_epoch", SPAN),
    ("repro.core.bernoulli", "BernoulliEstimator.estimate", "estimate.mb", SPAN),
    ("repro.core.poisson", "PoissonEstimator.estimate", "estimate.mp", SPAN),
    ("repro.core.timing", "TimingEstimator.estimate", "estimate.mt", SPAN),
)

ENGINE_CALLS = ("engine.submit", "engine.submit_batch", "engine.submit_columns", "engine.finalize")


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    moves: str
    no_change: str = ""


LAYER_METRICS = (
    LayerMetric("setup.import_s", "s", "lower",
                "setup_s on every workload (scipy via repro.core is most of the import)"),
    LayerMetric("engine.init_ms", "ms", "lower", "setup_s on every workload"),
    LayerMetric("engine.route_ns_per_rec", "ns/record", "lower",
                "records_per_s on replay_mix3_v2 (3 routers per record), then replay_goz"),
    LayerMetric("engine.columns_fastpath_frac", "fraction", "higher",
                "records_per_s on replay_mix3_v2",
                "replay_goz and live_mix3 (submit_columns never called)"),
    LayerMetric("engine.close_ms_p50", "ms", "lower", "emit_lag_p50_s on live_mix3"),
    LayerMetric("wire.decode_ns_per_rec", "ns/record", "lower",
                "records_per_s on replay_goz", "replay_mix3_v2"),
    LayerMetric("wire.emit_ms", "ms", "lower", "none (diagnostic only)", "every workload"),
    LayerMetric("wire2.decode_ns_per_rec", "ns/record", "lower",
                "records_per_s on replay_mix3_v2", "replay_goz and live_mix3"),
    LayerMetric("liveview.init_ms", "ms", "lower", "setup_s on live_mix3",
                "both replays (no D3)"),
    LayerMetric("liveview.admit_ns_per_rec", "ns/record", "lower",
                "emit_lag_p50_s and failures on live_mix3", "both replays (never called)"),
    LayerMetric("liveview.admit_frac", "fraction", "higher",
                "emit_lag_p50_s and failures on live_mix3", "both replays (never called)"),
    LayerMetric("reorder.push_ns_per_rec", "ns/record", "lower",
                "records_per_s on both replays"),
    LayerMetric("dga.window_calls", "count", "lower",
                "records_per_s on replay_mix3_v2, emit_lag_p50_s on live_mix3, setup_s"),
    LayerMetric("dga.window_ms", "ms", "lower",
                "records_per_s on replay_mix3_v2, emit_lag_p50_s on live_mix3, setup_s"),
    LayerMetric("dga.window_waste", "ratio", "lower",
                "records_per_s on replay_mix3_v2, emit_lag_p50_s on live_mix3, setup_s"),
    LayerMetric("streaming.ingest_ns_per_rec", "ns/record", "lower",
                "records_per_s on both replays"),
    LayerMetric("streaming.close_ms", "ms", "lower",
                "emit_lag_p50_s on live_mix3, records_per_s on replay_mix3_v2"),
    LayerMetric("estimate.mb_ms", "ms", "lower",
                "records_per_s on replay_goz, emit_lag_p50_s on live_mix3"),
    LayerMetric("estimate.mp_ms", "ms", "lower",
                "records_per_s on replay_mix3_v2, emit_lag_p50_s on live_mix3",
                "replay_goz (no MP family)"),
    LayerMetric("estimate.mt_ms", "ms", "lower",
                "records_per_s on replay_mix3_v2, emit_lag_p50_s on live_mix3",
                "replay_goz (no MT family)"),
    LayerMetric("estimate.calls", "count", "lower",
                "records_per_s on both replays, emit_lag_p50_s on live_mix3"),
    LayerMetric("checkpoint.saves", "count", "lower", "emit_lag_p50_s on live_mix3",
                "both replays (no checkpointing)"),
    LayerMetric("checkpoint.save_ms_p50", "ms", "lower", "emit_lag_p50_s on live_mix3",
                "both replays (no checkpointing)"),
    LayerMetric("checkpoint.bytes", "bytes", "lower", "emit_lag_p50_s on live_mix3",
                "both replays (no checkpointing)"),
    LayerMetric("daemon.loop_self_ms", "ms", "lower", "records_per_s on both replays"),
    LayerMetric("daemon.input_wait_ms", "ms", "higher",
                "none (idle headroom on the live feed)", "both replays"),
    LayerMetric("trace.unattributed_frac", "fraction", "lower", "none (measurement health)"),
    LayerMetric("trace.overhead_frac", "fraction", "lower", "none (measurement health)"),
    LayerMetric("gen.late_max_s", "s", "lower",
                "none (measurement health; a live run fails above 0.5 s)"),
    LayerMetric("host.probe_s", "s", "lower", "none (host speed witness)"),
)


class Recorder:
    """Times wrapped calls, nesting-aware.

    ``totals[name]`` is ``[calls, total_ns, self_ns]``; ``spans`` holds
    ``(name, start_ns, end_ns, parent_name)`` for calls wrapped with
    ``keep=True``.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.totals: dict[str, list[int]] = {}
        self.spans: list[tuple[str, int, int, str | None]] = []
        self._stack: list[list] = []  # open frames: [name, child_ns]

    def timed(self, name: str, fn, keep: bool = False, observe=None):
        """``fn`` timed as span ``name``.  ``observe(args, result,
        duration_ns, parent_name)`` runs after each call that returned."""
        clock = self.clock
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0, 0])
        spans = self.spans

        def call(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if keep:
                    spans.append((name, start, end, parent[0] if parent else None))
            if observe is not None:
                observe(args, result, duration, parent[0] if parent else None)
            return result

        return call

    def wrap(self, name: str, fn, keep: bool = False, observe=None):
        return functools.wraps(fn)(self.timed(name, fn, keep, observe))

    def wrap_generator(self, name: str, fn):
        """``fn`` returns a generator: time each ``next`` of it."""

        @functools.wraps(fn)
        def call(*args, **kwargs):
            step = self.timed(name, fn(*args, **kwargs).__next__)

            def generator():
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    yield item

            return generator()

        return call


class _Proxy:
    """Delegates every attribute to ``target`` except the overrides."""

    def __init__(self, target, **overrides) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


@dataclasses.dataclass
class Notes:
    """Observations beyond timings, filled in by the wrappers."""

    close_ns: list[int] = dataclasses.field(default_factory=list)
    columns_fallbacks: int = 0
    windows: set = dataclasses.field(default_factory=set)
    admitted: int = 0
    checkpoint_ns: list[int] = dataclasses.field(default_factory=list)
    checkpoint_bytes: int = 0

    def engine_call(self, args, result, duration, parent) -> None:
        # Only the outermost engine call of a close counts.
        if result and not (parent or "").startswith("engine."):
            self.close_ns.append(duration)

    def submit_batch(self, args, result, duration, parent) -> None:
        if parent == "engine.submit_columns":
            self.columns_fallbacks += 1
        self.engine_call(args, result, duration, parent)

    def window(self, args, result, duration, parent) -> None:
        dga, day = args
        self.windows.add((dga.name, dga.seed, day.isoformat()))

    def admit(self, args, result, duration, parent) -> None:
        self.admitted += bool(result)

    def checkpoint(self, args, result, duration, parent) -> None:
        # The daemon calls _checkpoint on its record schedule whether or
        # not a checkpoint store is configured; only calls with one write.
        if args[0].store is not None:
            self.checkpoint_ns.append(duration)

    def save(self, args, result, duration, parent) -> None:
        self.checkpoint_bytes = max(self.checkpoint_bytes, os.path.getsize(args[0].path))


def install(recorder: Recorder, notes: Notes) -> None:
    """Replace every callable of :data:`WRAPS` (and the daemon's stdin
    and sleep) by its timed wrapper."""
    observers = {
        "engine.submit": notes.engine_call,
        "engine.submit_batch": notes.submit_batch,
        "engine.submit_columns": notes.engine_call,
        "engine.finalize": notes.engine_call,
        "dga.nxdomains": notes.window,
        "liveview.admit": notes.admit,
        "checkpoint.write": notes.checkpoint,
        "checkpoint.save": notes.save,
    }
    for module_name, attribute, name, kind in WRAPS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if kind == GEN:
            wrapped = recorder.wrap_generator(name, original)
        else:
            wrapped = recorder.wrap(name, original, kind == SPAN, observers.get(name))
        setattr(owner, leaf, wrapped)
    daemon = importlib.import_module("repro.service.daemon")
    daemon.time = _Proxy(time, sleep=recorder.wrap("daemon.input_wait", time.sleep))
    stdin = sys.stdin
    sys.stdin = _Proxy(
        stdin,
        buffer=_Proxy(
            stdin.buffer,
            readline=recorder.wrap("daemon.input_wait", stdin.buffer.readline),
        ),
    )


def layer_metrics(doc: dict, n_records: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (``trace.overhead_frac``,
    ``gen.late_max_s`` and ``host.probe_s`` come from the caller).

    ``*_ns_per_rec`` divides a layer's self time by the trace's record
    count; ratios whose base is zero (the layer was never called) read 0.
    """
    totals = doc["totals"]

    def field(index: int, *names: str) -> int:
        return sum(totals.get(name, (0, 0, 0))[index] for name in names)

    def calls(*names):
        return field(0, *names)

    def total_ms(*names):
        return field(1, *names) / 1e6

    def self_ns(*names):
        return field(2, *names)

    def per_rec(*names):
        return self_ns(*names) / n_records

    def p50_ms(values):
        return statistics.median(values) / 1e6 if values else 0.0

    columns = calls("engine.submit_columns")
    windows = calls("dga.nxdomains")
    offered = calls("liveview.admit")
    attributed_s = doc["import_s"] + sum(t[2] for t in totals.values()) / 1e9
    return {
        "setup.import_s": doc["import_s"],
        "engine.init_ms": total_ms("engine.init"),
        "engine.route_ns_per_rec": per_rec(*ENGINE_CALLS),
        "engine.columns_fastpath_frac": (
            (columns - doc["columns_fallbacks"]) / columns if columns else 0.0
        ),
        "engine.close_ms_p50": p50_ms(doc["close_ns"]),
        "wire.decode_ns_per_rec": per_rec("wire.iter_push", "wire.flush", "wire.feed"),
        "wire.emit_ms": total_ms("wire.encode_landscape"),
        "wire2.decode_ns_per_rec": per_rec(
            "wire2.iter_events", "wire2.flush", "wire2.materialize"
        ),
        "liveview.init_ms": total_ms("liveview.init"),
        "liveview.admit_ns_per_rec": per_rec("liveview.admit"),
        "liveview.admit_frac": doc["admitted"] / offered if offered else 0.0,
        "reorder.push_ns_per_rec": per_rec("reorder.push", "reorder._push", "reorder.flush"),
        "dga.window_calls": windows,
        "dga.window_ms": total_ms("dga.nxdomains"),
        "dga.window_waste": windows / doc["distinct_windows"] if windows else 0.0,
        "streaming.ingest_ns_per_rec": per_rec("streaming.ingest"),
        "streaming.close_ms": self_ns("streaming.close_epoch") / 1e6,
        "estimate.mb_ms": total_ms("estimate.mb"),
        "estimate.mp_ms": total_ms("estimate.mp"),
        "estimate.mt_ms": total_ms("estimate.mt"),
        "estimate.calls": calls("estimate.mb", "estimate.mp", "estimate.mt"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.save_ms_p50": p50_ms(doc["checkpoint_ns"]),
        "checkpoint.bytes": doc["checkpoint_bytes"],
        "daemon.loop_self_ms": self_ns("daemon.run") / 1e6,
        "daemon.input_wait_ms": total_ms("daemon.input_wait"),
        "trace.unattributed_frac": max(wall_s - attributed_s, 0.0) / wall_s,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py OUT.json -- <repro.cli arguments>", file=sys.stderr)
        return 2
    out, cli_argv = Path(argv[0]), argv[2:]
    started = time.perf_counter()
    import repro.cli
    import repro.service.daemon  # noqa: F401  (the CLI imports it lazily)

    import_s = time.perf_counter() - started
    recorder = Recorder()
    notes = Notes()
    install(recorder, notes)
    try:
        return repro.cli.main(cli_argv)
    finally:
        doc = {
            "import_s": import_s,
            "totals": recorder.totals,
            "spans": recorder.spans,
            "close_ns": notes.close_ns,
            "columns_fallbacks": notes.columns_fallbacks,
            "distinct_windows": len(notes.windows),
            "admitted": notes.admitted,
            "checkpoint_ns": notes.checkpoint_ns,
            "checkpoint_bytes": notes.checkpoint_bytes,
        }
        out.write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
