"""Sharded ingest workers: the parallel half of the landscape engine.

The :class:`~repro.service.engine.ShardedLandscapeEngine` can spread its
``(family × server)`` shards over N worker *processes*.  The parent
routes every released record to exactly one worker with a deterministic
hash of its ``server`` field (:func:`worker_for_server`), so each worker
owns a disjoint subset of the shards and sees its records in released
(stream) order.  Ingest commands are fire-and-forget batches; workers
only speak when the parent reaches a *sync point* — an epoch emission,
a checkpoint export, or finalize — at which moment every buffered batch
has been flushed down the pipe first, so command ordering alone
guarantees the worker state is complete.

A sync reply carries everything the parent deferred: per-family matched
counts, late records (tagged with their parent-side dispatch sequence
number, so the merged late stream reproduces the serial engine's
dead-letter order exactly), closed ``(family, server, day)`` landscapes,
the estimator-fallback total and per-shard epoch cursors.  The parent
merges closures into the same per-day emission path the serial engine
uses — which is how the emitted NDJSON stays byte-identical at any
worker count.

Workers hold a process-local :class:`~repro.core.kernels.KernelCache`;
when the engine was given a spill path they warm from it at boot and
spill back at shutdown, so restarts skip the estimator-kernel warm-up.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import Connection
from typing import Any, Mapping

from ..core.estimator import Estimator
from ..core.kernels import shared_cache
from ..core.matcher import DayIndex
from ..core.streaming import StreamingBotMeter
from ..dga.base import Dga
from ..dns.message import ForwardedLookup
from ..timebase import Timeline

__all__ = [
    "WorkerConfig",
    "WorkerPool",
    "partition_for_server",
    "worker_for_server",
]

#: One record on the wire: ``(dispatch_seq, timestamp, server, domain)``.
RecordTuple = tuple[int, float, str, str]


@lru_cache(maxsize=65536)
def worker_for_server(server: str, n_workers: int) -> int:
    """Deterministic shard routing: stable across runs, platforms and
    restarts (CRC-32 is endianness-free and seedless, unlike ``hash``).

    Border traces repeat a small forwarding-server set per chunk, so the
    ``(server, n)`` decision is LRU-cached — the encode+CRC cost is paid
    once per distinct server, not once per record.  The cache is pure
    (keyed on its full input) and bounded, so a long-lived daemon that
    sees an adversarial server churn degrades to the uncached cost, never
    to unbounded memory.
    """
    return zlib.crc32(server.encode("utf-8")) % n_workers


def partition_for_server(server: str, n_partitions: int) -> int:
    """Cluster partition routing: the *same* CRC-32 keying as in-process
    worker routing, so a record lands in the same slice whether the
    split happens across partition processes (the cluster tier) or
    across ingest workers within one daemon — and a reshard from N
    partitions to M recomputes membership from the server name alone."""
    return worker_for_server(server, n_partitions)


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild the engine's shard factory."""

    dgas: Mapping[str, Dga]
    estimators: Mapping[str, Estimator]
    detection_windows: Mapping[str, Mapping[int, frozenset[str]]]
    negative_ttl: float
    timestamp_granularity: float
    timeline: Timeline
    grace: float
    kernel_spill: str | None = None
    #: Span sampling rate for worker-side estimate tracing; 0 disables.
    trace_sample: int = 0


class _WorkerState:
    """The worker-process side: shards plus deferred-stat accumulators."""

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self.families = sorted(config.dgas)
        self.index = DayIndex(config.dgas, config.timeline, config.detection_windows)
        self.shards: dict[tuple[str, str], StreamingBotMeter] = {}
        self.cursor = 0  # the parent's next_epoch_to_emit, per latest batch
        self.closures: list[tuple[str, str, int, Any]] = []
        self.matched: dict[str, int] = {}
        self.late: list[tuple[int, tuple[float, str, str], int]] = []
        if config.trace_sample > 0:
            from .tracing import WorkerTraceBuffer

            self.trace: WorkerTraceBuffer | None = WorkerTraceBuffer(
                config.trace_sample
            )
        else:
            self.trace = None
        if config.kernel_spill:
            shared_cache().load(config.kernel_spill)
        for family in self.families:
            shared_cache().warm_family(config.dgas[family].params)

    def add_family(self, name: str, dga: Dga, estimator: Estimator) -> None:
        """Dynamic-registry onboarding, worker side (idempotent).

        ``WorkerConfig`` is frozen but its taxonomy mappings are plain
        dicts, so the registration mutates them in place — every later
        ``_shard`` build sees the new family without a config reload, and
        the day index is rebuilt over the grown taxonomy.  Pipe ordering
        guarantees all records dispatched before the ``register`` op were
        ingested under the old taxonomy, matching the serial engine's
        routing exactly.
        """
        if name in self.families:
            return
        self.config.dgas[name] = dga
        self.config.estimators[name] = estimator
        self.families = sorted(self.config.dgas)
        self.index = DayIndex(
            self.config.dgas, self.config.timeline, self.config.detection_windows
        )
        shared_cache().warm_family(dga.params)

    def _shard(self, family: str, server: str) -> StreamingBotMeter:
        key = (family, server)
        shard = self.shards.get(key)
        if shard is None:
            config = self.config
            shard = StreamingBotMeter(
                config.dgas[family],
                estimator=config.estimators[family],
                detection_windows=config.detection_windows.get(family),
                negative_ttl=config.negative_ttl,
                timestamp_granularity=config.timestamp_granularity,
                timeline=config.timeline,
                grace=config.grace,
                on_epoch=lambda day, landscape, _key=key: self.closures.append(
                    (_key[0], _key[1], day, landscape)
                ),
            )
            if self.cursor:
                shard.skip_to_epoch(self.cursor)
            self.shards[key] = shard
        return shard

    def ingest_batch(self, records: list[RecordTuple], cursor: int) -> None:
        self.cursor = cursor
        routes = self.index.routes
        for seq, timestamp, server, domain in records:
            hits = routes(domain, timestamp)
            if not hits:
                continue
            record = ForwardedLookup(timestamp, server, domain)
            for family, matched_day in hits:
                self.matched[family] = self.matched.get(family, 0) + 1
                if matched_day < cursor:
                    self.late.append((seq, (timestamp, server, domain), matched_day))
                self._shard(family, server).ingest(record, matched_day)

    def advance_all(self, timestamp: float) -> None:
        trace = self.trace
        if trace is None:
            for shard in self.shards.values():
                shard.advance_watermark(timestamp)
            return
        for (family, server), shard in self.shards.items():
            trace.time_shard(
                family, server, lambda s=shard: s.advance_watermark(timestamp)
            )

    def sync_payload(self) -> dict[str, Any]:
        """Drain the deferred stats (the reply to any sync command)."""
        payload = {
            "matched": self.matched,
            "late": self.late,
            "closures": self.closures,
            "failures": sum(
                shard.stats["estimate_failures"] for shard in self.shards.values()
            ),
            "cursors": [
                (family, server, shard.next_epoch_to_close)
                for (family, server), shard in sorted(self.shards.items())
            ],
            "trace": self.trace.ship() if self.trace is not None else None,
        }
        self.matched = {}
        self.late = []
        self.closures = []
        return payload

    def export_shards(self) -> list[list[Any]]:
        return [
            [family, server, shard.export_state()]
            for (family, server), shard in sorted(self.shards.items())
        ]

    def import_shards(self, shards: list[list[Any]], cursor: int) -> None:
        self.shards = {}
        self.closures = []
        self.matched = {}
        self.late = []
        self.cursor = int(cursor)
        for family, server, shard_state in shards:
            self._shard(family, server).import_state(shard_state)


def _worker_main(conn: Connection, config: WorkerConfig) -> None:
    state = _WorkerState(config)
    deferred_error: str | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing durable lives here
        op = message[0]
        if op == "stop":
            if config.kernel_spill:
                shared_cache().spill(config.kernel_spill)
            break
        try:
            if deferred_error is not None:
                raise RuntimeError(deferred_error)
            if op == "batch":
                state.ingest_batch(message[1], message[2])
            elif op == "register":
                state.add_family(message[1], message[2], message[3])
            elif op in ("close", "finalize"):
                state.advance_all(message[1])
                conn.send(state.sync_payload())
            elif op == "sync":
                conn.send(state.sync_payload())
            elif op == "export":
                payload = state.sync_payload()
                payload["shards"] = state.export_shards()
                conn.send(payload)
            elif op == "import":
                state.import_shards(message[1], message[2])
                payload = state.sync_payload()
                conn.send(payload)
            else:
                raise RuntimeError(f"unknown worker command {op!r}")
        except Exception as exc:  # pragma: no cover - defensive surface
            if op in ("batch", "register"):
                # Fire-and-forget: report at the next request instead.
                deferred_error = f"{type(exc).__name__}: {exc}"
            else:
                deferred_error = None
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    conn.close()


class WorkerPool:
    """Parent-side handle on the N ingest-worker processes.

    Prefers the ``fork`` start method (cheap, and the config rides the
    fork instead of a pickle); falls back to ``spawn`` elsewhere — the
    config dataclass is picklable either way.
    """

    def __init__(
        self, config: WorkerConfig, n_workers: int, tracer: Any = None
    ) -> None:
        if n_workers < 2:
            raise ValueError("a worker pool needs at least 2 workers")
        self.n_workers = int(n_workers)
        self.tracer = tracer  # StageTracer or None; times per-worker drains
        method = "fork" if "fork" in get_all_start_methods() else "spawn"
        ctx = get_context(method)
        self._conns: list[Connection] = []
        self._procs = []
        for index in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, config),
                name=f"botmeterd-ingest-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def worker_for(self, server: str) -> int:
        # worker_for_server is itself LRU-cached (bounded, unlike the
        # per-pool dict this replaced), so repeated servers skip the
        # encode+CRC entirely.
        return worker_for_server(server, self.n_workers)

    def send(self, index: int, message: tuple) -> None:
        """Fire-and-forget (``batch`` commands)."""
        self._conns[index].send(message)

    def _recv(self, index: int) -> dict[str, Any]:
        try:
            reply = self._conns[index].recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"ingest worker {index} died mid-request"
            ) from exc
        if isinstance(reply, tuple) and reply and reply[0] == "error":
            raise RuntimeError(f"ingest worker {index} failed: {reply[1]}")
        return reply

    def _recv_timed(self, index: int) -> dict[str, Any]:
        """One reply, with the sync drain latency observed per worker."""
        tracer = self.tracer
        if tracer is None:
            return self._recv(index)
        t0 = time.perf_counter_ns()
        reply = self._recv(index)
        tracer.worker_drain(index, time.perf_counter_ns() - t0)
        return reply

    def request(self, message: tuple) -> list[dict[str, Any]]:
        """Send one command to every worker; replies in worker order."""
        for conn in self._conns:
            conn.send(message)
        return [self._recv_timed(index) for index in range(self.n_workers)]

    def request_each(self, messages: list[tuple]) -> list[dict[str, Any]]:
        """Per-worker commands (``import`` distribution), replies in order."""
        for conn, message in zip(self._conns, messages):
            conn.send(message)
        return [self._recv_timed(index) for index in range(self.n_workers)]

    def close(self) -> None:
        """Stop every worker (they spill their kernel caches first)."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - hung-worker backstop
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
