"""Meshguard — fault tolerance for the Chartmesh cluster tier.

Chartmesh (:mod:`repro.service.cluster`) proves the *exactness* story:
N partition daemons whose merged landscape is byte-identical to one
unpartitioned daemon.  This module makes that cluster survive the
partitions actually failing, without giving up the exactness anchor:

* **Partition supervision** — :class:`ClusterSupervisor` owns N
  ``run_partition_server`` *processes* (one ingest socket + one daemon +
  one :class:`HeartbeatWriter` each).  Every poll tick reads the
  per-partition heartbeat file (atomically rotated JSON: pid, watermark,
  cursor, checkpoint age), checks process liveness, and drives a
  four-state :class:`PartitionHealth` machine
  (``healthy -> lagging -> down -> disarmed``).  A dead or wedged
  partition is restarted from **its own checkpoint** with seeded-jitter
  exponential backoff (:class:`~repro.service.supervisor.BackoffPolicy`
  — two identical runs compute identical delay schedules); a partition
  that exhausts ``max_partition_restarts`` is *disarmed* instead of
  flapping.

* **Router failover** — :class:`FailoverSensorStream` drives the
  router's per-partition :class:`~repro.service.netingest.SensorStream`
  through its public methods only.
  Lines routed to a down partition are retained in memory *and*
  persisted to a durable per-partition NDJSON **spool** (the
  dead-letter writer with schema ``botmeterd-spool-v1``), then replayed
  in order on reconnect.  Replay rides the partition's own welcome
  cursor and the stream's absolute line positions, so byte-identity of
  the final merge is preserved: a replayed line is exactly the line the
  unfailed cluster would have delivered, in the same position.

:func:`repro.service.cluster.cluster_serve` always runs its partitions
under the supervisor and failover streams, and publishes the exact
merge at a clean finish; a disarmed partition fails the serve with a
:class:`~repro.service.cluster.ClusterError`.  The seeded chaos drill
(``tests/harness/chaos.py``, ``make cluster-chaos``) kills and wedges
every partition and checks that the final merge loses nothing and that
spools and the restart ledger reconcile.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import IO, Any, Callable, Mapping, Sequence

from .cluster import ClusterError
from .daemon import BotMeterDaemon
from .deadletter import DeadLetterQueue
from .metrics import MetricsRegistry
from .netingest import RETRY_INTERVAL, NetIngestServer, SensorError, SensorStream
from .supervisor import BackoffPolicy

__all__ = [
    "HEARTBEAT_SCHEMA",
    "SPOOL_SCHEMA",
    "MESH_LEDGER_SCHEMA",
    "PartitionHealth",
    "HeartbeatWriter",
    "ClusterSupervisor",
    "FailoverSensorStream",
    "write_heartbeat",
    "read_heartbeat",
    "run_partition_server",
]

HEARTBEAT_SCHEMA = "botmeterd-heartbeat-v1"
SPOOL_SCHEMA = "botmeterd-spool-v1"
MESH_LEDGER_SCHEMA = "botmeterd-mesh-ledger-v1"

#: Partition health states (string-valued for JSON/ledger friendliness;
#: the metrics gauge exports the numeric rank).
HEALTHY = "healthy"
LAGGING = "lagging"
DOWN = "down"
DISARMED = "disarmed"

STATE_RANK = {HEALTHY: 0, LAGGING: 1, DOWN: 2, DISARMED: 3}

#: Seconds a reconnect attempt made from ``send_lines`` waits for the
#: welcome: a stopped partition accepts the connection but never answers.
GATED_WELCOME_TIMEOUT = 0.5


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------


def write_heartbeat(
    path: str | Path,
    *,
    pid: int,
    seq: int,
    watermark: float | None,
    cursor: int,
    records_consumed: int,
    checkpoint_age: float | None,
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """Atomically rotate one partition heartbeat file.

    ``mono`` is the system-wide monotonic clock (comparable across
    processes on Linux — the supervisor subtracts it from its own
    reading to get the heartbeat's age); ``wall`` is informational only
    and never feeds a decision.
    """
    path = Path(path)
    document = {
        "schema": HEARTBEAT_SCHEMA,
        "pid": int(pid),
        "seq": int(seq),
        "watermark": watermark,
        "cursor": int(cursor),
        "records_consumed": int(records_consumed),
        "checkpoint_age": checkpoint_age,
        "mono": clock(),
        "wall": time.time(),
    }
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(document, sort_keys=True))
        fh.flush()
    os.replace(tmp, path)


def read_heartbeat(path: str | Path) -> dict[str, Any] | None:
    """Parse a heartbeat file; ``None`` on missing/torn/foreign content
    (a heartbeat is advisory — a bad one reads as *no* heartbeat)."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or document.get("schema") != HEARTBEAT_SCHEMA:
        return None
    return document


class HeartbeatWriter(threading.Thread):
    """Daemon thread beating one partition's heartbeat file.

    Reads the live daemon's watermark / consumed counters without
    locking — heartbeats are advisory freshness signals, and a torn
    *value* (never a torn file: writes are atomic) only mis-ages one
    beat.  The checkpoint age rides
    :meth:`~repro.service.checkpoint.CheckpointStore.last_good_generation`,
    so the heartbeat and the lag detector share one staleness
    definition.
    """

    def __init__(
        self,
        daemon: Any,
        path: str | Path,
        interval: float = 0.25,
    ) -> None:
        super().__init__(name=f"heartbeat-{Path(path).name}", daemon=True)
        self._daemon = daemon
        self._path = Path(path)
        self._interval = max(0.01, float(interval))
        self._stop = threading.Event()
        self._seq = 0

    def beat_once(self) -> None:
        engine = getattr(self._daemon, "engine", None)
        store = getattr(self._daemon, "store", None)
        watermark = getattr(engine, "watermark", None) if engine is not None else None
        if watermark is not None and watermark == float("-inf"):
            watermark = None
        write_heartbeat(
            self._path,
            pid=os.getpid(),
            seq=self._seq,
            watermark=watermark,
            cursor=int(getattr(self._daemon, "records_consumed", 0) or 0),
            records_consumed=int(getattr(self._daemon, "records_consumed", 0) or 0),
            checkpoint_age=(
                store.last_good_generation() if store is not None else None
            ),
        )
        self._seq += 1

    def run(self) -> None:
        while not self._stop.is_set():
            try:
                self.beat_once()
            except OSError:
                pass  # a missed beat is a late heartbeat, not a crash
            self._stop.wait(self._interval)

    def stop(self) -> None:
        self._stop.set()


# ---------------------------------------------------------------------------
# Per-partition health machine
# ---------------------------------------------------------------------------


class PartitionHealth:
    """Four-state partition health driven by discrete supervision ticks.

    Each :meth:`tick` classifies one observation — ``fresh`` (heartbeat
    young, process alive), ``stale`` (heartbeat older than
    ``lag_after``), ``dead`` (process gone, or heartbeat older than
    ``down_after``) — and advances::

        healthy --stale--> lagging --dead--> down
        healthy --dead--------------------> down
        lagging/down --fresh x recover_ticks--> healthy
        any --disarm()--> disarmed   (absorbing)

    Recovery demands ``recover_ticks`` *consecutive* fresh observations
    (hysteresis: one lucky heartbeat after a wedge does not clear the
    state).  All timing is injected — ticks carry the heartbeat age, so
    tests drive boundaries without sleeping.
    """

    def __init__(
        self,
        *,
        lag_after: float = 5.0,
        down_after: float = 15.0,
        recover_ticks: int = 2,
    ) -> None:
        if not 0 < lag_after <= down_after:
            raise ValueError("need 0 < lag_after <= down_after")
        if recover_ticks < 1:
            raise ValueError("recover_ticks must be >= 1")
        self.lag_after = float(lag_after)
        self.down_after = float(down_after)
        self.recover_ticks = int(recover_ticks)
        self.state = HEALTHY
        self.ticks = 0
        self._fresh_streak = 0
        self.transitions: list[tuple[int, str, str]] = []

    def _transition(self, state: str) -> None:
        if state != self.state:
            self.transitions.append((self.ticks, self.state, state))
            self.state = state

    def classify(self, heartbeat_age: float | None, process_alive: bool) -> str:
        """One observation's sample: ``fresh`` / ``stale`` / ``dead``."""
        if not process_alive:
            return "dead"
        if heartbeat_age is None or heartbeat_age >= self.down_after:
            return "dead" if heartbeat_age is not None else "stale"
        if heartbeat_age >= self.lag_after:
            return "stale"
        return "fresh"

    def tick(self, heartbeat_age: float | None, process_alive: bool) -> str:
        """Advance one supervision tick; returns the new state."""
        self.ticks += 1
        if self.state == DISARMED:
            return self.state
        sample = self.classify(heartbeat_age, process_alive)
        if sample == "fresh":
            self._fresh_streak += 1
            if self.state != HEALTHY and self._fresh_streak >= self.recover_ticks:
                self._transition(HEALTHY)
        else:
            self._fresh_streak = 0
            if sample == "dead":
                self._transition(DOWN)
            elif self.state == HEALTHY:
                self._transition(LAGGING)
        return self.state

    def disarm(self) -> None:
        """Hard-fault latch: the restart budget ran out."""
        self.ticks += 1
        self._transition(DISARMED)


# ---------------------------------------------------------------------------
# The partition server process
# ---------------------------------------------------------------------------


def run_partition_server(config: Mapping[str, Any]) -> int:
    """One supervised partition: daemon + UDS ingest server + heartbeat.

    The config is all primitives (it crosses a process boundary).  The
    daemon checkpoints to a *stable* per-partition path, so a restarted
    attempt resumes exactly where the killed one was durable; the
    ingest server unlinks and rebinds the same socket path, so the
    router's failover stream reconnects to a constant address.
    """
    log = open(os.devnull, "w")
    heartbeat: HeartbeatWriter | None = None
    try:
        daemon = BotMeterDaemon(
            config["input"],
            out_path=config["out"],
            checkpoint_path=config["checkpoint"],
            estimator=config.get("estimator", "auto"),
            grace=config.get("grace", 900.0),
            reorder_capacity=config.get("reorder_capacity", 1024),
            checkpoint_every=config.get("checkpoint_every", 500),
            batch_lines=config.get("batch_lines", 256),
            trace_out=config.get("trace_out"),
            trace_sample=config.get("trace_sample", 0),
            log_stream=log,
        )
        server = NetIngestServer(daemon, uds=config["uds"], expect_sensors=1)
        heartbeat = HeartbeatWriter(
            daemon,
            config["heartbeat"],
            interval=config.get("heartbeat_interval", 0.25),
        )
        heartbeat.start()
        return server.serve()
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        log.close()


# ---------------------------------------------------------------------------
# The cluster supervisor
# ---------------------------------------------------------------------------


class _Partition:
    """Supervisor-side handle for one partition process."""

    def __init__(self, index: int, config: dict[str, Any], health: PartitionHealth):
        self.index = index
        self.label = f"p{index:02d}"
        self.config = config
        self.health = health
        self.proc: Any = None
        self.restarts = 0


class ClusterSupervisor:
    """Own N partition server processes; watch, restart, disarm.

    Generalizes the single-daemon :class:`~repro.service.supervisor.
    Supervisor` to the cluster: one seeded :class:`BackoffPolicy` is
    shared across partitions (so the *sequence* of restart delays is a
    pure function of the seed and the fault order), each partition
    restarts from its own checkpoint, and a partition that exhausts
    ``max_partition_restarts`` is disarmed rather than retried forever.
    Every restart appends a ledger entry ``{partition, attempt, delay,
    reason}`` — deliberately wall-clock-free, so two runs under the
    same fault schedule produce byte-identical ledgers.

    ``sleep`` is the backoff injection point (drills pass a no-op; the
    computed delay is still recorded).
    """

    def __init__(
        self,
        workdir: str | Path,
        partitions: int,
        *,
        estimator: Any = "auto",
        grace: float = 900.0,
        reorder_capacity: int = 1024,
        batch_lines: int = 256,
        checkpoint_every: int = 500,
        trace_sample: int = 0,
        max_partition_restarts: int = 3,
        backoff: BackoffPolicy | None = None,
        heartbeat_interval: float = 0.25,
        lag_after: float = 5.0,
        down_after: float = 15.0,
        sleep: Callable[[float], None] = time.sleep,
        log_stream: IO[str] | None = None,
    ) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        n = int(partitions)
        if n < 1:
            raise ClusterError(f"cannot supervise {n} partitions")
        self.max_partition_restarts = int(max_partition_restarts)
        self.heartbeat_interval = heartbeat_interval
        self._backoff = backoff if backoff is not None else BackoffPolicy(base=0.2, cap=5.0)
        self._sleep = sleep
        self._log = log_stream if log_stream is not None else sys.stderr
        self.metrics = MetricsRegistry()
        self._g_health = self.metrics.gauge(
            "botmeterd_mesh_partition_health",
            "Partition health: 0 healthy, 1 lagging, 2 down, 3 disarmed.",
        )
        self._c_restarts = self.metrics.counter(
            "botmeterd_mesh_restarts_total",
            "Supervised partition restarts, labelled by reason.",
        )
        #: Deterministic restart ledger (no wall-clock fields).
        self.ledger: list[dict[str, Any]] = []
        method = "fork" if "fork" in get_all_start_methods() else "spawn"
        self._ctx = get_context(method)
        self.partitions: list[_Partition] = []
        for i in range(n):
            config = {
                "input": f"mesh:p{i:02d}",
                "out": str(self.workdir / f"p{i:02d}.out.ndjson"),
                "checkpoint": str(self.workdir / f"p{i:02d}.ck.json"),
                "uds": str(self.workdir / f"p{i:02d}.sock"),
                "heartbeat": str(self.workdir / f"p{i:02d}.hb.json"),
                "estimator": estimator,
                "grace": grace,
                "reorder_capacity": reorder_capacity,
                "batch_lines": batch_lines,
                "checkpoint_every": checkpoint_every,
                "trace_sample": trace_sample,
                "trace_out": (
                    str(self.workdir / f"p{i:02d}.trace.ndjson")
                    if trace_sample > 0
                    else None
                ),
                "heartbeat_interval": heartbeat_interval,
            }
            health = PartitionHealth(lag_after=lag_after, down_after=down_after)
            self.partitions.append(_Partition(i, config, health))

    # -- lifecycle -----------------------------------------------------------

    def _log_event(self, event: str, **fields: Any) -> None:
        print(
            json.dumps({"event": event, **fields}, sort_keys=True),
            file=self._log,
            flush=True,
        )

    def _spawn(self, part: _Partition) -> None:
        proc = self._ctx.Process(
            target=run_partition_server,
            args=(dict(part.config),),
            name=f"botmeterd-mesh-{part.label}",
        )
        proc.start()
        part.proc = proc

    def start(self) -> None:
        for part in self.partitions:
            self._spawn(part)

    def socket_path(self, index: int) -> str:
        return self.partitions[index].config["uds"]

    def wait_ready(self, timeout: float = 30.0, index: int | None = None) -> None:
        """Block until the partition ingest socket(s) are bound."""
        targets = (
            [self.partitions[index]] if index is not None else list(self.partitions)
        )
        deadline = time.monotonic() + timeout
        for part in targets:
            while not os.path.exists(part.config["uds"]):
                if part.proc is not None and part.proc.exitcode not in (None, 0):
                    raise ClusterError(
                        f"partition {part.label} exited with "
                        f"{part.proc.exitcode} before binding its socket"
                    )
                if time.monotonic() >= deadline:
                    raise ClusterError(
                        f"partition {part.label} never bound {part.config['uds']}"
                    )
                time.sleep(0.01)

    # -- supervision ---------------------------------------------------------

    def poll(self) -> dict[str, str]:
        """One supervision tick over every partition.

        Reads heartbeats, ticks each health machine, restarts partitions
        that are dead (process exited) or wedged (heartbeat past
        ``down_after`` while the process lives — those are killed
        first), and disarms past the restart budget.  Returns the
        post-tick state map.
        """
        now = time.monotonic()
        states: dict[str, str] = {}
        for part in self.partitions:
            alive = part.proc is not None and part.proc.is_alive()
            heartbeat = read_heartbeat(part.config["heartbeat"])
            age = (
                now - float(heartbeat["mono"])
                if heartbeat is not None and "mono" in heartbeat
                else None
            )
            state = part.health.state
            # A clean zero exit is a quiesce (the partition finished its
            # stream), never a fault: restarting it would race the
            # router's own shutdown.
            if alive or part.proc is None or part.proc.exitcode != 0:
                sample = part.health.classify(age, alive)
                state = part.health.tick(age, alive)
                # Restart on the *observation*, not the state: a restarted
                # partition stays DOWN until its recovery streak completes,
                # and killing it again for that would be a flap loop.
                if state != DISARMED and (
                    not alive or (sample == "dead" and age is not None)
                ):
                    self._restart(part, "exit" if not alive else "stale")
                    state = part.health.state
            states[part.label] = state
            self._g_health.set(STATE_RANK[state], partition=part.label)
        return states

    def _restart(self, part: _Partition, reason: str) -> None:
        part.restarts += 1
        self._c_restarts.inc(reason=reason)
        if part.restarts > self.max_partition_restarts:
            part.health.disarm()
            self.ledger.append(
                {
                    "partition": part.index,
                    "attempt": part.restarts,
                    "reason": reason,
                    "disarmed": True,
                }
            )
            self._log_event(
                "mesh_partition_disarmed", partition=part.label, reason=reason
            )
            return
        if part.proc is not None and part.proc.is_alive():
            # Wedged, not dead: put it down before bringing it back.
            os.kill(part.proc.pid, signal.SIGKILL)
            part.proc.join(timeout=10)
        delay = self._backoff.delay(part.restarts - 1)
        self.ledger.append(
            {
                "partition": part.index,
                "attempt": part.restarts,
                "delay": round(delay, 6),
                "reason": reason,
            }
        )
        self._log_event(
            "mesh_partition_restart",
            partition=part.label,
            attempt=part.restarts,
            delay=round(delay, 6),
            reason=reason,
        )
        self._sleep(delay)
        self._spawn(part)

    def wait(self, timeout: float = 60.0) -> list[int | None]:
        """Join every partition process; returns their exit codes."""
        codes: list[int | None] = []
        for part in self.partitions:
            if part.proc is not None:
                part.proc.join(timeout=timeout)
                codes.append(part.proc.exitcode)
            else:
                codes.append(None)
        return codes

    def stop(self) -> None:
        """Hard-stop every still-running partition (teardown path)."""
        for part in self.partitions:
            proc = part.proc
            if proc is not None and proc.is_alive():
                # A SIGSTOPped process is "alive"; SIGKILL takes both.
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except (OSError, TypeError):
                    pass
                proc.join(timeout=10)


# ---------------------------------------------------------------------------
# Router failover stream
# ---------------------------------------------------------------------------


class FailoverSensorStream:
    """A router-to-partition stream that survives its backend dying.

    Drives one :class:`~repro.service.netingest.SensorStream`, through
    its public methods only, with three behaviours:

    * **Retained window.**  Every routed line is retained until an ack
      proves it durable — the replay source for reconnects.  Each
      routed batch joins the window, then goes to the stream in one
      call.
    * **Durable spool.**  On failover (``force_down``, or a send that
      raises) the retained window is dumped to a per-partition NDJSON
      spool (reason ``failover``) and every subsequent line routed here
      while down is appended (reason ``spooled``) — an append-only
      audit that survives a router crash and reconciles exactly against
      the drill's expected outage lines.
    * **Ordered replay.**  On reconnect the stream's cursor says where
      the partition resumes (its welcome cursor); the retained window
      re-offers from there, so absolute positions line up and the
      merged landscape stays byte-identical.

    Reconnects while down are gated by a seeded-backoff clock.
    ``sync``/``finish`` block on reconnection — they are the barriers
    that must not complete while lines are only spooled.
    """

    def __init__(
        self,
        address: Any,
        sensor: str,
        *,
        spool_path: str | Path,
        metrics: MetricsRegistry | None = None,
        tracer: Any = None,
        retry_deadline: float = 30.0,
    ) -> None:
        self.sensor = sensor
        self._inner = SensorStream(address, sensor)
        self.spool = DeadLetterQueue(spool_path, schema=SPOOL_SCHEMA)
        self.retry_deadline = retry_deadline
        self._backoff = BackoffPolicy(base=0.05, cap=2.0)
        self._next_attempt = 0.0
        self._attempts = 0
        self.tracer = tracer
        #: Absolute lines offered (== the partition's replay cursor).
        self.cursor = 0
        self.failovers = 0
        self.spooled = 0
        self.replayed = 0
        #: The retained window: the last ``len(_pending)`` lines offered.
        self._pending: list[bytes] = []
        self._spool_backlog = 0
        self._finished = False
        registry = metrics if metrics is not None else MetricsRegistry()
        self._g_depth = registry.gauge(
            "botmeterd_mesh_spool_depth",
            "Lines spooled for a down partition and not yet replayed.",
        )
        self._c_failovers = registry.counter(
            "botmeterd_mesh_failovers_total",
            "Partition stream failovers (backend marked down).",
        )
        self._c_spooled = registry.counter(
            "botmeterd_mesh_spooled_lines_total",
            "Lines persisted to a partition failover spool.",
        )
        self._c_replayed = registry.counter(
            "botmeterd_mesh_replayed_lines_total",
            "Spooled/retained lines replayed to a recovered partition.",
        )

    # -- state ---------------------------------------------------------------

    @property
    def acked(self) -> int:
        return self._inner.acked

    @property
    def down(self) -> bool:
        return not self._inner.connected

    def _trim(self) -> None:
        """Drop the retained lines the partition acked durable (never
        past the stream's cursor: a reconnect re-offers from there)."""
        frontier = min(self._inner.acked, self._inner.cursor)
        drop = frontier - (self.cursor - len(self._pending))
        if drop > 0:
            del self._pending[:drop]

    def _spool_line(self, seq: int, line: bytes, reason: str) -> None:
        self.spool.quarantine(
            reason, cursor=seq, line=line.decode("utf-8", "replace")
        )
        self.spooled += 1
        self._spool_backlog += 1
        self._c_spooled.inc(partition=self.sensor)
        self._g_depth.set(self._spool_backlog, partition=self.sensor)

    def force_down(self, reason: str = "forced") -> None:
        """Mark the backend down *now* (drills call this right after the
        kill, so no send ever races a dying socket)."""
        if self.down:
            return
        self.failovers += 1
        self._next_attempt = time.monotonic() + self._backoff.delay(0)
        self._c_failovers.inc(partition=self.sensor)
        t0 = self.tracer.start("failover") if self.tracer is not None else 0
        # The retained (sent-but-unacked) window goes to the spool first:
        # if the router itself dies while this partition is down, the
        # spool alone reconstructs everything undelivered.
        first = self.cursor - len(self._pending)
        for seq, line in enumerate(self._pending, first + 1):
            self._spool_line(seq, line, "failover")
        self._inner.close()
        if t0:
            self.tracer.stop(
                "failover", t0, records=len(self._pending), sensor=self.sensor
            )

    # -- connection management ----------------------------------------------

    def connect(self, timeout: float | None = None) -> int:
        """Connect and replay the retained window; returns the welcome
        (resume) cursor.  ``timeout`` bounds the wait for the welcome."""
        inner = self._inner
        start = inner.connect(timeout=timeout)
        self._trim()
        # The welcome cursor is the backend's released state: re-offer
        # the retained window from where the stream resumes.
        index = inner.cursor - (self.cursor - len(self._pending))
        try:
            if index < 0:
                raise SensorError(
                    f"stream {self.sensor!r}: partition resumed at {start}, "
                    "below the retained window"
                )
            if index < len(self._pending):
                t0 = self.tracer.start("replay") if self.tracer is not None else 0
                sent = inner.sent
                inner.send_lines(self._pending[index:])
                replayed = inner.sent - sent
                self.replayed += replayed
                self._c_replayed.inc(replayed, partition=self.sensor)
                if t0:
                    self.tracer.stop("replay", t0, records=replayed, sensor=self.sensor)
        except BaseException:
            inner.close()
            raise
        self._attempts = 0
        self._spool_backlog = 0
        self._g_depth.set(0, partition=self.sensor)
        self._trim()
        return start

    def reconnect(self, timeout: float | None = None) -> None:
        """Blocking reconnect-and-replay (drills call this once the
        backend is restarted)."""
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.retry_deadline
        )
        while True:
            try:
                self.connect(max(deadline - time.monotonic(), RETRY_INTERVAL))
                return
            except (OSError, SensorError) as exc:
                if time.monotonic() >= deadline:
                    raise SensorError(
                        f"stream {self.sensor!r} could not reconnect: {exc}"
                    ) from exc
                time.sleep(RETRY_INTERVAL)

    # -- the SensorStream surface --------------------------------------------

    def send_lines(self, lines: Sequence[bytes]) -> None:
        """Route a batch of payload lines (bytes) to the partition."""
        if self._finished:
            raise SensorError(f"stream {self.sensor!r} is finished")
        if self.down and time.monotonic() >= self._next_attempt:
            # Gated reconnect attempt, with a short welcome wait: a
            # wedged partition must not stall the router.
            try:
                self.connect(GATED_WELCOME_TIMEOUT)
            except (OSError, SensorError):
                self._attempts += 1
                self._next_attempt = time.monotonic() + self._backoff.delay(
                    self._attempts
                )
        first = self.cursor
        self.cursor += len(lines)
        self._pending.extend(lines)
        if self.down:
            for seq, line in enumerate(lines, first + 1):
                self._spool_line(seq, line, "spooled")
            return
        try:
            self._inner.send_lines(lines)
        except (OSError, SensorError):
            # The batch is already retained: failing over spools it with
            # the rest of the window.
            self.force_down("send failed")
            return
        self._trim()

    def sync(self, timeout: float | None = None) -> int:
        """Durability barrier across failover: block until connected,
        then until every offered line is acked durable."""
        if self.down:
            self.reconnect(timeout)
        try:
            self._inner.sync(timeout)
        except OSError as exc:
            self.force_down(f"sync failed: {exc}")
            raise SensorError(
                f"stream {self.sensor!r}: backend died inside a sync barrier"
            ) from exc
        self._trim()
        return self.acked

    def finish(self, timeout: float | None = None) -> int:
        if self._finished:
            return self.acked
        if self.down:
            self.reconnect(timeout)
        self._inner.finish()
        self._trim()
        self._finished = True
        self.spool.close()
        return self.acked

    def close(self) -> None:
        self._inner.close()
        self.spool.close()
