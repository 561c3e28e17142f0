"""Sensornet: the botmeterd concurrent socket ingest tier.

Real deployments do not hand the daemon one pre-merged trace file — K
vantage-point *sensors* stream their shards concurrently over TCP (or a
Unix-domain socket for same-host collectors).  This module adds that
tier without giving up one bit of the repo's determinism story: a
multi-connection replay of a sharded trace is **byte-identical** to the
concatenated-file replay, line-at-a-time or batched, tracing on or off,
and across a SIGKILL + reconnect-resume.

Wire protocol (``botmeter-netingest-v1``)
-----------------------------------------

One NDJSON line per message, newline-framed, over a stream socket.
Control lines use ``type`` values disjoint from the payload wire format
(:mod:`repro.service.wire`); everything that is not a control line is a
payload line forwarded verbatim — header lines, lookup records, and
whatever garbage the sensor's collector produced (the daemon's corrupt
budget and dead-letter queue see it exactly as a file replay would).

Client -> server::

    {"v": 1, "type": "hello", "schema": ..., "sensor": ID[, "cursor": M]}
    ... payload lines, byte-for-byte the sensor's shard ...
    {"v": 1, "type": "sync"}                                 # durability barrier
    {"v": 1, "type": "fin"}

Server -> client::

    {"v": 1, "type": "welcome", "sensor": ID, "cursor": C}   # reply to hello
    {"v": 1, "type": "ack", "cursor": C}                     # after each checkpoint
    {"v": 1, "type": "bye", "cursor": C}                     # stream finalized
    {"v": 1, "type": "error", "reason": ...}                 # protocol violation

Cursor semantics
----------------

The per-sensor **cursor** counts payload lines *released into the
pipeline*, in order.  ``welcome.cursor`` is the server's live cursor —
the exact line index the sensor should resume from on this connection.
``ack.cursor`` is only sent right after a checkpoint, so an acked cursor
is **durable**: a sensor that reconnects with ``hello.cursor = last
ack`` after a server SIGKILL never creates a gap, and any overlap it
resends is discarded by the server *before* it reaches the wire reader
(no double-counted records, no double quarantine).  A ``hello.cursor``
ahead of the server's durable cursor is a gap — the server answers
``error`` and drops the connection rather than chart a hole.

``sync`` is an explicit durability barrier: the server checkpoints as
soon as every payload line received before the sync has been released
and consumed, then acks — so a client that waits for ``ack.cursor`` to
reach its own send cursor knows its lines are durable *now*, without
waiting out the checkpoint cadence.  The cluster failover tier
(:mod:`repro.service.meshguard`) syncs a partition before deliberately
failing it over, which is what makes chaos-drill spool contents
deterministic.  Only meaningful on single-sensor backends (a gated
multi-sensor merge may hold lines back, and the ack would report the
released cursor, not the sent one).

Determinism
-----------

Released lines reach the daemon through a K-way merge on the trace
order ``(timestamp, server, domain)``, sensor id breaking ties, gated
until ``expect_sensors`` sensors have said hello: release the smallest
key over the sensors' next buffered records, and stop once an
unfinished sensor has none.  That is a stable order by (running maximum
of the sensor's buffered keys, sensor id), which :class:`SensorMux`
applies to a whole pump at once; for sorted shards it is the single
sorted concatenation, whatever the socket interleaving or chunking.
Non-record lines (header, blank, corrupt) ride with the sensor's *next*
record; a trailing run follows its last record after ``fin``.

Backpressure and loss
---------------------

Each sensor buffers at most ``window`` payload lines server-side.  At
the cap the server *pauses reads* on that connection (unregisters it
from the selector — the kernel socket buffer fills and TCP pushes back)
and resumes below ``window // 2``.  A sensor whose buffer is empty is
never paused, so the merge can always make progress.  On any
disconnect, buffered-but-unreleased lines are dropped — they were never
durable, and the sensor resends them from its resume cursor; a partial
trailing line is likewise dropped (counted as a partial reset), so a
mid-record TCP reset can never charge the corrupt budget.

Senders
-------

:class:`SensorStream` is the only code that opens a sensor socket and
speaks the protocol: hello/welcome, one sliced send path, ack tracking,
``sync`` and ``fin``.  :class:`SensorClient` (``repro sensor-send``) is
a whole-shard retry policy over one stream, and the cluster router's
``FailoverSensorStream`` (:mod:`repro.service.meshguard`) adds a
retained window and a spool around one; both use only its public
methods.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..dns.message import ForwardedLookup
from .daemon import READ_SIZE, BotMeterDaemon
from .lookups import LookupBatch
from .wire import Unit, lookup_key, parse_line, split_header, split_lines
from .wire2 import sniff_wire2, wire2_to_ndjson_lines

__all__ = [
    "NET_SCHEMA",
    "CONTROL_TYPES",
    "ProtocolError",
    "SensorError",
    "SensorMux",
    "NetIngestServer",
    "SensorClient",
    "SensorReport",
    "SensorStream",
    "parse_address",
    "read_address_file",
    "write_address_file",
    "shard_trace_lines",
]

NET_SCHEMA = "botmeter-netingest-v1"

#: Message types owned by the ingest protocol.  Disjoint from the
#: payload wire format's ``header``/``lookup`` so a control line can
#: never be mistaken for data (or vice versa).
CONTROL_TYPES = frozenset({"hello", "fin", "sync"})

#: Server selector timeout between housekeeping passes (seconds); each
#: ``recv`` takes up to the daemon's ``READ_SIZE`` into a socket buffer
#: of four.
POLL_INTERVAL = 0.05


class ProtocolError(ValueError):
    """A sensor violated botmeter-netingest-v1; the connection drops."""


class SensorError(RuntimeError):
    """The sensor client gave up (protocol error or retry deadline)."""


def _control_line(message: Mapping[str, Any]) -> bytes:
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _pop_message(buf: bytearray) -> dict[str, Any] | None:
    """Take the next whole server message out of ``buf``, if any."""
    while (newline := buf.find(b"\n")) >= 0:
        line = bytes(buf[:newline])
        del buf[: newline + 1]
        if line.strip():
            message = json.loads(line)
            if not isinstance(message, dict):
                raise SensorError(f"malformed server message: {line!r}")
            return message
    return None


class _Run:
    """A sensor's pending records that arrived together (canonical lines,
    or one other line with a merge key), the first one's line index, and
    the non-record lines (``riders``) that leave just before it."""

    __slots__ = ("batch", "lines", "seq", "riders", "canonical", "top")

    def __init__(
        self, batch: LookupBatch, lines: Sequence[bytes], seq: int, canonical: bool
    ) -> None:
        self.batch = batch
        self.lines = lines
        self.seq = seq
        self.riders: list[bytes] = []
        self.canonical = canonical
        self.top = batch.max_key()


class _Sensor:
    __slots__ = (
        "name",
        "cursor",
        "recv_seq",
        "runs",
        "stash",
        "finished",
        "conn",
    )

    def __init__(self, name: str, cursor: int = 0) -> None:
        self.name = name
        #: Payload lines released into the pipeline (the resume point).
        self.cursor = cursor
        #: Index the *next* incoming payload line will occupy.
        self.recv_seq = cursor
        self.runs: deque[_Run] = deque()
        #: Non-record lines since the last record (they follow the
        #: cursor once every record is released).
        self.stash: list[bytes] = []
        self.finished = False
        #: Connection id currently bound to this sensor (one at a time).
        self.conn: int | None = None

    def add(self, run: _Run) -> None:
        run.riders, self.stash = self.stash, []
        self.runs.append(run)


class _MuxConn:
    __slots__ = ("id", "tail", "sensor")

    def __init__(self, conn_id: int) -> None:
        self.id = conn_id
        self.tail = b""
        self.sensor: str | None = None


class SensorMux:
    """Transport-independent core of the ingest tier.

    Frames NDJSON lines out of per-connection byte chunks, speaks the
    hello/fin control handshake, enforces per-sensor cursors (duplicate
    discard, gap rejection), and releases payload lines through the
    deterministic K-way merge.  The socket server drives it with
    ``attach``/``feed``/``detach``; tests and the hypothesis property
    drive it directly, with no sockets anywhere near the determinism
    argument.

    Chunks are split by :func:`~repro.service.wire.split_lines`; only
    non-canonical lines are parsed (control check, merge key).

    Args:
        consume: ``(units) -> None`` — release payload lines into the
            pipeline, in merge order, as split units: a canonical run as
            ``(batch, raw lines)``, any other line as its raw bytes.
            Called once per pump that releases anything.
        control: ``(conn_id, message) -> None`` — send one control
            message to a connection (welcome/error routing).
        expect_sensors: gate the merge until this many distinct sensors
            have said hello (``None`` = start merging immediately).
        window: max payload lines buffered per sensor before the caller
            should pause reads (see :meth:`pending_lines_of`).
        tracer: optional StageTracer; each ``feed`` is a ``frame`` span.
    """

    def __init__(
        self,
        consume: Callable[[list[Unit]], None],
        control: Callable[[int, dict[str, Any]], None],
        expect_sensors: int | None = None,
        window: int = 4096,
        tracer: Any = None,
    ) -> None:
        self._consume = consume
        self._control = control
        self._expect = expect_sensors if expect_sensors is None else int(expect_sensors)
        self.window = max(1, int(window))
        #: Protocol cap on a single unframed line's bytes.
        self.max_line = 1 << 20
        self.tracer = tracer
        self._sensors: dict[str, _Sensor] = {}
        self._conns: dict[int, _MuxConn] = {}
        self.lines_released = 0
        self.duplicates = 0
        self.partial_resets = 0
        #: Connections with a pending durability barrier.  The server
        #: drains these *after* the feed's pump ran, so every payload
        #: line that preceded the sync on the wire is already released.
        self._sync_requests: list[int] = []

    # -- connection lifecycle ------------------------------------------------

    def attach(self, conn_id: int) -> None:
        """A connection opened; its first line must be a hello."""
        if conn_id in self._conns:
            raise ValueError(f"connection {conn_id} already attached")
        self._conns[conn_id] = _MuxConn(conn_id)

    def detach(self, conn_id: int) -> None:
        """A connection closed (cleanly or not).

        Buffered-but-unreleased lines were never durable: drop them and
        rewind ``recv_seq`` to the cursor, so the sensor's resend lands
        on exactly the right index.  A partial trailing line is dropped
        too (counted) — it can never reach the wire reader, so a
        mid-record TCP reset never charges the corrupt budget.
        """
        conn = self._conns.pop(conn_id, None)
        if conn is None:
            return
        if conn.tail:
            self.partial_resets += 1
        if conn.sensor is not None:
            sensor = self._sensors[conn.sensor]
            sensor.conn = None
            if not sensor.finished:
                sensor.runs.clear()
                sensor.stash = []
                sensor.recv_seq = sensor.cursor
        self._pump()

    def feed(self, conn_id: int, chunk: bytes) -> None:
        """Process one received chunk; raises :class:`ProtocolError` on
        a violation (the caller should error out the connection)."""
        conn = self._conns[conn_id]
        data = conn.tail + chunk
        end = data.rfind(b"\n")
        conn.tail = data[end + 1 :]
        if len(conn.tail) > self.max_line:
            raise ProtocolError(
                f"unframed line exceeds {self.max_line} bytes"
            )
        tracer = self.tracer
        t0 = tracer.start("frame") if tracer is not None else 0
        for unit in split_lines(data, end) if end >= 0 else ():
            if isinstance(unit, bytes):
                self._line(conn, unit)
                continue
            batch, lines = unit
            sensor, seq, fresh = self._payload(conn, len(lines))
            if fresh:
                if fresh < len(lines):
                    batch, lines = batch.slice(-fresh), lines[-fresh:]
                sensor.add(_Run(batch, lines, seq, True))
        if t0:
            tracer.stop("frame", t0, records=data.count(b"\n", 0, end + 1))
        self._pump()

    def finish_line(self, conn_id: int) -> None:
        """Treat a clean EOF's missing final newline as a frame end."""
        conn = self._conns.get(conn_id)
        if conn is not None and conn.tail:
            self.feed(conn_id, b"\n")

    # -- line classification -------------------------------------------------

    def _line(self, conn: _MuxConn, raw: bytes) -> None:
        data = parse_line(raw)
        if isinstance(data, dict) and data.get("type") in CONTROL_TYPES:
            kind = data["type"]
            if kind == "hello":
                self._hello(conn, data)
            elif kind == "sync":
                self._sync(conn)
            else:
                self._fin(conn)
            return
        sensor, seq, fresh = self._payload(conn, 1)
        if not fresh:
            return
        key = lookup_key(data)
        if key is None:
            sensor.stash.append(raw)
        else:
            batch = LookupBatch.from_records([ForwardedLookup(*key)])
            sensor.add(_Run(batch, [raw], seq, False))

    def _payload(self, conn: _MuxConn, n: int) -> tuple[_Sensor, int, int]:
        """Charge ``n`` payload lines to the connection's sensor; returns
        it, and the index and count of the lines past the resume overlap."""
        if conn.sensor is None:
            raise ProtocolError("first line must be a hello")
        sensor = self._sensors[conn.sensor]
        seq = sensor.recv_seq
        sensor.recv_seq += n
        # Resume overlap: already released (and possibly already
        # durable).  Discard before the wire reader ever sees it.
        overlap = min(n, max(0, sensor.cursor - seq))
        self.duplicates += overlap
        return sensor, seq + overlap, n - overlap

    def _hello(self, conn: _MuxConn, data: Mapping[str, Any]) -> None:
        if conn.sensor is not None:
            raise ProtocolError("duplicate hello on one connection")
        name = data.get("sensor")
        if not isinstance(name, str) or not name:
            raise ProtocolError("hello carries no sensor id")
        schema = data.get("schema", NET_SCHEMA)
        if schema != NET_SCHEMA:
            raise ProtocolError(f"foreign schema {schema!r}")
        # Wire negotiation: the protocol is line-framed, so binary v2
        # frames cannot ride it; the server negotiates DOWN to "ndjson"
        # and pins that in the welcome, and refuses an offer without it.
        offered = data.get("wire", ["ndjson"])
        if isinstance(offered, str):
            offered = [offered]
        if not isinstance(offered, list) or "ndjson" not in offered:
            raise ProtocolError(f"no common wire format in offer {offered!r}")
        sensor = self._sensors.get(name)
        if sensor is None:
            sensor = self._sensors[name] = _Sensor(name)
        if sensor.conn is not None:
            raise ProtocolError(f"sensor {name!r} is already connected")
        base = data.get("cursor", sensor.cursor)
        if isinstance(base, bool) or not isinstance(base, int):
            raise ProtocolError("hello cursor must be an integer")
        if base < 0 or base > sensor.cursor:
            raise ProtocolError(
                f"cursor gap: sensor {name!r} resumes at {base}, "
                f"durable cursor is {sensor.cursor}"
            )
        sensor.recv_seq = base
        # A returning sensor (even one that already finned) owes a new
        # fin before the stream can finalize again.
        sensor.finished = False
        sensor.conn = conn.id
        conn.sensor = name
        self._control(
            conn.id,
            {
                "v": 1,
                "type": "welcome",
                "schema": NET_SCHEMA,
                "sensor": name,
                "cursor": sensor.cursor,
                "wire": "ndjson",
            },
        )

    def _sync(self, conn: _MuxConn) -> None:
        if conn.sensor is None:
            raise ProtocolError("sync before hello")
        self._sync_requests.append(conn.id)

    def take_sync_requests(self) -> list[int]:
        """Pop the pending sync barriers (server-side drain)."""
        requests, self._sync_requests = self._sync_requests, []
        return requests

    def _fin(self, conn: _MuxConn) -> None:
        if conn.sensor is None:
            raise ProtocolError("fin before hello")
        # A trailing stash has no next record to ride on: it leaves
        # right after the sensor's last record.
        self._sensors[conn.sensor].finished = True

    # -- the deterministic merge ---------------------------------------------

    def _merge_open(self) -> bool:
        return self._expect is None or len(self._sensors) >= self._expect

    def _pump(self) -> None:
        released: list[Unit] = []
        for sensor in self._sensors.values():
            if sensor.finished and not sensor.runs and sensor.stash:
                released.extend(self._release_stash(sensor))
        if self._merge_open():
            self._merge(released)
        if released:
            self._consume(released)

    def _release_stash(self, sensor: _Sensor) -> list[bytes]:
        stash, sensor.stash = sensor.stash, []
        sensor.cursor += len(stash)
        self.lines_released += len(stash)
        return stash

    def _merge(self, out: list[Unit]) -> None:
        """Release at once what the head-of-queue merge would: a stable
        order by (running maximum of the sensor's pending keys, sensor
        name), up to the frontier, the smallest (largest pending key,
        name) over the unfinished sensors (module docstring)."""
        sensors = self._sensors.values()
        if any(not sensor.runs and not sensor.finished for sensor in sensors):
            return  # that sensor's next record could still come first
        sensors = sorted((s for s in sensors if s.runs), key=attrgetter("name"))
        frontier = min(
            (
                (max(run.top for run in sensor.runs), sensor.name)
                for sensor in sensors
                if not sensor.finished
            ),
            default=None,
        )
        parts: list[LookupBatch] = []
        lines: list[bytes] = []
        before: dict[int, list[bytes]] = {}
        after: dict[int, list[bytes]] = {}
        other: set[int] = set()
        bounds = [0]
        for sensor in sensors:
            self._take(sensor, frontier, parts, lines, before, other)
            tail = sensor.finished and not sensor.runs and sensor.stash
            if tail and len(lines) > bounds[-1]:
                after[len(lines) - 1] = self._release_stash(sensor)
            bounds.append(len(lines))
        if not lines:
            return
        keys = LookupBatch.concat(parts)
        rank = keys.key_ranks()
        peak = np.concatenate(
            [np.maximum.accumulate(rank[a:b]) for a, b in zip(bounds, bounds[1:])]
        )
        order = np.lexsort((np.repeat(np.arange(len(sensors)), np.diff(bounds)), peak))
        # Cut the released order into canonical stretches at the records
        # with raw lines: riders before, a trailing stash after, or the
        # record itself when it is not canonical.
        marks = np.zeros(len(lines), dtype=bool)
        marks[list(before.keys() | after.keys() | other)] = True
        p = 0
        for q in np.flatnonzero(marks[order]).tolist():
            g = int(order[q])
            out.extend(_stretch(keys, lines, order[p:q]))
            out.extend(before.get(g, ()))
            p = q
            if g in other:
                out.append(lines[g])
                p = q + 1
            if g in after:
                out.extend(_stretch(keys, lines, order[p : q + 1]))
                out.extend(after[g])
                p = q + 1
        out.extend(_stretch(keys, lines, order[p:]))

    def _take(
        self,
        sensor: _Sensor,
        frontier: tuple[Any, str] | None,
        parts: list[LookupBatch],
        lines: list[bytes],
        before: dict[int, list[bytes]],
        other: set[int],
    ) -> None:
        """Pop the sensor's records up to the frontier (all without one)
        onto ``parts`` and ``lines``, noting riders and non-canonical
        records by their index in ``lines``."""
        inclusive = frontier is None or sensor.name <= frontier[1]
        released = 0
        while sensor.runs:
            run = sensor.runs[0]
            size = take = len(run.lines)
            if frontier is not None and not (
                run.top < frontier[0] or (inclusive and run.top == frontier[0])
            ):
                take = run.batch.count_below(frontier[0], inclusive)
                if not take:
                    break
            if run.riders:
                before[len(lines)] = run.riders
                released += len(run.riders)
            if not run.canonical:
                other.add(len(lines))
            sensor.cursor = run.seq + take
            released += take
            if take == size:
                sensor.runs.popleft()
                parts.append(run.batch)
                lines.extend(run.lines)
                continue
            parts.append(run.batch.slice(0, take))
            lines.extend(run.lines[:take])
            run.batch, run.lines = run.batch.slice(take), run.lines[take:]
            run.seq += take
            run.riders = []
            break
        self.lines_released += released

    # -- introspection for the server ----------------------------------------

    @property
    def finished(self) -> bool:
        """Every expected sensor has said hello, finned, and drained."""
        if self._expect is not None and len(self._sensors) < self._expect:
            return False
        if not self._sensors:
            return False
        return all(
            sensor.finished and not sensor.runs and not sensor.stash
            for sensor in self._sensors.values()
        )

    @property
    def cursors(self) -> dict[str, int]:
        """``sensor -> released-line cursor`` (the checkpoint payload)."""
        return {name: sensor.cursor for name, sensor in sorted(self._sensors.items())}

    def set_cursors(self, cursors: Mapping[str, int]) -> None:
        """Restore durable cursors from a checkpoint.

        Restored sensors are *known* (they count toward the expect gate
        and block both the merge and :attr:`finished`) until they
        reconnect and fin — exactly what resume-determinism needs.
        """
        for name, cursor in cursors.items():
            self._sensors[str(name)] = _Sensor(str(name), int(cursor))

    def sensor_of(self, conn_id: int) -> str | None:
        conn = self._conns.get(conn_id)
        return conn.sensor if conn is not None else None

    def pending_lines_of(self, conn_id: int) -> int:
        """Window occupancy of the sensor behind a connection — the
        caller pauses reads at ``window`` and resumes below half."""
        conn = self._conns.get(conn_id)
        if conn is None or conn.sensor is None:
            return 0
        sensor = self._sensors[conn.sensor]
        held = sum(len(run.lines) + len(run.riders) for run in sensor.runs)
        return held + len(sensor.stash)

    def cursor_of(self, conn_id: int) -> int:
        conn = self._conns.get(conn_id)
        if conn is None or conn.sensor is None:
            return 0
        return self._sensors[conn.sensor].cursor


def _stretch(keys: LookupBatch, lines: list[bytes], idx: np.ndarray) -> list[Unit]:
    """The canonical records at merge positions ``idx`` as one unit, in
    that order (no unit when ``idx`` is empty)."""
    if not len(idx):
        return []
    return [(keys.take(idx), list(map(lines.__getitem__, idx.tolist())))]



# ---------------------------------------------------------------------------
# The socket server
# ---------------------------------------------------------------------------


class _Conn:
    __slots__ = ("id", "sock", "kind", "peer", "out", "mask", "sensor_hint")

    def __init__(self, conn_id: int, sock: socket.socket, kind: str, peer: str) -> None:
        self.id = conn_id
        self.sock = sock
        self.kind = kind
        self.peer = peer
        self.out = bytearray()
        self.mask = 0
        self.sensor_hint: str | None = None


class NetIngestServer:
    """selectors-based concurrent socket front end for one daemon.

    Owns the daemon's run segment end to end: restore-or-fresh, the
    accept/read/write loop, checkpoint cadence (acks ride every
    checkpoint), and the finalize/bye handshake once every expected
    sensor has finned.  All daemon and mux state is touched only by the
    thread running :meth:`serve`.

    Args:
        daemon: a :class:`~repro.service.daemon.BotMeterDaemon` built
            for network ingest (its ``input_path`` is just a label).
        tcp: ``(host, port)`` to listen on (port 0 = ephemeral), or
            ``None``.
        uds: Unix-domain socket path, or ``None``.  At least one
            listener is required.
        expect_sensors / window: forwarded to the mux.
        addr_file: write the bound addresses here as JSON once listening
            (how sensors find an ephemeral port across restarts).
        idle_timeout: optional escape hatch — finalize after this many
            seconds without a single received byte.
    """

    def __init__(
        self,
        daemon: BotMeterDaemon,
        tcp: tuple[str, int] | None = None,
        uds: str | Path | None = None,
        expect_sensors: int | None = None,
        window: int = 4096,
        addr_file: str | Path | None = None,
        idle_timeout: float | None = None,
    ) -> None:
        if tcp is None and uds is None:
            raise ValueError("need at least one listener (tcp and/or uds)")
        self.daemon = daemon
        self._tcp_spec = tcp
        self._uds_spec = str(uds) if uds is not None else None
        self.addr_file = Path(addr_file) if addr_file is not None else None
        self.idle_timeout = idle_timeout
        self.window = max(1, int(window))
        self.tcp_address: tuple[str, int] | None = None
        self.uds_path: str | None = None
        self._selector: selectors.BaseSelector | None = None
        self._listeners: list[socket.socket] = []
        self._conns: dict[int, _Conn] = {}
        self._paused: set[int] = set()
        self._next_conn_id = 1
        self._stop = False
        self._opened = False
        self.exit_code: int | None = None
        self.error: BaseException | None = None
        self._mux = SensorMux(
            consume=daemon._ingest_released,
            control=self._send_control,
            expect_sensors=expect_sensors,
            window=self.window,
            tracer=daemon.tracer,
        )
        metrics = daemon.metrics
        self._g_conns = metrics.gauge(
            "botmeterd_net_connections", "Live sensor connections."
        )
        self._c_conns = metrics.counter(
            "botmeterd_net_connections_total", "Sensor connections accepted."
        )
        self._g_sensors = metrics.gauge(
            "botmeterd_net_sensors", "Distinct sensors known (hello'd or restored)."
        )
        self._c_lines = metrics.counter(
            "botmeterd_net_lines_total",
            "Payload lines released into the pipeline (sum of cursors).",
        )
        self._c_dups = metrics.counter(
            "botmeterd_net_duplicate_lines_total",
            "Resume-overlap payload lines discarded before the wire reader.",
        )
        self._c_pauses = metrics.counter(
            "botmeterd_net_pauses_total",
            "Connection reads paused for per-sensor backpressure.",
        )
        self._c_resets = metrics.counter(
            "botmeterd_net_partial_resets_total",
            "Connections dropped mid-line; the tail was discarded for resend.",
        )
        self._g_cursor = metrics.gauge(
            "botmeterd_net_sensor_cursor", "Per-sensor released-line cursor."
        )
        # Event counters restored from a checkpoint resume at their old
        # totals while the fresh mux counts from zero — sync by delta.
        self._last_dups = 0
        self._last_resets = 0

    # -- daemon glue ---------------------------------------------------------

    def _extra_state(self) -> dict[str, Any]:
        state: dict[str, Any] = {"sensors": self._mux.cursors}
        if self.daemon.reader.header is not None:
            state["net_header"] = self.daemon.reader.header
        return state

    # -- listeners -----------------------------------------------------------

    def open(self) -> None:
        """Bind and listen; safe to call before :meth:`serve` (tests
        read :attr:`tcp_address` to learn the ephemeral port)."""
        if self._opened:
            return
        self._selector = selectors.DefaultSelector()
        if self._tcp_spec is not None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.tcp_address = self._listen(sock, self._tcp_spec)[:2]
        if self._uds_spec is not None:
            Path(self._uds_spec).unlink(missing_ok=True)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.uds_path = self._listen(sock, self._uds_spec)
        if self.addr_file is not None:
            write_address_file(self.addr_file, tcp=self.tcp_address, uds=self.uds_path)
        self._opened = True

    def _listen(self, sock: socket.socket, address: Any) -> Any:
        sock.bind(address)
        sock.listen(64)
        sock.setblocking(False)
        self._listeners.append(sock)
        assert self._selector is not None
        self._selector.register(sock, selectors.EVENT_READ, None)
        return sock.getsockname()

    # -- the loop ------------------------------------------------------------

    def serve(self) -> int:
        """Serve until every expected sensor finned; returns exit code."""
        self.open()
        daemon = self.daemon
        assert self._selector is not None
        try:
            checkpoint = daemon.store.load() if daemon.store is not None else None
            if checkpoint is not None:
                header = checkpoint.get("net_header")
                if header is not None:
                    # Engine configuration (families, granularity,
                    # origin) came off the wire last run; restore it
                    # before the engine is rebuilt.
                    daemon.reader.header = dict(header)
                daemon._restore(checkpoint)
                self._mux.set_cursors(
                    {
                        str(name): int(cursor)
                        for name, cursor in checkpoint.get("sensors", {}).items()
                    }
                )
            else:
                daemon._fresh_outputs()
            daemon._attach_trace_sink(resumed=checkpoint is not None)
            daemon.extra_checkpoint_state = self._extra_state
            daemon._log_event(
                "net_listening",
                tcp=list(self.tcp_address) if self.tcp_address else None,
                uds=self.uds_path,
                expect_sensors=self._mux._expect,
                resumed=checkpoint is not None,
            )
            last_data = time.monotonic()
            while not self._stop and not self._mux.finished:
                events = self._selector.select(POLL_INTERVAL)
                got_data = False
                for key, mask in events:
                    if key.data is None:
                        self._accept(key.fileobj)  # type: ignore[arg-type]
                        got_data = True
                        continue
                    conn: _Conn = key.data
                    if mask & selectors.EVENT_READ:
                        got_data = self._read(conn) or got_data
                    if mask & selectors.EVENT_WRITE and conn.id in self._conns:
                        self._write(conn)
                now = time.monotonic()
                if got_data:
                    last_data = now
                elif (
                    self.idle_timeout is not None
                    and now - last_data >= self.idle_timeout
                ):
                    daemon._log_event("net_idle_timeout", idle=now - last_data)
                    break
                self._housekeeping()
            daemon._finish_stream(self._mux.lines_released)
            self._refresh_metrics()
            daemon._dump_observability()
            self._broadcast_bye()
            self.exit_code = 0
            return 0
        except BaseException as exc:  # noqa: BLE001 — surfaced via .error
            self.error = exc
            self.exit_code = 1
            raise
        finally:
            daemon._cleanup()
            self._close_all()

    def stop(self) -> None:
        """Ask the serve loop to bail out (test teardown)."""
        self._stop = True

    def run_in_thread(self) -> threading.Thread:
        """Start :meth:`serve` on a daemon thread (tests and benchmarks).

        The thread records the outcome in :attr:`exit_code` /
        :attr:`error` instead of raising into nowhere.
        """
        self.open()

        def _target() -> None:
            try:
                self.serve()
            except BaseException:  # noqa: BLE001 — stored in self.error
                pass

        thread = threading.Thread(target=_target, name="netingest-serve", daemon=True)
        thread.start()
        return thread

    # -- event handlers ------------------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        tracer = self.daemon.tracer
        t0 = tracer.start("accept") if tracer is not None else 0
        try:
            sock, addr = listener.accept()
        except (BlockingIOError, OSError):
            return
        sock.setblocking(False)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * READ_SIZE)
        kind = "uds" if sock.family == socket.AF_UNIX else "tcp"
        if kind == "tcp":
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        peer = f"{addr[0]}:{addr[1]}" if kind == "tcp" else (self.uds_path or "uds")
        conn = _Conn(self._next_conn_id, sock, kind, peer)
        self._next_conn_id += 1
        self._conns[conn.id] = conn
        self._mux.attach(conn.id)
        self._update_interest(conn)
        self._c_conns.inc()
        self._g_conns.add(1)
        if t0:
            tracer.stop("accept", t0)
        self.daemon._log_event("net_accept", conn=conn.id, transport=kind, peer=peer)

    def _read(self, conn: _Conn) -> bool:
        tracer = self.daemon.tracer
        t0 = tracer.start("read") if tracer is not None else 0
        try:
            chunk = conn.sock.recv(READ_SIZE)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError:
            self._drop(conn, reason="reset")
            return False
        if not chunk:
            self._eof(conn)
            return False
        if t0:
            tracer.stop("read", t0, records=len(chunk))
        try:
            self._mux.feed(conn.id, chunk)
        except ProtocolError as exc:
            # Lines released before the violation are already in the
            # daemon and charged to the cursor.
            self._reject(conn, str(exc))
            return True
        self._drain_sync()
        conn.sensor_hint = self._mux.sensor_of(conn.id)
        return True

    def _drain_sync(self) -> None:
        """Honour pending sync barriers: checkpoint now, ack now."""
        requests = self._mux.take_sync_requests()
        if not requests:
            return
        self.daemon._checkpoint(self._mux.lines_released)
        self._send_acks()

    def _write(self, conn: _Conn) -> None:
        if not conn.out:
            self._update_interest(conn)
            return
        try:
            sent = conn.sock.send(bytes(conn.out))
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(conn, reason="reset")
            return
        del conn.out[:sent]
        if not conn.out:
            self._update_interest(conn)

    def _eof(self, conn: _Conn) -> None:
        # Clean close: a final unterminated line still counts as framed.
        try:
            self._mux.finish_line(conn.id)
        except ProtocolError:
            pass
        self._drop(conn, reason="eof")

    def _drop(self, conn: _Conn, reason: str) -> None:
        if conn.id not in self._conns:
            return
        del self._conns[conn.id]
        self._paused.discard(conn.id)
        if conn.mask:
            try:
                self._selector.unregister(conn.sock)  # type: ignore[union-attr]
            except (KeyError, ValueError):
                pass
        _close(conn.sock)
        self._mux.detach(conn.id)
        self._g_conns.add(-1)
        self.daemon._log_event(
            "net_close",
            conn=conn.id,
            transport=conn.kind,
            sensor=conn.sensor_hint,
            reason=reason,
        )

    @staticmethod
    def _flush_blocking(conn: _Conn, message: dict | None, timeout: float) -> None:
        """Send what ``conn`` still owes, plus ``message``, blocking."""
        payload = bytes(conn.out) + (_control_line(message) if message else b"")
        conn.out.clear()
        try:
            if payload:
                conn.sock.setblocking(True)
                conn.sock.settimeout(timeout)
                conn.sock.sendall(payload)
        except OSError:
            pass

    def _reject(self, conn: _Conn, reason: str) -> None:
        self._flush_blocking(conn, {"v": 1, "type": "error", "reason": reason}, 1.0)
        self.daemon._log_event("net_protocol_error", conn=conn.id, reason=reason)
        self._drop(conn, reason="protocol-error")

    def _send_control(self, conn_id: int, message: dict[str, Any]) -> None:
        conn = self._conns.get(conn_id)
        if conn is None:
            return
        conn.out += _control_line(message)
        self._update_interest(conn)

    def _update_interest(self, conn: _Conn) -> None:
        if conn.id not in self._conns:
            return
        mask = 0
        if conn.id not in self._paused:
            mask |= selectors.EVENT_READ
        if conn.out:
            mask |= selectors.EVENT_WRITE
        if mask == conn.mask:
            return
        selector = self._selector
        assert selector is not None
        if conn.mask == 0 and mask:
            selector.register(conn.sock, mask, conn)
        elif mask == 0:
            selector.unregister(conn.sock)
        else:
            selector.modify(conn.sock, mask, conn)
        conn.mask = mask

    # -- housekeeping --------------------------------------------------------

    def _housekeeping(self) -> None:
        daemon = self.daemon
        if (
            daemon.store is not None
            and daemon._since_checkpoint >= daemon.checkpoint_every
        ):
            daemon._checkpoint(self._mux.lines_released)
            self._send_acks()
        self._drain_sync()
        self._update_pauses()
        self._refresh_metrics()

    def _send_acks(self) -> None:
        """Cursors just became durable; tell every attached sensor."""
        for conn in list(self._conns.values()):
            sensor = self._mux.sensor_of(conn.id)
            if sensor is None:
                continue
            self._send_control(
                conn.id,
                {"v": 1, "type": "ack", "cursor": self._mux.cursor_of(conn.id)},
            )

    def _update_pauses(self) -> None:
        for conn in list(self._conns.values()):
            occupancy = self._mux.pending_lines_of(conn.id)
            if conn.id in self._paused:
                if occupancy <= self.window // 2:
                    self._paused.discard(conn.id)
                    self._update_interest(conn)
            elif occupancy >= self.window:
                self._paused.add(conn.id)
                self._c_pauses.inc()
                self._update_interest(conn)

    def _refresh_metrics(self) -> None:
        mux = self._mux
        cursors = mux.cursors
        # Sum-of-cursors is monotonic across restarts (restored cursors
        # seed the sum), so set_total stays legal after a resume.
        self._c_lines.set_total(sum(cursors.values()))
        if mux.duplicates > self._last_dups:
            self._c_dups.inc(mux.duplicates - self._last_dups)
            self._last_dups = mux.duplicates
        if mux.partial_resets > self._last_resets:
            self._c_resets.inc(mux.partial_resets - self._last_resets)
            self._last_resets = mux.partial_resets
        self._g_conns.set(len(self._conns))
        self._g_sensors.set(len(cursors))
        for name, cursor in cursors.items():
            self._g_cursor.set(cursor, sensor=name)

    def _broadcast_bye(self) -> None:
        """Final cursors are durable now; hand them out and drain."""
        for conn in list(self._conns.values()):
            bye = {"v": 1, "type": "bye", "cursor": self._mux.cursor_of(conn.id)}
            known = self._mux.sensor_of(conn.id) is not None
            self._flush_blocking(conn, bye if known else None, 2.0)

    def _close_all(self) -> None:
        for conn in list(self._conns.values()):
            _close(conn.sock)
        self._conns.clear()
        for listener in self._listeners:
            _close(listener)
        self._listeners.clear()
        if self.uds_path is not None:
            try:
                os.unlink(self.uds_path)
            except OSError:
                pass
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        self._opened = False


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------


def parse_address(spec: str) -> tuple[str, ...]:
    """``"uds:/path"`` -> ``("uds", path)``; ``"host:port"`` -> tcp."""
    if spec.startswith("uds:"):
        path = spec[4:]
        if not path:
            raise ValueError("empty uds path")
        return ("uds", path)
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT or uds:PATH, got {spec!r}")
    return ("tcp", host or "127.0.0.1", int(port))


def write_address_file(
    path: str | Path, tcp: tuple[str, int] | None, uds: str | None
) -> None:
    payload = {
        "schema": NET_SCHEMA,
        "tcp": list(tcp) if tcp is not None else None,
        "uds": uds,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def read_address_file(path: str | Path, prefer: str = "tcp") -> tuple[str, ...]:
    """Resolve a server address from its ``--addr-file``.

    Re-read on every reconnect attempt: a restarted server may be
    listening on a new ephemeral port, and the file is how sensors find
    it again.
    """
    data = json.loads(Path(path).read_text())
    order = ("uds", "tcp") if prefer == "uds" else ("tcp", "uds")
    for kind in order:
        value = data.get(kind)
        if value:
            if kind == "tcp":
                return ("tcp", str(value[0]), int(value[1]))
            return ("uds", str(value))
    raise ValueError(f"address file {path} lists no listener")


# ---------------------------------------------------------------------------
# The sender
# ---------------------------------------------------------------------------

#: Bytes per client ``sendall``: the daemon's read size.
CHUNK_BYTES = READ_SIZE
#: Seconds a sender waits for a connect, and for any one server message.
CONNECT_TIMEOUT = 5.0
IO_TIMEOUT = 30.0
#: Seconds between reconnect attempts.
RETRY_INTERVAL = 0.02


def _as_bytes(lines: Sequence[bytes | str]) -> Sequence[bytes]:
    if all(map(isinstance, lines, repeat(bytes))):
        return lines
    return [line if isinstance(line, bytes) else line.encode("utf-8") for line in lines]


def _dial(address: Any) -> socket.socket:
    """Open a blocking socket to ``address``: ``("tcp", host, port)`` /
    ``("uds", path)``, a string for :func:`parse_address`, or a zero-arg
    callable returning either (re-invoked on every connect, so an
    ``--addr-file`` reader picks up a restarted server's new port)."""
    spec = address() if callable(address) else address
    if isinstance(spec, str):
        spec = parse_address(spec)
    if spec[0] == "tcp":
        sock = socket.create_connection((spec[1], int(spec[2])), timeout=CONNECT_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    elif spec[0] == "uds":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(CONNECT_TIMEOUT)
        try:
            sock.connect(spec[1])
        except OSError:
            sock.close()
            raise
    else:
        raise ValueError(f"unknown address kind {spec[0]!r}")
    sock.settimeout(IO_TIMEOUT)
    return sock


class SensorStream:
    """The one sender of botmeter-netingest-v1.

    Opens the socket, speaks hello/welcome, sends payload lines and
    reads acks.  :class:`SensorClient` (whole-shard retry) and the
    cluster's failover stream (:mod:`repro.service.meshguard`) only
    drive it.

    ``cursor`` is the index of the next line the caller offers: 0 on a
    fresh stream.  Each :meth:`connect` fixes a resume point ``start``
    and pulls ``cursor`` back to it when the server holds fewer lines
    than were offered, so the caller re-offers from ``cursor``.
    Offered lines below ``start`` only move the cursor (``skipped``);
    the rest are sent (``sent`` counts those whose send completed).
    That is exactly-once across router restarts because the upstream
    K-way merge and the per-server split are deterministic: a restarted
    router re-offers the same line sequence, and the welcome cursor says
    how much is already in.

    ``acked`` is the largest cursor any ack or bye carried; it survives
    :meth:`close` and a later :meth:`connect` on the same stream.

    Not thread-safe; each stream belongs to one thread.
    """

    def __init__(self, address: Any, sensor: str) -> None:
        self.address = address
        self.sensor = sensor
        self.cursor = 0
        self.start = 0
        self.sent = 0
        self.skipped = 0
        self.acked = 0
        self._sock: socket.socket | None = None
        self._inbuf = bytearray()
        self._finished = False

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self, cursor: int | None = None, timeout: float | None = None) -> int:
        """Open the connection and say hello; returns the resume point.

        Without ``cursor`` the stream resumes from the welcome cursor.
        With it, the hello carries ``cursor`` (the server discards any
        overlap it already holds) and the stream resumes from there:
        the ``--from-ack`` mode.  ``timeout`` bounds the wait for the
        welcome (default :data:`IO_TIMEOUT`; a stopped server accepts
        the connection but never answers).
        """
        if self._sock is not None:
            raise SensorError(f"stream {self.sensor!r} is already connected")
        hello = {"v": 1, "type": "hello", "schema": NET_SCHEMA, "sensor": self.sensor}
        # Offer both wires; the line-framed protocol always negotiates
        # down to "ndjson" (pinned in the welcome).
        hello["wire"] = ["v2", "ndjson"]
        if cursor is not None:
            hello["cursor"] = cursor
        self._sock, self._inbuf = _dial(self.address), bytearray()
        try:
            self._sock.sendall(_control_line(hello))
            welcome = self._read(timeout or IO_TIMEOUT)
            if welcome.get("type") != "welcome":
                raise SensorError(f"expected welcome, got {welcome!r}")
        except BaseException:
            self.close()
            raise
        self._finished = False
        self.start = int(welcome.get("cursor", 0)) if cursor is None else cursor
        self.cursor = min(self.cursor, self.start)
        return self.start

    def _check_open(self) -> None:
        if self._sock is None:
            raise SensorError(f"stream {self.sensor!r} is not connected")
        if self._finished:
            raise SensorError(f"stream {self.sensor!r} is finished")

    def _handle(self, message: dict[str, Any]) -> dict[str, Any]:
        kind = message.get("type")
        if kind == "error":
            raise SensorError(f"server rejected us: {message.get('reason')}")
        if kind in ("ack", "bye"):
            self.acked = max(self.acked, int(message.get("cursor", 0)))
        return message

    def _read(self, timeout: float = 0.0) -> Any:
        """Handle the next server message.  Without ``timeout`` only one
        already readable is taken (``None`` if there is none); with it,
        wait that many seconds for one before raising a timeout."""
        deadline = time.monotonic() + timeout
        while (message := _pop_message(self._inbuf)) is None:
            wait = max(0.0, deadline - time.monotonic())
            if not select.select([self._sock], [], [], wait)[0]:
                if timeout:
                    raise socket.timeout("timed out waiting for a server message")
                return None
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._inbuf += chunk
        return self._handle(message)

    def send_lines(self, lines: Sequence[bytes | str]) -> None:
        """Offer the next payload lines.  Those below the resume point
        only move the cursor; the rest leave as one join, in
        :data:`CHUNK_BYTES` slices (the server reassembles frames from
        any chunk boundary), with readable acks drained after each."""
        self._check_open()
        skip = min(len(lines), max(0, self.start - self.cursor))
        self.cursor += len(lines)
        self.skipped += skip
        if skip == len(lines):
            return
        fresh = _as_bytes(lines[skip:])
        view = memoryview(b"\n".join([*fresh, b""]))
        for offset in range(0, len(view), CHUNK_BYTES):
            self._sock.sendall(view[offset : offset + CHUNK_BYTES])
            while self._read() is not None:
                pass
        self.sent += len(fresh)

    def sync(self, timeout: float | None = None) -> int:
        """Durability barrier: send ``sync``, wait until the server's
        ack covers every line offered so far.  Returns the acked cursor.
        Only meaningful against a single-sensor backend (see the
        protocol notes) — the cluster failover tier uses it to pin a
        partition's durable frontier before failing it over.
        """
        self._check_open()
        if self.acked >= self.cursor:
            return self.acked
        self._sock.sendall(_control_line({"v": 1, "type": "sync"}))
        deadline = time.monotonic() + (timeout if timeout is not None else IO_TIMEOUT)
        while self.acked < self.cursor:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SensorError(
                    f"stream {self.sensor!r}: sync barrier timed out at "
                    f"acked {self.acked} < cursor {self.cursor}"
                )
            self._read(remaining)
        return self.acked

    def finish(self) -> int:
        """Send fin, wait for bye; returns the durable cursor."""
        if not self._finished:
            self._check_open()
            self._sock.sendall(_control_line({"v": 1, "type": "fin"}))
            while self._read(IO_TIMEOUT).get("type") != "bye":
                pass
            self._finished = True
        return self.acked

    def close(self) -> None:
        if self._sock is not None:
            _close(self._sock)
            self._sock = None


@dataclass
class SensorReport:
    """What one :meth:`SensorClient.replay_lines` call did."""

    sensor: str
    sent: int = 0  # payload lines transmitted, including retries
    skipped: int = 0  # lines the last resume point let us not resend
    acked: int = 0  # final durable cursor (from bye)
    reconnects: int = 0
    attempts: int = 1


class SensorClient:
    """Whole-shard retry policy over one :class:`SensorStream`.

    Each attempt connects, sends the shard from the stream's cursor and
    finishes: it returns once the server's ``bye`` confirms the whole
    shard durable.  A lost connection (``OSError``/``ValueError``)
    retries until ``retry_deadline``; a server ``error`` is final.

    Args:
        address: where the server listens (see :func:`_dial`).
        sensor: this sensor's id (the cursor key).
        resume: ``"welcome"`` (default) trusts each connection's welcome
            cursor; ``"ack"`` resumes from the last *durable* ack this
            client saw, resending the overlap for the server to discard.
        retry_deadline: give up reconnecting after this many seconds.
        throttle: optional sleep after each line (drill pacing); each
            line is then its own send.
    """

    def __init__(
        self,
        address: Any,
        sensor: str,
        resume: str = "welcome",
        retry_deadline: float = 30.0,
        throttle: float = 0.0,
    ) -> None:
        if resume not in ("welcome", "ack"):
            raise ValueError(f"resume must be 'welcome' or 'ack', got {resume!r}")
        self.address = address
        self.sensor = sensor
        self.resume = resume
        self.retry_deadline = retry_deadline
        self.throttle = throttle

    def replay_path(self, path: str | Path, shard: tuple[int, int] | None = None) -> SensorReport:
        """Stream a trace file (optionally one round-robin shard of it).

        A wire-v2 trace is transcoded to NDJSON lines client-side first:
        the server always negotiates the line-framed wire down to
        "ndjson" (see the hello handler), and the v2→v1 conversion is
        record-exact — quarantined lines included — so the merged
        landscape is identical either way.
        """
        raw = Path(path).read_bytes()
        if sniff_wire2(raw[:4]):
            lines = wire2_to_ndjson_lines(raw)
        else:
            lines = raw.splitlines()
        if shard is not None:
            lines = shard_trace_lines(lines, *shard)
        return self.replay_lines(lines)

    def replay_lines(self, lines: Sequence[bytes | str]) -> SensorReport:
        """Stream payload lines until the server's bye confirms them."""
        stream = SensorStream(self.address, self.sensor)
        report = SensorReport(sensor=self.sensor)
        deadline = time.monotonic() + self.retry_deadline
        while True:
            try:
                start = stream.connect(stream.acked if self.resume == "ack" else None)
                if start > len(lines):
                    raise SensorError(
                        f"server cursor {start} is past our {len(lines)} lines"
                    )
                report.skipped = start
                if self.throttle > 0:
                    # The lines the server already holds pass in one call:
                    # only sent lines are paced.
                    stream.send_lines(lines[stream.cursor : start])
                    for line in lines[start:]:
                        stream.send_lines((line,))
                        time.sleep(self.throttle)
                else:
                    stream.send_lines(lines[stream.cursor :])
                report.acked = stream.finish()
                return report
            except SensorError:
                raise
            except (OSError, ValueError) as exc:
                if time.monotonic() >= deadline:
                    raise SensorError(
                        f"sensor {self.sensor!r} gave up after "
                        f"{report.attempts} attempts: {exc}"
                    ) from exc
                report.reconnects += 1
                report.attempts += 1
                time.sleep(RETRY_INTERVAL)
            finally:
                report.sent = stream.sent
                stream.close()


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


def shard_trace_lines(
    lines: Sequence[bytes], index: int, count: int
) -> list[bytes]:
    """Round-robin shard ``index`` of ``count``.

    A leading trace header line replicates into *every* shard: the
    engine's configuration must not depend on which sensor's first
    record wins the merge, and re-setting an identical header is free.
    """
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} out of range for {count}")
    header, payload = split_header(lines)
    return header + payload[index::count]
