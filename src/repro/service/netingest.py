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

Released lines are fed to the daemon through a K-way merge on the
deterministic trace order ``(timestamp, server, domain)`` (sensor id as
the final tie-break), gated until ``expect_sensors`` distinct sensors
have said hello.  The merge releases a record only when every
unfinished sensor has one buffered — so the global release order equals
the order of the single sorted concatenation, regardless of socket
interleaving, chunk boundaries, or which sensor connected first.
Non-record payload lines (the header, blanks, corrupt lines) cannot be
ordered by timestamp; they ride along with the *next* record line of
the same sensor, and a trailing run is flushed at ``fin``.

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
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .daemon import BotMeterDaemon
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

_SERVER_TYPES = frozenset({"welcome", "ack", "bye", "error"})


class ProtocolError(ValueError):
    """A sensor violated botmeter-netingest-v1; the connection drops."""


class SensorError(RuntimeError):
    """The sensor client gave up (protocol error or retry deadline)."""


def _merge_key(data: Any) -> tuple[float, str, str] | None:
    """The deterministic trace order key of a parsed payload line.

    Returns ``None`` for anything that is not a well-formed lookup
    record — such lines cannot be ordered by timestamp and ride along
    with the sensor's next record instead.
    """
    if not isinstance(data, dict):
        return None
    if data.get("type", "lookup") != "lookup":
        return None
    timestamp = data.get("timestamp")
    server = data.get("server")
    domain = data.get("domain")
    if isinstance(timestamp, bool) or not isinstance(timestamp, (int, float)):
        return None
    if not isinstance(server, str) or not isinstance(domain, str):
        return None
    return (float(timestamp), server, domain)


def _control_line(message: Mapping[str, Any]) -> bytes:
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


class _Entry:
    """One releasable unit: a record line plus the non-record lines
    stashed before it (``key is None`` = a trailing stash at fin)."""

    __slots__ = ("key", "lines", "end_seq")

    def __init__(
        self,
        key: tuple[float, str, str] | None,
        lines: list[tuple[bytes, Any]],
        end_seq: int,
    ) -> None:
        self.key = key
        self.lines = lines
        self.end_seq = end_seq


class _Sensor:
    __slots__ = (
        "name",
        "cursor",
        "recv_seq",
        "pending",
        "pending_lines",
        "stash",
        "finished",
        "conn",
        "duplicates",
        "received",
    )

    def __init__(self, name: str, cursor: int = 0) -> None:
        self.name = name
        #: Payload lines released into the pipeline (the resume point).
        self.cursor = cursor
        #: Index the *next* incoming payload line will occupy.
        self.recv_seq = cursor
        self.pending: deque[_Entry] = deque()
        #: Raw lines currently held (entries + stash) — the window gauge.
        self.pending_lines = 0
        self.stash: list[tuple[bytes, Any]] = []
        self.finished = False
        #: Connection id currently bound to this sensor (one at a time).
        self.conn: int | None = None
        self.duplicates = 0
        self.received = 0


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

    Args:
        consume: ``(raw_line, parsed_or_None) -> None`` — release one
            payload line into the pipeline, in merge order.
        control: ``(conn_id, message) -> None`` — send one control
            message to a connection (welcome/error routing).
        expect_sensors: gate the merge until this many distinct sensors
            have said hello (``None`` = start merging immediately).
        window: max payload lines buffered per sensor before the caller
            should pause reads (see :meth:`pending_lines_of`).
        max_line: protocol cap on a single unframed line's bytes.
        tracer: optional StageTracer; each ``feed`` is a ``frame`` span.
    """

    def __init__(
        self,
        consume: Callable[[bytes, Any], None],
        control: Callable[[int, dict[str, Any]], None],
        expect_sensors: int | None = None,
        window: int = 4096,
        max_line: int = 1 << 20,
        tracer: Any = None,
    ) -> None:
        self._consume = consume
        self._control = control
        self._expect = expect_sensors if expect_sensors is None else int(expect_sensors)
        self.window = max(1, int(window))
        self.max_line = int(max_line)
        self.tracer = tracer
        self._sensors: dict[str, _Sensor] = {}
        self._conns: dict[int, _MuxConn] = {}
        self.lines_released = 0
        self.duplicates = 0
        self.partial_resets = 0
        self.hellos = 0
        self.fins = 0
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
                sensor.pending.clear()
                sensor.stash = []
                sensor.pending_lines = 0
                sensor.recv_seq = sensor.cursor
        self._pump()

    def feed(self, conn_id: int, chunk: bytes) -> None:
        """Process one received chunk; raises :class:`ProtocolError` on
        a violation (the caller should error out the connection)."""
        conn = self._conns[conn_id]
        buf = conn.tail + chunk
        lines = buf.split(b"\n")
        conn.tail = lines.pop()
        if len(conn.tail) > self.max_line:
            raise ProtocolError(
                f"unframed line exceeds {self.max_line} bytes"
            )
        tracer = self.tracer
        t0 = tracer.start("frame") if tracer is not None else 0
        for raw in lines:
            self._line(conn, raw)
        if t0:
            tracer.stop("frame", t0, records=len(lines))
        self._pump()

    def finish_line(self, conn_id: int) -> None:
        """Treat a clean EOF's missing final newline as a frame end."""
        conn = self._conns.get(conn_id)
        if conn is not None and conn.tail:
            raw, conn.tail = conn.tail, b""
            self._line(conn, raw)
            self._pump()

    # -- line classification -------------------------------------------------

    def _line(self, conn: _MuxConn, raw: bytes) -> None:
        data: Any = None
        if raw:
            try:
                # Decode first: json.loads on bytes pays a per-call
                # encoding sniff (json.detect_encoding) that dominates
                # the framing cost at wire rates.  UnicodeDecodeError
                # is a ValueError, so undecodable garbage lands in the
                # same stash path as unparsable JSON.
                data = json.loads(raw.decode("utf-8"))
            except ValueError:
                data = None
        if isinstance(data, dict) and data.get("type") in CONTROL_TYPES:
            kind = data["type"]
            if kind == "hello":
                self._hello(conn, data)
            elif kind == "sync":
                self._sync(conn)
            else:
                self._fin(conn)
            return
        if conn.sensor is None:
            raise ProtocolError("first line must be a hello")
        sensor = self._sensors[conn.sensor]
        seq = sensor.recv_seq
        sensor.recv_seq += 1
        sensor.received += 1
        if seq < sensor.cursor:
            # Resume overlap: already released (and possibly already
            # durable).  Discard before the wire reader ever sees it.
            sensor.duplicates += 1
            self.duplicates += 1
            return
        key = _merge_key(data)
        sensor.pending_lines += 1
        if key is None:
            sensor.stash.append((raw, data))
        else:
            lines = sensor.stash + [(raw, data)]
            sensor.stash = []
            sensor.pending.append(_Entry(key, lines, sensor.recv_seq))

    def _hello(self, conn: _MuxConn, data: Mapping[str, Any]) -> None:
        if conn.sensor is not None:
            raise ProtocolError("duplicate hello on one connection")
        name = data.get("sensor")
        if not isinstance(name, str) or not name:
            raise ProtocolError("hello carries no sensor id")
        schema = data.get("schema", NET_SCHEMA)
        if schema != NET_SCHEMA:
            raise ProtocolError(f"foreign schema {schema!r}")
        # Wire negotiation: a hello may offer payload wire formats (a
        # v2-capable sensor offers ["v2", "ndjson"]).  The Sensornet
        # protocol is line-framed — control messages and payload share
        # one NDJSON stream — so binary v2 frames cannot ride it; the
        # server negotiates DOWN to "ndjson" and pins that in the
        # welcome.  An offer without "ndjson" has no common format and
        # is refused outright rather than silently misread.
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
        self.hellos += 1
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
        sensor = self._sensors[conn.sensor]
        if sensor.stash:
            # Trailing non-record lines have no next record to ride on.
            sensor.pending.append(_Entry(None, sensor.stash, sensor.recv_seq))
            sensor.stash = []
        sensor.finished = True
        self.fins += 1

    # -- the deterministic merge ---------------------------------------------

    def _merge_open(self) -> bool:
        return self._expect is None or len(self._sensors) >= self._expect

    def _release(self, sensor: _Sensor, entry: _Entry) -> None:
        for raw, data in entry.lines:
            self._consume(raw, data)
        sensor.pending_lines -= len(entry.lines)
        sensor.cursor = entry.end_seq
        self.lines_released += len(entry.lines)

    def _flush_tail(self, sensor: _Sensor) -> None:
        # Trailing stashes of finished sensors carry no timestamp; flush
        # them as soon as they surface at the head of the queue.
        while sensor.finished and sensor.pending and sensor.pending[0].key is None:
            self._release(sensor, sensor.pending.popleft())

    def _pump(self) -> None:
        # No mux state changes mid-pump (releases cannot finish a sensor
        # or append entries), so the gate and the tail flush only need
        # re-checking after a release of that same sensor.
        sensors = self._sensors.values()
        for sensor in sensors:
            self._flush_tail(sensor)
        if not self._merge_open():
            return
        while True:
            best_key: tuple[Any, ...] | None = None
            best_sensor: _Sensor | None = None
            for sensor in sensors:
                pending = sensor.pending
                if not pending:
                    if sensor.finished:
                        continue
                    # Attached-and-quiet or detached-awaiting-reconnect:
                    # either way the global order is not yet decidable.
                    return
                candidate = (pending[0].key, sensor.name)
                if best_key is None or candidate < best_key:
                    best_key = candidate
                    best_sensor = sensor
            if best_sensor is None:
                return
            self._release(best_sensor, best_sensor.pending.popleft())
            self._flush_tail(best_sensor)

    # -- introspection for the server ----------------------------------------

    @property
    def finished(self) -> bool:
        """Every expected sensor has said hello, finned, and drained."""
        if self._expect is not None and len(self._sensors) < self._expect:
            return False
        if not self._sensors:
            return False
        return all(
            sensor.finished and not sensor.pending and not sensor.stash
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
        return self._sensors[conn.sensor].pending_lines

    def cursor_of(self, conn_id: int) -> int:
        conn = self._conns.get(conn_id)
        if conn is None or conn.sensor is None:
            return 0
        return self._sensors[conn.sensor].cursor


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
        expect_sensors / window / max_line: forwarded to the mux.
        addr_file: write the bound addresses here as JSON once listening
            (how sensors find an ephemeral port across restarts).
        recv_bytes: max bytes per ``recv``.
        poll_interval: selector timeout between housekeeping passes.
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
        max_line: int = 1 << 20,
        addr_file: str | Path | None = None,
        recv_bytes: int = 1 << 16,
        poll_interval: float = 0.05,
        idle_timeout: float | None = None,
    ) -> None:
        if tcp is None and uds is None:
            raise ValueError("need at least one listener (tcp and/or uds)")
        self.daemon = daemon
        self._tcp_spec = tcp
        self._uds_spec = str(uds) if uds is not None else None
        self.addr_file = Path(addr_file) if addr_file is not None else None
        self.recv_bytes = int(recv_bytes)
        self.poll_interval = float(poll_interval)
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
            consume=self._consume,
            control=self._send_control,
            expect_sensors=expect_sensors,
            window=self.window,
            max_line=max_line,
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
        #: Lines the mux released during the current event, drained to
        #: the daemon's ingest entry in one call per event.
        self._released: list[tuple[bytes, Any]] = []

    # -- daemon glue ---------------------------------------------------------

    def _consume(self, raw: bytes, data: Any) -> None:
        self._released.append((raw, data))

    def _drain_released(self) -> None:
        if self._released:
            batch, self._released = self._released, []
            self.daemon._ingest_lines(batch)

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
            sock.bind(self._tcp_spec)
            sock.listen(64)
            sock.setblocking(False)
            self._listeners.append(sock)
            self._selector.register(sock, selectors.EVENT_READ, None)
            self.tcp_address = sock.getsockname()[:2]
        if self._uds_spec is not None:
            path = Path(self._uds_spec)
            if path.exists():
                path.unlink()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(str(path))
            sock.listen(64)
            sock.setblocking(False)
            self._listeners.append(sock)
            self._selector.register(sock, selectors.EVENT_READ, None)
            self.uds_path = str(path)
        if self.addr_file is not None:
            write_address_file(self.addr_file, tcp=self.tcp_address, uds=self.uds_path)
        self._opened = True

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
                events = self._selector.select(self.poll_interval)
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
            self._drain_released()
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
        """Start :meth:`serve` on a daemon thread (cluster backends + tests).

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
            chunk = conn.sock.recv(self.recv_bytes)
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
            # Lines released before the violation are already charged
            # to the cursor; flush them before erroring the connection.
            self._drain_released()
            self._reject(conn, str(exc))
            return True
        self._drain_released()
        self._drain_sync()
        conn.sensor_hint = self._mux.sensor_of(conn.id)
        return True

    def _drain_sync(self) -> None:
        """Honour pending sync barriers: checkpoint now, ack now."""
        requests = self._mux.take_sync_requests()
        if not requests:
            return
        self._drain_released()
        if self.daemon.store is not None:
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
        try:
            conn.sock.close()
        except OSError:
            pass
        self._mux.detach(conn.id)
        self._drain_released()
        self._g_conns.add(-1)
        self.daemon._log_event(
            "net_close",
            conn=conn.id,
            transport=conn.kind,
            sensor=conn.sensor_hint,
            reason=reason,
        )

    def _reject(self, conn: _Conn, reason: str) -> None:
        message = _control_line({"v": 1, "type": "error", "reason": reason})
        try:
            conn.sock.setblocking(True)
            conn.sock.settimeout(1.0)
            conn.sock.sendall(conn.out + message)
        except OSError:
            pass
        conn.out.clear()
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
        # Every released line must be in the daemon before a checkpoint
        # can claim its cursor durable (event handlers already drain;
        # this is the invariant, not the workhorse).
        self._drain_released()
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
            sensor = self._mux.sensor_of(conn.id)
            payload = bytes(conn.out)
            if sensor is not None:
                payload += _control_line(
                    {"v": 1, "type": "bye", "cursor": self._mux.cursor_of(conn.id)}
                )
            conn.out.clear()
            if not payload:
                continue
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(2.0)
                conn.sock.sendall(payload)
            except OSError:
                pass

    def _close_all(self) -> None:
        for conn in list(self._conns.values()):
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.clear()
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:
                pass
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
# The sensor client
# ---------------------------------------------------------------------------


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
    """Blocking sensor-side speaker of botmeter-netingest-v1.

    Streams a shard of payload lines, survives connection loss with
    reconnect-and-resume, and returns once the server's ``bye`` confirms
    the whole shard is durable.

    Args:
        address: ``("tcp", host, port)`` / ``("uds", path)``, a string
            for :func:`parse_address`, or a zero-arg callable returning
            either — the callable is re-invoked on every attempt, so an
            ``--addr-file`` reader picks up a restarted server's new
            port.
        sensor: this sensor's id (the cursor key).
        resume: ``"welcome"`` (default) trusts each connection's welcome
            cursor; ``"ack"`` resumes from the last *durable* ack this
            client saw, resending the overlap for the server to discard.
        retry_deadline: give up reconnecting after this many seconds.
        chunk_bytes: coalesce payload lines into sends of about this
            size.
        throttle: optional sleep after each line (drill pacing).
    """

    def __init__(
        self,
        address: Any,
        sensor: str,
        resume: str = "welcome",
        retry_deadline: float = 30.0,
        retry_interval: float = 0.05,
        connect_timeout: float = 5.0,
        io_timeout: float = 30.0,
        chunk_bytes: int = 1 << 15,
        throttle: float = 0.0,
    ) -> None:
        if resume not in ("welcome", "ack"):
            raise ValueError(f"resume must be 'welcome' or 'ack', got {resume!r}")
        self._address = address
        self.sensor = sensor
        self.resume = resume
        self.retry_deadline = retry_deadline
        self.retry_interval = retry_interval
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.chunk_bytes = max(1, int(chunk_bytes))
        self.throttle = throttle
        #: Last *durable* cursor (only ack/bye move it — a welcome
        #: cursor is live server state that a crash can roll back).
        self.acked = 0

    # -- plumbing ------------------------------------------------------------

    def _resolve(self) -> tuple[str, ...]:
        spec = self._address
        if callable(spec):
            spec = spec()
        if isinstance(spec, str):
            spec = parse_address(spec)
        kind = spec[0]
        if kind not in ("tcp", "uds"):
            raise ValueError(f"unknown address kind {kind!r}")
        return tuple(spec)

    def _connect(self) -> socket.socket:
        spec = self._resolve()
        if spec[0] == "tcp":
            sock = socket.create_connection(
                (spec[1], int(spec[2])), timeout=self.connect_timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.connect_timeout)
            sock.connect(spec[1])
        sock.settimeout(self.io_timeout)
        return sock

    def _read_message(
        self, sock: socket.socket, buf: bytearray, timeout: float
    ) -> dict[str, Any]:
        deadline = time.monotonic() + timeout
        while True:
            newline = buf.find(b"\n")
            if newline >= 0:
                line = bytes(buf[:newline])
                del buf[: newline + 1]
                if not line.strip():
                    continue
                message = json.loads(line)
                if not isinstance(message, dict):
                    raise SensorError(f"malformed server message: {line!r}")
                return message
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("timed out waiting for a server message")
            sock.settimeout(min(remaining, self.io_timeout))
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk

    def _handle(self, message: Mapping[str, Any]) -> str:
        kind = message.get("type")
        if kind == "error":
            raise SensorError(f"server rejected us: {message.get('reason')}")
        if kind in ("ack", "bye"):
            self.acked = max(self.acked, int(message.get("cursor", 0)))
        return str(kind)

    def _drain_acks(self, sock: socket.socket, buf: bytearray) -> bool:
        """Handle the server messages already readable; True once the
        bye has been read (the server may close right after it)."""
        while True:
            readable, _, _ = select.select([sock], [], [], 0)
            if not readable:
                return False
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
            while True:
                newline = buf.find(b"\n")
                if newline < 0:
                    break
                line = bytes(buf[:newline])
                del buf[: newline + 1]
                if line.strip() and self._handle(json.loads(line)) == "bye":
                    return True

    # -- the replay ----------------------------------------------------------

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

    def replay_lines(self, lines: Sequence[bytes]) -> SensorReport:
        """Stream payload lines until the server's bye confirms them."""
        lines = [
            line if isinstance(line, bytes) else line.encode("utf-8")
            for line in lines
        ]
        deadline = time.monotonic() + self.retry_deadline
        report = SensorReport(sensor=self.sensor)
        while True:
            sock: socket.socket | None = None
            try:
                sock = self._connect()
                inbuf = bytearray()
                hello: dict[str, Any] = {
                    "v": 1,
                    "type": "hello",
                    "schema": NET_SCHEMA,
                    "sensor": self.sensor,
                    # Offer both wires; the line-framed protocol always
                    # negotiates down to "ndjson" (pinned in the
                    # welcome), and v2 files are transcoded client-side.
                    "wire": ["v2", "ndjson"],
                }
                if self.resume == "ack":
                    hello["cursor"] = self.acked
                sock.sendall(_control_line(hello))
                welcome = self._read_message(sock, inbuf, self.io_timeout)
                if self._handle(welcome) != "welcome":
                    raise SensorError(f"expected welcome, got {welcome!r}")
                start = (
                    self.acked
                    if self.resume == "ack"
                    else int(welcome.get("cursor", 0))
                )
                if start > len(lines):
                    raise SensorError(
                        f"server cursor {start} is past our {len(lines)} lines"
                    )
                report.skipped = start
                fin = _control_line({"v": 1, "type": "fin"})
                bye = False
                if self.throttle > 0:
                    for index in range(start, len(lines)):
                        sock.sendall(lines[index] + b"\n")
                        self._drain_acks(sock, inbuf)
                        report.sent += 1
                        time.sleep(self.throttle)
                    sock.sendall(fin)
                else:
                    # One join + sliced sends: the server reassembles
                    # frames from arbitrary chunk boundaries, so the
                    # client owes no per-line work at all.
                    payload = (
                        b"\n".join(lines[start:]) + b"\n"
                        if start < len(lines)
                        else b""
                    ) + fin
                    view = memoryview(payload)
                    for offset in range(0, len(view), self.chunk_bytes):
                        sock.sendall(view[offset : offset + self.chunk_bytes])
                        # Only the last chunk carries the fin, so only
                        # its drain can see the bye.
                        bye = self._drain_acks(sock, inbuf)
                    report.sent += len(lines) - start
                while not bye:
                    message = self._read_message(sock, inbuf, self.io_timeout)
                    bye = self._handle(message) == "bye"
                report.acked = self.acked
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
                time.sleep(self.retry_interval)
            finally:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass


class SensorStream:
    """Incremental (push-style) sibling of :class:`SensorClient`.

    ``SensorClient.replay_lines`` wants the whole shard up front; the
    cluster router discovers a partition's lines only as the upstream
    merge releases them.  A ``SensorStream`` holds one connection open
    and accepts lines as they arrive, deduplicating against the
    server's welcome cursor: every offered line advances the local
    cursor, but only lines at or past the resume point are buffered and
    sent.  That is exactly-once across router restarts because both the
    upstream K-way merge and the per-server split are deterministic —
    a restarted router re-offers the same line sequence, and the
    partition's welcome cursor tells it how much is already durable.

    Not thread-safe; each stream belongs to one router thread.
    """

    def __init__(
        self,
        address: Any,
        sensor: str,
        connect_timeout: float = 5.0,
        io_timeout: float = 30.0,
        chunk_bytes: int = 1 << 15,
    ) -> None:
        self._client = SensorClient(
            address,
            sensor,
            connect_timeout=connect_timeout,
            io_timeout=io_timeout,
            chunk_bytes=chunk_bytes,
        )
        self.sensor = sensor
        self.chunk_bytes = max(1, int(chunk_bytes))
        #: Lines offered so far (== the partition's replay cursor).
        self.cursor = 0
        #: The welcome cursor: lines below this were already durable.
        self.start = 0
        self.sent = 0
        self.skipped = 0
        self._sock: socket.socket | None = None
        self._inbuf = bytearray()
        self._outbuf = bytearray()
        self._finished = False

    def connect(self) -> int:
        """Open the connection, speak hello/welcome; returns the resume
        cursor (lines below it must not be re-buffered)."""
        if self._sock is not None:
            raise SensorError(f"stream {self.sensor!r} is already connected")
        sock = self._client._connect()
        try:
            hello = {
                "v": 1,
                "type": "hello",
                "schema": NET_SCHEMA,
                "sensor": self.sensor,
            }
            sock.sendall(_control_line(hello))
            welcome = self._client._read_message(
                sock, self._inbuf, self._client.io_timeout
            )
            if self._client._handle(welcome) != "welcome":
                raise SensorError(f"expected welcome, got {welcome!r}")
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self.start = int(welcome.get("cursor", 0))
        self.skipped = self.start
        return self.start

    def send_lines(self, lines: Sequence[bytes]) -> None:
        """Offer payload lines; resume-skipped ones only move the cursor."""
        if self._sock is None:
            raise SensorError(f"stream {self.sensor!r} is not connected")
        if self._finished:
            raise SensorError(f"stream {self.sensor!r} is finished")
        for line in lines:
            if not isinstance(line, bytes):
                line = line.encode("utf-8")
            self.cursor += 1
            if self.cursor <= self.start:
                continue
            self._outbuf += line
            self._outbuf += b"\n"
            self.sent += 1
        if len(self._outbuf) >= self.chunk_bytes:
            self.flush()

    def flush(self) -> None:
        if self._sock is None or not self._outbuf:
            return
        self._sock.sendall(self._outbuf)
        self._outbuf = bytearray()
        self._client._drain_acks(self._sock, self._inbuf)

    def sync(self, timeout: float | None = None) -> int:
        """Durability barrier: flush, send ``sync``, wait until the
        server's ack covers every line offered so far.  Returns the
        acked cursor.  Only meaningful against a single-sensor backend
        (see the protocol notes) — the cluster failover tier uses it to
        pin a partition's durable frontier before failing it over.
        """
        if self._sock is None:
            raise SensorError(f"stream {self.sensor!r} is not connected")
        if self._finished:
            raise SensorError(f"stream {self.sensor!r} is finished")
        self.flush()
        if self._client.acked >= self.cursor:
            return self._client.acked
        self._sock.sendall(_control_line({"v": 1, "type": "sync"}))
        deadline = (
            time.monotonic() + (timeout if timeout is not None else self._client.io_timeout)
        )
        while self._client.acked < self.cursor:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SensorError(
                    f"stream {self.sensor!r}: sync barrier timed out at "
                    f"acked {self._client.acked} < cursor {self.cursor}"
                )
            message = self._client._read_message(self._sock, self._inbuf, remaining)
            self._client._handle(message)
        return self._client.acked

    def finish(self) -> int:
        """Flush, send fin, wait for bye; returns the durable cursor."""
        if self._sock is None:
            raise SensorError(f"stream {self.sensor!r} is not connected")
        if self._finished:
            return self._client.acked
        self.flush()
        self._sock.sendall(_control_line({"v": 1, "type": "fin"}))
        while True:
            message = self._client._read_message(
                self._sock, self._inbuf, self._client.io_timeout
            )
            if self._client._handle(message) == "bye":
                break
        self._finished = True
        return self._client.acked

    @property
    def acked(self) -> int:
        return self._client.acked

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


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
    lines = [
        line if isinstance(line, bytes) else line.encode("utf-8") for line in lines
    ]
    header: list[bytes] = []
    if lines:
        try:
            data = json.loads(lines[0])
        except ValueError:
            data = None
        if isinstance(data, dict) and data.get("type") == "header":
            header = [lines[0]]
            lines = lines[1:]
    return header + [line for i, line in enumerate(lines) if i % count == index]
