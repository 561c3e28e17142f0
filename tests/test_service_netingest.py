"""Sensornet: the determinism-first network ingest test harness.

Two layers, matching the module's design:

* **SensorMux tests** drive the transport-independent core directly —
  no sockets anywhere near the determinism argument.  The headline
  property (hypothesis): *any* partition of a trace across K simulated
  sensor connections, interleaved in any order, yields byte-identical
  landscape output to the single-file replay, for K ∈ {1, 2, 5, 32}.
* **Socket tests** run a real :class:`NetIngestServer` on localhost TCP
  and a Unix-domain socket with concurrent :class:`SensorClient`
  threads — connection churn, mid-record TCP resets, slowloris partial
  frames, duplicate-resume replays, backpressure pauses, and the
  subprocess SIGKILL drill with three live connections.
"""

import io
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.service.daemon import BotMeterDaemon
from repro.service.netingest import (
    NET_SCHEMA,
    NetIngestServer,
    ProtocolError,
    SensorClient,
    SensorMux,
    parse_address,
    read_address_file,
    shard_trace_lines,
)
from repro.service.tracing import validate_trace_event

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A small exported sim day, shared by every test in the module."""
    path = tmp_path_factory.mktemp("netingest") / "trace.ndjson"
    assert (
        main(
            [
                "export-trace",
                "--source", "sim",
                "--family", "murofet",
                "--bots", "12",
                "--servers", "2",
                "--days", "1",
                "--seed", "5",
                "--out", str(path),
            ]
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def trace_lines(trace):
    return trace.read_bytes().splitlines()


@pytest.fixture(scope="module")
def reference(trace, tmp_path_factory):
    """The single-file replay — the byte-identity anchor."""
    out = tmp_path_factory.mktemp("netingest-ref") / "reference.ndjson"
    assert (
        main(["replay", str(trace), "--out", str(out), "--trace-sample", "0"]) == 0
    )
    return out.read_bytes()


@pytest.fixture(scope="module")
def tiny_trace_lines(trace_lines):
    """A truncated stream (header + ~200 records) for hypothesis."""
    return trace_lines[:201]


@pytest.fixture(scope="module")
def tiny_reference(tiny_trace_lines, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("netingest-tiny")
    path = tmp / "tiny.ndjson"
    path.write_bytes(b"\n".join(tiny_trace_lines) + b"\n")
    out = tmp / "tiny-ref.ndjson"
    assert (
        main(["replay", str(path), "--out", str(out), "--trace-sample", "0"]) == 0
    )
    return out.read_bytes()


# ---------------------------------------------------------------------------
# Harnesses
# ---------------------------------------------------------------------------


def _hello(sensor, cursor=None):
    message = {"v": 1, "type": "hello", "schema": NET_SCHEMA, "sensor": sensor}
    if cursor is not None:
        message["cursor"] = cursor
    return (json.dumps(message) + "\n").encode()


_FIN = b'{"v": 1, "type": "fin"}\n'


class MuxHarness:
    """A SensorMux wired to a real daemon, no sockets."""

    def __init__(self, tmp_path, name="mux", expect=None, window=4096, **kwargs):
        self.out = tmp_path / f"{name}.ndjson"
        kwargs.setdefault("batch_lines", 256)
        self.daemon = BotMeterDaemon(
            f"mux:{name}",
            out_path=self.out,
            trace_sample=0,
            log_stream=io.StringIO(),
            **kwargs,
        )
        self.controls = []
        self.mux = SensorMux(
            consume=self._consume,
            control=lambda conn, message: self.controls.append((conn, message)),
            expect_sensors=expect,
            window=window,
        )
        self.daemon._fresh_outputs()

    def _consume(self, raw, data):
        if data is None:
            self.daemon._consume_one(raw)
        else:
            self.daemon._consume_parsed(raw, data)

    def feed_shard(self, conn_id, sensor, lines, fin=True, cursor=None):
        self.mux.attach(conn_id)
        self.mux.feed(conn_id, _hello(sensor, cursor))
        self.mux.feed(conn_id, b"\n".join(lines) + b"\n" if lines else b"")
        if fin:
            self.mux.feed(conn_id, _FIN)

    def finish(self):
        assert self.mux.finished
        self.daemon._finish_stream(self.mux.lines_released)
        self.daemon._cleanup()
        return self.out.read_bytes()


class RawSensor:
    """A hand-rolled protocol speaker for fault drills."""

    def __init__(self, address, sensor):
        self.sensor = sensor
        if address[0] == "tcp":
            self.sock = socket.create_connection(
                (address[1], address[2]), timeout=10
            )
        else:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(10)
            self.sock.connect(address[1])
        self.sock.settimeout(30)
        self.buf = bytearray()

    def read_message(self):
        while True:
            newline = self.buf.find(b"\n")
            if newline >= 0:
                line = bytes(self.buf[:newline])
                del self.buf[: newline + 1]
                if line.strip():
                    return json.loads(line)
                continue
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed")
            self.buf += chunk

    def hello(self, cursor=None):
        self.sock.sendall(_hello(self.sensor, cursor))
        return self.read_message()

    def send(self, payload: bytes):
        self.sock.sendall(payload)

    def fin_and_wait_bye(self):
        self.sock.sendall(_FIN)
        while True:
            message = self.read_message()
            if message["type"] == "bye":
                return message
            assert message["type"] == "ack"

    def reset(self):
        """Abort the connection with an RST (SO_LINGER zero-timeout)."""
        self.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        self.sock.close()

    def close(self):
        self.sock.close()


def _net_replay(
    trace_lines,
    tmp_path,
    sensors=3,
    transport="tcp",
    window=4096,
    trace_out=None,
    checkpoint=None,
    checkpoint_every=500,
):
    """Full socket replay: server thread + one client thread per shard."""
    out = tmp_path / "net.ndjson"
    daemon = BotMeterDaemon(
        f"net:{transport}",
        out_path=out,
        checkpoint_path=checkpoint,
        checkpoint_every=checkpoint_every,
        batch_lines=256,
        trace_out=trace_out,
        trace_sample=16 if trace_out is not None else 0,
        log_stream=io.StringIO(),
    )
    server = NetIngestServer(
        daemon,
        tcp=("127.0.0.1", 0) if transport in ("tcp", "mixed") else None,
        uds=(tmp_path / "ingest.sock") if transport in ("uds", "mixed") else None,
        expect_sensors=sensors,
        window=window,
    )
    thread = server.run_in_thread()
    shards = [shard_trace_lines(trace_lines, i, sensors) for i in range(sensors)]
    if transport == "tcp":
        addresses = [("tcp", *server.tcp_address)] * sensors
    elif transport == "uds":
        addresses = [("uds", server.uds_path)] * sensors
    else:
        addresses = [
            ("tcp", *server.tcp_address) if i % 2 == 0 else ("uds", server.uds_path)
            for i in range(sensors)
        ]
    reports, errors = [], []

    def _one(i):
        try:
            client = SensorClient(addresses[i], f"sensor-{i:02d}", retry_deadline=60)
            reports.append(client.replay_lines(shards[i]))
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    client_threads = [
        threading.Thread(target=_one, args=(i,), daemon=True) for i in range(sensors)
    ]
    for t in client_threads:
        t.start()
    for t in client_threads:
        t.join(timeout=120)
    thread.join(timeout=60)
    if errors:
        server.stop()
        raise errors[0]
    if server.error is not None:
        raise server.error
    assert not thread.is_alive(), "server did not finish"
    return out.read_bytes(), daemon, reports


# ---------------------------------------------------------------------------
# SensorMux: the determinism core
# ---------------------------------------------------------------------------


class TestSensorMux:
    def test_single_sensor_matches_file_replay(
        self, trace_lines, reference, tmp_path
    ):
        harness = MuxHarness(tmp_path, expect=1)
        harness.feed_shard(1, "solo", trace_lines)
        assert harness.finish() == reference
        assert harness.mux.cursors == {"solo": len(trace_lines)}

    def test_partition_is_interleaving_independent(
        self, trace_lines, reference, tmp_path
    ):
        shards = [shard_trace_lines(trace_lines, i, 3) for i in range(3)]
        outputs = []
        for order in ([0, 1, 2], [2, 0, 1]):
            harness = MuxHarness(tmp_path, name=f"order-{order[0]}", expect=3)
            for conn, i in enumerate(order):
                harness.feed_shard(conn, f"s{i}", shards[i])
            outputs.append(harness.finish())
        assert outputs[0] == outputs[1] == reference

    def test_chunk_boundaries_do_not_matter(
        self, tiny_trace_lines, tiny_reference, tmp_path
    ):
        """Byte-level framing (slowloris-style dribble) changes nothing."""
        harness = MuxHarness(tmp_path, expect=1)
        harness.mux.attach(1)
        stream = _hello("drip") + b"\n".join(tiny_trace_lines) + b"\n" + _FIN
        for start in range(0, len(stream), 7):
            harness.mux.feed(1, stream[start : start + 7])
        assert harness.finish() == tiny_reference

    def test_merge_gates_on_expected_sensors(self, trace_lines, tmp_path):
        harness = MuxHarness(tmp_path, expect=2)
        harness.feed_shard(1, "early", shard_trace_lines(trace_lines, 0, 2))
        # Sensor "early" is done, but the gate holds: nothing released.
        assert harness.daemon.records_consumed == 0
        assert not harness.mux.finished
        harness.feed_shard(2, "late", shard_trace_lines(trace_lines, 1, 2))
        assert harness.mux.finished
        assert harness.daemon.reader.records == len(trace_lines) - 1

    def test_duplicate_resume_lines_discarded_before_reader(
        self, tiny_trace_lines, tiny_reference, tmp_path
    ):
        harness = MuxHarness(tmp_path, expect=1)
        harness.feed_shard(1, "dup", tiny_trace_lines, fin=False)
        self_records = harness.daemon.reader.records
        harness.mux.detach(1)
        # Full resend from cursor 0 — every line is a duplicate.
        harness.feed_shard(2, "dup", tiny_trace_lines, cursor=0)
        assert harness.mux.duplicates == len(tiny_trace_lines)
        assert harness.daemon.reader.records == self_records
        assert harness.finish() == tiny_reference

    def test_cursor_gap_is_a_protocol_error(self, tmp_path):
        harness = MuxHarness(tmp_path)
        harness.mux.attach(1)
        with pytest.raises(ProtocolError, match="cursor gap"):
            harness.mux.feed(1, _hello("gap", cursor=5))

    def test_payload_before_hello_is_a_protocol_error(self, tmp_path):
        harness = MuxHarness(tmp_path)
        harness.mux.attach(1)
        with pytest.raises(ProtocolError, match="hello"):
            harness.mux.feed(1, b'{"v": 1, "timestamp": 1.0}\n')

    def test_oversized_unframed_line_is_a_protocol_error(self, tmp_path):
        harness = MuxHarness(tmp_path)
        harness.mux.max_line = 64
        harness.mux.attach(1)
        harness.mux.feed(1, _hello("big"))
        with pytest.raises(ProtocolError, match="exceeds"):
            harness.mux.feed(1, b"x" * 100)

    def test_partial_tail_dropped_on_detach(
        self, tiny_trace_lines, tiny_reference, tmp_path
    ):
        """A mid-record reset never reaches the reader's corrupt budget."""
        harness = MuxHarness(tmp_path, expect=1)
        harness.mux.attach(1)
        harness.mux.feed(1, _hello("resetter"))
        keep = tiny_trace_lines[:50]
        harness.mux.feed(1, b"\n".join(keep) + b"\n")
        harness.mux.feed(1, tiny_trace_lines[50][:13])  # mid-record cut
        harness.mux.detach(1)
        assert harness.mux.partial_resets == 1
        assert harness.daemon.reader.corrupt == 0
        # Reconnect resumes from the live cursor and resends the rest.
        cursor = harness.mux.cursors["resetter"]
        assert cursor == len(keep)
        harness.feed_shard(2, "resetter", tiny_trace_lines[cursor:], cursor=cursor)
        assert harness.finish() == tiny_reference

    def test_dirty_lines_ride_with_next_record(self, tmp_path, tiny_trace_lines):
        """Blank/corrupt payload lines keep exact counters and bytes for
        a single sensor (its stream *is* the file)."""
        dirty = list(tiny_trace_lines[:40])
        dirty.insert(10, b"")
        dirty.insert(20, b"{this is not json")
        dirty.append(b'{"v": 1, "type": "mystery"}')  # trailing stash
        path = tmp_path / "dirty.ndjson"
        path.write_bytes(b"\n".join(dirty) + b"\n")
        out = tmp_path / "dirty-ref.ndjson"
        assert main(["replay", str(path), "--out", str(out), "--trace-sample", "0"]) == 0
        harness = MuxHarness(tmp_path, expect=1)
        harness.feed_shard(1, "dirty", dirty)
        assert harness.finish() == out.read_bytes()
        assert harness.daemon.reader.blank == 1
        assert harness.daemon.reader.corrupt == 2
        assert harness.mux.cursors["dirty"] == len(dirty)

    def test_empty_shard_sensor_only_handshakes(
        self, tiny_trace_lines, tiny_reference, tmp_path
    ):
        harness = MuxHarness(tmp_path, expect=2)
        harness.feed_shard(1, "carrier", tiny_trace_lines)
        harness.feed_shard(2, "idle", [])
        assert harness.finish() == tiny_reference
        assert harness.mux.cursors == {
            "carrier": len(tiny_trace_lines),
            "idle": 0,
        }

    def test_window_occupancy_rises_while_gated(self, trace_lines, tmp_path):
        harness = MuxHarness(tmp_path, expect=2, window=16)
        harness.feed_shard(1, "fast", shard_trace_lines(trace_lines, 0, 2), fin=False)
        assert harness.mux.pending_lines_of(1) > 16
        harness.feed_shard(2, "slow", shard_trace_lines(trace_lines, 1, 2))
        assert harness.mux.pending_lines_of(1) == 0  # merge drained it

    def test_welcome_carries_resume_cursor(self, tiny_trace_lines, tmp_path):
        harness = MuxHarness(tmp_path, expect=1)
        harness.feed_shard(1, "greet", tiny_trace_lines[:30], fin=False)
        harness.mux.detach(1)
        harness.mux.attach(2)
        harness.mux.feed(2, _hello("greet"))
        welcome = harness.controls[-1][1]
        assert welcome["type"] == "welcome"
        assert welcome["cursor"] == 30
        assert welcome["schema"] == NET_SCHEMA

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_partition_any_interleaving_matches_file_replay(
        self, tiny_trace_lines, tiny_reference, tmp_path_factory, data
    ):
        """The headline property: arbitrary record-to-sensor partition,
        arbitrary round-robin interleaving, K ∈ {1, 2, 5, 32}."""
        header, payload = tiny_trace_lines[0], tiny_trace_lines[1:]
        k = data.draw(st.sampled_from([1, 2, 5, 32]))
        assignment = data.draw(
            st.lists(
                st.integers(0, k - 1),
                min_size=len(payload),
                max_size=len(payload),
            )
        )
        rounds = data.draw(st.integers(1, 4))
        order = data.draw(st.permutations(list(range(k))))
        shards = [[header] for _ in range(k)]
        for line, sensor in zip(payload, assignment):
            shards[sensor].append(line)
        tmp = tmp_path_factory.mktemp("hyp")
        harness = MuxHarness(tmp, expect=k)
        for i in range(k):
            harness.mux.attach(i)
            harness.mux.feed(i, _hello(f"s{i:02d}"))
        step = -(-max(len(s) for s in shards) // rounds)
        for round_index in range(rounds):
            for i in order:
                chunk = shards[i][round_index * step : (round_index + 1) * step]
                if chunk:
                    harness.mux.feed(i, b"\n".join(chunk) + b"\n")
        for i in order:
            harness.mux.feed(i, _FIN)
        assert harness.finish() == tiny_reference


# ---------------------------------------------------------------------------
# Sockets: TCP, UDS, churn, faults
# ---------------------------------------------------------------------------


class TestSocketReplay:
    def test_tcp_three_sensors_byte_identical(
        self, trace_lines, reference, tmp_path
    ):
        output, daemon, reports = _net_replay(trace_lines, tmp_path, sensors=3)
        assert output == reference
        snapshot = daemon.metrics.snapshot()
        payload_total = sum(
            len(shard_trace_lines(trace_lines, i, 3)) for i in range(3)
        )
        assert snapshot["botmeterd_net_lines_total"] == payload_total
        assert {r.sensor: r.acked for r in reports} == {
            f"sensor-{i:02d}": len(shard_trace_lines(trace_lines, i, 3))
            for i in range(3)
        }

    def test_uds_three_sensors_byte_identical(
        self, trace_lines, reference, tmp_path
    ):
        output, _, _ = _net_replay(trace_lines, tmp_path, sensors=3, transport="uds")
        assert output == reference

    def test_mixed_tcp_and_uds_sensors(self, trace_lines, reference, tmp_path):
        output, _, _ = _net_replay(
            trace_lines, tmp_path, sensors=4, transport="mixed"
        )
        assert output == reference

    def test_tracing_on_is_byte_identical_with_net_spans(
        self, trace_lines, reference, tmp_path
    ):
        trace_out = tmp_path / "spans.ndjson"
        output, _, _ = _net_replay(
            trace_lines, tmp_path, sensors=3, trace_out=trace_out
        )
        assert output == reference
        stages = set()
        with open(trace_out) as fh:
            for line in fh:
                event = json.loads(line)
                assert validate_trace_event(event) in (
                    "trace-header", "span", "trace-summary",
                )
                if event["type"] == "span":
                    stages.add(event["stage"])
        # The net tier's own spans, plus the classic pipeline stages.
        assert {"accept", "read", "frame"} <= stages
        assert {"decode", "estimate", "emit"} <= stages

    def test_checkpoint_carries_cursor_map(self, trace_lines, reference, tmp_path):
        checkpoint = tmp_path / "checkpoint.json"
        output, _, reports = _net_replay(
            trace_lines,
            tmp_path,
            sensors=3,
            checkpoint=checkpoint,
            checkpoint_every=64,
        )
        assert output == reference
        state = json.loads(checkpoint.read_text())
        assert state["sensors"] == {
            f"sensor-{i:02d}": len(shard_trace_lines(trace_lines, i, 3))
            for i in range(3)
        }
        assert state["net_header"]["type"] == "header"
        # Every client saw a durable ack for its whole shard.
        assert all(r.acked == state["sensors"][r.sensor] for r in reports)

    def test_mid_record_tcp_reset_then_resume(
        self, trace_lines, reference, tmp_path
    ):
        """Connection churn: one sensor RSTs mid-record, reconnects from
        the welcome cursor; no corrupt charge, no double records."""
        shards = [shard_trace_lines(trace_lines, i, 3) for i in range(3)]
        out = tmp_path / "net.ndjson"
        daemon = BotMeterDaemon(
            "net:churn",
            out_path=out,
            batch_lines=256,
            trace_sample=0,
            log_stream=io.StringIO(),
        )
        server = NetIngestServer(daemon, tcp=("127.0.0.1", 0), expect_sensors=3)
        thread = server.run_in_thread()
        address = ("tcp", *server.tcp_address)
        errors = []

        def _steady(i):
            try:
                client = SensorClient(address, f"sensor-{i:02d}", retry_deadline=60)
                client.replay_lines(shards[i])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def _churny():
            try:
                raw = RawSensor(address, "sensor-00")
                assert raw.hello()["cursor"] == 0
                raw.send(b"\n".join(shards[0][:40]) + b"\n")
                raw.send(shards[0][40][:11])  # mid-record...
                time.sleep(0.3)  # let the server drain its socket
                raw.reset()  # ...RST
                client = SensorClient(address, "sensor-00", retry_deadline=60)
                client.replay_lines(shards[0])  # welcome-cursor resume
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=_churny, daemon=True)] + [
            threading.Thread(target=_steady, args=(i,), daemon=True)
            for i in (1, 2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        thread.join(timeout=60)
        if errors:
            server.stop()
            raise errors[0]
        assert server.error is None
        assert out.read_bytes() == reference
        snapshot = daemon.metrics.snapshot()
        assert snapshot["botmeterd_net_partial_resets_total"] >= 1
        assert daemon.reader.corrupt == 0
        assert daemon.records_consumed == len(trace_lines) - 1

    def test_slowloris_partial_frames(self, tiny_trace_lines, tiny_reference, tmp_path):
        """One sensor dribbles 7 bytes at a time; output is unaffected."""
        shards = [shard_trace_lines(tiny_trace_lines, i, 2) for i in range(2)]
        out = tmp_path / "net.ndjson"
        daemon = BotMeterDaemon(
            "net:slow",
            out_path=out,
            batch_lines=256,
            trace_sample=0,
            log_stream=io.StringIO(),
        )
        server = NetIngestServer(daemon, tcp=("127.0.0.1", 0), expect_sensors=2)
        thread = server.run_in_thread()
        address = ("tcp", *server.tcp_address)
        errors = []

        def _steady():
            try:
                SensorClient(address, "sensor-01", retry_deadline=60).replay_lines(
                    shards[1]
                )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def _slow():
            try:
                raw = RawSensor(address, "sensor-00")
                raw.hello()
                stream = b"\n".join(shards[0]) + b"\n"
                for start in range(0, len(stream), 7):
                    raw.send(stream[start : start + 7])
                raw.fin_and_wait_bye()
                raw.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=_slow, daemon=True),
            threading.Thread(target=_steady, daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        thread.join(timeout=60)
        if errors:
            server.stop()
            raise errors[0]
        assert out.read_bytes() == tiny_reference

    def test_duplicate_resume_replay_is_discarded(
        self, tiny_trace_lines, tiny_reference, tmp_path
    ):
        """An ack-mode client that lost its ack state resends everything;
        the server discards the overlap."""
        out = tmp_path / "net.ndjson"
        daemon = BotMeterDaemon(
            "net:dup",
            out_path=out,
            batch_lines=256,
            trace_sample=0,
            log_stream=io.StringIO(),
        )
        server = NetIngestServer(daemon, tcp=("127.0.0.1", 0), expect_sensors=1)
        thread = server.run_in_thread()
        address = ("tcp", *server.tcp_address)
        raw = RawSensor(address, "solo")
        raw.hello()
        raw.send(b"\n".join(tiny_trace_lines[:80]) + b"\n")
        time.sleep(0.4)  # let the single-sensor merge release them
        raw.reset()
        client = SensorClient(address, "solo", resume="ack", retry_deadline=60)
        client.replay_lines(tiny_trace_lines)  # acked=0 -> full resend
        thread.join(timeout=60)
        assert server.error is None
        assert out.read_bytes() == tiny_reference
        snapshot = daemon.metrics.snapshot()
        assert snapshot["botmeterd_net_duplicate_lines_total"] > 0
        assert daemon.reader.records == len(tiny_trace_lines) - 1

    def test_backpressure_pauses_fast_sensor(self, trace_lines, reference, tmp_path):
        """A tiny window plus a late second sensor forces a read pause."""
        shards = [shard_trace_lines(trace_lines, i, 2) for i in range(2)]
        out = tmp_path / "net.ndjson"
        daemon = BotMeterDaemon(
            "net:pause",
            out_path=out,
            batch_lines=256,
            trace_sample=0,
            log_stream=io.StringIO(),
        )
        server = NetIngestServer(
            daemon, tcp=("127.0.0.1", 0), expect_sensors=2, window=8
        )
        thread = server.run_in_thread()
        address = ("tcp", *server.tcp_address)
        errors = []

        def _client(i, delay):
            try:
                time.sleep(delay)
                SensorClient(
                    address, f"sensor-{i:02d}", retry_deadline=60
                ).replay_lines(shards[i])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=_client, args=(0, 0.0), daemon=True),
            threading.Thread(target=_client, args=(1, 0.7), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        thread.join(timeout=60)
        if errors:
            server.stop()
            raise errors[0]
        assert out.read_bytes() == reference
        assert daemon.metrics.snapshot()["botmeterd_net_pauses_total"] >= 1


class TestSigkillDrill:
    def test_sigkill_with_three_live_connections_resumes_exactly(
        self, trace, trace_lines, reference, tmp_path
    ):
        """SIGKILL the serve process mid-stream with 3 live sensors;
        restart; sensors resume from acked cursors; byte-identical final
        landscape and no double-charged records."""
        out = tmp_path / "net.ndjson"
        checkpoint = tmp_path / "checkpoint.json"
        addr_file = tmp_path / "addr.json"
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--addr-file", str(addr_file),
            "--expect-sensors", "3",
            "--out", str(out),
            "--checkpoint", str(checkpoint),
            "--checkpoint-every", "50",
            "--trace-sample", "0",
        ]
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        shards = [shard_trace_lines(trace_lines, i, 3) for i in range(3)]
        reports, errors = {}, []

        def _sensor(i):
            try:
                client = SensorClient(
                    lambda: read_address_file(addr_file),
                    f"sensor-{i:02d}",
                    resume="ack",
                    retry_deadline=120,
                    throttle=0.002,
                )
                reports[i] = client.replay_lines(shards[i])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        try:
            client_threads = [
                threading.Thread(target=_sensor, args=(i,), daemon=True)
                for i in range(3)
            ]
            for t in client_threads:
                t.start()
            deadline = time.monotonic() + 60
            while not checkpoint.exists():
                assert proc.poll() is None, "server finished before the kill"
                assert time.monotonic() < deadline, "no checkpoint before deadline"
                time.sleep(0.01)
            proc.kill()
            proc.wait(timeout=30)
            assert proc.returncode == -signal.SIGKILL
            # The sensors are now retrying against a dead address.  A
            # restarted server binds a new ephemeral port and rewrites
            # the addr file; the clients re-resolve and resume.
            proc = subprocess.Popen(
                argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
            )
            for t in client_threads:
                t.join(timeout=180)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        if errors:
            raise errors[0]
        assert out.read_bytes() == reference
        state = json.loads(checkpoint.read_text())
        n_records = len(trace_lines) - 1
        # No double-charged records anywhere: the daemon's counter, the
        # engine's metric, and the released-line total all balance.
        assert state["records_consumed"] == n_records
        assert state["reader"]["records"] == n_records
        assert state["reader"]["corrupt"] == 0
        assert state["sensors"] == {
            f"sensor-{i:02d}": len(shards[i]) for i in range(3)
        }
        metrics = state["metrics"]
        ingested = metrics["botmeterd_records_ingested_total"]["series"]
        assert sum(value for _labels, value in ingested) == n_records
        assert all(reports[i].acked == len(shards[i]) for i in range(3))


# ---------------------------------------------------------------------------
# Client + helpers
# ---------------------------------------------------------------------------


class TestHelpers:
    def test_shard_lines_partition_payload_and_replicate_header(
        self, trace_lines
    ):
        shards = [shard_trace_lines(trace_lines, i, 5) for i in range(5)]
        assert all(shard[0] == trace_lines[0] for shard in shards)
        payload = sorted(line for shard in shards for line in shard[1:])
        assert payload == sorted(trace_lines[1:])
        assert sum(len(s) - 1 for s in shards) == len(trace_lines) - 1

    def test_parse_address_forms(self):
        assert parse_address("uds:/tmp/x.sock") == ("uds", "/tmp/x.sock")
        assert parse_address("127.0.0.1:4242") == ("tcp", "127.0.0.1", 4242)
        assert parse_address(":9000") == ("tcp", "127.0.0.1", 9000)
        with pytest.raises(ValueError):
            parse_address("no-port-here")

    def test_address_file_round_trip(self, tmp_path):
        from repro.service.netingest import write_address_file

        path = tmp_path / "addr.json"
        write_address_file(path, tcp=("127.0.0.1", 4242), uds="/tmp/x.sock")
        assert read_address_file(path) == ("tcp", "127.0.0.1", 4242)
        assert read_address_file(path, prefer="uds") == ("uds", "/tmp/x.sock")
        write_address_file(path, tcp=None, uds="/tmp/x.sock")
        assert read_address_file(path) == ("uds", "/tmp/x.sock")

    def test_gauge_add_tracks_open_close_pairs(self):
        from repro.service.metrics import MetricsRegistry

        registry = MetricsRegistry()
        gauge = registry.gauge("g", "test")
        gauge.add(1)
        gauge.add(1)
        gauge.add(-1)
        assert registry.snapshot()["g"] == 1.0
        gauge.add(2, sensor="a")
        gauge.add(-1, sensor="a")
        assert registry.snapshot()["g"]["sensor=a"] == 1.0

    def test_sensor_send_cli_round_trip(self, trace, trace_lines, reference, tmp_path):
        """The sensor-send verb against a serve --listen process, via
        in-process threads (covers the CLI argument plumbing)."""
        out = tmp_path / "net.ndjson"
        daemon = BotMeterDaemon(
            "net:cli",
            out_path=out,
            batch_lines=256,
            trace_sample=0,
            log_stream=io.StringIO(),
        )
        server = NetIngestServer(daemon, tcp=("127.0.0.1", 0), expect_sensors=2)
        thread = server.run_in_thread()
        host, port = server.tcp_address
        results, threads = [], []
        for i in range(2):
            argv = [
                "sensor-send", str(trace),
                "--connect", f"{host}:{port}",
                "--sensor", f"sensor-{i:02d}",
                "--shard", f"{i}/2",
            ]
            threads.append(
                threading.Thread(
                    target=lambda a=argv: results.append(main(a)), daemon=True
                )
            )
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        thread.join(timeout=60)
        assert results == [0, 0]
        assert server.error is None
        assert out.read_bytes() == reference
