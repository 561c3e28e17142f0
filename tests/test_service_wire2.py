"""Tests for the compact binary wire format v2 (``botmeterd-wire-v2``).

The contract under test is the Fastlane tentpole guarantee: a wire-v2
replay of a trace produces **byte-identical** landscape NDJSON to the
NDJSON replay of the same trace — at any ingest-worker count, any
cluster partition width, with tracing on or off, and across a SIGKILL
mid-stream — while the frame decoder honours the same counted-skip /
quarantine semantics as the tolerant line reader (a corrupt frame or
junk region quarantines *bytes*, never the stream).

Three property suites pin the format itself:

* encode -> decode round-trips arbitrary ``ForwardedLookup`` streams
  exactly, at any frame size;
* decoding is **chunking-invariant** — any split of the byte stream
  yields the same events, counters and consumed offsets as a single
  push (the PR-4 batch-decoder property, extended to the binary
  format);
* converting any mixed NDJSON stream (records, headers, junk) to v2
  and decoding it yields the same records and corrupt count as the
  line-at-a-time NDJSON reader.
"""

from __future__ import annotations

import io
import json
import os
import signal
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.dns.message import ForwardedLookup
from repro.service.wire import NdjsonReader, encode_record
from repro.service.wire2 import (
    WIRE2_MAGIC,
    Wire2BatchDecoder,
    Wire2Writer,
    ndjson_to_wire2,
    sniff_wire2,
    wire2_to_ndjson_lines,
)

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(min_size=1, max_size=40)
lookups = st.builds(ForwardedLookup, finite_floats, names, names)


def _encode(records, frame_records=4096, header=None, junk_at=()):
    """A v2 byte stream for ``records``, with optional injected junk."""
    buf = io.BytesIO()
    writer = Wire2Writer(buf, frame_records=frame_records)
    if header is not None:
        writer.write_header(header)
    for record in records:
        writer.add(record)
    writer.close()
    data = buf.getvalue()
    for position, junk in sorted(junk_at, reverse=True):
        data = data[:position] + junk + data[position:]
    return data


def _drain(decoder, data, chunks=None):
    """All events from ``data`` (optionally pre-split), tail settled."""
    events = []
    for chunk in [data] if chunks is None else chunks:
        events.extend(decoder.iter_events(chunk))
    events.extend(decoder.flush(complete=True))
    return events


def _records_of(events):
    out = []
    for event in events:
        if event[0] == "columns":
            out.extend(event[1].materialize())
    return out


def _counters(reader):
    return {
        "records": reader.records,
        "blank": reader.blank,
        "corrupt": reader.corrupt,
        "truncated_tail": reader.truncated_tail,
        "header": reader.header,
    }


# ---------------------------------------------------------------------------
# Encode -> decode round trip (the satellite property test)
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @given(st.lists(lookups, max_size=64), st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_is_exact(self, records, frame_records):
        data = _encode(records, frame_records, header={"v": 1, "type": "header"})
        decoder = Wire2BatchDecoder()
        events = _drain(decoder, data)
        assert _records_of(events) == records
        assert decoder.reader.corrupt == 0
        assert decoder.reader.records == len(records)
        assert decoder.reader.header == {"v": 1, "type": "header"}
        assert decoder.consumed == len(data)
        assert decoder.pending == 0

    def test_string_tables_are_frame_scoped(self):
        """Every frame decodes on its own — a stream resumed at any
        frame boundary never needs state from earlier frames."""
        records = [
            ForwardedLookup(float(i), f"s{i % 3}", f"d{i % 5}.example")
            for i in range(10)
        ]
        data = _encode(records, frame_records=4)
        # Decode only the *second* frame by skipping the first whole one.
        probe = Wire2BatchDecoder()
        first = next(iter(probe.iter_events(data)))
        assert first[0] == "columns"
        rest = Wire2BatchDecoder()
        events = _drain(rest, data[probe.consumed :])
        assert _records_of(events) == records[4:]
        assert rest.reader.corrupt == 0

    def test_sniff_distinguishes_v2_from_ndjson(self):
        assert sniff_wire2(_encode([ForwardedLookup(1.0, "s", "d")])[:4])
        assert not sniff_wire2(b'{"v":')
        assert not sniff_wire2(b"")
        assert not sniff_wire2(WIRE2_MAGIC[:3])


# ---------------------------------------------------------------------------
# Chunking invariance (the PR-4 property, extended to the binary format)
# ---------------------------------------------------------------------------

_junk_blobs = st.one_of(
    st.binary(min_size=1, max_size=20),
    st.just(b"\xff\xfe garbage"),
    st.just(WIRE2_MAGIC[:2]),  # a magic prefix that never completes
)


@st.composite
def _chunked_v2_stream(draw):
    """A v2 byte stream with junk spliced between frames, plus an
    arbitrary chunking of it (mid-frame splits and a possibly
    truncated tail included)."""
    records = draw(
        st.lists(
            st.builds(
                ForwardedLookup,
                st.floats(0, 1e6, allow_nan=False),
                st.sampled_from(["s0", "s1"]),
                st.text(
                    alphabet="abcdefghijklmnopqrstuvwxyz.", min_size=1, max_size=12
                ),
            ),
            max_size=16,
        )
    )
    frame_records = draw(st.integers(1, 6))
    data = _encode(records, frame_records)
    if draw(st.booleans()):
        junk = draw(_junk_blobs)
        # Splice at a frame boundary found by a throwaway decode.
        probe = Wire2BatchDecoder()
        boundaries = [0]
        for _ in probe.iter_events(data):
            boundaries.append(probe.consumed)
        at = draw(st.sampled_from(boundaries))
        data = data[:at] + junk + data[at:]
    if data and draw(st.booleans()):
        data = data[: len(data) - draw(st.integers(0, min(5, len(data))))]
    n_cuts = draw(st.integers(0, 6))
    cuts = sorted(draw(st.integers(0, len(data))) for _ in range(n_cuts))
    bounds = [0, *cuts, len(data)]
    return data, [data[a:b] for a, b in zip(bounds, bounds[1:])]


class TestChunkingInvariance:
    @given(_chunked_v2_stream())
    @settings(max_examples=300, deadline=None)
    def test_any_chunking_matches_single_push(self, case):
        data, chunks = case
        reference = Wire2BatchDecoder()
        expected = _drain(reference, data)

        decoder = Wire2BatchDecoder()
        got = _drain(decoder, data, chunks)

        def _flat(events):
            return [
                (event[0], *(event[1:] if event[0] != "columns" else ()))
                for event in events
            ]

        assert _records_of(got) == _records_of(expected)
        assert _flat(got) == _flat(expected)
        assert _counters(decoder.reader) == _counters(reference.reader)
        assert decoder.consumed == reference.consumed == len(data)
        assert decoder.pending == 0

    @given(_chunked_v2_stream())
    @settings(max_examples=100, deadline=None)
    def test_live_tail_flush_keeps_bytes_uncharged(self, case):
        data, chunks = case
        decoder = Wire2BatchDecoder()
        for chunk in chunks:
            for _ in decoder.iter_events(chunk):
                pass
        held = decoder.pending
        before = _counters(decoder.reader)
        assert decoder.flush(complete=False) == []
        if held:
            assert decoder.reader.truncated_tail == before["truncated_tail"] + 1
        assert decoder.pending == held
        assert decoder.reader.corrupt == before["corrupt"]


# ---------------------------------------------------------------------------
# NDJSON equivalence: converting any mixed stream preserves the decode
# ---------------------------------------------------------------------------

_ndjson_lines = st.lists(
    st.one_of(
        st.builds(
            lambda r: encode_record(r).encode(),
            st.builds(
                ForwardedLookup,
                st.floats(0, 1e6, allow_nan=False),
                st.sampled_from(["s0", "s1"]),
                st.text(
                    alphabet="abcdefghijklmnopqrstuvwxyz.", min_size=1, max_size=12
                ),
            ),
        ),
        st.just(b"{not json"),
        st.just(b'{"v":99,"timestamp":1,"server":"s","domain":"d"}'),
        st.just(b'{"type":"header","v":1,"granularity":0.5}'),
        st.just(b'["list"]'),
    ),
    max_size=16,
)


class TestNdjsonEquivalence:
    @given(_ndjson_lines)
    @settings(max_examples=200, deadline=None)
    def test_converted_stream_decodes_like_the_lines(self, lines):
        reference = NdjsonReader(max_corrupt=None)
        expected = [r for r in map(reference.feed, lines) if r is not None]

        buf = io.BytesIO()
        ndjson_to_wire2(lines, buf, frame_records=5)
        decoder = Wire2BatchDecoder(NdjsonReader(max_corrupt=None))
        events = _drain(decoder, buf.getvalue())

        assert _records_of(events) == expected
        assert decoder.reader.records == reference.records
        assert decoder.reader.corrupt == reference.corrupt
        assert decoder.reader.header == reference.header

    def test_canonical_stream_round_trips_byte_exact(self):
        """ndjson -> v2 -> ndjson is the identity on canonical streams
        (sorted-compact header — what ``export-trace`` writes — plus
        record lines and quarantined junk carried verbatim; non-UTF-8
        junk is the exception — it rides as the reader's ``repr``
        deadletter form, like every corrupt sink in the service)."""
        lines = [
            b'{"granularity":0.5,"type":"header","v":1}',
            encode_record(ForwardedLookup(1.0, "s0", "a.example")).encode(),
            b"{not json",
            encode_record(ForwardedLookup(2.0, "s1", "b.example")).encode(),
            b"plain garbage",
        ]
        buf = io.BytesIO()
        ndjson_to_wire2(lines, buf, frame_records=3)
        assert wire2_to_ndjson_lines(buf.getvalue()) == lines

    @given(_ndjson_lines)
    @settings(max_examples=100, deadline=None)
    def test_conversion_is_idempotent(self, lines):
        """One conversion pass normalises (header key order, blank
        lines); a second pass is the identity."""

        def _round(source):
            buf = io.BytesIO()
            ndjson_to_wire2(source, buf, frame_records=3)
            return wire2_to_ndjson_lines(buf.getvalue())

        once = _round(lines)
        assert _round(once) == once


# ---------------------------------------------------------------------------
# Corrupt-region semantics: bytes quarantine, the stream survives
# ---------------------------------------------------------------------------


class TestCorruptRegions:
    def _frames(self, n=3, frame_records=2):
        records = [
            ForwardedLookup(float(i), "s0", f"d{i}.example")
            for i in range(n * frame_records)
        ]
        return records, _encode(records, frame_records)

    def test_junk_region_is_one_corrupt_event(self):
        records, data = self._frames()
        probe = Wire2BatchDecoder()
        for _ in probe.iter_events(data):
            break
        cut = probe.consumed
        spliced = data[:cut] + b"\x00garbage bytes here\x01" + data[cut:]
        decoder = Wire2BatchDecoder()
        events = _drain(decoder, spliced)
        corrupt = [e for e in events if e[0] == "corrupt"]
        assert len(corrupt) == 1
        assert "bad frame magic" in corrupt[0][2]
        assert "20 bytes quarantined" in corrupt[0][2]
        assert _records_of(events) == records
        assert decoder.reader.corrupt == 1

    def test_crc_mismatch_charges_one_frame_and_resyncs(self):
        records, data = self._frames()
        # Flip one payload byte of the first frame (header stays valid).
        flipped = bytearray(data)
        flipped[14] ^= 0xFF
        decoder = Wire2BatchDecoder()
        events = _drain(decoder, bytes(flipped))
        corrupt = [e for e in events if e[0] == "corrupt"]
        assert len(corrupt) == 1
        assert "frame crc mismatch" in corrupt[0][2]
        # The other frames decode untouched.
        assert _records_of(events) == records[2:]
        assert decoder.reader.corrupt == 1

    def test_truncated_final_frame_quarantines_at_stream_end(self):
        records, data = self._frames()
        decoder = Wire2BatchDecoder()
        events = _drain(decoder, data[:-5])
        corrupt = [e for e in events if e[0] == "corrupt"]
        assert len(corrupt) == 1
        assert "truncated trailing frame" in corrupt[0][2]
        assert _records_of(events) == records[:-2]

    def test_corrupt_budget_still_applies(self):
        from repro.service.wire import WireError

        _, data = self._frames(n=8, frame_records=1)
        junked = bytearray()
        probe = Wire2BatchDecoder()
        last = 0
        for _ in probe.iter_events(bytes(data)):
            junked += data[last : probe.consumed] + b"\x00junk\x00"
            last = probe.consumed
        decoder = Wire2BatchDecoder(NdjsonReader(max_corrupt=3))
        with pytest.raises(WireError, match="corrupt-line budget"):
            _drain(decoder, bytes(junked))

    def test_quarantine_frame_reaches_the_corrupt_sink(self):
        seen = []
        buf = io.BytesIO()
        writer = Wire2Writer(buf)
        writer.add(ForwardedLookup(1.0, "s0", "a.example"))
        writer.add_corrupt("{not json", "invalid JSON")
        writer.add(ForwardedLookup(2.0, "s0", "b.example"))
        writer.close()
        reader = NdjsonReader(max_corrupt=None, on_corrupt=lambda l, w: seen.append((l, w)))
        events = _drain(Wire2BatchDecoder(reader), buf.getvalue())
        assert seen == [("{not json", "invalid JSON")]
        assert reader.corrupt == 1
        assert [r.domain for r in _records_of(events)] == ["a.example", "b.example"]


# ---------------------------------------------------------------------------
# Landscape byte-identity: the tentpole acceptance anchors
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_pair(tmp_path_factory):
    """A seeded NDJSON trace and its wire-v2 conversion (small frames,
    so worker/partition/checkpoint boundaries land mid-stream)."""
    root = tmp_path_factory.mktemp("wire2-traces")
    ndjson = root / "trace.ndjson"
    v2 = root / "trace.v2"
    assert main([
        "export-trace", "--family", "murofet", "--bots", "12", "--servers", "3",
        "--days", "2", "--seed", "3", "--out", str(ndjson),
    ]) == 0
    assert main([
        "convert-trace", str(ndjson), "--out", str(v2), "--frame-records", "64",
    ]) == 0
    return ndjson, v2


@pytest.fixture(scope="module")
def reference(trace_pair, tmp_path_factory):
    out = tmp_path_factory.mktemp("wire2-ref") / "reference.ndjson"
    assert main(["replay", str(trace_pair[0]), "--out", str(out)]) == 0
    return out.read_bytes()


class TestLandscapeByteIdentity:
    def test_v2_replay_matches_ndjson_replay(self, trace_pair, reference, tmp_path):
        out = tmp_path / "v2.ndjson"
        assert main(["replay", str(trace_pair[1]), "--out", str(out)]) == 0
        assert out.read_bytes() == reference

    def test_v2_replay_with_trace_sink_matches(self, trace_pair, reference, tmp_path):
        out = tmp_path / "traced.ndjson"
        assert main([
            "replay", str(trace_pair[1]), "--out", str(out),
            "--trace-out", str(tmp_path / "spans.ndjson"), "--trace-sample", "2",
        ]) == 0
        assert out.read_bytes() == reference

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_v2_cluster_replay_matches(self, trace_pair, reference, partitions, tmp_path):
        from repro.service.cluster import cluster_replay

        report = cluster_replay(
            trace_pair[1],
            tmp_path / "mesh",
            partitions=partitions,
            serial=True,
            verify=False,
        )
        merged = Path(report["landscape"]).read_bytes()
        assert merged == reference

    def test_sigkill_mid_v2_stream_resumes_byte_identical(self, trace_pair, reference, tmp_path):
        """Kill a throttled v2 serve mid-stream after its first durable
        checkpoint; the resumed output equals the NDJSON reference."""
        out = tmp_path / "served.ndjson"
        checkpoint = tmp_path / "ck.json"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--input", str(trace_pair[1]),
            "--no-follow",
            "--out", str(out),
            "--checkpoint", str(checkpoint),
            "--checkpoint-every", "100",
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

        state = json.loads(checkpoint.read_text())
        assert 0 < state["records_consumed"]
        assert state["input_offset"] < os.path.getsize(trace_pair[1])

        resumed = subprocess.run(argv, env=env, stderr=subprocess.DEVNULL)
        assert resumed.returncode == 0
        assert out.read_bytes() == reference

    def test_quarantined_stream_matches_across_formats(self, trace_pair, tmp_path):
        """Mid-stream corrupt lines charge the same emissions whether
        they arrive as NDJSON lines or as v2 QUARANTINE frames."""
        lines = trace_pair[0].read_bytes().splitlines()
        mid = len(lines) // 2
        lines[mid:mid] = [b"{not json", b"\xff\xfe garbage"]
        corrupted = tmp_path / "corrupt.ndjson"
        corrupted.write_bytes(b"\n".join(lines) + b"\n")
        v2 = tmp_path / "corrupt.v2"
        assert main([
            "convert-trace", str(corrupted), "--out", str(v2),
            "--frame-records", "64",
        ]) == 0
        ref = tmp_path / "ref.ndjson"
        got = tmp_path / "got.ndjson"
        assert main(["replay", str(corrupted), "--out", str(ref)]) == 0
        assert main(["replay", str(v2), "--out", str(got)]) == 0
        assert got.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# Frame-format pins (so the bytes, not just the behaviour, are stable)
# ---------------------------------------------------------------------------


class TestFrameLayout:
    def test_header_layout_is_pinned(self):
        data = _encode([ForwardedLookup(1.5, "s0", "a.example")])
        magic, version, frame_type, length, crc = struct.unpack_from("<4sBBII", data)
        assert magic == WIRE2_MAGIC == b"BM2F"
        assert version == 2
        assert frame_type == 2  # RECORDS
        assert crc == zlib.crc32(data[14 : 14 + length])

    def test_deterministic_bytes(self):
        records = [
            ForwardedLookup(float(i), f"s{i % 2}", f"d{i}.example") for i in range(9)
        ]
        assert _encode(records, 4) == _encode(records, 4)
