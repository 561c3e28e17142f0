"""Tests for the botmeterd NDJSON wire format and the tolerant reader."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.botmeter import Landscape
from repro.core.estimator import PopulationEstimate
from repro.dns.message import ForwardedLookup
from repro.service.wire import (
    WIRE_VERSION,
    NdjsonReader,
    WireError,
    decode_record,
    encode_header,
    encode_landscape,
    encode_record,
    encode_register,
    landscape_to_dict,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(min_size=1, max_size=40)
lookups = st.builds(ForwardedLookup, finite_floats, names, names)


# ---------------------------------------------------------------------------
# ForwardedLookup dict round trip (the satellite property test)
# ---------------------------------------------------------------------------


class TestForwardedLookupDict:
    @given(lookups)
    @settings(max_examples=200, deadline=None)
    def test_dict_round_trip_is_exact(self, record):
        assert ForwardedLookup.from_dict(record.to_dict()) == record

    @given(lookups)
    @settings(max_examples=200, deadline=None)
    def test_wire_round_trip_is_exact(self, record):
        """to_dict → JSON text → from_dict is still an exact identity."""
        line = encode_record(record)
        assert decode_record(json.loads(line)) == record

    def test_to_dict_shape(self):
        record = ForwardedLookup(12.5, "s0", "a.example")
        assert record.to_dict() == {
            "timestamp": 12.5,
            "server": "s0",
            "domain": "a.example",
        }

    def test_from_dict_ignores_unknown_keys(self):
        record = ForwardedLookup.from_dict(
            {"timestamp": 1.0, "server": "s", "domain": "d", "extra": "x"}
        )
        assert record == ForwardedLookup(1.0, "s", "d")

    def test_from_dict_accepts_int_timestamp(self):
        record = ForwardedLookup.from_dict(
            {"timestamp": 3, "server": "s", "domain": "d"}
        )
        assert record.timestamp == 3.0 and isinstance(record.timestamp, float)

    @pytest.mark.parametrize("missing", ["timestamp", "server", "domain"])
    def test_from_dict_missing_field(self, missing):
        data = {"timestamp": 1.0, "server": "s", "domain": "d"}
        del data[missing]
        with pytest.raises(KeyError):
            ForwardedLookup.from_dict(data)

    @pytest.mark.parametrize(
        "bad",
        [
            {"timestamp": "1.0", "server": "s", "domain": "d"},
            {"timestamp": True, "server": "s", "domain": "d"},
            {"timestamp": 1.0, "server": 5, "domain": "d"},
            {"timestamp": 1.0, "server": "s", "domain": None},
        ],
    )
    def test_from_dict_wrong_types(self, bad):
        with pytest.raises(TypeError):
            ForwardedLookup.from_dict(bad)


# ---------------------------------------------------------------------------
# Line encoders
# ---------------------------------------------------------------------------


class TestEncoders:
    def test_record_line_is_versioned_and_compact(self):
        line = encode_record(ForwardedLookup(1.0, "s", "d"))
        assert "\n" not in line and " " not in line
        assert json.loads(line)["v"] == WIRE_VERSION

    def test_decode_rejects_foreign_version(self):
        data = json.loads(encode_record(ForwardedLookup(1.0, "s", "d")))
        data["v"] = 99
        with pytest.raises(WireError):
            decode_record(data)

    def test_header_line(self):
        data = json.loads(encode_header({"families": [{"name": "murofet"}]}))
        assert data["type"] == "header"
        assert data["v"] == WIRE_VERSION
        assert data["families"] == [{"name": "murofet"}]

    def test_landscape_line_carries_estimates_and_counts(self):
        landscape = Landscape(dga_name="murofet", estimator_name="timing")
        landscape.per_server["s1"] = PopulationEstimate(3.0, estimator="timing")
        landscape.matched_counts["s1"] = 17
        data = landscape_to_dict("murofet", 2, landscape)
        assert data["type"] == "landscape"
        assert data["family"] == "murofet"
        assert data["epoch"] == 2
        assert data["servers"]["s1"] == {"estimate": 3.0, "matched": 17}
        assert data["total"] == 3.0

    def test_landscape_line_is_deterministic(self):
        landscape = Landscape(dga_name="m", estimator_name="timing")
        landscape.per_server["b"] = PopulationEstimate(1.0, estimator="timing")
        landscape.per_server["a"] = PopulationEstimate(2.0, estimator="timing")
        # sort_keys makes insertion order irrelevant on the wire.
        other = Landscape(dga_name="m", estimator_name="timing")
        other.per_server["a"] = PopulationEstimate(2.0, estimator="timing")
        other.per_server["b"] = PopulationEstimate(1.0, estimator="timing")
        assert encode_landscape("m", 0, landscape) == encode_landscape("m", 0, other)


# ---------------------------------------------------------------------------
# NdjsonReader: the counted skip policy
# ---------------------------------------------------------------------------


class TestNdjsonReader:
    def test_reads_records_and_counts_skips(self):
        lines = [
            encode_header({"note": "meta"}),
            "",
            "   ",
            encode_record(ForwardedLookup(1.0, "s", "a")),
            "{not json",
            encode_record(ForwardedLookup(2.0, "s", "b")),
            '"a bare string"',
        ]
        reader = NdjsonReader()
        records = list(reader.read(lines))
        assert [r.domain for r in records] == ["a", "b"]
        assert reader.records == 2
        assert reader.blank == 2
        assert reader.corrupt == 2
        assert reader.skipped == 4
        assert reader.header == {"note": "meta", "type": "header", "v": 1}

    def test_accepts_bytes_lines(self):
        reader = NdjsonReader()
        record = reader.feed(encode_record(ForwardedLookup(1.0, "s", "a")).encode())
        assert record == ForwardedLookup(1.0, "s", "a")

    def test_undecodable_bytes_are_corrupt(self):
        reader = NdjsonReader()
        assert reader.feed(b"\xff\xfe\x01") is None
        assert reader.corrupt == 1

    def test_wrong_version_is_corrupt(self):
        reader = NdjsonReader()
        assert reader.feed('{"v":2,"timestamp":1.0,"server":"s","domain":"d"}') is None
        assert reader.corrupt == 1

    def test_unknown_type_is_corrupt(self):
        reader = NdjsonReader()
        assert reader.feed('{"v":1,"type":"mystery"}') is None
        assert reader.corrupt == 1

    def test_missing_field_is_corrupt(self):
        reader = NdjsonReader()
        assert reader.feed('{"v":1,"timestamp":1.0,"server":"s"}') is None
        assert reader.corrupt == 1

    def test_corrupt_budget_raises_once_exceeded(self):
        reader = NdjsonReader(max_corrupt=2)
        reader.feed("{bad")
        reader.feed("{worse")
        with pytest.raises(WireError):
            reader.feed("{worst")

    def test_unlimited_budget_never_raises(self):
        reader = NdjsonReader()
        for _ in range(100):
            reader.feed("{bad")
        assert reader.corrupt == 100

    def test_blank_lines_do_not_consume_budget(self):
        reader = NdjsonReader(max_corrupt=0)
        reader.feed("")
        reader.feed("\n")
        assert reader.blank == 2 and reader.corrupt == 0

    def test_corrupt_sink_sees_line_and_reason(self):
        seen = []
        reader = NdjsonReader(on_corrupt=lambda line, why: seen.append((line, why)))
        reader.feed("{bad")
        reader.feed('{"v":99,"timestamp":1.0,"server":"s","domain":"d"}')
        assert len(seen) == 2
        assert seen[0][0] == "{bad"
        assert all(why for _line, why in seen)

    def test_corrupt_sink_fires_before_budget_raises(self):
        seen = []
        reader = NdjsonReader(
            max_corrupt=1, on_corrupt=lambda line, why: seen.append(line)
        )
        reader.feed("{bad")
        with pytest.raises(WireError):
            reader.feed("{worse")
        assert seen == ["{bad", "{worse"]


class TestTruncatedTail:
    """A partial final line of a live tail is retried, not quarantined."""

    def test_incomplete_invalid_json_is_truncated_tail(self):
        reader = NdjsonReader(max_corrupt=0)  # would raise if charged
        half = encode_record(ForwardedLookup(1.0, "s", "a"))[:13]
        assert reader.feed(half, complete=False) is None
        assert reader.truncated_tail == 1
        assert reader.corrupt == 0

    def test_incomplete_undecodable_bytes_are_truncated_tail(self):
        reader = NdjsonReader(max_corrupt=0)
        # A UTF-8 sequence cut mid-codepoint: invalid now, fine once the
        # rest of the bytes arrive.
        assert reader.feed("é".encode()[:1], complete=False) is None
        assert reader.truncated_tail == 1 and reader.corrupt == 0

    def test_incomplete_line_does_not_call_corrupt_sink(self):
        seen = []
        reader = NdjsonReader(on_corrupt=lambda line, why: seen.append(line))
        reader.feed("{half", complete=False)
        assert seen == []

    def test_complete_line_with_same_bytes_is_corrupt(self):
        reader = NdjsonReader()
        reader.feed("{half", complete=False)
        assert reader.feed("{half") is None  # EOF made it final
        assert reader.truncated_tail == 1 and reader.corrupt == 1

    def test_valid_json_with_missing_fields_is_corrupt_even_incomplete(self):
        # Only *undecodable* partial lines get the benefit of the doubt:
        # a line that parses as JSON but is not a valid record is corrupt
        # no matter how it arrived.
        reader = NdjsonReader()
        assert reader.feed('{"v":1,"timestamp":1.0}', complete=False) is None
        assert reader.corrupt == 1 and reader.truncated_tail == 0

    def test_retried_tail_parses_on_completion(self):
        reader = NdjsonReader(max_corrupt=0)
        line = encode_record(ForwardedLookup(2.0, "s", "b"))
        assert reader.feed(line[: len(line) // 2], complete=False) is None
        record = reader.feed(line)
        assert record == ForwardedLookup(2.0, "s", "b")
        assert reader.records == 1 and reader.truncated_tail == 1


class TestNonSeekableRetryContract:
    """The ``complete=False`` contract for socket-style sources.

    A socket caller cannot seek back: the reader must never consume a
    probe it could not classify, and the caller re-feeds the *whole*
    line later.  The regression here is the bare-scalar prefix: ``"12"``
    parses as complete JSON while ``"123\\n"`` is still in flight, so a
    non-object probe must stay retriable instead of being consumed as
    budgeted corruption.
    """

    def test_scalar_prefix_is_truncated_tail_not_corrupt(self):
        reader = NdjsonReader(max_corrupt=0)  # would raise if charged
        assert reader.feed("123", complete=False) is None
        assert reader.truncated_tail == 1
        assert reader.corrupt == 0

    def test_scalar_prefix_retry_charges_corrupt_exactly_once(self):
        seen = []
        reader = NdjsonReader(on_corrupt=lambda line, why: seen.append(line))
        assert reader.feed("123", complete=False) is None
        # The newline arrived; the full line really was a bare number.
        assert reader.feed("12345", complete=True) is None
        assert reader.corrupt == 1
        assert seen == ["12345"]

    def test_non_object_probe_does_not_call_corrupt_sink(self):
        seen = []
        reader = NdjsonReader(on_corrupt=lambda line, why: seen.append(line))
        reader.feed('["partial", "array"]', complete=False)
        reader.feed("null", complete=False)
        reader.feed("true", complete=False)
        assert seen == []
        assert reader.truncated_tail == 3 and reader.corrupt == 0

    def test_socket_style_refeed_yields_each_record_once(self):
        """Simulate a recv() loop: arbitrary chunk boundaries, tail
        retained by the caller, each completed line fed exactly once."""
        lines = [
            encode_record(ForwardedLookup(1.0, "s", "a")),
            "42",  # a corrupt line whose every prefix parses as JSON
            encode_record(ForwardedLookup(2.0, "s", "b")),
        ]
        data = "".join(line + "\n" for line in lines).encode()
        for chunk_size in (1, 2, 3, 7, len(data)):
            reader = NdjsonReader()
            records, tail = [], b""
            for start in range(0, len(data), chunk_size):
                tail += data[start : start + chunk_size]
                *complete, tail = tail.split(b"\n")
                for line in complete:
                    record = reader.feed(line)
                    if record is not None:
                        records.append(record)
            assert tail == b""
            assert [r.domain for r in records] == ["a", "b"], chunk_size
            assert reader.records == 2 and reader.corrupt == 1
            assert reader.truncated_tail == 0  # no quiet-period probes

    def test_batch_decoder_live_flush_retains_scalar_prefix(self):
        from repro.service.wire import NdjsonBatchDecoder

        decoder = NdjsonBatchDecoder()
        assert decoder.push(b"12") == []
        assert decoder.flush(complete=False) == []  # probe: still in flight
        assert decoder.pending == b"12"
        assert decoder.reader.truncated_tail == 1
        assert decoder.reader.corrupt == 0
        # More bytes arrive and the line turns out to be a record.
        line = encode_record(ForwardedLookup(1.0, "s", "a")).encode()
        records = decoder.push(b"3\n" + line + b"\n")
        assert len(records) == 1
        assert decoder.reader.corrupt == 1  # "123" charged once, at EOL


# ---------------------------------------------------------------------------
# NdjsonBatchDecoder — chunking must be invisible (the satellite property
# test for the batched ingest path)
# ---------------------------------------------------------------------------


def _reader_counters(reader):
    return {
        "records": reader.records,
        "blank": reader.blank,
        "corrupt": reader.corrupt,
        "truncated_tail": reader.truncated_tail,
        "header": reader.header,
    }


def _raw_record_line(timestamp: float, server: str, domain: str) -> bytes:
    """A record in the canonical key order with raw (unescaped) UTF-8."""
    return b'{"domain":"%s","server":"%s","timestamp":%s,"v":1}' % (
        domain.encode("utf-8"),
        server.encode("utf-8"),
        repr(timestamp).encode(),
    )


_servers = st.sampled_from(["s0", "s1"])
_ascii_domains = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz.", min_size=1, max_size=12
)
# Any character but a quote, a backslash, a newline or a lone surrogate:
# control characters make the line corrupt, non-ASCII ones stay valid.
_raw_domains = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters='"\\\n'),
    max_size=8,
)


def _reordered_line(record: ForwardedLookup) -> bytes:
    reordered = {
        "v": 1,
        "timestamp": record.timestamp,
        "server": record.server,
        "domain": record.domain,
    }
    return json.dumps(reordered, separators=(",", ":")).encode()


# A stream mixing every line kind both decode lanes see: canonical
# records (bulk lane), valid records written another way, and every line
# type the reader absorbs (fallback lane).
_stream_lines = st.lists(
    st.one_of(
        st.builds(
            lambda r: encode_record(r).encode(),
            st.builds(
                ForwardedLookup,
                st.floats(allow_nan=False, allow_infinity=False),
                _servers,
                _ascii_domains | st.text(max_size=8),
            ),
        ),
        st.builds(
            _raw_record_line,
            st.floats(allow_nan=False, allow_infinity=False),
            _servers,
            _raw_domains,
        ),
        st.builds(
            _reordered_line,
            st.builds(ForwardedLookup, st.floats(0, 1e6), _servers, _ascii_domains),
        ),
        st.builds(
            lambda line, pad: pad[0] + line + pad[1],
            st.builds(
                lambda r: encode_record(r).encode(),
                st.builds(ForwardedLookup, st.floats(0, 1e6), _servers, _ascii_domains),
            ),
            st.sampled_from([(b"  ", b""), (b"", b"\r"), (b" ", b"\r")]),
        ),
        st.sampled_from(
            [
                b'{"domain":"a.b","server":"s0","timestamp":5,"v":1}',
                b'{"domain":"a.b","server":"s0","timestamp":5.5,"v":1.0}',
                b'{"domain":"a\\u002eb","server":"s0","timestamp":6.5,"v":1}',
                b'{"domain":"a\\"b","server":"s1","timestamp":7.5,"v":1}',
                b'{"domain":"a.b","server":"s0","timestamp":01.5,"v":1}',
                b'{"domain":"a.b","server":"s0","timestamp":1e400,"v":1}',
                b'{"domain":"a.b","server":"s0","timestamp":-0.0,"v":1}',
                b'{"domain":"a.b","server":"s1","timestamp":2.4703282292062328e-324,"v":1}',
                b'{"domain":"a.b","server":"s1","timestamp":0.%s,"v":1}' % (b"3" * 400),
                b'{"domain":"a\x01b","server":"s0","timestamp":8.5,"v":1}',
                b'{"domain":"a\xffb","server":"s0","timestamp":9.5,"v":1}',
                b'{"domain":"\xed\xa0\x80","server":"s1","timestamp":9.5,"v":1}',
                b'{"domain":"a.b","server":"s\xe2\x82","timestamp":9.5,"v":1}',
            ]
        ),
        st.sampled_from(
            [
                encode_register("late_fam", "new_goz", 3).encode(),
                encode_register("rejected", "new_goz", 4).encode(),
            ]
        ),
        st.just(b""),
        st.just(b"   "),
        st.just(b"{not json"),
        st.just(b'{"v":99,"timestamp":1,"server":"s","domain":"d"}'),
        st.just(b'{"type":"header","v":1,"granularity":0.5}'),
        st.sampled_from([b"\xff\xfe garbage", b'["list"]']),
    ),
    max_size=12,
)


@st.composite
def _chunked_stream(draw):
    """A byte stream plus an arbitrary chunking of it (mid-line splits
    and a possibly newline-less truncated tail included)."""
    lines = draw(_stream_lines)
    data = b"".join(line + b"\n" for line in lines)
    if data and draw(st.booleans()):
        data = data[: len(data) - draw(st.integers(0, min(3, len(data))))]
    n_cuts = draw(st.integers(0, 6))
    cuts = sorted(draw(st.integers(0, len(data))) for _ in range(n_cuts))
    bounds = [0, *cuts, len(data)]
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    return data, chunks


def _observed_reader(handler: bool):
    """A reader that logs its ``on_corrupt`` calls and, with a control
    handler, the record count at each ``on_control`` call (the handler
    accepts every family but ``rejected``)."""
    reader = NdjsonReader()
    log = {"corrupt": [], "control": []}
    reader.on_corrupt = lambda line, reason: log["corrupt"].append((line, reason))
    if handler:

        def on_control(data):
            log["control"].append(reader.records)
            return data.get("family") != "rejected"

        reader.on_control = on_control
    return reader, log


def _line_at_a_time(data: bytes, handler: bool):
    """Reference decode: complete lines fed one at a time, then a
    newline-less final line as a final line (``complete=True``).
    Returns the records, the log, and per record the reader counters and
    the stream offset after its line."""
    reader, log = _observed_reader(handler)
    records, after = [], []
    offset = 0
    lines = data.split(b"\n")
    for index, line in enumerate(lines):
        last = index == len(lines) - 1
        if last and not line:
            break
        offset += len(line) + (0 if last else 1)
        record = reader.feed(line)
        if record is not None:
            records.append(record)
            after.append((_reader_counters(reader), offset))
    return records, log, reader, after


def _keys(records):
    return [(r.timestamp.hex(), r.server, r.domain) for r in records]


class TestNdjsonBatchDecoder:
    @given(_chunked_stream(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_chunking_matches_line_at_a_time(self, case, handler):
        from repro.service.wire import NdjsonBatchDecoder

        data, chunks = case
        expected, expected_log, reference, _ = _line_at_a_time(data, handler)

        reader, log = _observed_reader(handler)
        decoder = NdjsonBatchDecoder(reader)
        got = []
        for chunk in chunks:
            got.extend(decoder.push(chunk))
        got.extend(decoder.flush(complete=True))

        assert _keys(got) == _keys(expected)
        assert _reader_counters(decoder.reader) == _reader_counters(reference)
        assert log == expected_log
        assert decoder.consumed == len(data)
        assert decoder.pending == b""

    @given(_chunked_stream(), st.booleans(), st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_runs_stand_at_their_last_line(self, case, handler, limit):
        """``iter_push`` runs: bulk batches or one-record tuples, each
        yielded with the reader's counters and ``consumed`` standing
        where line-at-a-time decoding stands after the run's last line;
        ``run_limit`` caps every run."""
        from repro.service.lookups import LookupBatch
        from repro.service.wire import NdjsonBatchDecoder

        data, chunks = case
        expected, expected_log, reference, after = _line_at_a_time(data, handler)

        reader, log = _observed_reader(handler)
        decoder = NdjsonBatchDecoder(
            reader, run_limit=None if limit is None else (lambda: limit)
        )
        got = []

        def take(runs):
            for run in runs:
                if isinstance(run, LookupBatch):
                    assert limit is None or len(run) <= limit
                    got.extend(run.materialize())
                else:
                    assert isinstance(run, tuple) and len(run) == 1
                    got.extend(run)
                assert len(run) >= 1
                counters, offset = after[len(got) - 1]
                assert _reader_counters(decoder.reader) == counters
                assert decoder.consumed == offset

        for chunk in chunks:
            take(decoder.iter_push(chunk))
        take(decoder.iter_flush(complete=True))

        assert _keys(got) == _keys(expected)
        assert _reader_counters(decoder.reader) == _reader_counters(reference)
        assert log == expected_log
        assert decoder.consumed == len(data)
        assert decoder.pending == b""

    @given(_chunked_stream())
    @settings(max_examples=150, deadline=None)
    def test_live_tail_flush_retains_undecodable_tail(self, case):
        from repro.service.wire import NdjsonBatchDecoder

        data, chunks = case
        decoder = NdjsonBatchDecoder()
        for chunk in chunks:
            decoder.push(chunk)
        tail = decoder.pending
        before = _reader_counters(decoder.reader)
        records = decoder.flush(complete=False)
        if records or decoder.reader.truncated_tail == before["truncated_tail"]:
            # The tail decoded (or was empty/absorbed): it is consumed.
            assert decoder.pending == b""
        else:
            # Still in flight: held back for the next push, uncharged.
            assert decoder.pending == tail
            assert decoder.reader.corrupt == before["corrupt"]

    def test_consumed_tracks_line_boundaries(self):
        from repro.service.wire import NdjsonBatchDecoder

        decoder = NdjsonBatchDecoder()
        line = encode_record(ForwardedLookup(1.0, "s0", "a.example")).encode()
        half = len(line) // 2
        assert decoder.push(line[:half]) == []
        assert decoder.consumed == 0  # no newline yet: nothing durable
        records = decoder.push(line[half:] + b"\n")
        assert len(records) == 1
        assert decoder.consumed == len(line) + 1
