"""botmeterd wire format v2: struct-packed binary frames.

``botmeterd-wire-v2`` is the compact binary twin of the NDJSON v1 wire
(:mod:`repro.service.wire`).  A v2 stream is a sequence of *frames*::

    MAGIC(4) | version(u8) | type(u8) | payload_len(u32 LE) | crc32(u32 LE)
    payload_len bytes of payload

Three frame types exist:

* ``META`` — the stream header object (the v1 ``type: "header"`` line),
  stored as compact JSON so conversion round-trips byte-exactly;
* ``RECORDS`` — a columnar batch of lookups: a frame-scoped string
  table for servers and one for domains (each string stored once per
  frame), then three parallel columns — ``float64`` timestamps,
  ``uint32`` server ids, ``uint32`` domain ids — decodable with
  ``np.frombuffer`` and no per-record parsing;
* ``QUARANTINE`` — one corrupt v1 line carried verbatim with its
  skip-policy reason, so ``convert-trace`` preserves the counted-skip
  accounting (and its *position* in the stream) exactly.

Frames are **self-contained**: the string tables are frame-scoped, not
stream-scoped, so a reader can resume at any frame boundary (checkpoint
offsets land there) and a quarantined frame never poisons its
successors.

Corrupt-byte handling mirrors the v1 counted-skip policy, but the unit
of quarantine is a *byte region*, not a line: a bad magic, a foreign
version, an oversized length or a CRC mismatch charges **one** corrupt
event to the shared :class:`~repro.service.wire.NdjsonReader` counters
(firing its ``on_corrupt`` sink with a snippet) and the decoder resyncs
by scanning for the next frame magic — a corrupt frame quarantines
bytes, not the stream.  Region accounting depends only on the
cumulative byte stream, never on how it was chunked, so any-chunking
decode equality holds for v2 exactly as it does for v1 (the property
test in ``tests/test_service_wire2.py`` pins this).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import IO, Any, Iterable, Iterator, Mapping

import numpy as np

from ..dns.message import ForwardedLookup
from .lookups import LookupBatch
from .wire import NdjsonReader, encode_record

__all__ = [
    "WIRE2_MAGIC",
    "WIRE2_SCHEMA",
    "WIRE2_VERSION",
    "FRAME_META",
    "FRAME_RECORDS",
    "FRAME_QUARANTINE",
    "LookupColumns",
    "Wire2Writer",
    "Wire2BatchDecoder",
    "encode_frame",
    "encode_records_frame",
    "sniff_wire2",
    "ndjson_to_wire2",
    "wire2_to_ndjson_lines",
]

WIRE2_SCHEMA = "botmeterd-wire-v2"
WIRE2_MAGIC = b"BM2F"
WIRE2_VERSION = 2

FRAME_META = 1
FRAME_RECORDS = 2
FRAME_QUARANTINE = 3

_KNOWN_FRAMES = frozenset({FRAME_META, FRAME_RECORDS, FRAME_QUARANTINE})

#: ``MAGIC | version | type | payload_len | payload_crc32``.
_HEADER = struct.Struct("<4sBBII")
_HEADER_LEN = _HEADER.size

#: Per-frame payload sanity cap.  Real frames are ~100 KB; anything
#: larger is treated as a corrupted length field so a single flipped
#: bit cannot make the decoder buffer an absurd amount of memory.
MAX_PAYLOAD = 1 << 24

#: How long a corrupt-region snippet handed to ``on_corrupt`` may get.
_SNIPPET = 120

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def sniff_wire2(prefix: bytes) -> bool:
    """Whether a stream prefix looks like a v2 frame stream."""
    return prefix[:4] == WIRE2_MAGIC


#: One RECORDS frame, decoded to columns: a
#: :class:`~repro.service.lookups.LookupBatch` over the frame-scoped
#: string tables (``materialize`` produces the exact record sequence the
#: equivalent v1 lines would decode to — the byte-identity anchor).
LookupColumns = LookupBatch


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """One complete frame: header (with payload CRC) plus payload."""
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"frame payload too large ({len(payload)} bytes)")
    return (
        _HEADER.pack(
            WIRE2_MAGIC, WIRE2_VERSION, frame_type, len(payload), zlib.crc32(payload)
        )
        + payload
    )


def _pack_strings(table: list[str]) -> bytes:
    parts = [_U32.pack(len(table))]
    for value in table:
        raw = value.encode("utf-8")
        parts.append(_U16.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def encode_records_frame(records: Iterable[ForwardedLookup]) -> bytes:
    """A RECORDS frame: frame-scoped string tables plus three columns."""
    servers: dict[str, int] = {}
    domains: dict[str, int] = {}
    ts: list[float] = []
    sid: list[int] = []
    did: list[int] = []
    for record in records:
        ts.append(record.timestamp)
        index = servers.get(record.server)
        if index is None:
            index = servers.setdefault(record.server, len(servers))
        sid.append(index)
        index = domains.get(record.domain)
        if index is None:
            index = domains.setdefault(record.domain, len(domains))
        did.append(index)
    payload = b"".join(
        (
            _U32.pack(len(ts)),
            _pack_strings(list(servers)),
            _pack_strings(list(domains)),
            np.asarray(ts, dtype="<f8").tobytes(),
            np.asarray(sid, dtype="<u4").tobytes(),
            np.asarray(did, dtype="<u4").tobytes(),
        )
    )
    return encode_frame(FRAME_RECORDS, payload)


def encode_meta_frame(header: Mapping[str, Any]) -> bytes:
    """A META frame carrying the v1 header object verbatim."""
    return encode_frame(
        FRAME_META, json.dumps(dict(header), **_COMPACT).encode("utf-8")
    )


def encode_quarantine_frame(line: str, reason: str) -> bytes:
    """A QUARANTINE frame: a corrupt v1 line carried with its reason."""
    raw_reason = reason.encode("utf-8")
    payload = _U32.pack(len(raw_reason)) + raw_reason + line.encode("utf-8")
    return encode_frame(FRAME_QUARANTINE, payload)


class Wire2Writer:
    """Streaming v2 encoder with per-frame record batching.

    Records accumulate until ``frame_records`` of them (or an explicit
    :meth:`flush`) close a RECORDS frame.  Corrupt lines *flush first*,
    so the quarantine frame lands at the record position the source
    stream had it — which is what keeps the daemon's per-emission
    quarantine attribution identical across formats.
    """

    def __init__(self, fh: IO[bytes], frame_records: int = 4096) -> None:
        self._fh = fh
        self.frame_records = max(1, int(frame_records))
        self._pending: list[ForwardedLookup] = []
        self.records = 0
        self.frames = 0

    def _emit(self, frame: bytes) -> None:
        self._fh.write(frame)
        self.frames += 1

    def write_header(self, header: Mapping[str, Any]) -> None:
        self.flush()
        self._emit(encode_meta_frame(header))

    def add(self, record: ForwardedLookup) -> None:
        self._pending.append(record)
        self.records += 1
        if len(self._pending) >= self.frame_records:
            self.flush()

    def add_corrupt(self, line: str, reason: str) -> None:
        self.flush()
        self._emit(encode_quarantine_frame(line, reason))

    def flush(self) -> None:
        if self._pending:
            self._emit(encode_records_frame(self._pending))
            self._pending = []

    def close(self) -> None:
        self.flush()


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class Wire2BatchDecoder:
    """Chunk-oriented v2 decoder sharing the v1 counted-skip policy.

    Feed it arbitrary byte chunks (any split — mid-frame boundaries
    included); it reassembles frames and drives a regular
    :class:`~repro.service.wire.NdjsonReader`'s counters, header slot,
    quarantine sink and corrupt budget, so the daemon's accounting is
    wire-format-independent.

    :meth:`iter_events` is the primitive: it yields, in stream order,

    * ``("columns", LookupColumns)`` — one decoded RECORDS frame;
    * ``("header", dict)`` — a META frame (also stored on the reader);
    * ``("corrupt", line, reason)`` — one charged corrupt event (a
      carried QUARANTINE line, or a quarantined byte region).

    ``consumed`` counts the bytes of every fully decoded frame and every
    *closed* corrupt region — the durable stream offset the daemon
    checkpoints.  An open corrupt region (no next magic seen yet) and a
    partial trailing frame are held back; :meth:`flush` settles them at
    stream end (``complete=False`` applies the reader's truncated-tail
    policy and retains the bytes for retry).
    """

    def __init__(
        self,
        reader: NdjsonReader | None = None,
        *,
        max_corrupt: int | None = None,
        on_corrupt: Any = None,
    ) -> None:
        self.reader = (
            reader
            if reader is not None
            else NdjsonReader(max_corrupt=max_corrupt, on_corrupt=on_corrupt)
        )
        self._buf = bytearray()
        self.consumed = 0
        # An open corrupt region: bytes discarded so far, the snippet we
        # kept for the quarantine sink, and the reason that opened it.
        self._junk_open = False
        self._junk_len = 0
        self._junk_head = b""
        self._junk_reason = ""

    @property
    def pending(self) -> int:
        """Bytes held back (partial frame or open corrupt region)."""
        return len(self._buf) + self._junk_len

    # -- corrupt-region bookkeeping -------------------------------------------

    def _open_junk(self, reason: str, absorb: int = 0) -> None:
        self._junk_open = True
        self._junk_reason = reason
        if absorb:
            self._absorb_junk(absorb)

    def _absorb_junk(self, n_bytes: int) -> None:
        if n_bytes <= 0:
            return
        if len(self._junk_head) < _SNIPPET:
            self._junk_head += bytes(self._buf[: min(n_bytes, _SNIPPET)])[
                : _SNIPPET - len(self._junk_head)
            ]
        self._junk_len += n_bytes
        del self._buf[:n_bytes]

    def _close_junk(self) -> tuple[str, str, str]:
        snippet = repr(self._junk_head[:_SNIPPET])
        reason = f"{self._junk_reason} ({self._junk_len} bytes quarantined)"
        self.consumed += self._junk_len
        self._junk_open = False
        self._junk_len = 0
        self._junk_head = b""
        self._junk_reason = ""
        self.reader._corrupt_line(snippet, reason)
        return ("corrupt", snippet, reason)

    def _charge_frame(self, payload: bytes, reason: str) -> tuple[str, str, str]:
        snippet = repr(payload[:_SNIPPET])
        self.reader._corrupt_line(snippet, reason)
        return ("corrupt", snippet, reason)

    # -- frame parsing ---------------------------------------------------------

    def _parse_records(self, payload: bytes) -> LookupColumns:
        off = 0

        def _u32() -> int:
            nonlocal off
            value = _U32.unpack_from(payload, off)[0]
            off += 4
            return value

        def _strings() -> tuple[str, ...]:
            nonlocal off
            count = _u32()
            if count > len(payload):
                raise ValueError("string table longer than payload")
            table = []
            for _ in range(count):
                length = _U16.unpack_from(payload, off)[0]
                off += 2
                table.append(payload[off : off + length].decode("utf-8"))
                off += length
            return tuple(table)

        n = _u32()
        if n > len(payload):
            raise ValueError("record count longer than payload")
        servers = _strings()
        domains = _strings()
        need = off + 16 * n
        if need != len(payload):
            raise ValueError(
                f"column section is {len(payload) - off} bytes, expected {16 * n}"
            )
        ts = np.frombuffer(payload, dtype="<f8", count=n, offset=off)
        sid = np.frombuffer(payload, dtype="<u4", count=n, offset=off + 8 * n)
        did = np.frombuffer(payload, dtype="<u4", count=n, offset=off + 12 * n)
        if n:
            if int(sid.max()) >= len(servers):
                raise ValueError("server id out of table range")
            if int(did.max()) >= len(domains):
                raise ValueError("domain id out of table range")
        return LookupColumns(ts, sid, did, servers, domains)

    def _decode_frame(self, frame_type: int, payload: bytes) -> tuple:
        if frame_type == FRAME_RECORDS:
            try:
                columns = self._parse_records(payload)
            except (ValueError, struct.error, UnicodeDecodeError) as exc:
                return self._charge_frame(payload, f"malformed records frame: {exc}")
            self.reader.records += len(columns)
            return ("columns", columns)
        if frame_type == FRAME_META:
            try:
                data = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                return self._charge_frame(payload, f"malformed meta frame: {exc}")
            if not isinstance(data, dict):
                return self._charge_frame(payload, "meta frame is not an object")
            self.reader.header = data
            return ("header", data)
        # FRAME_QUARANTINE — a carried corrupt v1 line.
        try:
            (reason_len,) = _U32.unpack_from(payload, 0)
            reason = payload[4 : 4 + reason_len].decode("utf-8")
            line = payload[4 + reason_len :].decode("utf-8")
        except (struct.error, UnicodeDecodeError, IndexError) as exc:
            return self._charge_frame(payload, f"malformed quarantine frame: {exc}")
        self.reader._corrupt_line(line, reason)
        return ("corrupt", line, reason)

    # -- the chunk interface ---------------------------------------------------

    def iter_events(self, chunk: bytes) -> Iterator[tuple]:
        """Decode one chunk lazily, yielding events in stream order.

        ``consumed`` and the reader's counters advance as the iterator
        is drained — frame by frame — so a caller can checkpoint at any
        event boundary with a durable offset.  With the reader's tracer
        set, each complete frame is one sampled ``decode`` span.
        """
        self._buf += chunk
        buf = self._buf
        while True:
            if self._junk_open:
                index = buf.find(WIRE2_MAGIC)
                if index < 0:
                    # Keep a possible magic prefix; the rest is junk.
                    self._absorb_junk(len(buf) - min(len(buf), 3))
                    return
                self._absorb_junk(index)
                yield self._close_junk()
                continue
            if len(buf) < _HEADER_LEN:
                if len(buf) >= 4 and bytes(buf[:4]) != WIRE2_MAGIC:
                    self._open_junk("bad frame magic")
                    continue
                return
            magic, version, frame_type, length, crc = _HEADER.unpack_from(buf, 0)
            if magic != WIRE2_MAGIC:
                self._open_junk("bad frame magic")
                continue
            if version != WIRE2_VERSION:
                self._open_junk(f"unsupported wire2 version {version}", absorb=4)
                continue
            if frame_type not in _KNOWN_FRAMES:
                self._open_junk(f"unknown frame type {frame_type}", absorb=4)
                continue
            if length > MAX_PAYLOAD:
                self._open_junk(f"frame payload too large ({length})", absorb=4)
                continue
            if len(buf) < _HEADER_LEN + length:
                return
            tracer = self.reader.tracer
            t0 = tracer.start("decode") if tracer is not None else 0
            payload = bytes(buf[_HEADER_LEN : _HEADER_LEN + length])
            del buf[: _HEADER_LEN + length]
            self.consumed += _HEADER_LEN + length
            if zlib.crc32(payload) != crc:
                # The frame boundary came from the (untrusted) length
                # field; if *it* was what flipped, the scan-for-magic
                # path recovers at the next real frame.
                event = self._charge_frame(payload, "frame crc mismatch")
            else:
                event = self._decode_frame(frame_type, payload)
            if t0:
                records = len(event[1]) if event[0] == "columns" else 0
                tracer.stop("decode", t0, records=records)
            yield event

    def push_events(self, chunk: bytes) -> list[tuple]:
        """Eager :meth:`iter_events`."""
        return list(self.iter_events(chunk))

    def push_columns(self, chunk: bytes) -> list[LookupColumns]:
        """Decode one chunk; return its complete RECORDS frames."""
        return [event[1] for event in self.iter_events(chunk) if event[0] == "columns"]

    def iter_push(self, chunk: bytes) -> Iterator[ForwardedLookup]:
        """Record-at-a-time compatibility shim over :meth:`iter_events`."""
        for event in self.iter_events(chunk):
            if event[0] == "columns":
                yield from event[1].materialize()

    def flush(self, complete: bool = True) -> list[tuple]:
        """Settle held bytes at stream end (or probe a live tail).

        ``complete=True``: an open corrupt region or a partial trailing
        frame becomes one final corrupt event and is consumed.
        ``complete=False``: the bytes may still be in flight — count one
        ``truncated_tail`` (the retriable probe, exactly v1's policy)
        and keep everything for the next push.
        """
        if not self._buf and not self._junk_open:
            return []
        if not complete:
            self.reader.truncated_tail += 1
            return []
        if not self._junk_open:
            self._open_junk("truncated trailing frame")
        self._absorb_junk(len(self._buf))
        return [self._close_junk()]


# ---------------------------------------------------------------------------
# Conversion (NDJSON <-> v2)
# ---------------------------------------------------------------------------


def ndjson_to_wire2(
    lines: Iterable[bytes | str], out: IO[bytes], frame_records: int = 4096
) -> NdjsonReader:
    """Convert a v1 NDJSON stream to v2 frames; returns the classifier.

    Every line is classified by a real :class:`NdjsonReader`, so the
    corrupt taxonomy (and therefore the replayed skip accounting) is
    identical to decoding the original: headers become META frames,
    lookups batch into RECORDS frames, corrupt lines become QUARANTINE
    frames *at their stream position*.  Blank lines vanish — they carry
    no accounting that reaches the landscape stream.
    """
    corrupt: list[tuple[str, str]] = []
    reader = NdjsonReader(on_corrupt=lambda line, why: corrupt.append((line, why)))
    writer = Wire2Writer(out, frame_records=frame_records)
    header_written = False
    for line in lines:
        record = reader.feed(line)
        if corrupt:
            for quarantined, why in corrupt:
                writer.add_corrupt(quarantined, why)
            corrupt.clear()
        if reader.header is not None and not header_written:
            writer.write_header(reader.header)
            header_written = True
        if record is not None:
            writer.add(record)
    writer.close()
    return reader


def wire2_to_ndjson_lines(data: bytes) -> list[bytes]:
    """Convert v2 frames back to v1 NDJSON lines (no trailing newlines).

    Headers and lookups re-encode through the canonical v1 encoders
    (compact, sorted keys — what ``export-trace`` writes, so a clean
    round-trip is byte-exact); QUARANTINE frames restore their carried
    line verbatim.  Quarantined byte *regions* (a torn v2 file) surface
    as their snippet, keeping the corrupt count faithful.
    """
    decoder = Wire2BatchDecoder(NdjsonReader())
    lines: list[bytes] = []
    events = decoder.push_events(data)
    events.extend(decoder.flush(complete=True))
    for event in events:
        if event[0] == "columns":
            lines.extend(
                encode_record(record).encode("utf-8")
                for record in event[1].materialize()
            )
        elif event[0] == "header":
            lines.append(json.dumps(event[1], **_COMPACT).encode("utf-8"))
        else:  # ("corrupt", line, reason)
            lines.append(event[1].encode("utf-8"))
    return lines
