"""botmeterd wire format: versioned NDJSON for vantage-point streams.

One record per line, every line a self-describing JSON object carrying
the wire version.  Three line types exist:

* ``header`` — optional stream metadata (families, seeds, granularity),
  written first by ``repro-botmeter export-trace`` so ``serve``/``replay``
  can configure themselves without flags;
* ``lookup`` (the default when ``type`` is absent) — one
  :class:`~repro.dns.message.ForwardedLookup`;
* ``landscape`` — one closed epoch, emitted by the daemon.

Decoding is defensive: a deployed collector restarts mid-line, ships
partial buffers, and interleaves garbage.  :class:`NdjsonReader`
therefore skips blank and corrupt lines, *counts* every skip, and only
raises once the corrupt count passes a configurable cap — the counted
skip policy.  A *truncated* line is different from a corrupt one: the
final line of a live tail may simply still be in flight, so callers
flag it with ``complete=False`` and the reader counts it separately
(``truncated_tail``) without charging the corrupt budget — the caller
retries it once more bytes (or stream end) arrive.

The retry contract is designed for **non-seekable** sources (sockets,
pipes) as much as for file tails: the reader never buffers a truncated
probe and never needs the caller to rewind.  The *caller* retains the
unconsumed tail, appends the bytes that arrive next, and re-feeds the
whole line — with ``complete=True`` once a newline (or stream end)
delimits it.  Under ``complete=False`` the reader consumes a line only
when it decodes to a full JSON *object*; every other outcome —
undecodable bytes, a JSON syntax error, or a non-object value such as
a bare number that may be the prefix of a longer one — counts one
``truncated_tail`` and leaves classification to the retry.  Each probe
of the same tail counts again, so probe once per quiet period, not per
received chunk.

Every landscape line carries a ``quality`` annotation — records charted
(matched) plus the late/dropped/quarantined deltas attributed to that
epoch and the resulting estimated loss fraction — so downstream
consumers can widen confidence intervals for degraded input
(:func:`repro.core.confidence.widen_for_loss`).
"""

from __future__ import annotations

import datetime as _dt
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..core.botmeter import Landscape
from ..dga.base import Dga
from ..dga.families import make_family
from ..dns.message import ForwardedLookup
from ..timebase import Timeline
from .lookups import LookupBatch

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "encode_record",
    "decode_record",
    "encode_header",
    "families_from_header",
    "timeline_from_header",
    "encode_register",
    "encode_landscape",
    "landscape_to_dict",
    "finalize_quality",
    "NdjsonReader",
    "NdjsonBatchDecoder",
    "parse_line",
    "lookup_key",
    "lookup_server",
    "sniff_header",
    "split_header",
    "split_lines",
]

#: Version stamped on (and required of) every wire line.
WIRE_VERSION = 1

_COMPACT = {"sort_keys": True, "separators": (",", ":")}


class WireError(ValueError):
    """A wire-format violation the skip policy refuses to absorb."""


def _dumps(obj: Mapping[str, Any]) -> str:
    return json.dumps(obj, **_COMPACT)


def encode_record(record: ForwardedLookup) -> str:
    """One NDJSON line (no trailing newline) for a lookup record."""
    return _dumps({"v": WIRE_VERSION, **record.to_dict()})


#: The exact key order :func:`encode_record` produces (``sort_keys``),
#: which ``json.loads`` preserves — the precompiled-schema fingerprint
#: the decode fast path matches against.
_FAST_KEYS = ("domain", "server", "timestamp", "v")


def decode_record(data: Mapping[str, Any]) -> ForwardedLookup:
    """Decode a parsed lookup object, checking the wire version.

    The hot path is a precompiled field-order check: a line our own
    encoder wrote carries exactly ``_FAST_KEYS`` in that order, so one
    tuple comparison plus three ``type`` checks replaces the per-record
    key-set validation.  Anything else — extra keys, reordered keys,
    integer timestamps, foreign versions — falls through to the slow
    validator, whose error taxonomy feeds the quarantine sink.
    """
    if tuple(data) == _FAST_KEYS and data["v"] == WIRE_VERSION:
        timestamp = data["timestamp"]
        server = data["server"]
        domain = data["domain"]
        if (
            type(timestamp) is float
            and type(server) is str
            and type(domain) is str
        ):
            return ForwardedLookup(timestamp, server, domain)
    return _decode_record_slow(data)


def _decode_record_slow(data: Mapping[str, Any]) -> ForwardedLookup:
    """Full validation — the quarantine/first-record path."""
    version = data.get("v")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r}")
    try:
        return ForwardedLookup.from_dict(data)
    except (KeyError, TypeError) as exc:
        raise WireError(str(exc)) from exc


def parse_line(line: bytes) -> Any:
    """``json.loads`` of one raw line, or ``None`` when it is not JSON
    (undecodable bytes included).  Decoding first skips the encoding
    sniff ``json.loads`` pays on every ``bytes`` argument."""
    try:
        return json.loads(line.decode("utf-8"))
    except ValueError:
        return None


def lookup_server(data: Any) -> str | None:
    """The server a parsed lookup line names, else ``None``.  A line is
    a lookup when its ``type`` is absent or ``"lookup"``."""
    if isinstance(data, dict) and data.get("type", "lookup") == "lookup":
        server = data.get("server")
        if isinstance(server, str):
            return server
    return None


def lookup_key(data: Any) -> tuple[float, str, str] | None:
    """The trace-order key ``(timestamp, server, domain)`` of a parsed
    lookup line with a numeric timestamp and string server and domain,
    else ``None`` (the line may still be a valid header, or corrupt)."""
    server = lookup_server(data)
    if server is None:
        return None
    timestamp, domain = data.get("timestamp"), data.get("domain")
    if type(timestamp) not in (int, float) or not isinstance(domain, str):
        return None  # (a bool is no timestamp)
    return (float(timestamp), server, domain)


def sniff_header(line: bytes) -> dict[str, Any] | None:
    """The header object ``line`` carries, or ``None``."""
    data = parse_line(line)
    if isinstance(data, dict) and data.get("type") == "header":
        return data
    return None


def split_header(lines: Sequence[bytes | str]) -> tuple[list[bytes], list[bytes]]:
    """``(header_lines, payload_lines)`` of a trace's lines as bytes: at
    most one leading header."""
    lines = [line if isinstance(line, bytes) else line.encode() for line in lines]
    if lines and sniff_header(lines[0]) is not None:
        return lines[:1], lines[1:]
    return [], lines


def encode_header(meta: Mapping[str, Any]) -> str:
    """The stream-metadata line (families, seeds, granularity, ...)."""
    return _dumps({"v": WIRE_VERSION, "type": "header", **meta})


def families_from_header(header: Mapping[str, Any]) -> dict[str, Dga]:
    """Instantiate the DGA families a trace header declares."""
    entries = header.get("families")
    if not entries:
        raise ValueError("trace header declares no families")
    dgas: dict[str, Dga] = {}
    for entry in entries:
        dgas[entry["name"]] = make_family(entry["name"], int(entry.get("seed", 0)))
    return dgas


def timeline_from_header(header: Mapping[str, Any] | None) -> Timeline | None:
    """The timeline a trace header's ``origin`` fixes, if it has one."""
    if header and "origin" in header:
        return Timeline(_dt.date.fromisoformat(header["origin"]))
    return None


def encode_register(family: str, base: str, seed: int) -> str:
    """A ``register`` control line: onboard ``family`` live, mid-stream.

    ``base`` names the generator type (a known family builder) and
    ``seed`` its re-keyed seed — together they let every consumer
    (daemon, inline D3, checkpoint restore) rebuild the identical DGA
    without the trace carrying code.  Control lines exist only on the
    NDJSON wire; the columnar v2 format carries lookup records alone.
    """
    return _dumps(
        {"v": WIRE_VERSION, "type": "register", "family": family, "base": base, "seed": seed}
    )


def finalize_quality(
    landscape: Landscape, quality: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """The per-epoch quality annotation, with the loss fraction derived.

    ``quality`` carries whatever degradation deltas the emitter tracked
    (``late``, ``dropped``, ``quarantined``); missing keys default to 0,
    so a clean batch emission and a clean streamed emission produce the
    identical annotation — preserving the byte-equality anchor.

    Live-detection runs add three optional keys: ``d3_missed`` /
    ``d3_fp`` (per-epoch deltas of records the inline classifier
    dropped despite matching a family window, resp. passed despite
    matching none) and ``d3_miss_rate`` (the cumulative measured miss
    rate).  DoH-degraded vantages add ``doh_loss`` (the estimated
    encryption-adoption fraction).  All of them appear only when the
    emitter provides them, so an oracle-D3, cleartext stream keeps the
    exact historical annotation bytes.  ``d3_missed`` counts into the
    lost total, and ``doh_loss`` compounds multiplicatively into
    ``loss`` (a record survives the channel only if it is neither
    encrypted away nor missed), so
    :func:`repro.core.confidence.widen_for_loss` sees the *measured*
    degradation, not the configured one.
    """
    annotation = {
        "matched": int(sum(landscape.matched_counts.values())),
        "late": 0,
        "dropped": 0,
        "quarantined": 0,
    }
    for key in ("matched", "late", "dropped", "quarantined"):
        if quality is not None and key in quality:
            annotation[key] = int(quality[key])
    lost = annotation["late"] + annotation["dropped"] + annotation["quarantined"]
    if quality is not None:
        for key in ("d3_missed", "d3_fp"):
            if key in quality:
                annotation[key] = int(quality[key])
        if "d3_miss_rate" in quality:
            annotation["d3_miss_rate"] = round(float(quality["d3_miss_rate"]), 6)
        lost += annotation.get("d3_missed", 0)
    denominator = annotation["matched"] + lost
    doh = 0.0
    if quality is not None and "doh_loss" in quality:
        doh = min(max(float(quality["doh_loss"]), 0.0), 1.0)
        annotation["doh_loss"] = round(doh, 6)
    if doh > 0.0:
        visible = lost / denominator if denominator else 0.0
        annotation["loss"] = round(1.0 - (1.0 - visible) * (1.0 - doh), 6)
    else:
        annotation["loss"] = round(lost / denominator, 6) if denominator else 0.0
    return annotation


def landscape_to_dict(
    family: str,
    day_index: int,
    landscape: Landscape,
    quality: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """JSON-ready form of one closed epoch.

    Estimate values, matched counts and the quality annotation are
    carried — enough to ``diff`` two landscape series for exact
    equality and to judge how degraded each epoch's input was.
    """
    return {
        "v": WIRE_VERSION,
        "type": "landscape",
        "family": family,
        "epoch": day_index,
        "estimator": landscape.estimator_name,
        "total": landscape.total,
        "quality": finalize_quality(landscape, quality),
        "servers": {
            server: {
                "estimate": estimate.value,
                "matched": landscape.matched_counts.get(server, 0),
            }
            for server, estimate in landscape.per_server.items()
        },
    }


def encode_landscape(
    family: str,
    day_index: int,
    landscape: Landscape,
    quality: Mapping[str, Any] | None = None,
) -> str:
    """One NDJSON line for a closed epoch (deterministic key order)."""
    return _dumps(landscape_to_dict(family, day_index, landscape, quality))


@dataclass
class NdjsonReader:
    """Streaming NDJSON decoder with a counted skip policy.

    Feed it raw lines (``bytes`` or ``str``); it returns decoded
    :class:`ForwardedLookup` records, absorbs blank lines, headers and
    corrupt lines, and keeps count of everything it absorbed.

    Args:
        max_corrupt: corrupt-line budget; exceeding it raises
            :class:`WireError`.  ``None`` (default) tolerates any number
            — every skip is still counted.
        on_corrupt: optional quarantine sink ``(line, reason) -> None``,
            called for every corrupt line (the daemon wires this to the
            dead-letter queue).
    """

    max_corrupt: int | None = None
    records: int = 0
    blank: int = 0
    corrupt: int = 0
    truncated_tail: int = 0
    header: dict[str, Any] | None = field(default=None, repr=False)
    on_corrupt: Callable[[str, str], None] | None = field(
        default=None, repr=False, compare=False
    )
    #: Optional control-line sink ``(data) -> bool``: called for each
    #: ``register`` line; return ``True`` once the control is accepted.
    #: Unhandled (or handler-less) controls fall through to the corrupt
    #: skip policy, so pre-registry consumers keep their exact counts.
    on_control: Callable[[dict], bool] | None = field(
        default=None, repr=False, compare=False
    )
    #: Optional :class:`~repro.service.tracing.StageTracer`; when set,
    #: every ``feed`` and every ``read`` call becomes a sampled
    #: ``decode`` span.
    tracer: Any = field(default=None, repr=False, compare=False)

    @property
    def skipped(self) -> int:
        """Total absorbed lines (blank + corrupt)."""
        return self.blank + self.corrupt

    def _corrupt_line(self, line: str, reason: str) -> None:
        self.corrupt += 1
        if self.on_corrupt is not None:
            self.on_corrupt(line, reason)
        if self.max_corrupt is not None and self.corrupt > self.max_corrupt:
            raise WireError(
                f"corrupt-line budget exceeded ({self.corrupt} > "
                f"{self.max_corrupt}): {reason}: {line[:120]!r}"
            )

    def feed(
        self, line: bytes | str, *, complete: bool = True
    ) -> ForwardedLookup | None:
        """Decode one line; ``None`` for anything that is not a lookup.

        ``complete=False`` marks a newline-less tail that may still be
        in flight (a live file tail, or the residue of a socket read):
        unless it decodes to a full JSON object it is counted as
        ``truncated_tail`` — a retriable in-flight write, not budgeted
        corruption — and ``None`` is returned *without consuming it*.
        The reader holds no state for the probe, so the contract works
        for non-seekable streams: the caller keeps the tail, appends
        the next bytes, and re-feeds the whole line (``complete=True``
        once it is newline- or stream-end-delimited).
        """
        tracer = self.tracer
        if tracer is None:
            return self._feed(line, complete)
        t0 = tracer.start("decode")
        record = self._feed(line, complete)
        if t0:
            tracer.stop("decode", t0, records=0 if record is None else 1)
        return record

    def _feed(self, line: bytes | str, complete: bool) -> ForwardedLookup | None:
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                if not complete:
                    self.truncated_tail += 1
                    return None
                self._corrupt_line(repr(line[:120]), "undecodable bytes")
                return None
        stripped = line.strip()
        if not stripped:
            self.blank += 1
            return None
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError:
            if not complete:
                self.truncated_tail += 1
                return None
            self._corrupt_line(stripped, "invalid JSON")
            return None
        if not isinstance(data, dict):
            if not complete:
                # A bare scalar can be the *prefix* of a longer one
                # ("12" while "123\n" is in flight), so a non-object
                # probe stays retriable — charging corrupt here would
                # both miscount and consume a line the caller is
                # contractually re-feeding later.
                self.truncated_tail += 1
                return None
            self._corrupt_line(stripped, "not a JSON object")
            return None
        kind = data.get("type", "lookup")
        if kind == "header":
            self.header = data
            return None
        if kind == "register":
            handler = self.on_control
            if handler is not None and handler(data):
                return None
            self._corrupt_line(stripped, "unhandled control line 'register'")
            return None
        if kind != "lookup":
            self._corrupt_line(stripped, f"unknown line type {kind!r}")
            return None
        try:
            record = decode_record(data)
        except WireError as exc:
            self._corrupt_line(stripped, str(exc))
            return None
        self.records += 1
        return record

    def read(self, lines: Iterable[bytes | str]) -> Iterator[ForwardedLookup]:
        """Decode a line stream lazily, yielding lookup records.

        With a tracer set, the whole call is one sampled ``decode`` span
        (not one per line): it sums the lines' decode time only, not the
        time the consumer spends between yields.
        """
        tracer = self.tracer
        timed = tracer is not None and tracer.start("decode") != 0
        spent = records = 0
        for line in lines:
            if timed:
                t0 = tracer.clock()
                record = self._feed(line, True)
                spent += tracer.clock() - t0
            else:
                record = self._feed(line, True)
            if record is not None:
                records += 1
                yield record
        if timed:
            tracer.record("decode", spent, records=records)


#: One complete line of a chunk as ``findall`` groups: ``(line, domain,
#: server, timestamp, b"")`` for a line in the form :func:`encode_record`
#: writes, else ``(b"", b"", b"", b"", line)``.  The first branch takes
#: exactly the lines :func:`decode_record`'s fast path accepts: the four
#: keys in order with no whitespace, ``"v":1``, strings without ``"``,
#: ``\`` or a control byte (nothing to unescape), and a timestamp
#: ``json.loads`` returns as a float (a fraction, an exponent or both;
#: ``01.5`` and integers fall through).
_STRING = rb'([^"\\\x00-\x1f]*)'
_LINE = re.compile(
    rb'^(?:(\{"domain":"' + _STRING + rb'","server":"' + _STRING + rb'","timestamp":'
    rb"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
    rb',"v":1\})|(.*))$',
    re.MULTILINE,
)
#: A decoded run: a bulk-lane batch, or one fallback-lane record.
Run = LookupBatch | tuple[ForwardedLookup]

#: A split line unit: a run of canonical lines as ``(batch, raw lines)``,
#: or one other line's raw bytes.
Unit = tuple[LookupBatch, Sequence[bytes]] | bytes


def _interned(values: Sequence[bytes]) -> tuple[np.ndarray, list[str]]:
    """First-seen ids of ``values`` and the table they index, decoded
    strictly as UTF-8 (else ``UnicodeDecodeError``).  The values hold no
    newline, so the table decodes in one call."""
    index: dict[bytes, int] = {}
    ids = [index.setdefault(value, len(index)) for value in values]
    return np.array(ids, np.uint32), b"\n".join(index).decode("utf-8").split("\n")


def split_lines(data: bytes, end: int) -> Iterator[Unit]:
    """The complete lines ``data[:end]`` as units, in order: each run of
    canonical lines (:data:`_LINE`, one ``findall`` per chunk) as one
    ``LookupBatch`` (first-seen tables) with its raw lines, every other
    line (or a run holding bytes that are not UTF-8) as raw bytes.
    Stateless, so file replay and the network mux share it."""
    lines, domains, servers, stamps, others = zip(*_LINE.findall(data, 0, end))
    n = len(stamps)
    cuts = stamps + (b"",)  # an other line has no timestamp
    start = 0
    while start < n:
        stop = cuts.index(b"", start)
        if stop > start:
            try:
                server_id, server_names = _interned(servers[start:stop])
                domain_id, domain_names = _interned(domains[start:stop])
            except UnicodeDecodeError:
                yield from lines[start:stop]
            else:
                batch = LookupBatch(
                    np.array(stamps[start:stop], dtype=np.float64),
                    server_id,
                    domain_id,
                    server_names,
                    domain_names,
                )
                yield batch, lines[start:stop]
        if stop < n:
            yield others[stop]
        start = stop + 1


def _records(runs: Iterable[Run]) -> list[ForwardedLookup]:
    records: list[ForwardedLookup] = []
    for run in runs:
        records.extend(run.materialize() if isinstance(run, LookupBatch) else run)
    return records


class NdjsonBatchDecoder:
    """Chunk-oriented NDJSON decode into runs of records.

    Feed it arbitrary byte chunks (any split — mid-line boundaries
    included); it reassembles lines, splits each chunk's complete lines
    with :func:`split_lines` and decodes the units in two lanes:

    * the **bulk lane**: a run of canonical lines is already a
      :class:`~repro.service.lookups.LookupBatch`; it is counted and
      yielded whole, or cut at ``run_limit``;
    * the **fallback lane**: every other line (header, control, blank,
      corrupt, a valid record written another way, or a canonical line
      holding bytes that are not UTF-8), and every line when a
      ``line_filter`` is set, goes through the :class:`NdjsonReader` one
      line at a time.

    Fallback lines cut the runs, so skip counting, header capture,
    quarantine and control sinks and the corrupt budget behave
    *identically* to line-at-a-time decoding (the property tests in
    ``tests/test_service_wire.py`` pin this).  :meth:`iter_push` and
    :meth:`iter_flush` yield runs: a ``LookupBatch``, or a one-record
    tuple from the fallback lane.  When a run is yielded the reader's
    ``records`` has counted it and ``consumed`` stands at the end of its
    last line; the line after it decodes only on the next ``next``.
    ``run_limit`` (optional) is asked before each bulk run is yielded for
    the most records it may hold, so a caller can cut runs at a record
    count (the daemon's checkpoint cadence).  :meth:`iter_units` counts
    units split elsewhere (the network mux's merge) the same way.

    ``consumed`` counts the bytes of every fully decoded line (newline
    included), i.e. the stream offset up to which the decode is durable
    — the daemon checkpoints input offsets from it.  The newline-less
    tail is held back until more bytes arrive; at stream end call
    :meth:`iter_flush` (or its eager form :meth:`flush`) to decode it
    (``complete=False`` applies the reader's truncated-tail policy and
    *retains* the tail for a later retry).

    ``line_filter`` (optional) maps each complete raw line to the lines
    the reader should decode in its place (the daemon's fault injector
    sits here).  It is called before ``consumed`` moves past the line,
    so a filter that checkpoints sees the offset of the line boundary.
    """

    def __init__(
        self,
        reader: NdjsonReader | None = None,
        *,
        max_corrupt: int | None = None,
        on_corrupt: Callable[[str, str], None] | None = None,
        line_filter: Callable[[bytes], Iterable[bytes | str]] | None = None,
        run_limit: Callable[[], int] | None = None,
    ) -> None:
        self.reader = (
            reader
            if reader is not None
            else NdjsonReader(max_corrupt=max_corrupt, on_corrupt=on_corrupt)
        )
        self.line_filter = line_filter
        self.run_limit = run_limit
        self._tail = b""
        self.consumed = 0

    @property
    def pending(self) -> bytes:
        """The held-back partial line (no newline seen yet)."""
        return self._tail

    def iter_push(self, chunk: bytes) -> Iterator[Run]:
        """Decode one chunk lazily, yielding its runs (one sampled
        ``decode`` span per chunk)."""
        data = self._tail + chunk
        end = data.rfind(b"\n")
        self._tail = data[end + 1 :]
        if end < 0:
            units: Iterable[Unit] = ()
        elif self.line_filter is not None:
            units = data[:end].split(b"\n")
        else:
            units = split_lines(data, end)
        yield from self.iter_units(units)

    def iter_units(self, units: Iterable[Unit]) -> Iterator[Run]:
        """Decode split units lazily, yielding their runs (one sampled
        ``decode`` span per call)."""
        return self._timed(self._decode(units))

    def _timed(self, runs: Iterable[Run]) -> Iterator[Run]:
        """``runs`` as one sampled ``decode`` span that sums the decode
        time only, not the time the consumer spends between yields."""
        tracer = self.reader.tracer
        if tracer is None or not tracer.start("decode"):
            yield from runs
            return
        clock = tracer.clock
        spent = records = 0
        t0 = clock()
        for run in runs:
            spent += clock() - t0
            records += len(run)
            yield run
            t0 = clock()
        tracer.record("decode", spent + clock() - t0, records=records)

    def _decode(self, units: Iterable[Unit]) -> Iterator[Run]:
        for unit in units:
            if isinstance(unit, bytes):
                yield from self._fallback(unit, 1)
            else:
                yield from self._bulk(*unit)

    def _bulk(self, batch: LookupBatch, lines: Sequence[bytes]) -> Iterator[Run]:
        """One run of canonical lines, cut at ``run_limit``."""
        n = len(batch)
        start = 0
        while start < n:
            stop = n
            if self.run_limit is not None:
                stop = min(n, start + max(1, self.run_limit()))
            self.reader.records += stop - start
            self.consumed += sum(map(len, lines[start:stop])) + stop - start
            yield batch if stop - start == n else batch.slice(start, stop)
            start = stop

    def _fallback(self, line: bytes, newline: int) -> Iterator[Run]:
        """The reader on one raw line, through the line filter;
        ``consumed`` moves past the raw line before its lines decode."""
        delivered = (line,) if self.line_filter is None else self.line_filter(line)
        self.consumed += len(line) + newline
        feed = self.reader._feed
        for each in delivered:
            record = feed(each, True)
            if record is not None:
                yield (record,)

    def push(self, chunk: bytes) -> list[ForwardedLookup]:
        """Decode one chunk eagerly; returns its complete-line records."""
        return _records(self.iter_push(chunk))

    def iter_flush(self, complete: bool = True) -> Iterator[Run]:
        """Decode the held tail at stream end (or probe a live tail).

        ``complete=True`` (stream ended): the tail is a final line — it
        goes through the line filter and is decoded under the normal
        corrupt policy, lazily like :meth:`iter_push` (one tail line may
        become several filtered lines).
        ``complete=False`` (live tail, producer mid-write): probe it
        under the reader's truncated-tail policy, bypassing the line
        filter; if it parses it is consumed, otherwise it is counted as
        ``truncated_tail`` and *kept* for the next :meth:`push` to
        complete.
        """
        line = self._tail
        if not line:
            return
        if complete:
            self._tail = b""
            yield from self._timed(self._fallback(line, 0))
            return
        before = self.reader.truncated_tail
        record = self.reader.feed(line, complete=False)
        if self.reader.truncated_tail > before:
            return  # still in flight; retry once more bytes arrive
        self._tail = b""
        self.consumed += len(line)
        if record is not None:
            yield (record,)

    def flush(self, complete: bool = True) -> list[ForwardedLookup]:
        """Eager :meth:`iter_flush`."""
        return _records(self.iter_flush(complete))
