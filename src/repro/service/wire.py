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

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..core.botmeter import Landscape
from ..dns.message import ForwardedLookup

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "encode_record",
    "decode_record",
    "encode_header",
    "encode_register",
    "encode_landscape",
    "landscape_to_dict",
    "finalize_quality",
    "NdjsonReader",
    "NdjsonBatchDecoder",
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


def encode_header(meta: Mapping[str, Any]) -> str:
    """The stream-metadata line (families, seeds, granularity, ...)."""
    return _dumps({"v": WIRE_VERSION, "type": "header", **meta})


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
    #: every ``feed`` becomes a sampled ``decode`` span.
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
        return self._feed_object(stripped, data)

    def _feed_object(self, stripped: str, data: dict) -> ForwardedLookup | None:
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

    def feed_parsed(
        self, line: bytes | str, data: Any
    ) -> ForwardedLookup | None:
        """Decode an already-parsed complete line under the skip policy.

        ``data`` must be ``json.loads`` of ``line``.  Callers that parse
        every line themselves anyway (the network ingest tier peeks each
        payload line for its merge key) use this to skip a second parse;
        counters, header capture and quarantine behaviour are identical
        to ``feed(line)`` on a complete line.
        """
        tracer = self.tracer
        if tracer is None:
            return self._feed_parsed(line, data)
        t0 = tracer.start("decode")
        record = self._feed_parsed(line, data)
        if t0:
            tracer.stop("decode", t0, records=0 if record is None else 1)
        return record

    def _feed_parsed(self, line: bytes | str, data: Any) -> ForwardedLookup | None:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        stripped = line.strip()
        if not isinstance(data, dict):
            self._corrupt_line(stripped, "not a JSON object")
            return None
        return self._feed_object(stripped, data)

    def read(self, lines: Iterable[bytes | str]) -> Iterator[ForwardedLookup]:
        """Decode a whole line stream, yielding lookup records."""
        for line in lines:
            record = self.feed(line)
            if record is not None:
                yield record


class NdjsonBatchDecoder:
    """Chunk-oriented NDJSON decode for batched ingest.

    Feed it arbitrary byte chunks (any split — mid-line boundaries
    included); it reassembles lines and drives a regular
    :class:`NdjsonReader`, so skip counting, header capture, quarantine
    sinks and the corrupt budget behave *identically* to line-at-a-time
    decoding — the decoder is a pure re-chunking layer (the property
    test in ``tests/test_service_wire.py`` pins this).

    ``consumed`` counts the bytes of every fully decoded line (newline
    included), i.e. the stream offset up to which the decode is durable
    — the daemon checkpoints input offsets from it.  The newline-less
    tail is held back until more bytes arrive; at stream end call
    :meth:`flush` to decode it (``complete=False`` applies the reader's
    truncated-tail policy and *retains* the tail for a later retry).
    """

    def __init__(
        self,
        reader: NdjsonReader | None = None,
        *,
        max_corrupt: int | None = None,
        on_corrupt: Callable[[str, str], None] | None = None,
    ) -> None:
        self.reader = (
            reader
            if reader is not None
            else NdjsonReader(max_corrupt=max_corrupt, on_corrupt=on_corrupt)
        )
        self._tail = b""
        self.consumed = 0

    @property
    def pending(self) -> bytes:
        """The held-back partial line (no newline seen yet)."""
        return self._tail

    def iter_push(self, chunk: bytes) -> Iterator[ForwardedLookup]:
        """Decode one chunk lazily, yielding lookup records.

        ``consumed`` and the reader's counters advance as the iterator
        is drained, so a caller can observe per-record reader state
        (e.g. the corrupt count) between yields.
        """
        data = self._tail + chunk
        lines = data.split(b"\n")
        self._tail = lines.pop()
        for line in lines:
            self.consumed += len(line) + 1
            record = self.reader.feed(line)
            if record is not None:
                yield record

    def push(self, chunk: bytes) -> list[ForwardedLookup]:
        """Decode one chunk eagerly; returns its complete-line records."""
        return list(self.iter_push(chunk))

    def flush(self, complete: bool = True) -> list[ForwardedLookup]:
        """Decode the held tail at stream end (or probe a live tail).

        ``complete=True`` (stream ended): the tail is a final line —
        decode it under the normal corrupt policy and consume it.
        ``complete=False`` (live tail, producer mid-write): probe it
        under the reader's truncated-tail policy; if it parses it is
        consumed, otherwise it is counted as ``truncated_tail`` and
        *kept* for the next :meth:`push` to complete.
        """
        if not self._tail:
            return []
        line = self._tail
        before = self.reader.truncated_tail
        record = self.reader.feed(line, complete=complete)
        if not complete and self.reader.truncated_tail > before:
            return []  # still in flight; retry once more bytes arrive
        self._tail = b""
        self.consumed += len(line)
        return [record] if record is not None else []
