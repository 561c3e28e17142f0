"""Fastlane wire-format performance: columnar v2 decode vs per-line NDJSON.

Decodes the same seeded trace twice — once through the tolerant
per-line NDJSON reader (``json.loads`` + validation per record), once
through the wire-v2 columnar batch decoder (struct-framed chunks into
numpy arrays) — and emits the ``BENCH_wire.json`` ``repro-perf-v1``
artifact comparing single-core decode throughput.  Under
``REPRO_PERF_STRICT=1`` (the CI ``wire-smoke`` smoke row) the columnar path
must clear a **4x** floor; elsewhere the ratio is advisory.  Both paths
must decode to exactly the same records — a perf run that drifts
behaviourally is worthless, so the identity is asserted here too.
"""

import io
import json
import os
import time
from pathlib import Path

import pytest

from repro.service.wire import NdjsonReader, encode_header, encode_record
from repro.service.wire2 import Wire2BatchDecoder, Wire2Writer
from repro.sim import SimConfig, simulate

DECODE_SPEEDUP_FLOOR = 4.0
CHUNK = 1 << 18


@pytest.fixture(scope="module")
def wire_run():
    return simulate(
        SimConfig(family="new_goz", n_bots=96, n_local_servers=8, n_days=2, seed=17)
    )


def artifact_path(tmp_path: Path, name: str) -> Path:
    root = os.environ.get("REPRO_PERF_DIR")
    directory = Path(root) if root else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def write_artifact(path: Path, payload: dict) -> None:
    payload = {"schema": "repro-perf-v1", "cpu_count": os.cpu_count(), **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nperf artifact: {path}")
    print(json.dumps(payload, indent=2, sort_keys=True))


def test_perf_wire_v2_columnar_decode_speedup(wire_run, tmp_path):
    records = list(wire_run.observable)
    header = {"families": [{"name": "new_goz", "seed": 7}], "granularity": 0.1}
    ndjson_lines = [encode_header(header).encode()] + [
        encode_record(r).encode() for r in records
    ]
    buf = io.BytesIO()
    writer = Wire2Writer(buf, frame_records=4096)
    writer.write_header({"v": 1, "type": "header", **header})
    for record in records:
        writer.add(record)
    writer.close()
    v2_bytes = buf.getvalue()

    def decode_ndjson():
        reader = NdjsonReader()
        return [r for r in map(reader.feed, ndjson_lines) if r is not None]

    def decode_columnar():
        decoder = Wire2BatchDecoder()
        columns = []
        for start in range(0, len(v2_bytes), CHUNK):
            columns.extend(decoder.push_columns(v2_bytes[start : start + CHUNK]))
        return columns

    def best_of(fn, rounds=3):
        fn()  # warm (allocator, code paths)
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    # Behavioural identity first: the columnar frames materialize to
    # exactly the per-line records (order included).
    materialized = [
        record for columns in decode_columnar() for record in columns.materialize()
    ]
    assert materialized == decode_ndjson()

    line_seconds = best_of(decode_ndjson)
    columnar_seconds = best_of(decode_columnar)
    speedup = line_seconds / columnar_seconds
    write_artifact(
        artifact_path(tmp_path, "BENCH_wire.json"),
        {
            "component": "service.wire2.columnar_decode",
            "n_records": len(records),
            "ndjson_bytes": sum(len(l) + 1 for l in ndjson_lines),
            "wire2_bytes": len(v2_bytes),
            "ndjson_decode_seconds": line_seconds,
            "columnar_decode_seconds": columnar_seconds,
            "ndjson_records_per_second": len(records) / line_seconds,
            "columnar_records_per_second": len(records) / columnar_seconds,
            "decode_speedup": speedup,
            "decode_speedup_floor": DECODE_SPEEDUP_FLOOR,
            "strict": os.environ.get("REPRO_PERF_STRICT") == "1",
        },
    )
    if os.environ.get("REPRO_PERF_STRICT") == "1":
        assert speedup >= DECODE_SPEEDUP_FLOOR, (
            f"columnar v2 decode is only {speedup:.2f}x the per-line NDJSON "
            f"reader; the Fastlane floor is {DECODE_SPEEDUP_FLOOR}x"
        )
