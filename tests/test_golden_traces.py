"""Golden-trace regression suite.

Two tiny seeded NDJSON traces live under ``tests/golden/`` next to the
landscape NDJSON a replay of each must produce, byte for byte.  Unit
tests pin individual components; these pin the *composition* — reader,
reorder buffer, routing, shards, epoch closure, quality annotation and
serialisation — so any behaviour drift anywhere in the pipeline shows
up as a one-line diff against a committed file.

Regenerate a golden (only after deliberately changing behaviour) with::

    PYTHONPATH=src python -m repro.cli replay tests/golden/<name>.ndjson \
        --out tests/golden/<name>.landscape.ndjson --trace-sample 0

The replays run line-at-a-time (``batch_lines=1``) and in 4-line
batches (small batches flush constantly, so emissions land mid-batch
and quarantine/D3 attribution inside a batch is exercised), and with
Stagewatch tracing on at the default 256-line batches, so the suite
simultaneously guards the batch-framing byte-identity anchor and the
tracer's "purely observational" contract.

``golden/netingest_3sensor/`` pins the Sensornet ingest tier the same
way: three committed sensor shards (round-robin of a seeded new_goz
trace — ``export-trace --family new_goz --bots 6 --servers 2 --days 2
--seed 11``, sharded with ``shard_trace_lines``) replayed over real TCP
must reproduce the committed landscape bytes *and* the committed
per-connection cursor map, line-at-a-time and batched.

``golden/cluster_3part/`` pins the Chartmesh cluster tier: three
committed partition input shards (``murofet_small.ndjson`` split by
``route_line`` at width 3 — partition 2 deliberately owns zero records)
replayed through independent partition daemons must merge to the
committed landscape bytes and reproduce the committed per-partition
cursor map.  Regenerate (only after deliberately changing behaviour) by
re-running ``cluster_replay(golden/murofet_small.ndjson, tmp,
partitions=3)`` and copying ``seg0-p*.in.ndjson``, ``landscape.ndjson``
and the ``seg0.done.json`` cursors.
"""

from __future__ import annotations

import io
import json
import threading
from pathlib import Path

import pytest

from repro.service.daemon import BotMeterDaemon
from repro.service.tracing import STAGES, trace_report

GOLDEN_DIR = Path(__file__).parent / "golden"

FIXTURES = ["murofet_small", "new_goz_jitter"]


def _replay_file(
    trace: Path, tmp_path: Path, batch_lines: int = 256, **kwargs
) -> bytes:
    out = tmp_path / f"{trace.stem}.b{batch_lines}.ndjson"
    daemon = BotMeterDaemon(
        trace,
        out_path=out,
        follow=False,
        batch_lines=batch_lines,
        **kwargs,
    )
    assert daemon.run() == 0
    return out.read_bytes()


def _replay(name: str, tmp_path: Path, batch_lines: int = 256, **kwargs) -> bytes:
    return _replay_file(GOLDEN_DIR / f"{name}.ndjson", tmp_path, batch_lines, **kwargs)


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("batch_lines", [1, 4])
def test_golden_replay_byte_identical(name, batch_lines, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.landscape.ndjson").read_bytes()
    assert _replay(name, tmp_path, batch_lines) == expected


def test_golden_wire2_twin_replays_byte_identical(tmp_path):
    """The committed binary twin of ``murofet_small`` (generated with
    ``repro convert-trace --frame-records 64``) must replay to the same
    committed landscape bytes as the NDJSON original — the wire-v2
    tentpole anchor, pinned against a committed fixture."""
    expected = (GOLDEN_DIR / "murofet_small.landscape.ndjson").read_bytes()
    out = tmp_path / "v2.ndjson"
    daemon = BotMeterDaemon(
        GOLDEN_DIR / "murofet_small.v2",
        out_path=out,
        follow=False,
        batch_lines=256,
    )
    assert daemon.run() == 0
    assert out.read_bytes() == expected


def test_golden_wire2_twin_is_the_committed_conversion():
    """The committed ``.v2`` file is exactly what ``convert-trace``
    produces from the committed NDJSON — no drift between the fixture
    pair (and conversion is deterministic)."""
    from repro.service.wire2 import ndjson_to_wire2

    import io

    source = (GOLDEN_DIR / "murofet_small.ndjson").read_bytes()
    buf = io.BytesIO()
    ndjson_to_wire2(source.splitlines(), buf, frame_records=64)
    assert buf.getvalue() == (GOLDEN_DIR / "murofet_small.v2").read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_replay_with_trace_sink_byte_identical(name, tmp_path):
    """An attached span sink must not perturb the landscape stream."""
    expected = (GOLDEN_DIR / f"{name}.landscape.ndjson").read_bytes()
    got = _replay(
        name, tmp_path, trace_out=tmp_path / "events.ndjson", trace_sample=2
    )
    assert got == expected


NET_GOLDEN = GOLDEN_DIR / "netingest_3sensor"


@pytest.mark.parametrize("batch_lines", [1, 4])
def test_golden_netingest_three_sensor_merge(batch_lines, tmp_path):
    """Three committed shards over real TCP reproduce the committed
    landscape bytes and per-connection cursor map."""
    from repro.service.netingest import NetIngestServer, SensorClient

    shards = [
        (NET_GOLDEN / f"shard-{i:02d}.ndjson").read_bytes().splitlines()
        for i in range(3)
    ]
    expected = (NET_GOLDEN / "expected.landscape.ndjson").read_bytes()
    cursors = json.loads((NET_GOLDEN / "cursors.json").read_text())
    out = tmp_path / "net.ndjson"
    checkpoint = tmp_path / "checkpoint.json"
    daemon = BotMeterDaemon(
        "net:golden",
        out_path=out,
        checkpoint_path=checkpoint,
        checkpoint_every=64,
        batch_lines=batch_lines,
        trace_sample=0,
        log_stream=io.StringIO(),
    )
    server = NetIngestServer(daemon, tcp=("127.0.0.1", 0), expect_sensors=3)
    thread = server.run_in_thread()
    errors = []

    def _one(i):
        try:
            SensorClient(
                ("tcp", *server.tcp_address), f"sensor-{i:02d}", retry_deadline=60
            ).replay_lines(shards[i])
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    client_threads = [
        threading.Thread(target=_one, args=(i,), daemon=True) for i in range(3)
    ]
    for t in client_threads:
        t.start()
    for t in client_threads:
        t.join(timeout=120)
    thread.join(timeout=60)
    if errors:
        server.stop()
        raise errors[0]
    assert server.error is None
    assert out.read_bytes() == expected
    assert json.loads(checkpoint.read_text())["sensors"] == cursors


CLUSTER_GOLDEN = GOLDEN_DIR / "cluster_3part"


def test_golden_cluster_three_partition_merge(tmp_path):
    """Three committed partition shards, each through its own daemon,
    merge to the committed landscape bytes and cursor map — pinning the
    router split, the drained-accumulator merge and the zero-record
    partition path in one fixture."""
    from repro.service.checkpoint import CheckpointStore
    from repro.service.cluster import merge_landscape_rows, run_partition

    cursors = {}
    outs = []
    for i in range(3):
        paths = {
            "input": str(CLUSTER_GOLDEN / f"shard-{i:02d}.ndjson"),
            "out": str(tmp_path / f"p{i:02d}.out.ndjson"),
            "checkpoint": str(tmp_path / f"p{i:02d}.ck.json"),
            "label": f"p{i:02d}",
        }
        assert run_partition(paths) == 0
        document = CheckpointStore(paths["checkpoint"]).load()
        cursors[f"p{i:02d}"] = {
            "records_consumed": int(document["records_consumed"]),
            "landscapes_emitted": int(document["landscapes_emitted"]),
        }
        out = tmp_path / f"p{i:02d}.out.ndjson"
        outs.append(out.read_bytes().splitlines() if out.exists() else [])
    merged = "".join(line + "\n" for line in merge_landscape_rows(outs))
    expected = (CLUSTER_GOLDEN / "expected.landscape.ndjson").read_bytes()
    assert merged.encode() == expected
    assert cursors == json.loads((CLUSTER_GOLDEN / "cursors.json").read_text())


def test_golden_cluster_shards_cover_the_source_trace(tmp_path):
    """The committed shards are exactly the committed trace, re-routed:
    no payload line lost, duplicated, or mis-partitioned."""
    from repro.service.cluster import route_line, split_header

    source = (GOLDEN_DIR / "murofet_small.ndjson").read_bytes().splitlines()
    header, payload = split_header(source)
    rebuilt = [list(header) for _ in range(3)]
    for line in payload:
        rebuilt[route_line(line, 3)].append(line)
    for i in range(3):
        committed = (CLUSTER_GOLDEN / f"shard-{i:02d}.ndjson").read_bytes()
        body = b"\n".join(rebuilt[i]) + (b"\n" if rebuilt[i] else b"")
        assert committed == body, f"shard {i} drifted from route_line"


LIVEVIEW_DOH = GOLDEN_DIR / "liveview_doh"
LIVEVIEW_REKEY = GOLDEN_DIR / "liveview_rekey"


@pytest.mark.parametrize("batch_lines", [1, 4])
def test_golden_liveview_doh_replay_byte_identical(batch_lines, tmp_path):
    """The DoH visibility-loss trace (``export-trace --source sim
    --doh-adoption 0.25``) replays to the committed degraded landscape:
    every row carries the adoption estimate as ``doh_loss`` and a
    ``loss`` widened to at least the adoption fraction, so downstream
    ``widen_for_loss`` readers correct for the invisible bots."""
    expected = (LIVEVIEW_DOH / "expected.landscape.ndjson").read_bytes()
    got = _replay_file(LIVEVIEW_DOH / "trace.ndjson", tmp_path, batch_lines)
    assert got == expected
    rows = [json.loads(line) for line in got.splitlines()]
    assert rows, "degraded landscape is empty"
    for row in rows:
        assert row["quality"]["doh_loss"] == 0.25
        assert row["quality"]["loss"] >= 0.25


@pytest.mark.parametrize("batch_lines", [1, 4])
def test_golden_liveview_rekey_replay_byte_identical(batch_lines, tmp_path):
    """The takedown re-key campaign trace, replayed with the real
    lexical D3 inline, reproduces the committed landscape bytes — and
    the population hand-off epoch is pinned: the storm family carries
    epoch 0, the re-keyed family first appears at epoch 1, exactly the
    trace header's ``handoff_day``."""
    expected = (LIVEVIEW_REKEY / "expected.landscape.ndjson").read_bytes()
    got = _replay_file(
        LIVEVIEW_REKEY / "trace.ndjson", tmp_path, batch_lines, d3="lexical"
    )
    assert got == expected
    header = json.loads(
        (LIVEVIEW_REKEY / "trace.ndjson").read_bytes().splitlines()[0]
    )
    rekey_family = header["rekey"]["family"]
    base_family = header["families"][0]["name"]
    rows = [json.loads(line) for line in got.splitlines()]
    handoff = min(r["epoch"] for r in rows if r["family"] == rekey_family and r["total"] > 0)
    assert handoff == header["rekey"]["handoff_day"] == 1
    assert all(
        r["total"] == 0
        for r in rows
        if r["family"] == base_family and r["epoch"] >= handoff
    )
    # Measured D3 quality rides every row; the storm epoch records the
    # detector's real misses and false positives.
    storm = next(r for r in rows if r["family"] == base_family and r["epoch"] == 0)
    assert storm["quality"]["d3_missed"] > 0
    assert storm["quality"]["d3_miss_rate"] > 0


@pytest.mark.parametrize("batch_lines", [1, 4])
def test_golden_murofet_lexical_d3_byte_identical(batch_lines, tmp_path):
    """``replay --d3 lexical`` over the plain murofet golden matches its
    committed D3 twin: the detector's measured miss/FP counters land in
    the quality block and the loss annotation absorbs the missed
    records, while the landscape estimates themselves stay put."""
    expected = (GOLDEN_DIR / "murofet_small.landscape.d3.ndjson").read_bytes()
    got = _replay("murofet_small", tmp_path, batch_lines, d3="lexical")
    assert got == expected
    rows = [json.loads(line) for line in got.splitlines()]
    plain = [
        json.loads(line)
        for line in (GOLDEN_DIR / "murofet_small.landscape.ndjson").read_bytes().splitlines()
    ]
    assert sum(r["quality"]["d3_missed"] for r in rows) > 0
    assert all(0 < r["quality"]["d3_miss_rate"] < 0.5 for r in rows)
    # The poisson estimator sees fewer matched records but the same
    # distinct-domain structure: totals survive the lexical filter.
    assert [r["total"] for r in rows] == [r["total"] for r in plain]


def test_golden_trace_covers_all_stages(tmp_path):
    """A traced golden replay's trace report shows every one of the
    five stages with a non-zero count."""
    trace_path = tmp_path / "events.ndjson"
    _replay("murofet_small", tmp_path, trace_out=trace_path, trace_sample=1)
    report = trace_report(trace_path)
    for stage in STAGES:
        assert report["stages"].get(stage, {}).get("count", 0) > 0, stage
    assert report["headers"] == 1
