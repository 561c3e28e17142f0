"""Service-path performance: ingest throughput and checkpoint overhead.

Times the two costs a botmeterd deployment actually pays — the per-record
submit path (reorder buffer + routing + shard ingest) and the atomic
checkpoint cadence — and emits a ``repro-perf-v1`` JSON artifact per
measurement so CI can archive the numbers.  Set ``REPRO_PERF_DIR`` to choose the artifact directory (default:
the test's tmp dir).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.service.daemon import BotMeterDaemon
from repro.service.engine import ShardedLandscapeEngine
from repro.service.wire import encode_header, encode_record
from repro.sim import SimConfig, simulate


@pytest.fixture(scope="module")
def service_run():
    return simulate(
        SimConfig(family="murofet", n_bots=12, n_local_servers=2, n_days=1, seed=5)
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


def test_perf_service_ingest_throughput(benchmark, service_run, tmp_path):
    records = list(service_run.observable)

    def ingest():
        engine = ShardedLandscapeEngine(
            {"murofet": service_run.dga}, timeline=service_run.timeline
        )
        for record in records:
            engine.submit(record)
        engine.finalize()
        return engine

    engine = benchmark.pedantic(ingest, rounds=3, iterations=1, warmup_rounds=1)
    seconds = benchmark.stats.stats.mean
    assert engine.metrics.counter("botmeterd_records_ingested_total").value() == len(
        records
    )
    write_artifact(
        artifact_path(tmp_path, "perf_service_ingest.json"),
        {
            "component": "service.engine.ingest",
            "n_records": len(records),
            "wall_seconds": seconds,
            "records_per_second": len(records) / seconds,
        },
    )


def test_perf_service_checkpoint_overhead(service_run, tmp_path):
    trace = tmp_path / "trace.ndjson"
    with open(trace, "w") as fh:
        fh.write(
            encode_header(
                {
                    "families": [{"name": "murofet", "seed": 0}],
                    "granularity": 0.1,
                    "origin": service_run.timeline.origin.isoformat(),
                }
            )
            + "\n"
        )
        for record in service_run.observable:
            fh.write(encode_record(record) + "\n")
    n_records = len(service_run.observable)
    checkpoint_every = 200

    def run_daemon(checkpointed: bool) -> float:
        kwargs = {}
        if checkpointed:
            kwargs = {
                "checkpoint_path": tmp_path / "ck.json",
                "checkpoint_every": checkpoint_every,
            }
        daemon = BotMeterDaemon(
            trace,
            out_path=tmp_path / "out.ndjson",
            families={"murofet": service_run.dga},
            log_stream=open(os.devnull, "w"),
            **kwargs,
        )
        start = time.perf_counter()
        assert daemon.run() == 0
        elapsed = time.perf_counter() - start
        if checkpointed:
            (tmp_path / "ck.json").unlink()
        return elapsed

    run_daemon(False)  # warm caches (kernels, imports)
    plain = min(run_daemon(False) for _ in range(2))
    checkpointed = min(run_daemon(True) for _ in range(2))
    n_checkpoints = n_records // checkpoint_every + 1  # + final checkpoint
    write_artifact(
        artifact_path(tmp_path, "perf_service_checkpoint.json"),
        {
            "component": "service.daemon.checkpoint",
            "n_records": n_records,
            "checkpoint_every": checkpoint_every,
            "n_checkpoints": n_checkpoints,
            "wall_seconds_plain": plain,
            "wall_seconds_checkpointed": checkpointed,
            "overhead_seconds_total": checkpointed - plain,
            "overhead_seconds_per_checkpoint": (checkpointed - plain)
            / n_checkpoints,
        },
    )
    # Checkpointing every 200 records must not dominate the run: allow a
    # generous factor so the assertion flags pathology, not CI jitter.
    assert checkpointed < plain * 5 + 1.0
