"""Chartmesh partition-tier scaling: 1-partition vs 4-partition replay.

Routes the same seeded trace through :func:`cluster_replay` twice —
once as a single partition process, once as four — and emits a
``BENCH_cluster.json`` ``repro-perf-v1`` artifact comparing end-to-end
wall time.  Both widths pay the same router split, process spawn and
aggregator merge, so the ratio isolates how well the partition tier
itself scales.  Both runs must produce byte-identical landscapes — a
perf run that drifts behaviourally is worthless, so the identity is
asserted here too.

The >=2x scaling floor is only enforced where four partition processes
can actually run in parallel (>=4 CPUs, or ``REPRO_PERF_STRICT=1`` to
force it); elsewhere the benchmark still runs and reports, it just
doesn't gate.

``cluster-serve`` has no gate here: it has one serve path (supervised
partition processes behind failover streams), so there is no second
path to compare it with.  Its byte identity with the single-daemon
replay, clean and across a partition SIGKILL, is checked by the tier-1
``tests/test_service_cluster.py::TestClusterServe``.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.service.cluster import cluster_replay

PARTITIONS = 4
RUNS = 2
SPEEDUP_FLOOR = 2.0


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


@pytest.fixture(scope="module")
def trace(tmp_path_factory) -> Path:
    """A murofet trace big enough that partition ingest dominates the
    router/merge overhead (~260k records; eight servers split evenly
    across four partitions under crc32 % 4)."""
    path = tmp_path_factory.mktemp("cluster-bench") / "trace.ndjson"
    rc = cli_main(
        [
            "export-trace",
            "--source", "sim",
            "--family", "murofet",
            "--bots", "512",
            "--servers", "8",
            "--days", "14",
            "--seed", "9",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


def _replay(trace: Path, tmp_path: Path, partitions: int, run: int) -> tuple[float, bytes, int]:
    # A fresh workdir per run: rerunning in place would resume from the
    # segment markers and skip the work being measured.
    workdir = tmp_path / f"w{partitions}-{run}"
    start = time.perf_counter()
    report = cluster_replay(
        trace,
        workdir,
        partitions=partitions,
        verify=False,
        serial=False,
        log=open(os.devnull, "w"),
    )
    elapsed = time.perf_counter() - start
    assert report["resumed"] is False
    return elapsed, (workdir / "landscape.ndjson").read_bytes(), report["payload_lines"]


def test_perf_cluster_partition_scaling(trace, tmp_path):
    single_times, cluster_times = [], []
    single_bytes = cluster_bytes = b""
    n_records = 0
    for run in range(RUNS):
        elapsed, single_bytes, n_records = _replay(trace, tmp_path, 1, run)
        single_times.append(elapsed)
    for run in range(RUNS):
        elapsed, cluster_bytes, _ = _replay(trace, tmp_path, PARTITIONS, run)
        cluster_times.append(elapsed)

    assert cluster_bytes == single_bytes, "partitioned landscape drifted"
    assert single_bytes.strip(), "empty landscape — benchmark measured nothing"

    wall_single = min(single_times)
    wall_cluster = min(cluster_times)
    speedup = wall_single / wall_cluster
    strict = os.environ.get("REPRO_PERF_STRICT") == "1" or (os.cpu_count() or 1) >= 4

    write_artifact(
        artifact_path(tmp_path, "BENCH_cluster.json"),
        {
            "component": "service.cluster.partition-scaling",
            "n_records": n_records,
            "partitions": PARTITIONS,
            "runs": RUNS,
            "wall_seconds_single": round(wall_single, 4),
            "wall_seconds_cluster": round(wall_cluster, 4),
            "records_per_second_single": round(n_records / wall_single, 1),
            "records_per_second_cluster": round(n_records / wall_cluster, 1),
            "speedup": round(speedup, 3),
            "speedup_floor": SPEEDUP_FLOOR,
            "strict": strict,
        },
    )

    if strict:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{PARTITIONS}-partition replay only {speedup:.2f}x faster "
            f"than 1-partition ({wall_cluster:.2f}s vs {wall_single:.2f}s)"
        )

