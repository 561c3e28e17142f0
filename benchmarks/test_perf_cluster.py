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


# ---------------------------------------------------------------------------
# Meshguard failover overhead: supervised vs unsupervised cluster-serve
# ---------------------------------------------------------------------------

SERVE_PARTITIONS = 2
SERVE_RUNS = 2
SUPERVISION_OVERHEAD_CEILING = 1.10


@pytest.fixture(scope="module")
def serve_trace(tmp_path_factory) -> Path:
    """Smaller than the scaling trace: both serve modes push it through
    a real router socket, so steady-state throughput dominates after a
    few seconds and a longer stream only adds wall time."""
    path = tmp_path_factory.mktemp("serve-bench") / "trace.ndjson"
    rc = cli_main(
        [
            "export-trace",
            "--source", "sim",
            "--family", "murofet",
            "--bots", "96",
            "--servers", "8",
            "--days", "6",
            "--seed", "9",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


def _serve_once(
    trace: Path, tmp_path: Path, run: int, supervised: bool
) -> tuple[float, bytes, int]:
    import threading

    from repro.service.cluster import cluster_serve
    from repro.service.netingest import SensorClient

    lines = trace.read_bytes().splitlines()
    mode = "sup" if supervised else "flat"
    workdir = tmp_path / f"serve-{mode}-{run}"
    uds = workdir / "router.sock"
    workdir.mkdir(parents=True)
    failures: list[BaseException] = []

    def _serve() -> None:
        try:
            cluster_serve(
                workdir,
                partitions=SERVE_PARTITIONS,
                uds=uds,
                expect_sensors=1,
                supervised=supervised,
                log=open(os.devnull, "w"),
            )
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            failures.append(exc)

    start = time.perf_counter()
    server = threading.Thread(target=_serve, daemon=True)
    server.start()
    deadline = time.time() + 60
    while time.time() < deadline and not uds.exists():
        time.sleep(0.01)
    assert uds.exists(), "router never bound its socket"
    SensorClient(("uds", str(uds)), "bench-sensor", retry_deadline=60).replay_lines(
        lines
    )
    server.join(timeout=300)
    assert not server.is_alive(), "cluster-serve did not finish"
    if failures:
        raise failures[0]
    elapsed = time.perf_counter() - start
    return elapsed, (workdir / "landscape.ndjson").read_bytes(), len(lines)


def test_perf_supervised_serve_overhead(serve_trace, tmp_path):
    """Supervision armed (heartbeats, health polling, failover streams
    with durable spool plumbing) must cost <=10% steady-state throughput
    against the plain in-process cluster-serve — with zero faults
    injected, so the delta is pure supervision overhead."""
    flat_times, sup_times = [], []
    flat_bytes = sup_bytes = b""
    n_lines = 0
    for run in range(SERVE_RUNS):
        elapsed, flat_bytes, n_lines = _serve_once(
            serve_trace, tmp_path, run, supervised=False
        )
        flat_times.append(elapsed)
    for run in range(SERVE_RUNS):
        elapsed, sup_bytes, _ = _serve_once(
            serve_trace, tmp_path, run, supervised=True
        )
        sup_times.append(elapsed)

    assert sup_bytes == flat_bytes, "supervised landscape drifted"
    assert flat_bytes.strip(), "empty landscape — benchmark measured nothing"

    wall_flat = min(flat_times)
    wall_sup = min(sup_times)
    overhead = wall_sup / wall_flat
    strict = os.environ.get("REPRO_PERF_STRICT") == "1" or (os.cpu_count() or 1) >= 4

    # Fold into the shared cluster artifact without clobbering the
    # partition-scaling section when both benchmarks run.
    path = artifact_path(tmp_path, "BENCH_cluster.json")
    existing: dict = {}
    if path.exists():
        try:
            existing = {
                key: value
                for key, value in json.loads(path.read_text()).items()
                if key not in ("schema", "cpu_count")
            }
        except ValueError:
            existing = {}
    write_artifact(
        path,
        {
            **existing,
            "failover_overhead": {
                "component": "service.meshguard.supervised-serve-overhead",
                "n_lines": n_lines,
                "partitions": SERVE_PARTITIONS,
                "runs": SERVE_RUNS,
                "wall_seconds_unsupervised": round(wall_flat, 4),
                "wall_seconds_supervised": round(wall_sup, 4),
                "overhead_ratio": round(overhead, 4),
                "overhead_ceiling": SUPERVISION_OVERHEAD_CEILING,
                "strict": strict,
            },
        },
    )

    if strict:
        assert overhead <= SUPERVISION_OVERHEAD_CEILING, (
            f"supervised cluster-serve is {overhead:.3f}x the unsupervised "
            f"wall time ({wall_sup:.2f}s vs {wall_flat:.2f}s) — "
            f"over the {SUPERVISION_OVERHEAD_CEILING:.2f}x budget"
        )
