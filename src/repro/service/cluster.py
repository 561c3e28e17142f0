"""Chartmesh — the partitioned botmeterd cluster tier.

One botmeterd charts one stream.  This module runs **N independent
partition daemons**, each owning the ``crc32(server) % N`` slice of the
vantage-point stream (:func:`partition_for_server`), and merges their
per-partition landscape NDJSON into one global chart that is
**byte-identical** to what a single unpartitioned daemon would emit.

Three moving parts:

* **The splitter/router.**  Offline (:func:`cluster_replay`) a trace is
  split into per-partition input shards — every ``lookup`` line goes to
  its server's partition, the header is replicated into every shard,
  anything else (blank, corrupt) rides with partition 0 so reader
  accounting lands in exactly one place.  Online (:func:`cluster_serve`)
  a :class:`ClusterRouterFrontend` sits behind a normal
  :class:`~repro.service.netingest.NetIngestServer`: sensors speak the
  ordinary Sensornet protocol to the router, which re-streams each
  released line to its partition's own ingest socket over a
  :class:`~repro.service.meshguard.FailoverSensorStream`.

* **The partitions.**  Plain :class:`~repro.service.daemon.BotMeterDaemon`
  processes (supervised ones behind ingest sockets when live, see
  :mod:`repro.service.meshguard`).  A non-final replay segment runs with
  ``finalize_at_eof=False`` — at EOF it *drains*: flushes batches and
  checkpoints the open engine state (reorder buffer included) without
  force-closing epochs.  Only the last segment finalizes.

* **The aggregator.**  :func:`merge_landscape_rows` groups emitted rows
  by ``(epoch, family)``, unions the per-server cells (duplicate servers
  across partitions are a hard error — the router invariant), re-sums
  ``total`` over the sorted server order (the exact float-addition order
  a single daemon uses) and re-derives the quality ``loss`` from the
  summed counters.  Partition metrics fold through
  :func:`~repro.service.metrics.merge_registry_states` — the exact
  counter/histogram merge, not an approximation.

**Live resharding** (:func:`reshard_checkpoints`) moves a cluster from N
partitions to M (arbitrary N↔M) between segments: every partition drains
to its checkpoint, the shard lists are re-keyed by
``partition_for_server(server, M)``, reorder-buffer contents are
re-bucketed the same way, the new watermark is the **min** of the old
ones (every re-bucketed buffered record is at or past it, preserving the
"everything at or below the watermark is released" invariant) and the
emission cursor the min of the old ones — per-shard
``next_epoch_to_close`` cursors keep already-emitted epochs from being
contributed twice.  Pending quality
deltas (late/dropped counters vs their emission marks) fold onto
partition 0, so nothing is lost and nothing double-charges.

Why the merge is exact: each partition sees its slice of the sorted
stream in order, so it emits the same per-server estimates the single
daemon computes; each ``(epoch, family, server)`` cell is emitted by
exactly one partition segment (the shard cursor gate); and the
aggregator re-sums in sorted-server order, which is the insertion order
``Landscape.total`` uses.  :func:`cluster_replay` can verify the claim
end to end (``verify=True`` replays the trace through one daemon and
byte-compares), and ``repro cluster-replay`` gates on it by default.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import zlib
from functools import lru_cache
from itertools import compress
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import IO, Any, Iterable, Mapping, Sequence

import numpy as np

from .checkpoint import CheckpointStore
from .daemon import BotMeterDaemon
from .engine import ENGINE_STATE_SCHEMA
from .metrics import MetricsRegistry, merge_registry_states
from .wire import (
    NdjsonReader,
    Unit,
    lookup_server,
    parse_line,
    sniff_header,
    split_header,
)
from .wire2 import Wire2BatchDecoder, Wire2Writer, sniff_wire2

__all__ = [
    "CLUSTER_SCHEMA",
    "ClusterError",
    "ClusterVerifyError",
    "ClusterRouterFrontend",
    "cluster_replay",
    "cluster_serve",
    "merge_landscape_rows",
    "partition_for_server",
    "reshard_checkpoints",
    "run_partition",
    "split_header",
    "route_line",
]

CLUSTER_SCHEMA = "botmeterd-cluster-v1"

_QUALITY_KEYS = ("matched", "late", "dropped", "quarantined")


@lru_cache(maxsize=65536)
def partition_for_server(server: str, n_partitions: int) -> int:
    """Deterministic partition routing: stable across runs, platforms
    and restarts (CRC-32 is endianness-free and seedless, unlike
    ``hash``), so a reshard from N partitions to M recomputes
    membership from the server name alone.

    Border traces repeat a small forwarding-server set, so the
    ``(server, n)`` decision is LRU-cached: the encode+CRC cost is paid
    once per distinct server, and the bounded cache never grows without
    limit under server churn.
    """
    return zlib.crc32(server.encode("utf-8")) % n_partitions


class ClusterError(RuntimeError):
    """A cluster operation could not complete."""


class ClusterVerifyError(ClusterError):
    """The merged cluster landscape differs from the single-daemon replay."""


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def _load_trace_units(trace: Path) -> tuple[str, Any, list[Any]]:
    """Sniff and load a trace as routable units.

    Returns ``(wire, header, units)``:

    * NDJSON — ``("ndjson", header_lines, payload_lines)``, the classic
      byte-line form :func:`split_header` produces; each unit routes via
      :func:`route_line`.
    * wire v2 — ``("v2", header_dict_or_None, events)`` where each unit
      is ``("rec", ForwardedLookup)`` (routes on its server directly, no
      JSON parse) or ``("corrupt", line, reason)`` (rides partition 0,
      exactly like a corrupt NDJSON line would).

    Segment plan boundaries count *units* either way — payload lines for
    NDJSON, records+quarantines for v2 — so a plan written for one
    encoding of a trace means the same cut points in the other.
    """
    raw = trace.read_bytes()
    if sniff_wire2(raw[:4]):
        decoder = Wire2BatchDecoder(NdjsonReader())
        events = decoder.push_events(raw)
        events.extend(decoder.flush(complete=True))
        header: dict[str, Any] | None = None
        units: list[Any] = []
        for event in events:
            if event[0] == "header":
                if header is None:
                    header = event[1]
            elif event[0] == "columns":
                units.extend(("rec", record) for record in event[1].materialize())
            else:
                units.append(("corrupt", event[1], event[2]))
        return "v2", header, units
    header_lines, payload = split_header(raw.splitlines())
    return "ndjson", header_lines, payload


def route_line(line: bytes, n_partitions: int) -> int:
    """The partition a payload line belongs to.

    ``lookup`` lines hash on their server; everything else — blank,
    corrupt, unknown types — deterministically rides with partition 0 so
    the reader-side accounting (skip counters, corrupt quarantine) lands
    in exactly one partition.
    """
    server = lookup_server(parse_line(line))
    return 0 if server is None else partition_for_server(server, n_partitions)


# ---------------------------------------------------------------------------
# The aggregator
# ---------------------------------------------------------------------------


def _parse_landscape_rows(stream: Iterable[bytes | str]) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for line in stream:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        if not isinstance(row, Mapping) or row.get("type") != "landscape":
            raise ClusterError(f"not a landscape row: {line[:120]!r}")
        rows.append(row)
    return rows


def _group_rows(
    parsed: Sequence[Sequence[Mapping[str, Any]]],
) -> dict[tuple[int, str], dict[str, Any]]:
    groups: dict[tuple[int, str], dict[str, Any]] = {}
    for rows in parsed:
        for row in rows:
            key = (int(row["epoch"]), str(row["family"]))
            group = groups.get(key)
            if group is None:
                group = {
                    "estimator": row["estimator"],
                    "servers": {},
                    "quality": {name: 0 for name in _QUALITY_KEYS},
                }
                groups[key] = group
            elif group["estimator"] != row["estimator"]:
                raise ClusterError(
                    f"epoch {key[0]} family {key[1]!r}: estimator mismatch "
                    f"{group['estimator']!r} vs {row['estimator']!r}"
                )
            for server, cell in row.get("servers", {}).items():
                if server in group["servers"]:
                    raise ClusterError(
                        f"epoch {key[0]} family {key[1]!r}: server "
                        f"{server!r} emitted by two partitions"
                    )
                group["servers"][server] = {
                    "estimate": cell["estimate"],
                    "matched": cell["matched"],
                }
            quality = row.get("quality", {})
            for name in _QUALITY_KEYS:
                group["quality"][name] += int(quality.get(name, 0))
    return groups


def _render_group(epoch: int, family: str, group: Mapping[str, Any]) -> str:
    servers = {
        server: group["servers"][server] for server in sorted(group["servers"])
    }
    total = sum(cell["estimate"] for cell in servers.values())
    quality = dict(group["quality"])
    lost = quality["late"] + quality["dropped"] + quality["quarantined"]
    denominator = quality["matched"] + lost
    quality["loss"] = round(lost / denominator, 6) if denominator else 0.0
    document = {
        "v": 1,
        "type": "landscape",
        "family": family,
        "epoch": epoch,
        "estimator": group["estimator"],
        "total": total,
        "quality": quality,
        "servers": servers,
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def merge_landscape_rows(row_streams: Iterable[Iterable[bytes | str]]) -> list[str]:
    """Merge per-partition landscape NDJSON rows into the global chart.

    Rows are grouped by ``(epoch, family)``; server cells union (a
    server appearing in two partitions' rows for the same epoch is a
    routing bug and raises), quality counters sum, and ``total`` and
    ``loss`` are re-derived — summed in sorted-server order, which is
    exactly the insertion order a single daemon's ``Landscape.total``
    folds in, so the merged line is byte-identical to the unpartitioned
    one.  Returns the merged lines in (epoch, family) order.
    """
    groups = _group_rows([_parse_landscape_rows(stream) for stream in row_streams])
    return [
        _render_group(epoch, family, groups[(epoch, family)])
        for epoch, family in sorted(groups)
    ]


# ---------------------------------------------------------------------------
# Resharding
# ---------------------------------------------------------------------------


def _sum_key(documents: Sequence[Mapping[str, Any]], *path: str) -> int:
    total = 0
    for document in documents:
        node: Any = document
        for key in path[:-1]:
            node = node.get(key, {})
        total += int(node.get(path[-1], 0))
    return total


def validate_engine_state(state: Mapping[str, Any]) -> Mapping[str, Any]:
    """Structurally validate an :meth:`ShardedLandscapeEngine.export_state`
    document and return it.

    The cluster reshard re-keys shard lists *between* engines — this is
    the checkpoint-surgery guard that a synthesized state is something
    :meth:`~ShardedLandscapeEngine.import_state` will accept, raising
    :class:`ValueError` with the offending key instead of failing deep
    inside a partition restart.
    """
    if not isinstance(state, Mapping):
        raise ValueError(f"engine state must be a mapping, got {type(state).__name__}")
    schema = state.get("schema")
    if schema != ENGINE_STATE_SCHEMA:
        raise ValueError(f"unknown engine state schema {schema!r}")
    families = state.get("families")
    if not isinstance(families, list) or not all(
        isinstance(f, str) for f in families
    ):
        raise ValueError(f"engine state families must be a list of names: {families!r}")
    watermark = state.get("watermark")
    if watermark is not None and not isinstance(watermark, (int, float)):
        raise ValueError(f"engine state watermark must be null or a number: {watermark!r}")
    for key in ("next_epoch_to_emit", "late_total", "late_mark", "dropped_mark"):
        value = state.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"engine state {key} must be an int, got {value!r}")
    if not isinstance(state.get("finalized"), bool):
        raise ValueError("engine state finalized must be a bool")
    reorder = state.get("reorder")
    if not isinstance(reorder, Mapping) or "contents" not in reorder:
        raise ValueError("engine state reorder must carry the buffer contents")
    dynamic = state.get("dynamic", [])
    if not isinstance(dynamic, list):
        raise ValueError("engine state dynamic must be a list of registration specs")
    for spec in dynamic:
        if not isinstance(spec, Mapping) or not isinstance(spec.get("name"), str):
            raise ValueError(f"malformed dynamic-family spec {spec!r}")
    shards = state.get("shards")
    if not isinstance(shards, list):
        raise ValueError("engine state shards must be a list")
    family_set = set(families)
    for entry in shards:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ValueError(f"malformed shard entry {entry!r}")
        family, server, shard_state = entry
        if family not in family_set:
            raise ValueError(f"shard entry for unknown family {family!r}")
        if not isinstance(server, str):
            raise ValueError(f"shard entry server must be a string: {server!r}")
        if not isinstance(shard_state, Mapping) or "next_epoch_to_close" not in shard_state:
            raise ValueError(
                f"shard state for ({family!r}, {server!r}) lacks next_epoch_to_close"
            )
    return state


def reshard_checkpoints(
    documents: Sequence[Mapping[str, Any]],
    new_n: int,
) -> list[dict[str, Any]]:
    """Re-key N drained partition checkpoints into M fresh ones.

    Every input document must be a drained (``finalize_at_eof=False``)
    daemon checkpoint.  Shard states and reorder-buffer contents are
    re-bucketed by ``partition_for_server(server, new_n)``; the new
    watermark is the *min* of the old ones (every buffered record sits
    at or past its own partition's watermark, so the min is the widest
    frontier that keeps "everything at or below the watermark is
    released" true over the merged buffers) and the new emission cursor
    the min — per-shard ``next_epoch_to_close`` cursors keep epochs an
    old partition already emitted from being contributed again.  All
    cross-partition history — reader counters, records consumed, metric
    states, pending late/dropped quality deltas — folds onto partition
    0; the other partitions start their daemon-level accounting at zero,
    so the final fold over the new partitions equals the fold over the
    old ones exactly.

    Returns ``new_n`` checkpoint state dicts (``input`` left empty for
    the caller to fill; ``input_offset`` 0 — re-feeding a shard's header
    line on resume is idempotent).
    """
    if not documents:
        raise ClusterError("reshard needs at least one partition checkpoint")
    new_n = int(new_n)
    if new_n < 1:
        raise ClusterError(f"cannot reshard to {new_n} partitions")
    engines = [validate_engine_state(doc["engine"]) for doc in documents]
    families = sorted(engines[0]["families"])
    for state in engines[1:]:
        if sorted(state["families"]) != families:
            raise ClusterError(
                f"partition family sets differ: {families} vs "
                f"{sorted(state['families'])}"
            )
    if any(state["finalized"] for state in engines):
        raise ClusterError("cannot reshard a finalized partition")
    reorders = [state["reorder"] for state in engines]
    capacity = int(reorders[0]["capacity"])
    policy = reorders[0]["policy"]
    for reorder in reorders[1:]:
        if int(reorder["capacity"]) != capacity or reorder["policy"] != policy:
            raise ClusterError("partition reorder configurations differ")
    # The engine invariant behind exact emission is "every record with
    # ts <= watermark has been released into its shard".  Each drained
    # buffer holds only records at or past its own partition's
    # watermark (the stream is sorted), so the *min* keeps the
    # invariant over the merged buffers; max would close the laggards'
    # open epochs on first release while their matches still sit
    # buffered, turning them late.  Closure timing doesn't change
    # emitted bytes — only release order does, and the merged heap
    # still releases in timestamp order.
    watermark: Any = None
    if all(state["watermark"] is not None for state in engines):
        watermark = min(state["watermark"] for state in engines)
    next_emit = min(int(state["next_epoch_to_emit"]) for state in engines)
    max_seens = [
        reorder["max_seen"] for reorder in reorders if reorder["max_seen"] is not None
    ]
    max_seen = max(max_seens) if max_seens else None

    reorder_buckets: list[list[Any]] = [[] for _ in range(new_n)]
    for reorder in reorders:
        for data in reorder["contents"]:
            server = data.get("server")
            target = (
                partition_for_server(server, new_n)
                if isinstance(server, str)
                else 0
            )
            reorder_buckets[target].append(data)
    for bucket in reorder_buckets:
        bucket.sort(key=lambda d: (d["timestamp"], d["server"], d["domain"]))

    shard_buckets: list[list[list[Any]]] = [[] for _ in range(new_n)]
    owners: set[tuple[str, str]] = set()
    for state in engines:
        for family, server, shard_state in state["shards"]:
            key = (family, server)
            if key in owners:
                raise ClusterError(
                    f"shard {key!r} appears in two partition checkpoints"
                )
            owners.add(key)
            shard_buckets[partition_for_server(server, new_n)].append(
                [family, server, shard_state]
            )
    for bucket in shard_buckets:
        bucket.sort(key=lambda entry: (entry[0], entry[1]))

    merged_metrics = merge_registry_states(
        [doc.get("metrics", {}) for doc in documents]
    ).export_state()
    empty_metrics = MetricsRegistry().export_state()
    out: list[dict[str, Any]] = []
    for index in range(new_n):
        first = index == 0
        engine_state = {
            "schema": ENGINE_STATE_SCHEMA,
            "families": list(families),
            "watermark": watermark,
            "next_epoch_to_emit": next_emit,
            "finalized": False,
            "late_total": _sum_key(engines, "late_total") if first else 0,
            "late_mark": _sum_key(engines, "late_mark") if first else 0,
            "dropped_mark": _sum_key(engines, "dropped_mark") if first else 0,
            "reorder": {
                "capacity": capacity,
                "policy": policy,
                "max_seen": max_seen,
                "contents": reorder_buckets[index],
                "reordered": _sum_key(reorders, "reordered") if first else 0,
                "dropped": _sum_key(reorders, "dropped") if first else 0,
                "released": _sum_key(reorders, "released") if first else 0,
            },
            "shards": shard_buckets[index],
        }
        out.append(
            {
                "input": "",
                "input_offset": 0,
                "landscapes_emitted": 0,
                "records_consumed": (
                    _sum_key(documents, "records_consumed") if first else 0
                ),
                "quarantined_mark": (
                    _sum_key(documents, "quarantined_mark") if first else 0
                ),
                "reader": {
                    "records": _sum_key(documents, "reader", "records") if first else 0,
                    "blank": _sum_key(documents, "reader", "blank") if first else 0,
                    "corrupt": _sum_key(documents, "reader", "corrupt") if first else 0,
                    "truncated_tail": (
                        _sum_key(documents, "reader", "truncated_tail")
                        if first
                        else 0
                    ),
                },
                "engine": validate_engine_state(engine_state),
                "metrics": merged_metrics if first else empty_metrics,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Partition processes
# ---------------------------------------------------------------------------


def run_partition(config: Mapping[str, Any]) -> int:
    """Run one partition daemon from a plain-dict config; returns its
    exit code.  The config is all primitives so it crosses a process
    boundary under any multiprocessing start method."""
    log_path = config.get("log")
    log = open(log_path, "a") if log_path else open(os.devnull, "w")
    try:
        daemon = BotMeterDaemon(
            config["input"],
            out_path=config["out"],
            checkpoint_path=config["checkpoint"],
            estimator=config.get("estimator", "auto"),
            grace=config.get("grace", 900.0),
            reorder_capacity=config.get("reorder_capacity", 1024),
            checkpoint_every=config.get("checkpoint_every", 500),
            batch_lines=config.get("batch_lines", 256),
            throttle=config.get("throttle", 0.0),
            trace_out=config.get("trace_out"),
            trace_sample=config.get("trace_sample", 0),
            finalize_at_eof=config.get("finalize_at_eof", True),
            log_stream=log,
        )
        return daemon.run()
    finally:
        log.close()


def _partition_main(config: Mapping[str, Any]) -> None:
    sys.exit(run_partition(config))


def _run_partitions(
    configs: Sequence[Mapping[str, Any]], serial: bool = False
) -> None:
    """Run a segment's partition daemons to completion (processes by
    default, in-process sequentially with ``serial`` — the output bytes
    are identical either way, the partitions share nothing)."""
    if serial or len(configs) == 1:
        for config in configs:
            code = run_partition(config)
            if code:
                raise ClusterError(
                    f"partition {config.get('label')} exited with code {code}"
                )
        return
    method = "fork" if "fork" in get_all_start_methods() else "spawn"
    ctx = get_context(method)
    procs = []
    for config in configs:
        proc = ctx.Process(
            target=_partition_main,
            args=(dict(config),),
            name=f"botmeterd-{config.get('label', 'partition')}",
        )
        proc.start()
        procs.append(proc)
    for proc in procs:
        proc.join()
    failed = [
        (config.get("label"), proc.exitcode)
        for config, proc in zip(configs, procs)
        if proc.exitcode != 0
    ]
    if failed:
        raise ClusterError(f"partition processes failed: {failed}")


# ---------------------------------------------------------------------------
# Offline replay (and reshard) orchestration
# ---------------------------------------------------------------------------


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _atomic_write_json(path: Path, document: Mapping[str, Any]) -> None:
    _atomic_write_bytes(
        path, (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )


def _write_merge(
    workdir: Path, out_paths: Sequence[Path], checkpoint_paths: Sequence[Path]
) -> tuple[list[str], Path]:
    """Merge partition outputs into ``workdir/landscape.ndjson`` and the
    metrics of the final checkpoints into ``workdir/metrics.prom``.

    A partition that neither ingested nor emitted anything never created
    its output file: an empty contribution.
    """
    merged = merge_landscape_rows(
        [path.read_bytes().splitlines() for path in out_paths if path.exists()]
    )
    landscape_path = workdir / "landscape.ndjson"
    landscape_path.write_text("\n".join(merged) + ("\n" if merged else ""))
    folded = merge_registry_states(
        [CheckpointStore(path).load()["metrics"] for path in checkpoint_paths]
    )
    (workdir / "metrics.prom").write_text(folded.render_prometheus())
    return merged, landscape_path


def _normalize_plan(
    partitions: int | None,
    plan: Sequence[tuple[int, int | None]] | None,
    payload_lines: int,
) -> list[dict[str, int]]:
    """``[(n, end)]`` -> concrete ``[{index, partitions, start, end}]``."""
    if plan is None:
        if partitions is None:
            raise ClusterError("need either partitions= or plan=")
        plan = [(int(partitions), None)]
    segments: list[dict[str, int]] = []
    start = 0
    for index, (n, end) in enumerate(plan):
        n = int(n)
        if n < 1:
            raise ClusterError(f"segment {index}: {n} partitions")
        last = index == len(plan) - 1
        stop = payload_lines if (end is None or last) else min(int(end), payload_lines)
        if stop < start:
            raise ClusterError(
                f"segment {index}: end {stop} precedes start {start}"
            )
        segments.append(
            {"index": index, "partitions": n, "start": start, "end": stop}
        )
        start = stop
    return segments


def _seg_paths(
    workdir: Path, segment: int, partition: int, wire: str = "ndjson"
) -> dict[str, Path]:
    stem = f"seg{segment}-p{partition:02d}"
    return {
        "input": workdir / f"{stem}.in.{'v2' if wire == 'v2' else 'ndjson'}",
        "out": workdir / f"{stem}.out.ndjson",
        "checkpoint": workdir / f"{stem}.ck.json",
        "trace": workdir / f"{stem}.trace.ndjson",
    }


def _clear_segment_state(workdir: Path) -> None:
    for path in sorted(workdir.glob("seg*")):
        path.unlink()
    for name in ("landscape.ndjson", "metrics.prom", "manifest.json"):
        target = workdir / name
        if target.exists():
            target.unlink()


def single_daemon_replay(
    trace: str | Path,
    out: str | Path,
    *,
    estimator: Any = "auto",
    grace: float = 900.0,
    reorder_capacity: int = 1024,
    batch_lines: int = 256,
    trace_sample: int = 0,
) -> None:
    """The unpartitioned reference replay (the byte-identity oracle)."""
    with open(os.devnull, "w") as log:
        daemon = BotMeterDaemon(
            trace,
            out_path=out,
            estimator=estimator,
            grace=grace,
            reorder_capacity=reorder_capacity,
            batch_lines=batch_lines,
            trace_sample=trace_sample,
            log_stream=log,
        )
        code = daemon.run()
    if code:
        raise ClusterError(f"reference replay exited with code {code}")


def cluster_replay(
    trace: str | Path,
    workdir: str | Path,
    partitions: int | None = None,
    plan: Sequence[tuple[int, int | None]] | None = None,
    *,
    verify: bool = True,
    serial: bool = False,
    estimator: Any = "auto",
    grace: float = 900.0,
    reorder_capacity: int = 1024,
    batch_lines: int = 256,
    checkpoint_every: int = 100_000,
    trace_sample: int = 0,
    log: IO[str] | None = None,
) -> dict[str, Any]:
    """Replay a trace through a partitioned cluster; optionally reshard.

    ``plan`` is a list of ``(n_partitions, end_payload_line)`` segments
    (the last segment's end is always the stream end); a single-segment
    plan is plain partitioned replay, a multi-segment plan executes one
    live reshard per boundary: the outgoing partitions **drain** to
    checkpoints at their segment's end, :func:`reshard_checkpoints`
    re-keys the drained state to the next width, and the incoming
    partitions resume from the synthesized checkpoints.

    The run is **crash-resumable**: a manifest plus per-segment
    ``prepared``/``done`` markers make every phase idempotent, and a
    partition killed mid-segment resumes from its own newest checkpoint
    exactly like a standalone daemon would.  With ``verify=True`` the
    merged landscape is byte-compared against a fresh single-daemon
    replay and a mismatch raises :class:`ClusterVerifyError` — the gate
    ``repro cluster-replay`` runs unless given ``--no-verify``.
    """
    trace = Path(trace)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    log = log if log is not None else sys.stderr
    wire, header, payload = _load_trace_units(trace)
    segments = _normalize_plan(partitions, plan, len(payload))
    manifest = {
        "schema": CLUSTER_SCHEMA,
        "trace": str(trace),
        "wire": wire,
        "payload_lines": len(payload),
        "segments": segments,
        "engine": {
            "estimator": str(estimator),
            "grace": grace,
            "reorder_capacity": int(reorder_capacity),
            "batch_lines": int(batch_lines),
            "trace_sample": int(trace_sample),
        },
    }
    manifest_path = workdir / "manifest.json"
    resumed = False
    if manifest_path.exists():
        try:
            existing = json.loads(manifest_path.read_text())
        except ValueError:
            existing = None
        if existing == manifest:
            resumed = True
        else:
            _clear_segment_state(workdir)
    _atomic_write_json(manifest_path, manifest)

    t0 = time.monotonic()
    for segment in segments:
        g = segment["index"]
        n = segment["partitions"]
        final = g == len(segments) - 1
        done_marker = workdir / f"seg{g}.done.json"
        if done_marker.exists():
            continue
        prepared_marker = workdir / f"seg{g}.prepared.json"
        paths = [_seg_paths(workdir, g, i, wire) for i in range(n)]
        if not prepared_marker.exists():
            # Phase A — prepare: shard the segment's inputs, and (past
            # the first boundary) synthesize the resharded checkpoints.
            # Idempotent: the previous segment's drained checkpoints are
            # immutable once its done marker exists, so a crash anywhere
            # in here replays to the identical state.
            for stale in sorted(workdir.glob(f"seg{g}-p*")):
                stale.unlink()
            if wire == "v2":
                # v2 partition inputs are framed, not line-bucketed: the
                # META frame replicates into every shard, records route
                # on their server field directly (no JSON parse), and
                # quarantined units ride partition 0 — the same
                # placement route_line gives their NDJSON twins.
                buffers = [io.BytesIO() for _ in range(n)]
                writers = [Wire2Writer(buffer) for buffer in buffers]
                if header is not None:
                    for writer in writers:
                        writer.write_header(header)
                for unit in payload[segment["start"] : segment["end"]]:
                    if unit[0] == "rec":
                        writers[partition_for_server(unit[1].server, n)].add(
                            unit[1]
                        )
                    else:
                        writers[0].add_corrupt(unit[1], unit[2])
                for i in range(n):
                    writers[i].close()
                    _atomic_write_bytes(paths[i]["input"], buffers[i].getvalue())
            else:
                buckets: list[list[bytes]] = [list(header) for _ in range(n)]
                for line in payload[segment["start"] : segment["end"]]:
                    buckets[route_line(line, n)].append(line)
                for i in range(n):
                    body = b"\n".join(buckets[i]) + (b"\n" if buckets[i] else b"")
                    _atomic_write_bytes(paths[i]["input"], body)
            if g > 0:
                previous = segments[g - 1]
                old_docs = []
                for i in range(previous["partitions"]):
                    store = CheckpointStore(
                        _seg_paths(workdir, g - 1, i)["checkpoint"]
                    )
                    document = store.load()
                    if document is None:
                        raise ClusterError(
                            f"segment {g - 1} partition {i} left no "
                            "checkpoint to reshard from"
                        )
                    old_docs.append(document)
                synthesized = reshard_checkpoints(old_docs, n)
                for i, document in enumerate(synthesized):
                    document["input"] = str(paths[i]["input"])
                    CheckpointStore(paths[i]["checkpoint"]).save(document)
            _atomic_write_json(
                prepared_marker,
                {"segment": g, "partitions": n, "lines": segment["end"] - segment["start"]},
            )
        configs = [
            {
                "label": f"seg{g}-p{i:02d}",
                "input": str(paths[i]["input"]),
                "out": str(paths[i]["out"]),
                "checkpoint": str(paths[i]["checkpoint"]),
                "estimator": estimator,
                "grace": grace,
                "reorder_capacity": reorder_capacity,
                "batch_lines": batch_lines,
                "checkpoint_every": checkpoint_every,
                "trace_out": str(paths[i]["trace"]) if trace_sample > 0 else None,
                "trace_sample": trace_sample,
                "finalize_at_eof": final,
            }
            for i in range(n)
        ]
        _run_partitions(configs, serial=serial)
        cursors = {}
        for i in range(n):
            document = CheckpointStore(paths[i]["checkpoint"]).load()
            if document is None:
                raise ClusterError(
                    f"segment {g} partition {i} finished without a checkpoint"
                )
            cursors[f"p{i:02d}"] = {
                "records_consumed": int(document["records_consumed"]),
                "landscapes_emitted": int(document["landscapes_emitted"]),
            }
        _atomic_write_json(
            done_marker, {"segment": g, "partitions": n, "cursors": cursors}
        )
        print(
            f"cluster-replay: segment {g} done "
            f"({n} partitions, lines {segment['start']}..{segment['end']})",
            file=log,
        )

    last = segments[-1]
    merged, landscape_path = _write_merge(
        workdir,
        [
            _seg_paths(workdir, segment["index"], i)["out"]
            for segment in segments
            for i in range(segment["partitions"])
        ],
        [
            _seg_paths(workdir, last["index"], i)["checkpoint"]
            for i in range(last["partitions"])
        ],
    )

    report: dict[str, Any] = {
        "schema": "botmeterd-cluster-report-v1",
        "trace": str(trace),
        "payload_lines": len(payload),
        "segments": segments,
        "resumed": resumed,
        "rows": len(merged),
        "landscape": str(landscape_path),
        "elapsed_seconds": round(time.monotonic() - t0, 3),
        "verified": None,
    }
    if verify:
        reference_path = workdir / "reference.ndjson"
        single_daemon_replay(
            trace,
            reference_path,
            estimator=estimator,
            grace=grace,
            reorder_capacity=reorder_capacity,
            batch_lines=batch_lines,
        )
        identical = reference_path.read_bytes() == landscape_path.read_bytes()
        report["verified"] = identical
        if not identical:
            raise ClusterVerifyError(
                f"merged landscape {landscape_path} differs from the "
                f"single-daemon replay {reference_path} "
                f"({len(merged)} merged rows)"
            )
    return report


# ---------------------------------------------------------------------------
# Live serving: the router front end
# ---------------------------------------------------------------------------


class _RouterReader:
    """The one reader attribute the ingest server touches on its daemon."""

    def __init__(self) -> None:
        self.header: dict[str, Any] | None = None


class ClusterRouterFrontend:
    """A duck-typed *daemon* that routes instead of charting.

    Drop-in for :class:`~repro.service.netingest.NetIngestServer`'s
    ``daemon`` slot: sensors speak the normal Sensornet protocol to the
    router, whose mux merges them into one deterministic released-line
    sequence; this front end splits that sequence by
    ``partition_for_server`` and re-streams each slice to its partition
    daemon's ingest socket (a :class:`~repro.service.meshguard.FailoverSensorStream`
    per partition).  Headers broadcast to every partition (setting one
    twice is free); non-lookup payload rides with partition 0, matching
    the offline splitter.

    The router itself is stateless (``store`` is ``None`` — no router
    checkpoints, no mid-stream acks): durability lives in the partition
    daemons.  A restarted router replays the same deterministic sequence
    and each partition's welcome cursor tells its stream how much to
    skip, so exactly-once delivery holds end to end.  Sensors get their
    ``bye`` only after every partition confirmed its slice durable.
    """

    def __init__(
        self,
        streams: Sequence[Any],
        log_stream: IO[str] | None = None,
    ) -> None:
        self.streams = list(streams)
        if not self.streams:
            raise ClusterError("a cluster router needs at least one partition")
        self.metrics = MetricsRegistry()
        self.tracer = None
        self.store = None
        self.reader = _RouterReader()
        self.checkpoint_every = 1 << 62  # store is None; never reached
        self._since_checkpoint = 0
        self.extra_checkpoint_state: Any = None
        self._log = log_stream if log_stream is not None else sys.stderr
        self._c_routed = self.metrics.counter(
            "botmeterd_cluster_routed_lines_total",
            "Payload lines routed to a partition stream.",
        )
        #: Final durable cursor per partition stream (set at finish).
        self.cursors: dict[str, int] = {}

    # -- daemon surface the ingest server drives -----------------------------

    def _log_event(self, event: str, **fields: Any) -> None:
        payload = {"event": event, **fields}
        print(json.dumps(payload, sort_keys=True), file=self._log, flush=True)

    def _fresh_outputs(self) -> None:
        pass

    def _attach_trace_sink(self, resumed: bool) -> None:
        pass

    def _dump_observability(self) -> None:
        pass

    def _checkpoint(self, offset: int) -> None:  # pragma: no cover
        pass  # store is None — the server never calls this

    def _ingest_released(self, units: Sequence[Unit]) -> None:
        n = len(self.streams)
        buckets: list[list[bytes]] = [[] for _ in range(n)]
        for unit in units:
            if not isinstance(unit, bytes):
                # A canonical run routes on its server column.
                batch, lines = unit
                owners = [partition_for_server(server, n) for server in batch.servers]
                owner = np.array(owners, dtype=np.intp)[batch.server_id]
                for index in np.unique(owner).tolist():
                    buckets[index].extend(compress(lines, owner == index))
                continue
            header = sniff_header(unit)
            if header is None:
                buckets[route_line(unit, n)].append(unit)
                continue
            if self.reader.header is None:
                self.reader.header = header
            for bucket in buckets:
                bucket.append(unit)
        for index, (stream, bucket) in enumerate(zip(self.streams, buckets)):
            if bucket:
                stream.send_lines(bucket)
                self._c_routed.inc(len(bucket), partition=f"{index:02d}")

    def _finish_stream(self, lines_released: int) -> None:
        for stream in self.streams:
            self.cursors[stream.sensor] = stream.finish()
        self._log_event(
            "cluster_router_finished",
            lines=lines_released,
            cursors=dict(self.cursors),
        )

    def _cleanup(self) -> None:
        for stream in self.streams:
            stream.close()


def cluster_serve(
    workdir: str | Path,
    partitions: int = 3,
    *,
    tcp: tuple[str, int] | None = None,
    uds: str | Path | None = None,
    addr_file: str | Path | None = None,
    expect_sensors: int | None = None,
    estimator: Any = "auto",
    grace: float = 900.0,
    reorder_capacity: int = 1024,
    batch_lines: int = 256,
    checkpoint_every: int = 500,
    trace_sample: int = 0,
    max_partition_restarts: int = 3,
    log: IO[str] | None = None,
) -> dict[str, Any]:
    """Serve Sensornet ingest through an N-partition cluster.

    The partitions run as *processes* under a
    :class:`~repro.service.meshguard.ClusterSupervisor` (heartbeats,
    seeded-backoff restarts from each partition's own checkpoint,
    disarming past ``max_partition_restarts``), each behind its own UDS
    ingest server under ``workdir``.  Each router-to-partition stream is
    a :class:`~repro.service.meshguard.FailoverSensorStream`: a dead
    partition's lines spool durably and replay on recovery, so a
    partition crash costs latency, not records.  A restarted
    ``cluster-serve`` resumes every partition from its checkpoint while
    sensors resend from their acked cursors.  On a clean finish the
    per-partition landscapes merge into ``workdir/landscape.ndjson``,
    the folded metrics into ``workdir/metrics.prom``, and the restart
    ledger into ``workdir/mesh-ledger.json``.
    """
    import threading

    from .meshguard import DISARMED, ClusterSupervisor, FailoverSensorStream
    from .netingest import NetIngestServer, SensorError
    from .supervisor import BackoffPolicy

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    log = log if log is not None else sys.stderr
    n = int(partitions)
    if n < 1:
        raise ClusterError(f"cannot serve {n} partitions")
    if tcp is None and uds is None:
        tcp = ("127.0.0.1", 0)
    supervisor = ClusterSupervisor(
        workdir,
        n,
        estimator=estimator,
        grace=grace,
        reorder_capacity=reorder_capacity,
        batch_lines=batch_lines,
        checkpoint_every=checkpoint_every,
        trace_sample=trace_sample,
        max_partition_restarts=max_partition_restarts,
        backoff=BackoffPolicy(seed=0),
        log_stream=log,
    )
    streams: list[Any] = []
    quiesced = threading.Event()

    def _watch() -> None:
        while not quiesced.wait(supervisor.heartbeat_interval):
            supervisor.poll()

    watcher = threading.Thread(target=_watch, name="mesh-watch", daemon=True)
    try:
        supervisor.start()
        supervisor.wait_ready()
        for i in range(n):
            stream = FailoverSensorStream(
                ("uds", supervisor.socket_path(i)),
                f"router-p{i:02d}",
                spool_path=workdir / f"p{i:02d}.spool.ndjson",
                metrics=supervisor.metrics,
            )
            stream.connect()
            streams.append(stream)
        watcher.start()
        frontend = ClusterRouterFrontend(streams, log_stream=log)
        router = NetIngestServer(
            frontend,
            tcp=tcp,
            uds=uds,
            addr_file=addr_file,
            expect_sensors=expect_sensors,
        )
        # The watch loop runs until every partition stream has finished:
        # a partition that dies while its stream drains is restarted and
        # finish() replays to it.  Clean zero exits are never restarted.
        try:
            code = router.serve()
        except SensorError as exc:
            # A disarmed partition never comes back, so its stream
            # gives up reconnecting: that is the cluster's failure.
            disarmed = [
                part.label
                for part in supervisor.partitions
                if part.health.state == DISARMED
            ]
            if not disarmed:
                raise
            raise ClusterError(
                f"partition(s) {', '.join(disarmed)} disarmed: the restart "
                f"budget ({max_partition_restarts}) is used up and their "
                f"records could not be delivered ({exc})"
            ) from exc
        quiesced.set()
        codes = supervisor.wait()
        bad = [c for c in codes if c not in (0, None)]
        if bad:
            raise ClusterError(f"partition exit codes after serve: {codes}")
        # Publish every partition's final health, also when the serve
        # ended before the watch loop's first poll.
        supervisor.poll()
    finally:
        quiesced.set()
        if watcher.is_alive():
            watcher.join(timeout=10)
        for stream in streams:
            stream.close()
        supervisor.stop()
    merged, landscape_path = _write_merge(
        workdir,
        [workdir / f"p{i:02d}.out.ndjson" for i in range(n)],
        [workdir / f"p{i:02d}.ck.json" for i in range(n)],
    )
    (workdir / "mesh-metrics.prom").write_text(
        supervisor.metrics.render_prometheus()
    )
    _atomic_write_json(
        workdir / "mesh-ledger.json",
        {
            "schema": "botmeterd-mesh-ledger-v1",
            "ledger": supervisor.ledger,
            "restarts": {
                part.label: part.restarts for part in supervisor.partitions
            },
        },
    )
    return {
        "schema": "botmeterd-cluster-serve-v1",
        "partitions": n,
        "exit_code": code,
        "rows": len(merged),
        "landscape": str(landscape_path),
        "cursors": dict(frontend.cursors),
        "restarts": sum(part.restarts for part in supervisor.partitions),
        "spooled": sum(stream.spooled for stream in streams),
        "replayed": sum(stream.replayed for stream in streams),
    }
