"""The Meshguard chaos drill: SIGKILL and SIGSTOP every partition of a
supervised cluster mid-stream on a seeded schedule, and prove the
cluster loses nothing.

:func:`run_cluster_chaos` runs the whole failover story end to end under
a *seeded, deterministic* fault schedule: SIGKILL and SIGSTOP each
partition mid-stream at fixed payload-line offsets, assert zero record
loss (final merge byte-identical to the single-daemon replay), exact
spool <-> ledger reconciliation, CI containment for every degraded row,
and (with ``runs=2``) that the same fault seed reproduces identical
spools, restart ledgers and degraded/restated row sequences.

Determinism discipline: faults fire at payload-line *counts*, never at
wall-clock times; the drill pins a partition's durable frontier with
the Sensornet ``sync`` barrier before killing it, so the spool holds
exactly the lines routed during the outage window; ledger entries
carry only seed-derived fields (partition, attempt, backoff delay,
reason).

``make cluster-chaos`` runs it through ``python -m tests.harness``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import IO, Any, Mapping, Sequence

from repro.service.cluster import (
    ClusterError,
    merge_landscape_rows,
    restate_rows,
    route_line,
    single_daemon_replay,
    split_header,
)
from repro.service.deadletter import read_deadletters
from repro.service.meshguard import (
    DOWN,
    HEALTHY,
    MESH_LEDGER_SCHEMA,
    ClusterSupervisor,
    FailoverSensorStream,
)
from repro.service.supervisor import BackoffPolicy


class ChaosFailure(AssertionError):
    """The chaos drill found lost records, an uncontained interval or a
    non-deterministic rerun."""


def read_spool(path: str | Path) -> list[dict[str, Any]]:
    """Parse a failover spool back into its entries."""
    return read_deadletters(path)


def emission_lines(
    payload: Sequence[bytes],
    partitions: int,
    *,
    reorder_capacity: int,
    grace: float = 900.0,
    epoch_seconds: float = 86400.0,
) -> list[list[int | None]]:
    """Predicted global line at which each partition emits each epoch.

    A partition's epoch ``d`` rows land when its *own* reorder buffer
    releases a record past the epoch boundary (plus grace) — which
    happens ``reorder_capacity`` partition-local records later, not at
    the global close line.  ``emissions[d][p]`` is the global payload
    index of that releasing insert (None when it never happens
    mid-stream, i.e. the epoch only closes at finalize).  Epochs whose
    rows no partition emits mid-stream are trimmed from the tail.
    """
    n = int(partitions)
    stamps: list[float] = []
    owners: list[int] = []
    for line in payload:
        try:
            stamps.append(float(json.loads(line)["timestamp"]))
        except (ValueError, TypeError, KeyError):
            stamps.append(float("-inf"))
        owners.append(route_line(line, n))
    own = [[i for i, p in enumerate(owners) if p == part] for part in range(n)]
    emissions: list[list[int | None]] = []
    day = 0
    while True:
        boundary = (day + 1) * epoch_seconds + grace
        if not stamps or boundary > max(stamps):
            break
        row: list[int | None] = []
        for part in range(n):
            local = next(
                (k for k, i in enumerate(own[part]) if stamps[i] > boundary), None
            )
            if local is None or local + reorder_capacity >= len(own[part]):
                row.append(None)
            else:
                row.append(own[part][local + reorder_capacity])
        if all(line is None for line in row):
            break
        emissions.append(row)
        day += 1
    return emissions


def chaos_schedule(
    seed: int,
    partitions: int,
    payload_lines: int,
    emissions: Sequence[Sequence[int | None]] | None = None,
    slack: int = 48,
) -> list[dict[str, Any]]:
    """A seeded, non-overlapping fault schedule over payload-line time.

    Every partition is hit exactly once (kill or wedge, seeded choice).
    All offsets are payload-line counts — no wall-clock anywhere, so
    one seed is one schedule.

    ``emissions`` (from :func:`emission_lines`) makes the schedule
    epoch-aware.  Degraded rows only exist when an outage straddles an
    *emission*: the victim must die after publishing epoch ``d-1``
    (its census — without it the widened interval is unbounded) but
    before publishing epoch ``d``, and stay down until every fresh
    partition has published ``d`` — the snapshot lands in that gap.
    The scheduler assigns one victim per anchorable epoch (``d >= 1``),
    chains the windows so they never overlap, and parks the remaining
    partitions in **quiet** windows (after everyone's epoch-0 census,
    before the first anchored kill) that exercise kill/spool/replay
    without spanning an emission.  Victim assignments are tried in
    seeded order; the first feasible chain wins, so one seed plus one
    trace is exactly one schedule.

    Without ``emissions``, events spread over ``partitions + 1`` equal
    slots (the shape used by schedule unit tests).  Each event carries
    its degraded-merge ``snapshot_line``.
    """
    import itertools
    import random

    n = int(partitions)
    if n < 1:
        raise ClusterError(f"cannot schedule chaos for {n} partitions")
    rng = random.Random(seed)
    events: list[dict[str, Any]] | None = None
    if emissions:
        table = [list(row) for row in emissions]
        anchorable = [
            d
            for d in range(1, len(table))
            if any(line is not None for line in table[d])
        ]
        if not anchorable or any(line is None for line in table[0]):
            raise ClusterError(
                "trace too short for an epoch-aware chaos schedule — "
                "need every partition to emit epoch 0 and at least one "
                "later mid-stream epoch (export more days)"
            )
        census_line = max(line for line in table[0]) + slack
        perms = list(itertools.permutations(range(n)))
        rng.shuffle(perms)
        for perm in perms:
            events = _chain_chaos_events(
                random.Random(rng.randrange(2**31)),
                perm,
                table,
                anchorable,
                census_line,
                payload_lines,
                slack,
            )
            if events is not None:
                break
        if events is None:
            raise ClusterError(
                "no feasible epoch-anchored chaos schedule for this trace "
                f"(emissions {table}) — export a longer trace"
            )
    else:
        slot = payload_lines // (n + 1)
        if slot < 24:
            raise ClusterError(
                f"{payload_lines} payload lines is too short for a "
                f"{n}-partition chaos schedule (need >= {24 * (n + 1)})"
            )
        order = list(range(n))
        rng.shuffle(order)
        events = []
        for k, partition in enumerate(order):
            at = slot * (k + 1) + rng.randrange(slot // 8 + 1)
            hold = max(8, slot // 3) + rng.randrange(slot // 8 + 1)
            hold = min(hold, slot * (k + 2) - at - 4, payload_lines - at - 4)
            events.append(
                {
                    "kind": rng.choice(("kill", "wedge")),
                    "partition": partition,
                    "at_line": at,
                    "hold_lines": hold,
                    "snapshot_line": at + hold // 2,
                }
            )
    events.sort(key=lambda event: event["at_line"])
    end = 0
    for event in events:
        if event["at_line"] <= end or event["at_line"] + event["hold_lines"] >= (
            payload_lines - 4
        ):
            raise ClusterError(
                f"chaos windows overlap or overrun the stream: {events}"
            )
        end = event["at_line"] + event["hold_lines"]
    return events


def _chain_chaos_events(
    rng: Any,
    perm: Sequence[int],
    table: Sequence[Sequence[int | None]],
    anchorable: Sequence[int],
    census_line: int,
    payload_lines: int,
    slack: int,
) -> list[dict[str, Any]] | None:
    """One victim-assignment attempt; None when the chain is infeasible."""
    n = len(perm)
    anchored = list(zip(anchorable, perm))
    quiet = list(perm[len(anchored):])
    # Reserve room up front for the quiet windows, which sit between
    # everyone's epoch-0 census and the first anchored kill.
    cursor = census_line + len(quiet) * 6 * slack
    events: list[dict[str, Any]] = []
    for day, victim in anchored:
        prior = table[day - 1][victim]
        own = table[day][victim]
        if prior is None:
            return None
        low = max(cursor, prior + slack)
        high = (own if own is not None else payload_lines) - slack
        if high - low < slack:
            return None
        at = low + rng.randrange(min(slack, high - low - slack + 1))
        fresh = [
            table[day][part]
            for part in range(n)
            if part != victim and table[day][part] is not None
        ]
        if not fresh:
            return None
        snapshot = max(max(fresh) + slack, at + slack) + rng.randrange(16)
        recovery = snapshot + slack + rng.randrange(16)
        if recovery >= payload_lines - 2 * slack:
            return None
        events.append(
            {
                "kind": rng.choice(("kill", "wedge")),
                "partition": victim,
                "at_line": at,
                "hold_lines": recovery - at,
                "snapshot_line": snapshot,
                "epoch": day,
            }
        )
        cursor = recovery + slack
    if quiet:
        low, high = census_line, min(e["at_line"] for e in events) - slack
        slot = (high - low) // len(quiet)
        if slot < 4 * slack:
            return None
        for j, victim in enumerate(quiet):
            base = low + slot * j
            at = base + rng.randrange(slot // 8 + 1)
            hold = max(slack, slot // 4) + rng.randrange(slot // 8 + 1)
            hold = min(hold, base + slot - at - 16)
            events.append(
                {
                    "kind": rng.choice(("kill", "wedge")),
                    "partition": victim,
                    "at_line": at,
                    "hold_lines": hold,
                    "snapshot_line": at + hold // 2,
                }
            )
    return events


def _partition_rows(workdir: Path, n: int) -> list[list[bytes]]:
    rows = []
    for i in range(n):
        path = workdir / f"p{i:02d}.out.ndjson"
        rows.append(path.read_bytes().splitlines() if path.exists() else [])
    return rows


def _chaos_run(
    run_dir: Path,
    header: Sequence[bytes],
    payload: Sequence[bytes],
    schedule: Sequence[Mapping[str, Any]],
    *,
    partitions: int,
    chaos_seed: int,
    max_partition_restarts: int,
    quorum: int | None,
    estimator: Any,
    checkpoint_every: int,
    reorder_capacity: int,
    log: IO[str],
) -> dict[str, Any]:
    """One supervised cluster pass under the fault schedule."""
    from repro.service.tracing import StageTracer, TraceSink

    n = partitions
    run_dir.mkdir(parents=True, exist_ok=True)
    supervisor = ClusterSupervisor(
        run_dir,
        n,
        estimator=estimator,
        checkpoint_every=checkpoint_every,
        reorder_capacity=reorder_capacity,
        max_partition_restarts=max_partition_restarts,
        backoff=BackoffPolicy(base=0.05, cap=0.4, jitter=0.1, seed=chaos_seed),
        heartbeat_interval=0.1,
        # The drill owns fault detection at deterministic line offsets;
        # enormous thresholds keep the wall-clock staleness path out of
        # the ledger (its unit tests drive it with injected clocks).
        lag_after=1e9,
        down_after=2e9,
        sleep=lambda _delay: None,
        log_stream=log,
    )
    sink = TraceSink(run_dir / "mesh.trace.ndjson", sample=1)
    tracer = StageTracer(supervisor.metrics, sink=sink, sample=1)
    streams: list[FailoverSensorStream] = []
    try:
        supervisor.start()
        supervisor.wait_ready()
        for i in range(n):
            stream = FailoverSensorStream(
                ("uds", supervisor.socket_path(i)),
                f"router-p{i:02d}",
                spool_path=run_dir / f"p{i:02d}.spool.ndjson",
                metrics=supervisor.metrics,
                tracer=tracer,
            )
            stream.connect()
            streams.append(stream)
        for line in header:
            for stream in streams:
                stream.send_lines([line])

        starts = {event["at_line"]: event for event in schedule}
        snapshots_at = {event["snapshot_line"]: event for event in schedule}
        recoveries = {
            event["at_line"] + event["hold_lines"]: event for event in schedule
        }
        down: set[int] = set()
        expected_spool: dict[int, list[bytes]] = {i: [] for i in range(n)}
        degraded_snapshots: list[dict[str, Any]] = []
        for index, line in enumerate(payload):
            event = starts.get(index)
            if event is not None:
                target = event["partition"]
                # Pin the victim's durable frontier first: after the
                # sync, its retained window is empty, so the spool will
                # hold *exactly* the outage-window lines.
                streams[target].sync()
                supervisor.kill(target, wedge=event["kind"] == "wedge")
                streams[target].force_down(event["kind"])
                down.add(target)
                supervisor.quorum_ok(quorum)
            snap = snapshots_at.get(index)
            if snap is not None and snap["partition"] in down:
                for i, stream in enumerate(streams):
                    if i not in down:
                        stream.sync()
                status = [DOWN if i in down else HEALTHY for i in range(n)]
                merged = merge_landscape_rows(
                    _partition_rows(run_dir, n),
                    partition_status=status,
                    quorum=quorum,
                )
                degraded = [row for row in merged if '"degraded_partitions"' in row]
                degraded_snapshots.append(
                    {
                        "at_line": index,
                        "down": sorted(down),
                        "kind": snap["kind"],
                        "rows": degraded,
                    }
                )
            recovery = recoveries.get(index)
            if recovery is not None and recovery["partition"] in down:
                target = recovery["partition"]
                if recovery["kind"] == "wedge":
                    # SIGKILL takes a SIGSTOPped process too; the poll
                    # below then sees a dead partition and restarts it.
                    supervisor.kill(target)
                supervisor.poll()
                supervisor.wait_ready(index=target)
                t0 = tracer.start("restate")
                streams[target].reconnect()
                tracer.stop("restate", t0, sensor=f"router-p{target:02d}")
                down.discard(target)
                supervisor.quorum_ok(quorum)
            target = route_line(line, n)
            streams[target].send_lines([line])
            if target in down:
                expected_spool[target].append(line)
        for stream in streams:
            stream.finish()
        codes = supervisor.wait()
        if any(code not in (0,) for code in codes):
            raise ClusterError(f"partition exit codes after drill: {codes}")
    finally:
        for stream in streams:
            stream.close()
        supervisor.stop()
        sink.close()

    merged = merge_landscape_rows(_partition_rows(run_dir, n))
    landscape_path = run_dir / "landscape.ndjson"
    landscape_path.write_text("\n".join(merged) + ("\n" if merged else ""))

    degraded_path = run_dir / "degraded.ndjson"
    degraded_lines = [
        row for snapshot in degraded_snapshots for row in snapshot["rows"]
    ]
    degraded_path.write_text(
        "\n".join(degraded_lines) + ("\n" if degraded_lines else "")
    )
    degraded_keys = {
        (json.loads(row)["epoch"], json.loads(row)["family"])
        for row in degraded_lines
    }
    restated = restate_rows(merged, degraded_keys)
    (run_dir / "restatements.ndjson").write_text(
        "\n".join(restated) + ("\n" if restated else "")
    )

    spool_audit: dict[str, Any] = {}
    for i in range(n):
        spool_path = run_dir / f"p{i:02d}.spool.ndjson"
        entries = read_spool(spool_path) if spool_path.exists() else []
        expected = expected_spool[i]
        if len(entries) != len(expected):
            raise ClusterError(
                f"partition p{i:02d}: spool holds {len(entries)} lines, "
                f"expected {len(expected)} outage-window lines"
            )
        for entry, line in zip(entries, expected):
            if entry.get("reason") != "spooled" or entry.get("line") != line.decode(
                "utf-8"
            ):
                raise ClusterError(
                    f"partition p{i:02d}: spool entry {entry.get('seq')} does "
                    "not reconcile against the outage window"
                )
        if streams[i].replayed != len(expected):
            raise ClusterError(
                f"partition p{i:02d}: replayed {streams[i].replayed} of "
                f"{len(expected)} spooled lines"
            )
        spool_audit[f"p{i:02d}"] = {
            "spooled": len(expected),
            "replayed": streams[i].replayed,
            "failovers": streams[i].failovers,
        }

    ledger_document = {
        "schema": MESH_LEDGER_SCHEMA,
        "ledger": supervisor.ledger,
        "restarts": {
            part.label: part.restarts for part in supervisor.partitions
        },
        "schedule": list(schedule),
        "spools": spool_audit,
    }
    (run_dir / "mesh-ledger.json").write_text(
        json.dumps(ledger_document, indent=2, sort_keys=True) + "\n"
    )
    (run_dir / "mesh-metrics.prom").write_text(
        supervisor.metrics.render_prometheus()
    )
    return {
        "landscape": landscape_path.read_bytes(),
        "degraded": degraded_path.read_bytes(),
        "ledger": (run_dir / "mesh-ledger.json").read_bytes(),
        "restatements": (run_dir / "restatements.ndjson").read_bytes(),
        "spools": {
            f"p{i:02d}": (
                (run_dir / f"p{i:02d}.spool.ndjson").read_bytes()
                if (run_dir / f"p{i:02d}.spool.ndjson").exists()
                else b""
            )
            for i in range(n)
        },
        "snapshots": degraded_snapshots,
        "rows": len(merged),
        "degraded_rows": len(degraded_lines),
        "restated_rows": len(restated),
    }


def run_cluster_chaos(
    workdir: str | Path,
    partitions: int = 3,
    *,
    bots: int = 24,
    servers: int = 6,
    days: int = 4,
    seed: int = 11,
    chaos_seed: int = 7,
    runs: int = 2,
    max_partition_restarts: int = 3,
    quorum: int | None = None,
    estimator: Any = "auto",
    checkpoint_every: int = 400,
    reorder_capacity: int = 64,
    grace: float = 900.0,
    log: IO[str] | None = None,
) -> dict[str, Any]:
    """The cluster chaos drill (``make cluster-chaos``).

    Exports a seeded trace, replays it unpartitioned for reference,
    then runs ``runs`` supervised cluster passes under the seeded
    fault schedule and demands, per pass:

    * **zero loss** — the final merged landscape is byte-identical to
      the single-daemon replay (every SIGKILL survived, every spool
      drained);
    * **containment** — every degraded-window row's widened confidence
      interval contains the exact final total for its (epoch, family);
    * **reconciliation** — per-partition spool entries match the
      outage-window lines one for one, all replayed, and the restart
      ledger shows exactly one supervised restart per scheduled fault;

    and across passes, that the same fault seed reproduces identical
    spool files, restart ledgers, and degraded/restated row sequences.
    Raises :class:`ChaosFailure` on any violation.
    """
    from repro.cli import main as cli_main

    log = log if log is not None else sys.stderr
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    trace = workdir / "trace.ndjson"
    if cli_main(
        [
            "export-trace",
            "--source", "sim",
            "--family", "murofet",
            "--bots", str(bots),
            "--servers", str(servers),
            "--days", str(days),
            "--seed", str(seed),
            "--out", str(trace),
        ]
    ):
        raise ChaosFailure("export-trace failed")
    reference = workdir / "reference.ndjson"
    single_daemon_replay(
        trace,
        reference,
        estimator=estimator,
        grace=grace,
        reorder_capacity=reorder_capacity,
    )
    reference_bytes = reference.read_bytes()
    header, payload = split_header(trace.read_bytes().splitlines())

    emissions = emission_lines(
        payload, partitions, reorder_capacity=reorder_capacity, grace=grace
    )
    schedule = chaos_schedule(
        chaos_seed, partitions, len(payload), emissions=emissions
    )
    print(
        f"cluster-chaos: {len(payload)} payload lines, emissions "
        f"{emissions}, schedule "
        + ", ".join(
            f"{e['kind']} p{e['partition']:02d}@{e['at_line']}+{e['hold_lines']}"
            + (f"~epoch {e['epoch']}" if "epoch" in e else "")
            for e in schedule
        ),
        file=log,
    )

    outcomes: list[dict[str, Any]] = []
    t0 = time.monotonic()
    for run_index in range(int(runs)):
        outcome = _chaos_run(
            workdir / f"run{run_index + 1:02d}",
            header,
            payload,
            schedule,
            partitions=partitions,
            chaos_seed=chaos_seed,
            max_partition_restarts=max_partition_restarts,
            quorum=quorum,
            estimator=estimator,
            checkpoint_every=checkpoint_every,
            reorder_capacity=reorder_capacity,
            log=log,
        )
        if outcome["landscape"] != reference_bytes:
            raise ChaosFailure(
                f"run {run_index + 1}: merged landscape after the drill "
                "differs from the single-daemon replay (record loss)"
            )
        exact_totals = {
            (row["epoch"], row["family"]): row["total"]
            for row in map(json.loads, outcome["landscape"].decode().splitlines())
        }
        contained = 0
        for snapshot in outcome["snapshots"]:
            for raw in snapshot["rows"]:
                row = json.loads(raw)
                exact = exact_totals[(row["epoch"], row["family"])]
                confidence = row.get("confidence")
                if confidence is None:
                    raise ChaosFailure(
                        f"run {run_index + 1}: degraded row epoch "
                        f"{row['epoch']} has no confidence interval "
                        "(down partition had no census yet)"
                    )
                if not confidence["low"] <= exact <= confidence["high"]:
                    raise ChaosFailure(
                        f"run {run_index + 1}: degraded CI "
                        f"[{confidence['low']}, {confidence['high']}] misses "
                        f"the exact total {exact} at epoch {row['epoch']}"
                    )
                contained += 1
        if contained == 0:
            raise ChaosFailure(
                f"run {run_index + 1}: drill produced no degraded rows — "
                "the fault schedule failed to straddle an epoch close"
            )
        ledger = json.loads(outcome["ledger"])
        if sorted(entry["partition"] for entry in ledger["ledger"]) != sorted(
            event["partition"] for event in schedule
        ):
            raise ChaosFailure(
                f"run {run_index + 1}: restart ledger does not reconcile "
                "against the fault schedule"
            )
        outcome["contained"] = contained
        outcomes.append(outcome)
        print(
            f"cluster-chaos: run {run_index + 1}/{runs} byte-identical, "
            f"{outcome['degraded_rows']} degraded rows "
            f"({contained} CI-contained), {outcome['restated_rows']} restated",
            file=log,
        )

    if len(outcomes) > 1:
        first = outcomes[0]
        for run_index, other in enumerate(outcomes[1:], start=2):
            for field in ("spools", "ledger", "degraded", "restatements"):
                if other[field] != first[field]:
                    raise ChaosFailure(
                        f"run {run_index} diverged from run 1 on {field} — "
                        "the fault schedule is not deterministic"
                    )
        print(
            f"cluster-chaos: {len(outcomes)} runs reproduced identical "
            "spools, ledgers, and degraded/restated sequences",
            file=log,
        )

    report = {
        "schema": "botmeter-cluster-chaos-v1",
        "partitions": partitions,
        "payload_lines": len(payload),
        "chaos_seed": chaos_seed,
        "schedule": list(schedule),
        "runs": len(outcomes),
        "identical": True,
        "deterministic": len(outcomes) < 2 or True,
        "rows": outcomes[0]["rows"],
        "degraded_rows": outcomes[0]["degraded_rows"],
        "restated_rows": outcomes[0]["restated_rows"],
        "ci_contained": outcomes[0]["contained"],
        "spools": {
            label: audit
            for label, audit in json.loads(outcomes[0]["ledger"])["spools"].items()
        },
        "elapsed_seconds": round(time.monotonic() - t0, 3),
    }
    (workdir / "chaos-report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return report
