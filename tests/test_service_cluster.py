"""Chartmesh: the partitioned-cluster test harness.

The headline property, stated once and checked many ways: the merged
landscape of an N-partition cluster is **byte-identical** to what a
single unpartitioned daemon emits — at any partition count, through any
reshard path (hypothesis draws arbitrary ``N -> M -> ...`` width chains
with arbitrary split points), with tracing on or off, across a SIGKILL
at either reshard phase, across a partition killed mid-segment, and over
a real router socket with live sensors.  Unit tests pin the two exact
algorithms underneath: the ``(epoch, family)`` row merge and the
checkpoint re-keying (min-watermark synthesis, fold-to-partition-0
accounting).
"""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.service import cluster as cluster_mod
from repro.service.checkpoint import CheckpointStore
from repro.service.cluster import (
    ClusterError,
    ClusterVerifyError,
    cluster_replay,
    cluster_serve,
    merge_landscape_rows,
    partition_for_server,
    reshard_checkpoints,
    restate_rows,
    route_line,
    single_daemon_replay,
    split_header,
)
from repro.service.meshguard import (
    partition_states_from_heartbeats,
    write_heartbeat,
)

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A two-day multi-server sim export shared by the whole module."""
    path = tmp_path_factory.mktemp("cluster") / "trace.ndjson"
    assert (
        main(
            [
                "export-trace",
                "--source", "sim",
                "--family", "murofet",
                "--bots", "10",
                "--servers", "5",
                "--days", "2",
                "--seed", "9",
                "--out", str(path),
            ]
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def reference(trace, tmp_path_factory):
    """The single-daemon replay — the byte-identity anchor."""
    out = tmp_path_factory.mktemp("cluster-ref") / "reference.ndjson"
    single_daemon_replay(trace, out)
    return out.read_bytes()


@pytest.fixture(scope="module")
def payload_lines(trace):
    return len(split_header(trace.read_bytes().splitlines())[1])


@pytest.fixture(scope="module")
def tiny_trace(trace, tmp_path_factory):
    """Header + a 500-line prefix, small enough for hypothesis loops."""
    lines = trace.read_bytes().splitlines()
    path = tmp_path_factory.mktemp("cluster-tiny") / "tiny.ndjson"
    path.write_bytes(b"\n".join(lines[:501]) + b"\n")
    return path


@pytest.fixture(scope="module")
def tiny_reference(tiny_trace, tmp_path_factory):
    out = tmp_path_factory.mktemp("cluster-tiny-ref") / "tiny-ref.ndjson"
    single_daemon_replay(tiny_trace, out)
    return out.read_bytes()


@pytest.fixture(scope="module")
def tiny_payload_lines(tiny_trace):
    return len(split_header(tiny_trace.read_bytes().splitlines())[1])


@pytest.fixture(scope="module")
def drained_checkpoints(trace, payload_lines, tmp_path_factory):
    """Real drained (non-finalized) partition checkpoints: segment 0 of
    a 2-partition replay cut mid-stream, plus the finalized documents of
    its last segment for the error-path tests."""
    workdir = tmp_path_factory.mktemp("cluster-drain")
    cluster_replay(
        trace,
        workdir,
        plan=[(2, payload_lines // 2), (2, None)],
        verify=False,
        serial=True,
    )
    drained = [
        CheckpointStore(workdir / f"seg0-p{i:02d}.ck.json").load() for i in range(2)
    ]
    finalized = [
        CheckpointStore(workdir / f"seg1-p{i:02d}.ck.json").load() for i in range(2)
    ]
    assert all(doc is not None for doc in drained + finalized)
    return drained, finalized


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_router_is_deterministic_and_spreads(self):
        servers = [f"local-{i}" for i in range(40)]
        first = [partition_for_server(s, 4) for s in servers]
        assert first == [partition_for_server(s, 4) for s in servers]
        assert all(0 <= p < 4 for p in first)
        assert len(set(first)) > 1  # crc32 actually spreads the keys

    def test_lookup_lines_hash_on_server(self):
        line = json.dumps(
            {"v": 1, "timestamp": 3.0, "server": "ldns-002", "domain": "x.com"}
        ).encode()
        for n in (1, 2, 3, 7):
            assert route_line(line, n) == partition_for_server("ldns-002", n)

    def test_non_lookup_lines_ride_partition_zero(self):
        header = json.dumps({"v": 1, "type": "header", "families": []}).encode()
        assert route_line(header, 5) == 0
        assert route_line(b"{torn json", 5) == 0
        assert route_line(b"[1,2,3]", 5) == 0
        assert route_line(b"", 5) == 0
        # A lookup missing its server string cannot be hashed.
        assert route_line(b'{"timestamp": 1.0, "domain": "x.com"}', 5) == 0

    def test_split_header_takes_at_most_one_leading_header(self):
        header = json.dumps({"type": "header"}).encode()
        record = b'{"timestamp": 1.0, "server": "s", "domain": "d"}'
        assert split_header([header, record]) == ([header], [record])
        assert split_header([record, header]) == ([], [record, header])
        assert split_header([]) == ([], [])


# ---------------------------------------------------------------------------
# The aggregator
# ---------------------------------------------------------------------------


def _row(family="fam", epoch=0, estimator="AP", servers=(), quality=None):
    cells = {name: {"estimate": est, "matched": m} for name, est, m in servers}
    q = {"matched": 0, "late": 0, "dropped": 0, "quarantined": 0, "loss": 0.0}
    q.update(quality or {})
    return json.dumps(
        {
            "v": 1,
            "type": "landscape",
            "family": family,
            "epoch": epoch,
            "estimator": estimator,
            "total": sum(cell["estimate"] for cell in cells.values()),
            "quality": q,
            "servers": cells,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


class TestMergeLandscapeRows:
    def test_unions_servers_and_resums_quality(self):
        a = _row(servers=[("s1", 2.5, 10)], quality={"matched": 10, "late": 1})
        b = _row(servers=[("s2", 1.5, 6)], quality={"matched": 6, "dropped": 3})
        [merged] = merge_landscape_rows([[a], [b]])
        row = json.loads(merged)
        assert sorted(row["servers"]) == ["s1", "s2"]
        assert row["total"] == 4.0
        assert row["quality"]["matched"] == 16
        assert row["quality"]["late"] == 1
        assert row["quality"]["dropped"] == 3
        # loss re-derived from the summed counters: (1+3)/(16+4)
        assert row["quality"]["loss"] == round(4 / 20, 6)

    def test_groups_by_epoch_and_family_in_order(self):
        rows = [
            _row(family="b", epoch=1, servers=[("s", 1.0, 1)]),
            _row(family="a", epoch=1, servers=[("s", 1.0, 1)]),
            _row(family="a", epoch=0, servers=[("s", 1.0, 1)]),
        ]
        merged = [json.loads(line) for line in merge_landscape_rows([rows])]
        assert [(r["epoch"], r["family"]) for r in merged] == [
            (0, "a"), (1, "a"), (1, "b"),
        ]

    def test_duplicate_server_across_partitions_raises(self):
        a = _row(servers=[("s1", 2.0, 4)])
        b = _row(servers=[("s1", 3.0, 5)])
        with pytest.raises(ClusterError, match="two partitions"):
            merge_landscape_rows([[a], [b]])

    def test_estimator_mismatch_raises(self):
        a = _row(estimator="AP", servers=[("s1", 1.0, 1)])
        b = _row(estimator="AR", servers=[("s2", 1.0, 1)])
        with pytest.raises(ClusterError, match="estimator mismatch"):
            merge_landscape_rows([[a], [b]])

    def test_non_landscape_row_raises(self):
        with pytest.raises(ClusterError, match="not a landscape row"):
            merge_landscape_rows([['{"type": "header"}']])

    def test_empty_input_merges_to_nothing(self):
        assert merge_landscape_rows([]) == []
        assert merge_landscape_rows([[], [b"", b"  "]]) == []


# ---------------------------------------------------------------------------
# Checkpoint re-keying
# ---------------------------------------------------------------------------


class TestReshardCheckpoints:
    def test_watermark_is_min_and_cursor_is_min(self, drained_checkpoints):
        drained, _ = drained_checkpoints
        old = [doc["engine"] for doc in drained]
        watermarks = [state["watermark"] for state in old]
        # MIN keeps "everything at or below the watermark has been
        # released" true over the merged reorder buffers; MAX would
        # close a lagging partition's open epoch out from under its
        # still-buffered matches.  A partition that released nothing
        # (watermark None, everything still buffered) pins the merged
        # frontier to None.
        expected = None if any(w is None for w in watermarks) else min(watermarks)
        for doc in reshard_checkpoints(drained, 3):
            assert doc["engine"]["watermark"] == expected
            assert doc["engine"]["next_epoch_to_emit"] == min(
                state["next_epoch_to_emit"] for state in old
            )
        # Pin the min rule itself on forced distinct frontiers.
        forced = json.loads(json.dumps(drained))
        forced[0]["engine"]["watermark"] = 200_000.0
        forced[1]["engine"]["watermark"] = 100_000.0
        for doc in reshard_checkpoints(forced, 2):
            assert doc["engine"]["watermark"] == 100_000.0

    def test_buffered_records_rebucket_by_server(self, drained_checkpoints):
        drained, _ = drained_checkpoints
        new_n = 3
        docs = reshard_checkpoints(drained, new_n)
        old_contents = [
            tuple(sorted(d.items()))
            for doc in drained
            for d in doc["engine"]["reorder"]["contents"]
        ]
        new_contents = []
        for index, doc in enumerate(docs):
            for data in doc["engine"]["reorder"]["contents"]:
                assert partition_for_server(data["server"], new_n) == index
                new_contents.append(tuple(sorted(data.items())))
        assert sorted(new_contents) == sorted(old_contents)

    def test_shards_rebucket_by_server(self, drained_checkpoints):
        drained, _ = drained_checkpoints
        new_n = 3
        docs = reshard_checkpoints(drained, new_n)
        old_keys = {
            (family, server)
            for doc in drained
            for family, server, _ in doc["engine"]["shards"]
        }
        new_keys = set()
        for index, doc in enumerate(docs):
            for family, server, _ in doc["engine"]["shards"]:
                assert partition_for_server(server, new_n) == index
                new_keys.add((family, server))
        assert new_keys == old_keys

    def test_accounting_folds_onto_partition_zero(self, drained_checkpoints):
        drained, _ = drained_checkpoints
        docs = reshard_checkpoints(drained, 4)
        for key in ("records_consumed", "quarantined_mark"):
            assert docs[0][key] == sum(int(doc[key]) for doc in drained)
            assert all(doc[key] == 0 for doc in docs[1:])
        assert docs[0]["reader"]["records"] == sum(
            doc["reader"]["records"] for doc in drained
        )
        released = [doc["engine"]["reorder"]["released"] for doc in docs]
        assert released[0] == sum(
            doc["engine"]["reorder"]["released"] for doc in drained
        )
        assert all(r == 0 for r in released[1:])

    def test_finalized_partition_raises(self, drained_checkpoints):
        _, finalized = drained_checkpoints
        with pytest.raises(ClusterError, match="finalized"):
            reshard_checkpoints(finalized, 3)

    def test_family_mismatch_raises(self, drained_checkpoints):
        drained, _ = drained_checkpoints
        mutated = json.loads(json.dumps(drained[1]))
        mutated["engine"]["families"] = ["somebody_else"]
        with pytest.raises(ClusterError, match="family sets differ"):
            reshard_checkpoints([drained[0], mutated], 2)

    def test_reorder_config_mismatch_raises(self, drained_checkpoints):
        drained, _ = drained_checkpoints
        mutated = json.loads(json.dumps(drained[1]))
        mutated["engine"]["reorder"]["capacity"] += 1
        with pytest.raises(ClusterError, match="reorder configurations"):
            reshard_checkpoints([drained[0], mutated], 2)

    def test_rejects_empty_and_bad_widths(self, drained_checkpoints):
        drained, _ = drained_checkpoints
        with pytest.raises(ClusterError):
            reshard_checkpoints([], 2)
        with pytest.raises(ClusterError):
            reshard_checkpoints(drained, 0)


# ---------------------------------------------------------------------------
# Byte identity: flat replay
# ---------------------------------------------------------------------------


class TestFlatReplay:
    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_byte_identical_at_any_width(
        self, trace, reference, tmp_path, partitions
    ):
        workdir = tmp_path / f"flat-{partitions}"
        report = cluster_replay(
            trace, workdir, partitions=partitions, verify=False, serial=True
        )
        assert (workdir / "landscape.ndjson").read_bytes() == reference
        assert report["rows"] == reference.count(b"\n")

    def test_byte_identical_with_tracing_on(self, trace, reference, tmp_path):
        workdir = tmp_path / "traced"
        cluster_replay(
            trace, workdir, partitions=3, verify=False, serial=True, trace_sample=2
        )
        assert (workdir / "landscape.ndjson").read_bytes() == reference
        traces = sorted(workdir.glob("seg0-p*.trace.ndjson"))
        assert len(traces) == 3
        from repro.service.tracing import trace_report

        merged = trace_report(*traces)
        assert merged["files"] == 3
        assert merged["events"] > 0

    def test_byte_identical_in_process_mode(self, trace, reference, tmp_path):
        """Partition daemons as real forked processes, plus the built-in
        verify gate (which replays the single-daemon reference itself)."""
        workdir = tmp_path / "procs"
        report = cluster_replay(trace, workdir, partitions=4, verify=True)
        assert report["verified"] is True
        assert (workdir / "landscape.ndjson").read_bytes() == reference

    def test_merged_metrics_written(self, trace, tmp_path):
        workdir = tmp_path / "metrics"
        cluster_replay(trace, workdir, partitions=2, verify=False, serial=True)
        exposition = (workdir / "metrics.prom").read_text()
        assert "botmeterd_records_ingested_total" in exposition

    def test_completed_run_resumes_as_noop(self, trace, reference, tmp_path):
        workdir = tmp_path / "noop"
        first = cluster_replay(
            trace, workdir, partitions=2, verify=False, serial=True
        )
        again = cluster_replay(
            trace, workdir, partitions=2, verify=False, serial=True
        )
        assert first["resumed"] is False
        assert again["resumed"] is True
        assert (workdir / "landscape.ndjson").read_bytes() == reference

    def test_changed_plan_clears_stale_state(self, trace, reference, tmp_path):
        workdir = tmp_path / "replan"
        cluster_replay(trace, workdir, partitions=2, verify=False, serial=True)
        report = cluster_replay(
            trace, workdir, partitions=3, verify=False, serial=True
        )
        assert report["resumed"] is False
        assert (workdir / "seg0-p02.in.ndjson").exists()
        assert (workdir / "landscape.ndjson").read_bytes() == reference


# ---------------------------------------------------------------------------
# Byte identity: resharding
# ---------------------------------------------------------------------------


@st.composite
def reshard_paths(draw):
    """A width chain like 1 -> 3 -> 2 -> 5 with arbitrary split points."""
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    cuts = draw(
        st.lists(
            st.floats(0.05, 0.95),
            min_size=len(widths) - 1,
            max_size=len(widths) - 1,
        )
    )
    return widths, sorted(cuts)


class TestReshardReplay:
    def test_named_chain_1_3_2_5(self, trace, reference, payload_lines, tmp_path):
        quarter = payload_lines // 4
        plan = [(1, quarter), (3, 2 * quarter), (2, 3 * quarter), (5, None)]
        workdir = tmp_path / "chain"
        cluster_replay(trace, workdir, plan=plan, verify=False, serial=True)
        assert (workdir / "landscape.ndjson").read_bytes() == reference

    def test_reshard_with_tracing_on(self, trace, reference, payload_lines, tmp_path):
        plan = [(2, payload_lines // 2), (3, None)]
        workdir = tmp_path / "traced-reshard"
        cluster_replay(
            trace, workdir, plan=plan, verify=False, serial=True, trace_sample=1
        )
        assert (workdir / "landscape.ndjson").read_bytes() == reference

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(path=reshard_paths())
    def test_any_reshard_path_byte_identical(
        self, tiny_trace, tiny_reference, tiny_payload_lines, tmp_path_factory, path
    ):
        """THE property: any partition-width chain, split anywhere
        (empty segments included), merges to the unpartitioned bytes."""
        widths, cuts = path
        plan = [
            (widths[i], int(cuts[i] * tiny_payload_lines))
            for i in range(len(widths) - 1)
        ] + [(widths[-1], None)]
        workdir = tmp_path_factory.mktemp("reshard-prop")
        cluster_replay(tiny_trace, workdir, plan=plan, verify=False, serial=True)
        assert (workdir / "landscape.ndjson").read_bytes() == tiny_reference


# ---------------------------------------------------------------------------
# Crash drills
# ---------------------------------------------------------------------------

_KILL_SCRIPT = """\
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.service import cluster

def _boom(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)

setattr(cluster, {hook!r}, _boom)
cluster.cluster_replay(
    {trace!r}, {workdir!r}, plan={plan!r}, verify=False, serial=True,
    log=open(os.devnull, "w"),
)
"""


class TestCrashDrills:
    @pytest.mark.parametrize(
        "hook",
        [
            # Killed while synthesizing the re-keyed checkpoints (before
            # the prepared marker): resume redoes Phase A from the
            # immutable drained checkpoints.
            "reshard_checkpoints",
            # Killed after Phase A, before any second-segment partition
            # ran: resume skips straight to Phase B.
            "_run_partitions",
        ],
    )
    def test_sigkill_during_reshard_resumes_identically(
        self, tiny_trace, tiny_reference, tiny_payload_lines, tmp_path, hook
    ):
        workdir = tmp_path / "kill"
        plan = [(2, tiny_payload_lines // 2), (3, None)]
        script = _KILL_SCRIPT.format(
            src=REPO_SRC,
            hook=hook,
            trace=str(tiny_trace),
            workdir=str(workdir),
            plan=plan,
        )
        if hook == "_run_partitions":
            # Let segment 0 run; die entering segment 1.
            script = script.replace(
                "def _boom(*args, **kwargs):\n"
                "    os.kill(os.getpid(), signal.SIGKILL)",
                "_real = cluster._run_partitions\n"
                "def _boom(configs, serial=False):\n"
                "    if configs[0]['label'].startswith('seg1'):\n"
                "        os.kill(os.getpid(), signal.SIGKILL)\n"
                "    _real(configs, serial=serial)",
            )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            timeout=180,
        )
        assert proc.returncode == -signal.SIGKILL
        # Segment 0 drained and marked done before the kill either way.
        assert (workdir / "seg0.done.json").exists()
        report = cluster_replay(
            tiny_trace, workdir, plan=plan, verify=False, serial=True,
            log=io.StringIO(),
        )
        assert report["resumed"] is True
        assert (workdir / "landscape.ndjson").read_bytes() == tiny_reference

    def test_partition_sigkill_mid_segment_resumes_identically(
        self, trace, reference, tmp_path, monkeypatch
    ):
        """One partition daemon SIGKILLed mid-stream (after it has
        checkpointed), the cluster run aborted, then rerun: the victim
        resumes from its own newest checkpoint, the survivors re-run
        idempotently, and the merged bytes still match."""
        workdir = tmp_path / "pkill"

        def interrupted(configs, serial=False):
            for config in configs[:1] + configs[2:]:
                assert cluster_mod.run_partition(config) == 0
            victim = dict(configs[1])
            victim["throttle"] = 0.002
            victim["checkpoint_every"] = 40
            child = subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    "import json, sys;"
                    f"sys.path.insert(0, {REPO_SRC!r});"
                    "from repro.service.cluster import run_partition;"
                    "sys.exit(run_partition(json.loads(sys.argv[1])))",
                    json.dumps(victim),
                ],
            )
            checkpoint = Path(victim["checkpoint"])
            deadline = time.time() + 120
            while time.time() < deadline and not checkpoint.exists():
                time.sleep(0.02)
            assert checkpoint.exists(), "victim never checkpointed"
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
            raise ClusterError("injected mid-segment crash")

        monkeypatch.setattr(cluster_mod, "_run_partitions", interrupted)
        with pytest.raises(ClusterError, match="injected"):
            cluster_replay(
                trace, workdir, partitions=3, verify=False, serial=True,
                log=io.StringIO(),
            )
        monkeypatch.undo()
        report = cluster_replay(
            trace, workdir, partitions=3, verify=False, serial=True,
            log=io.StringIO(),
        )
        assert report["resumed"] is True
        assert (workdir / "landscape.ndjson").read_bytes() == reference


# ---------------------------------------------------------------------------
# Live serving through the router
# ---------------------------------------------------------------------------


class TestClusterServe:
    def test_router_fanout_byte_identical(self, trace, reference, tmp_path):
        from repro.service.netingest import SensorClient, shard_trace_lines

        lines = trace.read_bytes().splitlines()
        shards = [shard_trace_lines(lines, i, 2) for i in range(2)]
        uds = tmp_path / "router.sock"
        workdir = tmp_path / "serve"
        result: dict = {}
        failures: list = []

        def _serve():
            try:
                result.update(
                    cluster_serve(
                        workdir,
                        partitions=2,
                        uds=uds,
                        expect_sensors=2,
                        log=io.StringIO(),
                    )
                )
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                failures.append(exc)

        server_thread = threading.Thread(target=_serve, daemon=True)
        server_thread.start()
        deadline = time.time() + 60
        while time.time() < deadline and not uds.exists():
            time.sleep(0.05)
        assert uds.exists(), "router never bound its socket"

        def _sensor(i):
            try:
                SensorClient(
                    ("uds", str(uds)), f"edge-{i:02d}", retry_deadline=60
                ).replay_lines(shards[i])
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                failures.append(exc)

        sensor_threads = [
            threading.Thread(target=_sensor, args=(i,), daemon=True)
            for i in range(2)
        ]
        for t in sensor_threads:
            t.start()
        for t in sensor_threads:
            t.join(timeout=120)
        server_thread.join(timeout=120)
        if failures:
            raise failures[0]
        assert result["exit_code"] == 0
        assert (workdir / "landscape.ndjson").read_bytes() == reference
        assert sorted(result["cursors"]) == ["router-p00", "router-p01"]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestClusterCli:
    def test_cluster_replay_plan_reshards_under_the_identity_gate(
        self, tiny_trace, tiny_payload_lines, tmp_path, capsys
    ):
        half = tiny_payload_lines // 2
        assert (
            main(
                [
                    "cluster-replay",
                    str(tiny_trace),
                    "--workdir", str(tmp_path / "rs"),
                    "--plan", f"1:{half},2",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True
        assert [
            (seg["partitions"], seg["start"], seg["end"])
            for seg in report["segments"]
        ] == [(1, 0, half), (2, half, tiny_payload_lines)]

    def test_cluster_replay_verb_verifies(self, tiny_trace, tmp_path, capsys):
        assert (
            main(
                [
                    "cluster-replay",
                    str(tiny_trace),
                    "--workdir", str(tmp_path / "cr"),
                    "--partitions", "2",
                ]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_cluster_replay_rejects_ambiguous_width(self, tiny_trace, tmp_path):
        base = ["cluster-replay", str(tiny_trace), "--workdir", str(tmp_path / "x")]
        assert main(base) == 2
        assert main(base + ["--partitions", "2", "--plan", "2,3"]) == 2
        assert main(base + ["--plan", "nope"]) == 2

    def test_trace_report_multi_file_needs_merge(self, tmp_path):
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.ndjson"
        a.write_text("")
        b.write_text("")
        assert main(["trace-report", str(a), str(b)]) == 2

    def test_trace_report_merge_folds_partition_traces(
        self, trace, tmp_path, capsys
    ):
        workdir = tmp_path / "traced"
        cluster_replay(
            trace, workdir, partitions=2, verify=False, serial=True, trace_sample=1
        )
        files = sorted(str(p) for p in workdir.glob("seg0-p*.trace.ndjson"))
        assert len(files) == 2
        assert main(["trace-report", *files, "--merge", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["files"] == 2
        assert report["headers"] == 2


# ---------------------------------------------------------------------------
# Verify gate
# ---------------------------------------------------------------------------


def test_verify_gate_catches_divergence(trace, tmp_path, monkeypatch):
    """Force a wrong merge and prove the gate trips (exercising the
    failure path the reshard verb relies on)."""
    real = cluster_mod.merge_landscape_rows

    def corrupted(row_streams):
        merged = real(row_streams)
        return merged[:-1] if merged else merged

    monkeypatch.setattr(cluster_mod, "merge_landscape_rows", corrupted)
    with pytest.raises(ClusterVerifyError):
        cluster_replay(
            trace, tmp_path / "bad", partitions=2, verify=True, serial=True,
            log=io.StringIO(),
        )


# ---------------------------------------------------------------------------
# Quorum-degraded merge + restatement
# ---------------------------------------------------------------------------


def _degraded_fixture():
    """Three partitions, distinct servers; p2 died after emitting its
    epoch-0 census but before epoch 1."""
    p0 = [
        _row(epoch=0, servers=[("s0", 2.0, 4)], quality={"matched": 4}),
        _row(epoch=1, servers=[("s0", 3.0, 6)], quality={"matched": 6}),
    ]
    p1 = [
        _row(epoch=0, servers=[("s1", 1.0, 2)], quality={"matched": 2}),
        _row(epoch=1, servers=[("s1", 2.0, 4)], quality={"matched": 4}),
    ]
    p2 = [
        _row(epoch=0, servers=[("s2", 5.0, 10)], quality={"matched": 10}),
    ]
    return p0, p1, p2


class TestDegradedMerge:
    def test_status_length_mismatch_raises(self):
        with pytest.raises(ClusterError, match="partition states"):
            merge_landscape_rows([[], []], partition_status=["healthy"])

    def test_quorum_lost_raises(self):
        p0, p1, p2 = _degraded_fixture()
        with pytest.raises(ClusterError, match="quorum lost"):
            merge_landscape_rows(
                [p0, p1, p2], partition_status=["healthy", "down", "down"]
            )
        # A custom quorum of all-N makes one down partition fatal.
        with pytest.raises(ClusterError, match="quorum lost"):
            merge_landscape_rows(
                [p0, p1, p2],
                partition_status=["healthy", "healthy", "down"],
                quorum=3,
            )

    def test_all_fresh_is_byte_identical_to_plain_merge(self):
        p0, p1, p2 = _degraded_fixture()
        exact = merge_landscape_rows([p0, p1, p2])
        gated = merge_landscape_rows(
            [p0, p1, p2], partition_status=["healthy", "lagging", "healthy"]
        )
        assert gated == exact

    def test_down_partition_marks_epochs_past_its_frontier(self):
        p0, p1, p2 = _degraded_fixture()
        merged = merge_landscape_rows(
            [p0, p1, p2], partition_status=["healthy", "healthy", "down"]
        )
        rows = [json.loads(line) for line in merged]
        assert [row["epoch"] for row in rows] == [0, 1]
        # Epoch 0: p2 emitted it before dying — real history, exact.
        assert "confidence" not in rows[0]
        assert "degraded_partitions" not in rows[0]["quality"]
        assert rows[0]["total"] == 8.0
        # Epoch 1: p2's slice is missing; marked and widened.
        assert rows[1]["quality"]["degraded_partitions"] == ["p02"]
        visible = rows[1]["total"]
        assert visible == 5.0
        confidence = rows[1]["confidence"]
        # census 5.0 -> loss 0.5 -> arms stretched by 2 around the point
        assert confidence == {
            "low": 0.0,
            "point": 5.0,
            "high": 15.0,
            "level": 0.9,
        }
        # The widened interval contains the exact total (p2's epoch-1
        # slice can be at most its last census under the widen model).
        assert confidence["low"] <= visible + 5.0 <= confidence["high"]

    def test_no_census_yields_null_confidence(self):
        p0, p1, _ = _degraded_fixture()
        merged = merge_landscape_rows(
            [p0, p1, []], partition_status=["healthy", "healthy", "down"]
        )
        rows = [json.loads(line) for line in merged]
        for row in rows:
            assert row["quality"]["degraded_partitions"] == ["p02"]
            assert row["confidence"] is None

    def test_emit_limit_caps_at_slowest_fresh_frontier(self):
        p0, p1, p2 = _degraded_fixture()
        # p0 has only closed epoch 0: nothing past it is final enough.
        merged = merge_landscape_rows(
            [p0[:1], p1, p2], partition_status=["healthy", "healthy", "down"]
        )
        assert [json.loads(line)["epoch"] for line in merged] == [0]

    def test_empty_fresh_stream_constrains_nothing(self):
        p0, _, p2 = _degraded_fixture()
        merged = merge_landscape_rows(
            [p0, [], p2], partition_status=["healthy", "healthy", "down"]
        )
        assert [json.loads(line)["epoch"] for line in merged] == [0, 1]

    def test_all_fresh_streams_empty_emits_nothing(self):
        _, _, p2 = _degraded_fixture()
        merged = merge_landscape_rows(
            [[], [], p2], partition_status=["healthy", "healthy", "down"]
        )
        assert merged == []


class TestRestateRows:
    def test_flags_only_degraded_keys_in_order(self):
        exact = [
            _row(family="a", epoch=0, servers=[("s", 1.0, 1)]),
            _row(family="b", epoch=0, servers=[("s2", 2.0, 2)]),
            _row(family="a", epoch=1, servers=[("s", 3.0, 3)]),
        ]
        restated = restate_rows(exact, [(0, "a"), (1, "a")])
        rows = [json.loads(line) for line in restated]
        assert [(r["epoch"], r["family"]) for r in rows] == [(0, "a"), (1, "a")]
        assert all(r["restated"] is True for r in rows)

    def test_same_bytes_plus_flag(self):
        exact = [_row(family="a", epoch=2, servers=[("s", 1.5, 3)])]
        [restated] = restate_rows(exact, [(2, "a")])
        expected = json.loads(exact[0])
        expected["restated"] = True
        assert restated == json.dumps(
            expected, sort_keys=True, separators=(",", ":")
        )

    def test_no_keys_no_restatements(self):
        exact = [_row(servers=[("s", 1.0, 1)])]
        assert restate_rows(exact, []) == []
        assert restate_rows([], [(0, "fam")]) == []


# ---------------------------------------------------------------------------
# Reshard gate: stale partitions refuse to reshard
# ---------------------------------------------------------------------------


class TestReshardHeartbeatGate:
    def _states(self, tmp_path, monos, now=100.0):
        paths = []
        for i, mono in enumerate(monos):
            path = tmp_path / f"p{i:02d}.hb.json"
            write_heartbeat(
                path,
                pid=1000 + i,
                seq=1,
                watermark=123.0,
                cursor=5,
                records_consumed=5,
                checkpoint_age=0.1,
                clock=lambda mono=mono: mono,
            )
            paths.append(path)
        return partition_states_from_heartbeats(
            paths, lag_after=5.0, down_after=15.0, clock=lambda: now
        )

    def test_frozen_heartbeat_blocks_reshard(self, drained_checkpoints, tmp_path):
        """Regression: a reshard against a partition whose heartbeat
        froze (killed, wedged, network-partitioned) must refuse — its
        checkpoint is stale durable state, and re-keying it would
        fossilize the dead partition's last chart."""
        drained, _ = drained_checkpoints
        # p0 beat 1s ago; p1's heartbeat froze 50s ago.
        states = self._states(tmp_path, [99.0, 50.0])
        assert states == ["healthy", "down"]
        with pytest.raises(ClusterError, match="partition 1 is down"):
            reshard_checkpoints(drained, 3, partition_states=states)

    def test_lagging_partition_still_reshards(self, drained_checkpoints, tmp_path):
        drained, _ = drained_checkpoints
        # p1 is 7s stale: lagging, but its process (and checkpoint
        # discipline) is live — lagging is fresh enough to reshard.
        states = self._states(tmp_path, [99.0, 93.0])
        assert states == ["healthy", "lagging"]
        docs = reshard_checkpoints(drained, 3, partition_states=states)
        assert docs == reshard_checkpoints(drained, 3)

    def test_state_count_mismatch_raises(self, drained_checkpoints):
        drained, _ = drained_checkpoints
        with pytest.raises(ClusterError, match="partition states"):
            reshard_checkpoints(drained, 2, partition_states=["healthy"])
