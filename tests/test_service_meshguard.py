"""Meshguard: the fault-tolerant-cluster test harness.

Unit-level: heartbeat files survive torn writes and foreign content,
the partition health machine hits its lag/down boundaries exactly and
recovers only through hysteresis, the single-daemon HealthMonitor's
threshold boundaries are pinned table-driven, checkpoint staleness has
one definition (``last_good_generation``), the failover spool speaks
the dead-letter format under its own schema badge, and the chaos
scheduler provably straddles per-partition *emission* lines.

Integration-level: a supervised mini-cluster loses a partition to
SIGKILL mid-stream, spools the outage window durably, restarts from
the partition's own checkpoint, replays in order, and still merges a
landscape byte-identical to the single-daemon replay — with the spool,
ledger, and metrics reconciling exactly.  No test sleeps to make time
pass: every clock and every heartbeat age is injected.
"""

import json
import os

import pytest

from repro.cli import main
from repro.service.checkpoint import CheckpointStore
from repro.service.cluster import (
    ClusterError,
    merge_landscape_rows,
    route_line,
    single_daemon_replay,
    split_header,
)
from repro.service.deadletter import DEADLETTER_SCHEMA, DeadLetterQueue
from repro.service.meshguard import (
    DISARMED,
    DOWN,
    HEALTHY,
    HEARTBEAT_SCHEMA,
    LAGGING,
    SPOOL_SCHEMA,
    ClusterSupervisor,
    FailoverSensorStream,
    PartitionHealth,
    partition_states_from_heartbeats,
    read_heartbeat,
    write_heartbeat,
)
from repro.service.supervisor import (
    BackoffPolicy,
    HealthMonitor,
    HealthState,
)
from tests.harness.chaos import chaos_schedule, emission_lines, read_spool


def _beat(path, *, mono, pid=4242, seq=0, checkpoint_age=None):
    write_heartbeat(
        path,
        pid=pid,
        seq=seq,
        watermark=123.0,
        cursor=10,
        records_consumed=10,
        checkpoint_age=checkpoint_age,
        clock=lambda: mono,
    )


# ---------------------------------------------------------------------------
# Heartbeat files
# ---------------------------------------------------------------------------


class TestHeartbeat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "p00.hb.json"
        _beat(path, mono=17.5, pid=99, seq=3, checkpoint_age=0.25)
        doc = read_heartbeat(path)
        assert doc["schema"] == HEARTBEAT_SCHEMA
        assert doc["pid"] == 99
        assert doc["seq"] == 3
        assert doc["mono"] == 17.5
        assert doc["checkpoint_age"] == 0.25
        assert doc["cursor"] == 10

    def test_missing_reads_as_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "absent.json") is None

    def test_torn_write_reads_as_none(self, tmp_path):
        path = tmp_path / "torn.json"
        _beat(path, mono=1.0)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert read_heartbeat(path) is None

    def test_foreign_content_reads_as_none(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"schema": "something-else-v9", "mono": 1}))
        assert read_heartbeat(path) is None
        path.write_text(json.dumps([1, 2, 3]))
        assert read_heartbeat(path) is None

    def test_rotation_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "p00.hb.json"
        for seq in range(5):
            _beat(path, mono=float(seq), seq=seq)
        assert read_heartbeat(path)["seq"] == 4
        assert [p.name for p in tmp_path.iterdir()] == ["p00.hb.json"]


# ---------------------------------------------------------------------------
# Partition health machine (all timing injected — no sleeps anywhere)
# ---------------------------------------------------------------------------


class TestPartitionHealthClassify:
    @pytest.mark.parametrize(
        ("age", "alive", "expected"),
        [
            (0.0, True, "fresh"),
            (4.999, True, "fresh"),
            (5.0, True, "stale"),  # lag_after boundary is inclusive
            (14.999, True, "stale"),
            (15.0, True, "dead"),  # down_after boundary is inclusive
            (None, True, "stale"),  # no heartbeat yet: suspicious, not dead
            (0.0, False, "dead"),  # process exit trumps a fresh heartbeat
            (None, False, "dead"),
        ],
    )
    def test_boundaries(self, age, alive, expected):
        health = PartitionHealth(lag_after=5.0, down_after=15.0)
        assert health.classify(age, alive) == expected

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PartitionHealth(lag_after=0.0)
        with pytest.raises(ValueError):
            PartitionHealth(lag_after=10.0, down_after=5.0)
        with pytest.raises(ValueError):
            PartitionHealth(recover_ticks=0)


class TestPartitionHealthTicks:
    @pytest.mark.parametrize(
        ("observations", "expected"),
        [
            # (heartbeat_age, process_alive) per tick -> final state
            ([(1.0, True)] * 3, HEALTHY),
            ([(6.0, True)], LAGGING),
            ([(6.0, True), (6.0, True)], LAGGING),
            ([(20.0, True)], DOWN),  # wedged: heartbeat ancient, proc alive
            ([(1.0, False)], DOWN),  # dead process
            ([(6.0, True), (20.0, True)], DOWN),  # lagging worsens to down
            # hysteresis: one fresh tick does not clear a down partition
            ([(1.0, False), (1.0, True)], DOWN),
            ([(1.0, False), (1.0, True), (1.0, True)], HEALTHY),
            # a stale tick resets the recovery streak
            ([(1.0, False), (1.0, True), (6.0, True), (1.0, True)], DOWN),
            # lagging recovers through the same streak
            ([(6.0, True), (1.0, True)], LAGGING),
            ([(6.0, True), (1.0, True), (1.0, True)], HEALTHY),
        ],
    )
    def test_state_tables(self, observations, expected):
        health = PartitionHealth(
            lag_after=5.0, down_after=15.0, recover_ticks=2
        )
        for age, alive in observations:
            state = health.tick(age, alive)
        assert state == expected

    def test_disarm_is_absorbing(self):
        health = PartitionHealth(recover_ticks=1)
        health.disarm()
        assert health.state == DISARMED
        for _ in range(5):
            assert health.tick(0.0, True) == DISARMED

    def test_transitions_carry_tick_numbers(self):
        health = PartitionHealth(
            lag_after=5.0, down_after=15.0, recover_ticks=1
        )
        health.tick(6.0, True)
        health.tick(20.0, True)
        health.tick(1.0, True)
        assert health.transitions == [
            (1, HEALTHY, LAGGING),
            (2, LAGGING, DOWN),
            (3, DOWN, HEALTHY),
        ]


class TestHealthMonitorBoundaries:
    """Table-driven hysteresis boundaries for the single-daemon monitor:
    degraded strictly *above* the threshold, recovered at or *below*
    half of it — the band in between moves nothing.

    The monitor evaluates after every record over however much of the
    window is populated, so each table feeds its clean records first —
    the quarantine fraction then rises monotonically to its final value
    and the boundary is tested exactly once, at the end.
    """

    @pytest.mark.parametrize(
        ("ok", "bad", "expected"),
        [
            # window=10, threshold=0.3; final fraction = bad / 10
            (10, 0, HealthState.HEALTHY),
            (7, 3, HealthState.HEALTHY),  # 0.3 == threshold: not over it
            (6, 4, HealthState.DEGRADED),  # 0.4 > 0.3
            (0, 10, HealthState.DEGRADED),
        ],
    )
    def test_degrade_boundary(self, ok, bad, expected):
        monitor = HealthMonitor(window=10, degraded_threshold=0.3)
        for _ in range(ok):
            monitor.record_ok()
        for _ in range(bad):
            monitor.record_quarantined()
        assert monitor.quarantine_fraction == pytest.approx(bad / 10)
        assert monitor.state is expected

    @pytest.mark.parametrize(
        ("trailing_ok", "expected"),
        [
            # window=10, threshold=0.3, recovery at fraction <= 0.15.
            # 4 bad then N ok; the window retains the last 10 records.
            (8, HealthState.DEGRADED),  # 2 bad / 10 = 0.2: hysteresis band
            (9, HealthState.HEALTHY),  # 1 bad / 10 = 0.1 <= 0.15
        ],
    )
    def test_recover_boundary(self, trailing_ok, expected):
        monitor = HealthMonitor(window=10, degraded_threshold=0.3)
        for _ in range(4):
            monitor.record_quarantined()
        assert monitor.state is HealthState.DEGRADED
        for _ in range(trailing_ok):
            monitor.record_ok()
        assert monitor.state is expected

    def test_exactly_half_threshold_recovers(self):
        monitor = HealthMonitor(window=10, degraded_threshold=0.4)
        for _ in range(5):
            monitor.record_quarantined()
        assert monitor.state is HealthState.DEGRADED
        # Drive the window to exactly 2 bad / 10 = threshold/2: inclusive.
        for _ in range(8):
            monitor.record_ok()
        assert monitor.quarantine_fraction == pytest.approx(0.2)
        assert monitor.state is HealthState.HEALTHY


# ---------------------------------------------------------------------------
# Heartbeat-driven partition states (the reshard gate's view)
# ---------------------------------------------------------------------------


class TestPartitionStatesFromHeartbeats:
    def test_ages_classify_without_sleeping(self, tmp_path):
        paths = [tmp_path / f"p{i:02d}.hb.json" for i in range(4)]
        _beat(paths[0], mono=99.0)  # age 1: healthy
        _beat(paths[1], mono=93.0)  # age 7: lagging
        _beat(paths[2], mono=80.0)  # age 20: down
        # paths[3] never written: down
        states = partition_states_from_heartbeats(
            paths, lag_after=5.0, down_after=15.0, clock=lambda: 100.0
        )
        assert states == [HEALTHY, LAGGING, DOWN, DOWN]


# ---------------------------------------------------------------------------
# Checkpoint staleness (shared by heartbeats and the lag detector)
# ---------------------------------------------------------------------------


class TestLastGoodGeneration:
    def test_none_before_any_generation(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json", clock=lambda: 5.0)
        assert store.last_good_generation() is None

    def test_save_stamps_and_ages_on_injected_clock(self, tmp_path):
        now = [10.0]
        store = CheckpointStore(tmp_path / "ck.json", clock=lambda: now[0])
        store.save({"cursor": 1})
        assert store.last_good_generation() == pytest.approx(0.0)
        now[0] = 17.5
        assert store.last_good_generation() == pytest.approx(7.5)
        store.save({"cursor": 2})
        assert store.last_good_generation() == pytest.approx(0.0)

    def test_load_refreshes_in_a_fresh_store(self, tmp_path):
        CheckpointStore(tmp_path / "ck.json").save({"cursor": 3})
        now = [100.0]
        store = CheckpointStore(tmp_path / "ck.json", clock=lambda: now[0])
        assert store.last_good_generation() is None
        assert store.load()["cursor"] == 3
        now[0] = 104.0
        assert store.last_good_generation() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# The failover spool speaks dead-letter under its own badge
# ---------------------------------------------------------------------------


class TestSpoolFormat:
    def test_schema_parameter(self, tmp_path):
        spool = DeadLetterQueue(tmp_path / "spool.ndjson", schema=SPOOL_SCHEMA)
        spool.quarantine("spooled", cursor=7, line="x")
        spool.close()
        entries = read_spool(tmp_path / "spool.ndjson")
        assert entries == [
            {
                "schema": SPOOL_SCHEMA,
                "seq": 0,
                "reason": "spooled",
                "cursor": 7,
                "line": "x",
            }
        ]

    def test_default_schema_unchanged(self, tmp_path):
        queue = DeadLetterQueue(tmp_path / "dl.ndjson")
        queue.quarantine("corrupt", line="y")
        queue.close()
        entry = json.loads((tmp_path / "dl.ndjson").read_text())
        assert entry["schema"] == DEADLETTER_SCHEMA


# ---------------------------------------------------------------------------
# Emission prediction and the chaos schedule
# ---------------------------------------------------------------------------


def _lookup_line(timestamp, server="ldns-001"):
    return json.dumps(
        {"v": 1, "domain": "d.example", "server": server, "timestamp": timestamp}
    ).encode()


class TestEmissionLines:
    def test_single_partition_offsets_by_capacity(self):
        # Epoch 0 boundary at 100 + 10 grace = 110; the first line past
        # it is index 2; with capacity 2 the releasing insert is index 4.
        stamps = [50.0, 60.0, 111.0, 120.0, 130.0, 140.0, 150.0]
        payload = [_lookup_line(ts) for ts in stamps]
        emissions = emission_lines(
            payload, 1, reorder_capacity=2, grace=10.0, epoch_seconds=100.0
        )
        assert emissions == [[4]]

    def test_never_released_midstream_is_trimmed(self):
        # Past the boundary but fewer than capacity records behind it:
        # the epoch only closes at finalize, so no emission row at all.
        stamps = [50.0, 111.0, 120.0]
        payload = [_lookup_line(ts) for ts in stamps]
        emissions = emission_lines(
            payload, 1, reorder_capacity=4, grace=10.0, epoch_seconds=100.0
        )
        assert emissions == []

    def test_partition_local_counting(self):
        # Two servers that hash to different halves of a 2-partition
        # mesh; partition shares differ 3:1, so the same epoch emits at
        # different global lines.
        by_partition = {}
        for i in range(64):
            name = f"ldns-{i:03d}"
            by_partition.setdefault(
                route_line(_lookup_line(0.0, name), 2), name
            )
            if len(by_partition) == 2:
                break
        servers = [by_partition[0], by_partition[1]]
        stamps, owners = [], []
        for k in range(40):
            # the k % 4 == 0 lines go to one server, the rest to the other
            server = servers[0] if k % 4 else servers[1]
            stamps.append(float(k * 10))
            owners.append(server)
        payload = [_lookup_line(ts, s) for ts, s in zip(stamps, owners)]
        emissions = emission_lines(
            payload, 2, reorder_capacity=3, grace=5.0, epoch_seconds=100.0
        )
        for part in range(2):
            own = [
                i
                for i, line in enumerate(payload)
                if route_line(line, 2) == part
            ]
            first_past = next(
                k for k, i in enumerate(own) if stamps[i] > 105.0
            )
            assert emissions[0][part] == own[first_past + 3]
        assert emissions[0][0] != emissions[0][1]


class TestChaosSchedule:
    def test_seeded_and_deterministic(self):
        one = chaos_schedule(3, 3, 4000)
        two = chaos_schedule(3, 3, 4000)
        assert one == two
        assert chaos_schedule(4, 3, 4000) != one

    def test_every_partition_hit_once_without_overlap(self):
        events = chaos_schedule(11, 4, 8000)
        assert sorted(e["partition"] for e in events) == [0, 1, 2, 3]
        end = 0
        for event in events:
            assert event["at_line"] > end
            assert event["kind"] in ("kill", "wedge")
            assert event["at_line"] < event["snapshot_line"] < (
                event["at_line"] + event["hold_lines"]
            )
            end = event["at_line"] + event["hold_lines"]
        assert end < 8000

    def test_too_short_stream_raises(self):
        with pytest.raises(ClusterError):
            chaos_schedule(1, 3, 50)

    def test_emission_anchored_windows_straddle_the_gap(self):
        emissions = [
            [100, 110, 120],
            [1000, 1100, 1200],
            [2000, 2100, 2200],
        ]
        events = chaos_schedule(7, 3, 4000, emissions=emissions)
        assert sorted(e["partition"] for e in events) == [0, 1, 2]
        anchored = {e["epoch"]: e for e in events if "epoch" in e}
        assert sorted(anchored) == [1, 2]
        for day, event in anchored.items():
            victim = event["partition"]
            at = event["at_line"]
            recovery = at + event["hold_lines"]
            # killed after its own census epoch, before the anchored one
            assert emissions[day - 1][victim] < at < emissions[day][victim]
            # snapshot only after every fresh partition has published
            fresh_emit = max(
                emissions[day][p] for p in range(3) if p != victim
            )
            assert fresh_emit < event["snapshot_line"] < recovery
        quiet = [e for e in events if "epoch" not in e]
        assert len(quiet) == 1
        first_kill = min(e["at_line"] for e in anchored.values())
        assert max(emissions[0]) < quiet[0]["at_line"]
        assert quiet[0]["at_line"] + quiet[0]["hold_lines"] < first_kill

    def test_same_seed_same_emissions_same_schedule(self):
        emissions = [
            [100, 110, 120],
            [1000, 1100, 1200],
            [2000, 2100, 2200],
        ]
        assert chaos_schedule(
            7, 3, 4000, emissions=emissions
        ) == chaos_schedule(7, 3, 4000, emissions=emissions)

    def test_missing_epoch0_census_raises(self):
        with pytest.raises(ClusterError):
            chaos_schedule(
                7, 3, 4000, emissions=[[100, None, 120], [1000, 1100, 1200]]
            )

    def test_single_epoch_has_no_anchor(self):
        with pytest.raises(ClusterError):
            chaos_schedule(7, 3, 4000, emissions=[[100, 110, 120]])


# ---------------------------------------------------------------------------
# Supervised mini-drill: SIGKILL, spool, restart, replay, byte-identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshguard") / "trace.ndjson"
    assert (
        main(
            [
                "export-trace",
                "--source", "sim",
                "--family", "murofet",
                "--bots", "8",
                "--servers", "4",
                "--days", "1",
                "--seed", "13",
                "--out", str(path),
            ]
        )
        == 0
    )
    return path


class TestSupervisedFailover:
    def test_sigkill_mid_stream_is_lossless_and_reconciles(
        self, mini_trace, tmp_path
    ):
        reference = tmp_path / "reference.ndjson"
        single_daemon_replay(mini_trace, reference)
        header, payload = split_header(mini_trace.read_bytes().splitlines())
        n = 2
        workdir = tmp_path / "mesh"
        log = open(os.devnull, "w")
        supervisor = ClusterSupervisor(
            workdir,
            n,
            checkpoint_every=200,
            backoff=BackoffPolicy(base=0.01, cap=0.05, jitter=0.1, seed=5),
            heartbeat_interval=0.1,
            lag_after=1e9,
            down_after=2e9,
            sleep=lambda _delay: None,
            log_stream=log,
        )
        streams = []
        kill_at = len(payload) // 3
        recover_at = 2 * len(payload) // 3
        victim = 0
        expected_spool = []
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
            for line in header:
                for stream in streams:
                    stream.send_lines([line])
            for index, line in enumerate(payload):
                if index == kill_at:
                    # Pin the victim's durable frontier so the spool
                    # holds exactly the outage-window lines.
                    streams[victim].sync()
                    supervisor.kill(victim)
                    streams[victim].force_down("kill")
                if index == recover_at:
                    supervisor.poll()
                    supervisor.wait_ready(index=victim)
                    streams[victim].reconnect()
                target = route_line(line, n)
                streams[target].send_lines([line])
                if target == victim and kill_at <= index < recover_at:
                    expected_spool.append(line)
            for stream in streams:
                stream.finish()
            assert supervisor.wait() == [0] * n
        finally:
            for stream in streams:
                stream.close()
            supervisor.stop()
            log.close()

        merged = merge_landscape_rows(
            [
                (workdir / f"p{i:02d}.out.ndjson").read_bytes().splitlines()
                for i in range(n)
            ]
        )
        assert "\n".join(merged) + "\n" == reference.read_text()

        entries = read_spool(workdir / f"p{victim:02d}.spool.ndjson")
        assert len(entries) == len(expected_spool) > 0
        for entry, line in zip(entries, expected_spool):
            assert entry["reason"] == "spooled"
            assert entry["line"] == line.decode()
        assert streams[victim].replayed == len(expected_spool)
        assert streams[victim].failovers == 1
        assert supervisor.ledger == [
            {
                "partition": victim,
                "attempt": 1,
                "delay": supervisor.ledger[0]["delay"],
                "reason": "exit",
            }
        ]
        rendered = supervisor.metrics.render_prometheus()
        assert "botmeterd_mesh_restarts_total" in rendered
        assert "botmeterd_mesh_spooled_lines_total" in rendered
