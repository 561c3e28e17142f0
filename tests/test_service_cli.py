"""End-to-end tests for the service CLI verbs: export-trace, replay,
serve — including the SIGKILL crash drill that enforces byte-identical
recovery."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.wire import NdjsonReader

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A small exported sim day, shared by every test in the module."""
    path = tmp_path_factory.mktemp("svc") / "trace.ndjson"
    assert (
        main(
            [
                "export-trace",
                "--source", "sim",
                "--family", "murofet",
                "--bots", "12",
                "--servers", "2",
                "--days", "1",
                "--seed", "5",
                "--out", str(path),
            ]
        )
        == 0
    )
    return path


class TestExportTrace:
    def test_header_first_then_records(self, trace):
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["schema"] == "botmeter-trace-v1"
        assert header["families"] == [{"name": "murofet", "seed": 7}]
        assert "origin" in header and "granularity" in header
        record = json.loads(lines[1])
        assert set(record) == {"v", "timestamp", "server", "domain"}

    def test_trace_is_fully_decodable(self, trace):
        reader = NdjsonReader(max_corrupt=0)
        with open(trace, "rb") as fh:
            records = list(reader.read(fh))
        assert reader.corrupt == 0
        assert len(records) == reader.records > 0
        assert reader.header is not None

    def test_records_are_time_ordered(self, trace):
        reader = NdjsonReader()
        with open(trace, "rb") as fh:
            times = [r.timestamp for r in reader.read(fh)]
        assert times == sorted(times)


class TestReplay:
    def test_streaming_equals_batch(self, trace, tmp_path):
        streamed = tmp_path / "streamed.ndjson"
        batch = tmp_path / "batch.ndjson"
        assert main(["replay", str(trace), "--out", str(streamed)]) == 0
        assert (
            main(["replay", str(trace), "--engine", "batch", "--out", str(batch)])
            == 0
        )
        assert streamed.read_bytes() == batch.read_bytes()
        assert len(streamed.read_text().splitlines()) == 1  # 1 family × 1 day
        # The batch engine reads wire-v2 too (and, like the daemon,
        # refuses line-level fault injection on it).
        v2_batch = tmp_path / "v2-batch.ndjson"
        assert (
            main(["replay", str(GOLDEN / "murofet_small.v2"), "--engine",
                  "batch", "--out", str(v2_batch)])
            == 0
        )
        assert v2_batch.read_bytes() == (
            GOLDEN / "murofet_small.landscape.ndjson"
        ).read_bytes()
        assert (
            main(["replay", str(GOLDEN / "murofet_small.v2"), "--engine",
                  "batch", "--faults", "seed=1,drop=0.1"])
            == 1
        )

    def test_replay_to_stdout(self, trace, capsys):
        assert main(["replay", str(trace), "--engine", "batch"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out.splitlines()[0])
        assert data["type"] == "landscape"
        assert data["family"] == "murofet"

    def test_headerless_trace_needs_family_flag(self, trace, tmp_path, capsys):
        headerless = tmp_path / "headerless.ndjson"
        headerless.write_text("\n".join(trace.read_text().splitlines()[1:]) + "\n")
        assert main(["replay", str(headerless), "--engine", "batch"]) == 1
        with pytest.raises(ValueError):
            main(["replay", str(headerless), "--engine", "streaming"])
        out = tmp_path / "flagged.ndjson"
        assert (
            main(
                [
                    "replay", str(headerless),
                    "--engine", "batch",
                    "--family", "murofet:7",
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert json.loads(out.read_text().splitlines()[0])["family"] == "murofet"


@pytest.fixture(scope="module")
def two_day_trace(tmp_path_factory):
    """A two-day exported trace — emissions happen mid-stream, so batch
    framing and quarantine attribution are actually exercised."""
    path = tmp_path_factory.mktemp("svc-2d") / "trace.ndjson"
    assert (
        main(
            [
                "export-trace",
                "--source", "sim",
                "--family", "murofet",
                "--bots", "12",
                "--servers", "4",
                "--days", "2",
                "--seed", "5",
                "--out", str(path),
            ]
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def corrupt_trace(two_day_trace, tmp_path_factory):
    """The two-day trace with garbage lines injected at three offsets."""
    lines = two_day_trace.read_text().splitlines()
    for position, junk in (
        (len(lines) // 4, "{not json"),
        (len(lines) // 2, '{"v": 99, "timestamp": 1.0}'),
        (3 * len(lines) // 4, "\x00\xff garbage"),
    ):
        lines.insert(position, junk)
    path = tmp_path_factory.mktemp("svc-corrupt") / "trace.ndjson"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def late_corrupt_trace(two_day_trace, tmp_path_factory):
    """The two-day trace with 20 day-0 records moved past the epoch-0
    emission and 4 junk lines among them: late and corrupt quarantines
    interleave in one stretch of the stream."""
    header, *records = two_day_trace.read_text().splitlines()
    day0 = [i for i, line in enumerate(records) if json.loads(line)["timestamp"] < 86400]
    moved_at = set(day0[-40::2])  # 20 records from late on day 0
    moved = [records[i] for i in sorted(moved_at)]
    kept = [line for i, line in enumerate(records) if i not in moved_at]
    stretch = []
    for k, line in enumerate(moved):
        stretch.append(line)
        if k % 5 == 2:
            stretch.append(f"{{not json {k}")
    cut = 3 * len(kept) // 4  # well into day 1: epoch 0 is already out
    lines = [header, *kept[:cut], *stretch, *kept[cut:]]
    path = tmp_path_factory.mktemp("svc-late-corrupt") / "trace.ndjson"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestBatchedReplay:
    def _replay(self, trace, tmp_path, name, *extra):
        out = tmp_path / name
        assert main(["replay", str(trace), "--out", str(out), *extra]) == 0
        return out.read_bytes()

    def test_batching_matches_line_at_a_time(self, two_day_trace, tmp_path):
        reference = self._replay(
            two_day_trace, tmp_path, "serial.ndjson", "--batch-lines", "1"
        )
        chunked = self._replay(
            two_day_trace, tmp_path, "chunked.ndjson", "--batch-lines", "64"
        )
        assert chunked == reference

    def test_quarantine_attribution_survives_batching(self, corrupt_trace, tmp_path):
        """Corrupt lines mid-stream must charge their quarantine deltas
        to the same emissions whether decoded line-at-a-time or in
        chunks."""
        tolerate = ["--max-corrupt", "16"]
        reference = self._replay(
            corrupt_trace, tmp_path, "serial.ndjson", "--batch-lines", "1", *tolerate
        )
        batched = self._replay(
            corrupt_trace, tmp_path, "batched.ndjson", "--batch-lines", "64", *tolerate
        )
        assert batched == reference

    def test_deadletter_order_is_independent_of_batching(
        self, late_corrupt_trace, tmp_path
    ):
        """Corrupt and late quarantines land in the dead-letter file in
        stream order, so its bytes do not depend on ``--batch-lines``."""
        runs = {}
        for batch in ("1", "256"):
            deadletter = tmp_path / f"dlq{batch}.ndjson"
            landscape = self._replay(
                late_corrupt_trace, tmp_path, f"out{batch}.ndjson",
                "--batch-lines", batch, "--max-corrupt", "16",
                "--deadletter", str(deadletter),
            )
            runs[batch] = (landscape, deadletter.read_bytes())
        entries = [json.loads(line) for line in runs["1"][1].splitlines()]
        reasons = [entry["reason"] for entry in entries]
        assert reasons.count("corrupt") == 4 and reasons.count("late") >= 10
        # Interleaved, not grouped: a corrupt entry sits between late ones.
        assert "late" in reasons[: reasons.index("corrupt")]
        assert runs["256"][0] == runs["1"][0]
        assert runs["256"][1] == runs["1"][1]


class TestServe:
    def test_serve_no_follow_matches_replay(self, trace, tmp_path):
        replayed = tmp_path / "replayed.ndjson"
        served = tmp_path / "served.ndjson"
        assert main(["replay", str(trace), "--out", str(replayed)]) == 0
        assert (
            main(
                [
                    "serve",
                    "--input", str(trace),
                    "--no-follow",
                    "--out", str(served),
                    "--checkpoint", str(tmp_path / "ck.json"),
                    "--metrics-out", str(tmp_path / "metrics.prom"),
                    "--health-out", str(tmp_path / "health.json"),
                ]
            )
            == 0
        )
        assert served.read_bytes() == replayed.read_bytes()
        assert (tmp_path / "ck.json").exists()
        assert "botmeterd_records_ingested_total" in (
            tmp_path / "metrics.prom"
        ).read_text()
        health = json.loads((tmp_path / "health.json").read_text())
        assert health["schema"] == "botmeterd-health-v1"
        assert health["landscapes_emitted"] == 1

    def test_no_kernel_file_and_a_stray_one_changes_nothing(self, tmp_path):
        """The kernel memo lives in the process: a checkpointed serve
        writes no ``*.kernels.npz``, and resuming a mid-stream checkpoint
        next to one an older build left gives the golden bytes."""
        trace = GOLDEN / "new_goz_jitter.ndjson"
        golden = (GOLDEN / "new_goz_jitter.landscape.ndjson").read_bytes()
        out, checkpoint = tmp_path / "served.ndjson", tmp_path / "ck.json"
        argv = [
            "serve",
            "--input", str(trace),
            "--no-follow",
            "--out", str(out),
            "--checkpoint", str(checkpoint),
            "--checkpoint-every", "600",
        ]
        assert main(argv) == 0
        assert out.read_bytes() == golden
        assert not list(tmp_path.glob("*.kernels.npz"))
        # Roll back to the previous generation, saved mid-stream.
        previous = tmp_path / "ck.json.1"
        middle = json.loads(previous.read_text())
        assert (middle["records_consumed"], middle["landscapes_emitted"]) == (600, 0)
        os.replace(previous, checkpoint)
        (tmp_path / "ck.json.kernels.npz").write_bytes(b"PK\x03\x04 stale tables")
        assert main(argv) == 0
        assert out.read_bytes() == golden

    def test_follow_mode_idle_timeout_finalizes(self, trace, tmp_path):
        served = tmp_path / "served.ndjson"
        assert (
            main(
                [
                    "serve",
                    "--input", str(trace),
                    "--follow",
                    "--idle-timeout", "0.2",
                    "--poll-interval", "0.05",
                    "--out", str(served),
                ]
            )
            == 0
        )
        assert len(served.read_text().splitlines()) == 1

    @pytest.mark.parametrize("wire", ["ndjson", "v2"])
    def test_follow_mode_writes_deadletter_while_idle(self, trace, tmp_path, wire):
        """A corrupt line followed by an idle stream reaches the
        dead-letter file while the daemon waits, not only at shutdown."""
        source = tmp_path / "tail.ndjson"
        source.write_bytes(trace.read_bytes() + b"{not json\n")
        if wire == "v2":
            converted = tmp_path / "tail.v2"
            assert main(["convert-trace", str(source), "--out", str(converted)]) == 0
            source = converted
        deadletter = tmp_path / "dlq.ndjson"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--input", str(source),
                "--follow",
                "--idle-timeout", "60",
                "--poll-interval", "0.05",
                "--out", str(tmp_path / "served.ndjson"),
                "--deadletter", str(deadletter),
            ],
            env=env,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            entries = []
            while not entries and time.monotonic() < deadline:
                assert proc.poll() is None, "daemon exited before going idle"
                if deadletter.exists():
                    entries = deadletter.read_text().splitlines()
                time.sleep(0.05)
            assert proc.poll() is None
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert [json.loads(line)["reason"] for line in entries] == ["corrupt"]


class TestCrashRecovery:
    def test_sigkill_then_resume_is_byte_identical(self, trace, tmp_path):
        """Kill the daemon mid-stream with SIGKILL; the resumed run's
        combined output must equal an uninterrupted run's, byte for byte."""
        reference = tmp_path / "reference.ndjson"
        assert main(["replay", str(trace), "--out", str(reference)]) == 0

        out = tmp_path / "served.ndjson"
        checkpoint = tmp_path / "ck.json"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--input", str(trace),
            "--no-follow",
            "--out", str(out),
            "--checkpoint", str(checkpoint),
            "--checkpoint-every", "50",
        ]
        proc = subprocess.Popen(
            argv + ["--throttle", "0.002"],
            env=env,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not checkpoint.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, "daemon finished before the kill"
                time.sleep(0.05)
            assert checkpoint.exists(), "no checkpoint appeared within 60 s"
            time.sleep(0.2)  # let it get past the first checkpoint
            proc.kill()  # SIGKILL: no handlers, no cleanup
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        state = json.loads(checkpoint.read_text())
        assert 0 < state["records_consumed"]

        resumed = subprocess.run(argv, env=env, stderr=subprocess.DEVNULL)
        assert resumed.returncode == 0
        assert out.read_bytes() == reference.read_bytes()

        final = json.loads(checkpoint.read_text())
        assert final["landscapes_emitted"] == 1
