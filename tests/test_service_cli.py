"""End-to-end tests for the service CLI verbs: export-trace, replay,
serve — including the SIGKILL crash drill that enforces byte-identical
recovery."""

import json
import multiprocessing
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

    def test_deprecated_ingest_workers_runs_in_process(
        self, two_day_trace, tmp_path, capsys
    ):
        """``--ingest-workers N`` is still accepted for one release: it
        warns once on stderr, runs in-process and changes no byte."""
        reference = self._replay(
            two_day_trace, tmp_path, "serial.ndjson", "--batch-lines", "1"
        )
        capsys.readouterr()
        aliased = self._replay(
            two_day_trace, tmp_path, "aliased.ndjson", "--ingest-workers", "4"
        )
        stderr = capsys.readouterr().err.splitlines()
        assert len([line for line in stderr if "deprecated" in line]) == 1
        assert aliased == reference
        assert multiprocessing.active_children() == []


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
