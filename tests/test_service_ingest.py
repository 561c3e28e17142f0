"""botmeterd's one ingest loop: any read size, any batch framing, stdin.

``BotMeterDaemon.run`` reads every input the same way — ``read1``
chunks into the stream's decoder, each decoded run into one ingest
entry — so the landscape and dead-letter bytes, and the offsets the
daemon checkpoints at, must not depend on how the bytes arrive: not on
the read size, not on ``--batch-lines``, not on whether they come from
a file or a pipe.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.service import daemon as daemon_module
from repro.service.checkpoint import CheckpointStore
from repro.service.daemon import BotMeterDaemon
from repro.service.faults import FaultInjector
from repro.service.wire2 import Wire2BatchDecoder

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
CHECKPOINT_EVERY = 50


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """A thinned two-day murofet trace with garbage lines, ending in a
    record line without a newline, in NDJSON and as 64-record v2 frames."""
    root = tmp_path_factory.mktemp("ingest")
    clean = root / "clean.ndjson"
    assert (
        main(
            [
                "export-trace", "--source", "sim", "--family", "murofet",
                "--bots", "4", "--servers", "2", "--days", "2", "--seed", "9",
                "--out", str(clean),
            ]
        )
        == 0
    )
    header, *records = clean.read_bytes().splitlines()
    lines = [header]
    for index, record in enumerate(records[::4]):
        lines.append(record)
        if index % 50 == 17:
            lines.append(b"{not json")
        if index % 80 == 41:
            lines.append(b"[1, 2]")
    ndjson = root / "dirty.ndjson"
    ndjson.write_bytes(b"\n".join(lines))
    v2 = root / "dirty.v2"
    assert (
        main(["convert-trace", str(ndjson), "--out", str(v2), "--frame-records", "64"])
        == 0
    )
    return {"ndjson": ndjson, "v2": v2}


def _replay(trace: Path, workdir: Path, **kwargs) -> tuple[bytes, bytes, list]:
    """Landscape bytes, dead-letter bytes and the ``(input_offset,
    records_consumed)`` of every checkpoint of one in-process run."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out.ndjson"
    deadletter = workdir / "dlq.ndjson"
    saves = []
    real_save = CheckpointStore.save

    def save(store, state):
        saves.append((state["input_offset"], state["records_consumed"]))
        return real_save(store, state)

    daemon = BotMeterDaemon(
        trace,
        out_path=out,
        deadletter_path=deadletter,
        checkpoint_path=workdir / "ck.json",
        checkpoint_every=CHECKPOINT_EVERY,
        log_stream=io.StringIO(),
        trace_sample=0,
        **kwargs,
    )
    with mock.patch.object(CheckpointStore, "save", save):
        assert daemon.run() == 0
    return out.read_bytes(), deadletter.read_bytes(), saves


def _frame_ends(path: Path) -> set[int]:
    decoder = Wire2BatchDecoder()
    ends = set()
    for _event in decoder.iter_events(path.read_bytes()):
        ends.add(decoder.consumed)
    return ends


class TestCheckpointCadence:
    @pytest.mark.parametrize("wire", ["ndjson", "v2"])
    def test_same_offsets_at_every_batch_size(self, traces, tmp_path, wire):
        """NDJSON checkpoints every N records at a line boundary; v2 at
        the first frame boundary after N records — whatever the batch."""
        runs = {
            batch: _replay(traces[wire], tmp_path / str(batch), batch_lines=batch)
            for batch in (1, 4, 256)
        }
        assert runs[4] == runs[1]
        assert runs[256] == runs[1]
        _, deadletter, saves = runs[1]
        assert deadletter.count(b'"reason":"corrupt"') > 5
        *cadence, stream_end = saves
        assert len(cadence) > 10
        assert stream_end[0] == traces[wire].stat().st_size
        consumed = [records for _, records in cadence]
        steps = [b - a for a, b in zip([0] + consumed, consumed)]
        if wire == "ndjson":
            assert set(steps) == {CHECKPOINT_EVERY}
        else:
            assert all(0 <= step - CHECKPOINT_EVERY < 64 for step in steps)
            assert {offset for offset, _ in cadence} <= _frame_ends(traces[wire])

    def test_injected_follow_checkpoints_when_idle(self, traces, tmp_path):
        """With ``--faults`` the checkpoint waits for the next raw line;
        when a followed stream goes idle instead, it is taken there, so
        the records before the idle stretch are saved while the daemon
        waits rather than only when the stream ends."""
        header, *rest = traces["ndjson"].read_bytes().split(b"\n")
        records = [line for line in rest if line.startswith(b'{"')]
        trace = tmp_path / "followed.ndjson"
        kept = [header, *records[: 2 * CHECKPOINT_EVERY]]
        trace.write_bytes(b"\n".join(kept) + b"\n")
        saves = []
        real_save = CheckpointStore.save

        def save(store, state):
            saves.append((state["input_offset"], daemon.engine.finalized))
            return real_save(store, state)

        daemon = BotMeterDaemon(
            trace,
            out_path=tmp_path / "out.ndjson",
            checkpoint_path=tmp_path / "ck.json",
            checkpoint_every=CHECKPOINT_EVERY,
            follow=True,
            idle_timeout=0.3,
            poll_interval=0.01,
            fault_injector=FaultInjector("seed=3"),
            log_stream=io.StringIO(),
            trace_sample=0,
        )
        with mock.patch.object(CheckpointStore, "save", save):
            assert daemon.run() == 0
        end = trace.stat().st_size
        assert saves[-2:] == [(end, False), (end, True)]


@pytest.fixture(scope="module")
def reference(traces, tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    return {wire: _replay(path, root / wire) for wire, path in traces.items()}


class TestAnyReadSize:
    def test_ndjson_and_v2_agree(self, reference):
        assert reference["v2"][:2] == reference["ndjson"][:2]

    @settings(max_examples=12, deadline=None)
    @given(
        read_size=st.integers(1, 4096),
        wire=st.sampled_from(["ndjson", "v2"]),
        batch=st.sampled_from([1, 7, 256]),
    )
    def test_any_read_size_gives_the_same_bytes(
        self, traces, reference, tmp_path_factory, read_size, wire, batch
    ):
        """Landscape, dead-letter and checkpoint offsets equal the
        default read size's, for any read size and batch framing."""
        workdir = tmp_path_factory.mktemp("read")
        with mock.patch.object(daemon_module, "READ_SIZE", read_size):
            got = _replay(traces[wire], workdir, batch_lines=batch)
        assert got == reference[wire]


class TestStdin:
    @staticmethod
    def _serve_stdin(data: bytes, workdir: Path, *extra: str) -> tuple[bytes, bytes]:
        """Pipe ``data`` into ``serve --input -`` in uneven writes that
        split records mid-line."""
        workdir.mkdir()
        out = workdir / "out.ndjson"
        deadletter = workdir / "dlq.ndjson"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--input", "-",
                "--idle-timeout", "0.5", "--poll-interval", "0.05",
                "--deadletter", str(deadletter), "--out", str(out), *extra,
            ],
            stdin=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
        )
        sizes = (37, 1000, 5, 4096, 129, 1)
        position = 0
        for step in range(len(data)):
            if position >= len(data):
                break
            size = sizes[step % len(sizes)]
            proc.stdin.write(data[position : position + size])
            proc.stdin.flush()
            position += size
        proc.stdin.close()
        assert proc.wait(timeout=120) == 0
        return out.read_bytes(), deadletter.read_bytes()

    @pytest.mark.parametrize("d3", [None, "lexical"])
    def test_piped_stream_equals_file_replay(self, traces, tmp_path, d3):
        extra = ("--d3", d3) if d3 else ()
        trace = traces["ndjson"]
        assert not trace.read_bytes().endswith(b"\n")
        file_out = tmp_path / "file.ndjson"
        file_dlq = tmp_path / "file.dlq.ndjson"
        assert (
            main(
                [
                    "replay", str(trace), "--out", str(file_out),
                    "--deadletter", str(file_dlq), *extra,
                ]
            )
            == 0
        )
        piped = self._serve_stdin(trace.read_bytes(), tmp_path / "stdin", *extra)
        assert piped == (file_out.read_bytes(), file_dlq.read_bytes())
        rows = [json.loads(line) for line in piped[0].splitlines()]
        assert [row["epoch"] for row in rows] == [0, 1]


class TestStreamEndCheckpoint:
    def _serve_follow(self, trace: Path, workdir: Path) -> list[str]:
        return [
            "serve", "--input", str(trace), "--follow", "--idle-timeout", "0.2",
            "--poll-interval", "0.05", "--checkpoint", str(workdir / "ck.json"),
            "--out", str(workdir / "out.ndjson"),
        ]

    def test_filtered_last_line_keeps_dead_letter_order(self, traces, tmp_path):
        """A newline-less last line the line filter expands into a late
        record and a corrupt line is ingested record by record, exactly
        like the same line with a newline: the late entry precedes the
        corrupt one either way."""
        first = traces["ndjson"].read_bytes().split(b"\n")[1]

        class Expand:
            """Follows every copy of the first record with garbage."""

            def feed(self, line: str) -> list[str]:
                return [line, "{garbage"] if line.encode() == first else [line]

            def flush(self) -> list[str]:
                return []

            def export_state(self) -> dict:
                return {}

        bare = tmp_path / "bare.ndjson"
        bare.write_bytes(traces["ndjson"].read_bytes() + b"\n" + first)
        ended = tmp_path / "ended.ndjson"
        ended.write_bytes(bare.read_bytes() + b"\n")
        # A small reorder buffer closes epoch 0 mid-stream, so the
        # repeated first record arrives late.
        runs = [
            _replay(
                path, tmp_path / path.stem, fault_injector=Expand(), reorder_capacity=16
            )[:2]
            for path in (bare, ended)
        ]
        assert runs[0] == runs[1]
        tail = [json.loads(line)["reason"] for line in runs[0][1].splitlines()[-2:]]
        assert tail == ["late", "corrupt"]

    def test_offset_stops_at_the_last_consumed_byte(self, traces, tmp_path):
        """A newline-less tail that is not yet a record stays unconsumed:
        the stream-end checkpoint's offset stops before it."""
        complete = traces["ndjson"].read_bytes().rsplit(b"\n", 1)[0] + b"\n"
        trace = tmp_path / "growing.ndjson"
        trace.write_bytes(complete + b'{"timestamp": 1')
        assert main(self._serve_follow(trace, tmp_path)) == 0
        state = json.loads((tmp_path / "ck.json").read_text())
        assert state["input_offset"] == len(complete)
        assert state["reader"]["truncated_tail"] == 1

    @pytest.mark.parametrize("supervise", [[], ["--supervise"]])
    def test_resuming_a_finalized_checkpoint_with_more_input_fails_cleanly(
        self, traces, tmp_path, capsys, supervise
    ):
        """No traceback, and no supervised restart either: a restart
        would resume the same checkpoint."""
        lines = traces["ndjson"].read_bytes().split(b"\n")
        trace = tmp_path / "growing.ndjson"
        trace.write_bytes(b"\n".join(lines[: len(lines) // 2]) + b"\n")
        assert main(self._serve_follow(trace, tmp_path)) == 0
        capsys.readouterr()
        with open(trace, "ab") as fh:
            fh.write(b"\n".join(lines[len(lines) // 2 :]) + b"\n")
        assert main(self._serve_follow(trace, tmp_path) + supervise) == 1
        # Everything else on stderr is the daemon's JSON event log.
        err = capsys.readouterr().err.splitlines()
        plain = [line for line in err if not line.startswith("{")]
        assert len(plain) == 1
        assert plain[0].startswith("serve: ") and "end of the stream" in plain[0]
