"""Tests for atomic checkpoints and exact crash recovery.

Recovery contract: a daemon killed at any submit boundary and resumed
from its last checkpoint produces the same landscape series, byte for
byte, as one that never died.
"""

import json
import os

import pytest

from repro.service import checkpoint as checkpoint_mod
from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointStore,
)
from repro.service.daemon import batch_series
from repro.service.engine import ShardedLandscapeEngine
from repro.service.wire import encode_landscape


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save({"input_offset": 42, "nested": {"a": [1, 2]}})
        loaded = store.load()
        assert loaded["schema"] == CHECKPOINT_SCHEMA
        assert loaded["input_offset"] == 42
        assert loaded["nested"] == {"a": [1, 2]}

    def test_missing_file_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "absent.json").load() is None

    def test_save_replaces_atomically(self, tmp_path):
        path = tmp_path / "ck.json"
        store = CheckpointStore(path)
        store.save({"n": 1})
        store.save({"n": 2})
        assert store.load()["n"] == 2
        # No temp files left behind — just the two newest generations.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ck.json",
            "ck.json.1",
        ]

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{torn mid-write")
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load()

    def test_foreign_schema_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"schema": "somebody-else-v9"}))
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load()

    def test_non_object_document_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load()

    def test_keeps_exactly_two_generations(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        for n in range(5):
            store.save({"n": n})
        assert store.load()["n"] == 4
        assert json.loads(store.previous_path.read_text())["n"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ck.json",
            "ck.json.1",
        ]

    def test_kill_before_final_rename_keeps_previous_generation(
        self, tmp_path, monkeypatch
    ):
        """The new generation is renamed into place last: a crash just
        before that rename (here, the rename itself failing) leaves the
        previous checkpoint at ``path``, never a missing file."""
        path = tmp_path / "ck.json"
        store = CheckpointStore(path)
        store.save({"n": 1})
        real_replace = os.replace

        def failing_replace(src, dst):
            if os.fspath(dst) == os.fspath(path):
                raise OSError("killed before the final rename")
            return real_replace(src, dst)

        monkeypatch.setattr(checkpoint_mod.os, "replace", failing_replace)
        with pytest.raises(OSError):
            store.save({"n": 2})
        monkeypatch.setattr(checkpoint_mod.os, "replace", real_replace)
        assert json.loads(path.read_text())["n"] == 1
        assert store.load()["n"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ck.json",
            "ck.json.1",
        ]

    def test_torn_main_falls_back_to_previous_generation(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save({"n": 1})
        store.save({"n": 2})
        store.path.write_text("{torn mid-wr")  # power loss after replace
        loaded = store.load()
        assert loaded["n"] == 1
        assert loaded["recovered_from_previous_generation"] is True

    def test_empty_main_falls_back_to_previous_generation(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save({"n": 7})
        store.save({"n": 8})
        store.path.write_text("")
        assert store.load()["n"] == 7

    def test_torn_main_without_previous_still_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("")
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load()

    def test_foreign_schema_never_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save({"n": 1})
        store.save({"n": 2})
        store.path.write_text(json.dumps({"schema": "somebody-else-v9"}))
        with pytest.raises(CheckpointError):
            store.load()

    def test_main_missing_loads_previous_generation(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save({"n": 1})
        store.save({"n": 2})
        store.path.unlink()  # crash between rotation and the new write
        assert store.exists()
        assert store.load()["n"] == 1

    def test_torn_previous_generation_raises_when_main_torn(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.path.write_text("{torn")
        store.previous_path.write_text("{also torn")
        with pytest.raises(CheckpointError):
            store.load()


class TestSidecarRotation:
    """Registered sidecars (the estimator-kernel ``.npz`` cache) must
    rotate, promote and clean in lockstep with the two checkpoint
    generations — a rollback never pairs an old checkpoint with a newer
    sidecar, and no extra generations accumulate."""

    def _store(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        sidecar = store.register_sidecar("kernels.npz")
        return store, sidecar

    @staticmethod
    def _write(sidecar, payload):
        """Write like the real sidecar owners do: replace, never mutate
        in place (the rotation snapshot may be a hardlink)."""
        import os

        tmp = sidecar.with_name(sidecar.name + ".tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, sidecar)

    def test_save_snapshots_sidecar_with_rotated_generation(self, tmp_path):
        store, sidecar = self._store(tmp_path)
        store.save({"n": 1})
        self._write(sidecar, b"gen-1")
        store.save({"n": 2})
        assert store.previous_sidecar_path("kernels.npz").read_bytes() == b"gen-1"
        self._write(sidecar, b"gen-2")
        store.save({"n": 3})
        assert store.previous_sidecar_path("kernels.npz").read_bytes() == b"gen-2"
        assert sidecar.read_bytes() == b"gen-2"

    def test_exactly_two_sidecar_generations_on_disk(self, tmp_path):
        store, sidecar = self._store(tmp_path)
        for n in range(5):
            store.save({"n": n})
            self._write(sidecar, f"gen-{n}".encode())
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ck.json",
            "ck.json.1",
            "ck.json.1.kernels.npz",
            "ck.json.kernels.npz",
        ]
        assert sidecar.read_bytes() == b"gen-4"
        assert store.previous_sidecar_path("kernels.npz").read_bytes() == b"gen-3"

    def test_fallback_load_promotes_matching_sidecar(self, tmp_path):
        store, sidecar = self._store(tmp_path)
        store.save({"n": 1})
        self._write(sidecar, b"gen-1")
        store.save({"n": 2})
        self._write(sidecar, b"gen-2")  # belongs to the torn newest gen
        store.path.write_text("{torn mid-wr")
        loaded = store.load()
        assert loaded["n"] == 1
        assert loaded["recovered_from_previous_generation"] is True
        # The sidecar rolled back with the checkpoint.
        assert sidecar.read_bytes() == b"gen-1"

    def test_missing_main_promotes_sidecar_too(self, tmp_path):
        store, sidecar = self._store(tmp_path)
        store.save({"n": 1})
        self._write(sidecar, b"gen-1")
        store.save({"n": 2})
        self._write(sidecar, b"gen-2")
        store.path.unlink()  # crash between rotation and the new write
        assert store.load()["n"] == 1
        assert sidecar.read_bytes() == b"gen-1"

    def test_fallback_drops_stale_sidecar_without_snapshot(self, tmp_path):
        store, sidecar = self._store(tmp_path)
        store.save({"n": 1})  # no sidecar existed at rotation time
        store.save({"n": 2})
        self._write(sidecar, b"too-new")  # written after the last save
        store.path.write_text("{torn")
        assert store.load()["n"] == 1
        # No gen-1 snapshot exists, so the too-new sidecar must not
        # survive the rollback.
        assert not sidecar.exists()

    def test_missing_sidecar_never_blocks_save_or_load(self, tmp_path):
        store, sidecar = self._store(tmp_path)
        store.save({"n": 1})
        store.save({"n": 2})
        assert not sidecar.exists()
        assert not store.previous_sidecar_path("kernels.npz").exists()
        assert store.load()["n"] == 2

    def test_constructor_sidecars_param_registers(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json", sidecars=["kernels.npz"])
        sidecar = store.sidecar_path("kernels.npz")
        store.save({"n": 1})
        self._write(sidecar, b"a")
        store.save({"n": 2})
        assert store.previous_sidecar_path("kernels.npz").read_bytes() == b"a"


def run_engine(run, records, cut=None):
    """Stream `records`; if `cut` is set, checkpoint there through real
    JSON and continue on a fresh engine — returning the combined series."""
    dgas = {"new_goz": run.dga}
    engine = ShardedLandscapeEngine(dgas, timeline=run.timeline)
    out = []
    for record in records if cut is None else records[:cut]:
        out.extend(engine.submit(record))
    if cut is None:
        out.extend(engine.finalize())
        return out
    state = json.loads(json.dumps(engine.export_state()))
    resumed = ShardedLandscapeEngine(dgas, timeline=run.timeline)
    resumed.import_state(state)
    for record in records[cut:]:
        out.extend(resumed.submit(record))
    out.extend(resumed.finalize())
    return out


class TestEngineRecovery:
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_resume_equals_uninterrupted(self, multiserver_run, fraction):
        records = list(multiserver_run.observable)
        uninterrupted = run_engine(multiserver_run, records)
        resumed = run_engine(multiserver_run, records, cut=int(len(records) * fraction))
        assert [
            encode_landscape(e.family, e.day_index, e.landscape) for e in resumed
        ] == [
            encode_landscape(e.family, e.day_index, e.landscape)
            for e in uninterrupted
        ]

    def test_resume_matches_batch_reference(self, multiserver_run):
        records = list(multiserver_run.observable)
        resumed = run_engine(multiserver_run, records, cut=len(records) // 3)
        reference = batch_series(
            records, {"new_goz": multiserver_run.dga}, timeline=multiserver_run.timeline
        )
        assert [
            encode_landscape(e.family, e.day_index, e.landscape) for e in resumed
        ] == [
            encode_landscape(e.family, e.day_index, e.landscape)
            for e in reference
        ]

    def test_import_rejects_foreign_schema(self, multiserver_run):
        engine = ShardedLandscapeEngine(
            {"new_goz": multiserver_run.dga}, timeline=multiserver_run.timeline
        )
        with pytest.raises(ValueError):
            engine.import_state({"schema": "nope"})

    def test_import_rejects_family_mismatch(self, multiserver_run):
        engine = ShardedLandscapeEngine(
            {"new_goz": multiserver_run.dga}, timeline=multiserver_run.timeline
        )
        state = engine.export_state()
        state["families"] = ["murofet"]
        fresh = ShardedLandscapeEngine(
            {"new_goz": multiserver_run.dga}, timeline=multiserver_run.timeline
        )
        with pytest.raises(ValueError):
            fresh.import_state(state)

    def test_export_state_is_json_clean(self, multiserver_run):
        """Fresh engines (watermark -inf) must still serialise."""
        engine = ShardedLandscapeEngine(
            {"new_goz": multiserver_run.dga}, timeline=multiserver_run.timeline
        )
        state = json.loads(json.dumps(engine.export_state()))
        assert state["watermark"] is None
        assert state["shards"] == []
