"""Durable daemon state: atomic JSON checkpoints with one spare generation.

A checkpoint is one JSON document — schema-tagged, carrying the input
byte offset, the emitted-landscape count, the engine snapshot and the
metric values.  Subsystems that own extra durable state ride the same
document through ``BotMeterDaemon.extra_checkpoint_state``: the network
ingest tier adds ``sensors`` (the per-sensor released-line cursor map —
the resume points it acks to connected sensors) and ``net_header`` (the
trace header that arrived over the wire, so engine configuration
survives a restart whose sensors resume past their header lines).  Writes are atomic (write to a sibling temp file, flush,
fsync, :func:`os.replace`), so a crash mid-write leaves the previous
checkpoint intact and a resumed daemon never sees a torn file.

Atomicity protects against *our* crashes; it cannot protect against a
filesystem that lies (power loss after ``os.replace`` but before the
directory entry hits the platter leaves a torn or empty file).  The
store therefore keeps the **last two generations**: every save writes
the new generation to a temp file, copies the current checkpoint to a
``.1`` sibling, and only then renames the new one into place (so
``path`` is never missing); :meth:`~CheckpointStore.load` falls back to
that previous generation when the newest one is torn or empty.  A checkpoint with a *foreign schema* is
never silently skipped — that is a configuration error, not corruption,
and it still raises.

Sidecar files registered via :meth:`CheckpointStore.register_sidecar`
(the estimator-kernel ``.npz`` cache) rotate in lockstep: every save
snapshots the current sidecar next to the rotated ``.1`` checkpoint, and
a load that falls back to the previous generation promotes that
snapshot — a generation rollback never resumes an old checkpoint
against a newer, mismatched sidecar.

Rotation is **mmap-safe** by the same replace-never-mutate discipline
that makes it atomic: engine processes serve warm kernel tables straight
off a read-only mmap of the sidecar (:mod:`repro.core.kernels`), and
every rotation step here is a hardlink, a copy-to-temp, or an
``os.replace`` — the mapped *inode* is never written through, so a
rotation (or rollback promotion) under a live daemon leaves existing
mappings pointing at consistent old-generation bytes until their last
view drops.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["CHECKPOINT_SCHEMA", "CheckpointError", "CheckpointStore"]

CHECKPOINT_SCHEMA = "botmeterd-checkpoint-v1"


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be trusted."""


class CheckpointStore:
    """Load/save a checkpoint with write-rename atomicity and rotation."""

    def __init__(
        self,
        path: str | Path,
        sidecars: Iterable[str] = (),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path)
        self._sidecars: list[str] = list(sidecars)
        self._clock = clock
        self._last_good: float | None = None

    @property
    def previous_path(self) -> Path:
        """The rotated previous-generation sibling (``<name>.1``)."""
        return self.path.with_name(self.path.name + ".1")

    def sidecar_path(self, suffix: str) -> Path:
        """A sibling file that travels with the checkpoint (e.g. the
        estimator-kernel cache ``<name>.kernels.npz``)."""
        return self.path.with_name(self.path.name + "." + suffix)

    def previous_sidecar_path(self, suffix: str) -> Path:
        """The previous-generation snapshot of a sidecar
        (``<name>.1.<suffix>``, rotated in lockstep with ``<name>.1``)."""
        return self.previous_path.with_name(self.previous_path.name + "." + suffix)

    def register_sidecar(self, suffix: str) -> Path:
        """Declare a sidecar that must rotate with the checkpoint.

        Registered sidecars are snapshotted to their previous-generation
        name on every :meth:`save` rotation and promoted back whenever
        :meth:`load` falls back to the previous generation — so a
        generation rollback never pairs an old checkpoint with a newer
        (stale) sidecar.  Returns the current-generation sidecar path.
        """
        if suffix not in self._sidecars:
            self._sidecars.append(suffix)
        return self.sidecar_path(suffix)

    def _rotate_sidecars(self) -> None:
        """Snapshot each registered sidecar alongside the rotated
        checkpoint (hardlink when possible — the writers replace, never
        mutate in place — falling back to a copy)."""
        for suffix in self._sidecars:
            current = self.sidecar_path(suffix)
            previous = self.previous_sidecar_path(suffix)
            if previous.exists():
                previous.unlink()
            if current.exists():
                try:
                    os.link(current, previous)
                except OSError:
                    shutil.copyfile(current, previous)

    def _promote_sidecars(self) -> None:
        """Make the sidecars match the previous generation we just
        fell back to: bring its snapshots forward, drop stale current
        sidecars that have no previous-generation counterpart."""
        for suffix in self._sidecars:
            current = self.sidecar_path(suffix)
            previous = self.previous_sidecar_path(suffix)
            if previous.exists():
                tmp = current.with_name(current.name + f".tmp.{os.getpid()}")
                shutil.copyfile(previous, tmp)
                os.replace(tmp, current)
            elif current.exists():
                current.unlink()

    def exists(self) -> bool:
        return self.path.exists() or self.previous_path.exists()

    def save(self, state: dict[str, Any]) -> None:
        """Atomically replace the checkpoint with ``state``.

        The new generation is written and fsynced first; only then is
        the outgoing checkpoint copied to :attr:`previous_path` (a
        hardlink swapped in with :func:`os.replace`) and the new one
        renamed over :attr:`path`.  ``path`` therefore names a complete
        checkpoint at every instant — a kill anywhere in ``save`` leaves
        either the old generation or the new one there, never nothing.
        """
        document = {"schema": CHECKPOINT_SCHEMA, **state}
        tmp = self.path.with_name(self.path.name + f".tmp.{os.getpid()}")
        payload = json.dumps(document, sort_keys=True)
        try:
            with open(tmp, "w") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            if self.path.exists():
                self._rotate_previous()
                self._rotate_sidecars()
            os.replace(tmp, self.path)
        finally:
            if tmp.exists():
                tmp.unlink()
        self._last_good = self._clock()

    def _rotate_previous(self) -> None:
        """Copy the current checkpoint to :attr:`previous_path` without
        ever unlinking ``path`` (hardlink when possible, else a copy)."""
        previous = self.previous_path
        prev_tmp = previous.with_name(previous.name + f".tmp.{os.getpid()}")
        try:
            if prev_tmp.exists():
                prev_tmp.unlink()
            try:
                os.link(self.path, prev_tmp)
            except OSError:
                shutil.copyfile(self.path, prev_tmp)
            os.replace(prev_tmp, previous)
        finally:
            if prev_tmp.exists():
                prev_tmp.unlink()

    def last_good_generation(self) -> float | None:
        """Age in seconds of the newest trustworthy generation this store
        has written or successfully loaded, on the injected monotonic
        clock; ``None`` before any good generation was seen.

        The partition heartbeat writer and the cluster lag detector both
        read this, so "how stale is this partition's durable state" has
        exactly one definition — a checkpoint that failed to save, or a
        load that had to reject every generation, never refreshes it.
        """
        if self._last_good is None:
            return None
        return self._clock() - self._last_good

    def _read(self, path: Path) -> dict[str, Any]:
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            error = CheckpointError(f"unreadable checkpoint {path}: {exc}")
            error.torn = True
            raise error from exc
        if not isinstance(document, dict) or document.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {path} has schema "
                f"{document.get('schema') if isinstance(document, dict) else None!r}; "
                f"expected {CHECKPOINT_SCHEMA!r}"
            )
        return document

    def load(self) -> dict[str, Any] | None:
        """The newest trustworthy checkpoint, or ``None`` if none exists.

        A torn or empty newest generation falls back to the previous
        one; a *foreign schema* raises either way (misconfiguration is
        not recoverable by rotation).

        Raises:
            CheckpointError: on a foreign schema, or when every
                generation on disk is unreadable.
        """
        if not self.path.exists():
            if self.previous_path.exists():
                document = self._read(self.previous_path)
                self._promote_sidecars()
                self._last_good = self._clock()
                return document
            return None
        try:
            document = self._read(self.path)
        except CheckpointError as exc:
            if not getattr(exc, "torn", False):
                raise  # foreign schema: never silently skipped
            if not self.previous_path.exists():
                raise
            document = self._read(self.previous_path)
            document["recovered_from_previous_generation"] = True
            self._promote_sidecars()
        self._last_good = self._clock()
        return document
