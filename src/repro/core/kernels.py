"""Shared estimator-kernel cache (§IV-D hot tables).

Every ``(family × server)`` shard of the sharded engine runs the same
Bernoulli machinery over the same family parameters, so the expensive
Theorem-1 ingredients — :func:`~repro.core.combinatorics.log_occupancy_table`,
:func:`~repro.core.combinatorics.log_gap_subset_table`,
:func:`~repro.core.combinatorics.barrel_consumption_pmf` and the composed
:func:`~repro.core.combinatorics.segment_validity_curve` — are recomputed
with identical arguments over and over.  :class:`KernelCache` memoises
them process-locally and can spill to / warm from an ``.npz`` sidecar
next to the daemon's checkpoint, so a restarted daemon (or a fresh
cluster partition) process skips the warm-up.

Exactness is non-negotiable: the streamed series must stay byte-identical
to the uncached engine, so the cache only ever returns bit-exact values.

* The occupancy table's log recurrence computes entry ``(n, m)`` from
  entries with smaller indices only, independent of the table extents —
  so a larger cached table can be *sliced* to serve a smaller request
  bit-exactly.  Requests grow the stored table to the running maximum
  extent.
* The gap-subset table uses peak-rescaling (values depend on the extent
  through the renormalisation points), and the validity curve inherits
  that — both are cached under their **exact** argument tuple only.

All returned arrays are read-only views; callers that need to mutate
must copy.  The cache is process-local and not thread-safe — each
daemon or cluster partition process has its own instance.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import struct
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Any

import numpy as np
from numpy.lib import format as _npy_format

__all__ = ["KERNEL_CACHE_SCHEMA", "KernelCache", "shared_cache", "reset_shared_cache"]

KERNEL_CACHE_SCHEMA = "botmeter-kernels-v1"

#: Per-kind LRU capacity; generous for any realistic family mix while
#: bounding memory in adversarial workloads.
_MAX_ENTRIES = 512


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: Zip local-file-header layout: signature, then name/extra lengths at
#: +26/+28 — what it takes to find a STORED member's data offset.
_ZIP_LOCAL_MAGIC = b"PK\x03\x04"
_ZIP_LOCAL_LEN = struct.Struct("<HH")  # (name_len, extra_len) at offset 26


def _map_sidecar(path: Path) -> dict[str, np.ndarray] | None:
    """Zero-copy view of an uncompressed ``.npz``: every member array
    served from ONE shared read-only ``mmap`` of the file.

    ``np.load(mmap_mode=...)`` silently copies for ``.npz`` archives, so
    this walks the zip itself: the central directory gives each member's
    local-header offset; the local header (30 bytes + name + extra)
    gives the ``.npy`` data offset; the ``.npy`` header gives dtype and
    shape; ``np.frombuffer`` over the mmap does the rest.  Cluster
    partitions that map the same sidecar share the physical pages —
    warm kernel tables cost zero copies per process.

    Returns ``None`` whenever the file is not cleanly mappable (a
    compressed legacy sidecar, a pickled member, Fortran order, a torn
    header …) — the caller falls back to the copying loader.  The mmap
    stays alive exactly as long as any returned array does (each holds
    it as its buffer base), so a later ``os.replace`` of the sidecar
    path never invalidates served views.
    """
    try:
        with open(path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
            arrays: dict[str, np.ndarray] = {}
            for info in members:
                if info.compress_type != zipfile.ZIP_STORED:
                    return None
                header_offset = info.header_offset
                if mapped[header_offset : header_offset + 4] != _ZIP_LOCAL_MAGIC:
                    return None
                name_len, extra_len = _ZIP_LOCAL_LEN.unpack_from(
                    mapped, header_offset + 26
                )
                data_offset = header_offset + 30 + name_len + extra_len
                head = io.BytesIO(
                    mapped[data_offset : data_offset + min(info.file_size, 4096)]
                )
                version = _npy_format.read_magic(head)
                if version == (1, 0):
                    shape, fortran, dtype = _npy_format.read_array_header_1_0(head)
                elif version == (2, 0):
                    shape, fortran, dtype = _npy_format.read_array_header_2_0(head)
                else:
                    return None
                if fortran or dtype.hasobject:
                    return None
                count = 1
                for dim in shape:
                    count *= int(dim)
                array = np.frombuffer(
                    mapped, dtype=dtype, count=count, offset=data_offset + head.tell()
                ).reshape(shape)
                name = info.filename
                arrays[name[:-4] if name.endswith(".npy") else name] = array
            return arrays
    except (OSError, ValueError, KeyError, struct.error, zipfile.BadZipFile):
        return None


class KernelCache:
    """Memoised estimator kernels with optional ``.npz`` persistence.

    Four kinds of entries, keyed as in :mod:`repro.core.combinatorics`:

    * ``occ``  — ``log_occupancy_table(n_boxes, n_max, m_max)``, stored
      per ``n_boxes`` at the largest extents requested so far (slice-safe);
    * ``gap``  — ``log_gap_subset_table(max_last, m_max, gap)``, exact key;
    * ``pmf``  — ``barrel_consumption_pmf(θ∃, θ∅, θq)``, exact key;
    * ``seg``  — ``segment_validity_curve(len, θq, n_max, boundary)``,
      exact key, value ``(slots, curve)``.
    """

    def __init__(self, max_entries: int = _MAX_ENTRIES) -> None:
        self.max_entries = max(1, int(max_entries))
        # n_boxes -> (n_max, m_max, table)
        self._occ: OrderedDict[int, tuple[int, int, np.ndarray]] = OrderedDict()
        self._gap: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()
        self._pmf: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()
        self._seg: OrderedDict[tuple[int, int, int, bool], tuple[int, np.ndarray]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self._dirty = False

    # -- bookkeeping ---------------------------------------------------------

    def _touch(self, store: OrderedDict, key: Any) -> None:
        store.move_to_end(key)
        self.hits += 1

    def _admit(self, store: OrderedDict, key: Any, value: Any) -> None:
        store[key] = value
        store.move_to_end(key)
        while len(store) > self.max_entries:
            store.popitem(last=False)
        self.misses += 1
        self._dirty = True

    @property
    def dirty(self) -> bool:
        """Entries were added since the last :meth:`save`."""
        return self._dirty

    def __len__(self) -> int:
        return len(self._occ) + len(self._gap) + len(self._pmf) + len(self._seg)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        self._occ.clear()
        self._gap.clear()
        self._pmf.clear()
        self._seg.clear()
        self.hits = 0
        self.misses = 0
        self._dirty = False

    # -- kernels -------------------------------------------------------------

    def occupancy(self, n_boxes: int, n_max: int, m_max: int) -> np.ndarray:
        """``log_occupancy_table``, served from the per-``n_boxes`` superset.

        The recurrence is extent-independent, so slicing a larger stored
        table yields bit-exactly the array a direct call would build.
        """
        from . import combinatorics as _comb

        stored = self._occ.get(n_boxes)
        if stored is not None:
            stored_n, stored_m, table = stored
            if n_max <= stored_n and m_max <= stored_m:
                self._touch(self._occ, n_boxes)
                return table[: n_max + 1, : m_max + 1]
            n_max, m_max = max(n_max, stored_n), max(m_max, stored_m)
        table = _readonly(_comb._log_occupancy_table_impl(n_boxes, n_max, m_max))
        self._admit(self._occ, n_boxes, (n_max, m_max, table))
        return table

    def gap_subsets(self, max_last: int, m_max: int, gap: int) -> np.ndarray:
        """``log_gap_subset_table`` under its exact key (the peak-rescaled
        recurrence makes values extent-dependent, so no slicing)."""
        from . import combinatorics as _comb

        key = (max_last, m_max, gap)
        cached = self._gap.get(key)
        if cached is not None:
            self._touch(self._gap, key)
            return cached
        table = _readonly(_comb._log_gap_subset_table_impl(max_last, m_max, gap))
        self._admit(self._gap, key, table)
        return table

    def barrel_pmf(self, n_registered: int, n_nxd: int, barrel_size: int) -> np.ndarray:
        """``barrel_consumption_pmf`` under its exact key."""
        from . import combinatorics as _comb

        key = (n_registered, n_nxd, barrel_size)
        cached = self._pmf.get(key)
        if cached is not None:
            self._touch(self._pmf, key)
            return cached
        pmf = _readonly(_comb._barrel_consumption_pmf_impl(n_registered, n_nxd, barrel_size))
        self._admit(self._pmf, key, pmf)
        return pmf

    def segment_curve(
        self, observed_len: int, gap: int, n_max: int, ends_at_boundary: bool
    ) -> tuple[int, np.ndarray]:
        """``segment_validity_curve`` under its exact key."""
        from . import combinatorics as _comb

        key = (observed_len, gap, n_max, bool(ends_at_boundary))
        cached = self._seg.get(key)
        if cached is not None:
            self._touch(self._seg, key)
            return cached
        slots, curve = _comb._segment_validity_curve_impl(
            observed_len, gap, n_max, ends_at_boundary
        )
        value = (slots, _readonly(curve))
        self._admit(self._seg, key, value)
        return value

    def warm_family(self, params: Any) -> None:
        """Precompute the per-family constants every shard shares.

        ``params`` is a :class:`~repro.dga.base.DgaParams`-shaped object
        (``n_registered`` / ``n_nxd`` / ``barrel_size``).  Called once per
        family at engine construction, so the second
        same-family estimator build starts from a warm cache.
        """
        self.barrel_pmf(params.n_registered, params.n_nxd, params.barrel_size)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Atomically persist every entry to an ``.npz`` sidecar."""
        path = Path(path)
        arrays: dict[str, np.ndarray] = {}
        meta: dict[str, Any] = {"schema": KERNEL_CACHE_SCHEMA, "seg_slots": {}}
        for n_boxes, (n_max, m_max, table) in self._occ.items():
            arrays[f"occ|{n_boxes}|{n_max}|{m_max}"] = table
        for (max_last, m_max, gap), table in self._gap.items():
            arrays[f"gap|{max_last}|{m_max}|{gap}"] = table
        for (n_reg, n_nxd, barrel), pmf in self._pmf.items():
            arrays[f"pmf|{n_reg}|{n_nxd}|{barrel}"] = pmf
        for (length, gap, n_max, boundary), (slots, curve) in self._seg.items():
            name = f"seg|{length}|{gap}|{n_max}|{int(boundary)}"
            arrays[name] = curve
            meta["seg_slots"][name] = slots
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                # Uncompressed (ZIP_STORED) on purpose: it is what lets
                # `load` serve the arrays straight off one shared mmap.
                # A torn mapping is impossible: readers map the *old*
                # inode until os.replace swaps the name, and their mmap
                # keeps that inode alive until the last view drops.
                np.savez(fh, **arrays)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        self._dirty = False

    def load(self, path: str | Path) -> int:
        """Merge a :meth:`save`d sidecar; returns entries added.

        A sidecar :meth:`save`d by this module is served **zero-copy**:
        one shared read-only mmap of the file backs every warmed table
        (see :func:`_map_sidecar`), so N cluster partitions warming
        from the same path share one set of physical pages instead of N
        heap copies.  Mutation never writes
        through a mapping — the cache's only "mutation" is growing an
        occupancy table past its stored extents, which *replaces* the
        entry with a freshly computed private array (copy-on-write by
        promotion) and leaves the segment untouched for its other
        readers.  Legacy compressed (or otherwise unmappable) sidecars
        fall back to the copying loader.

        Tolerant by design: a missing, torn or foreign file warms
        nothing (the kernels are recomputed deterministically), it never
        fails the daemon.  Existing in-memory entries win — by
        construction both sides hold bit-identical values.
        """
        path = Path(path)
        if not path.exists():
            return 0
        data = _map_sidecar(path)
        if data is not None:
            try:
                return self._merge(data)
            except (ValueError, KeyError, json.JSONDecodeError):
                return 0
        try:
            with np.load(path) as npz:
                return self._merge({name: npz[name] for name in npz.files})
        except (OSError, ValueError, KeyError, zipfile.BadZipFile, json.JSONDecodeError):
            return 0

    def _merge(self, data: dict[str, np.ndarray]) -> int:
        """Fold decoded sidecar arrays into the cache; entries added."""
        if "__meta__" not in data:
            return 0
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta.get("schema") != KERNEL_CACHE_SCHEMA:
            return 0
        seg_slots = meta.get("seg_slots", {})
        added = 0
        for name in data:
            if name == "__meta__":
                continue
            kind, *parts = name.split("|")
            if kind == "occ":
                n_boxes, n_max, m_max = map(int, parts)
                stored = self._occ.get(n_boxes)
                if stored is not None and (
                    stored[0] >= n_max and stored[1] >= m_max
                ):
                    continue
                self._occ[n_boxes] = (n_max, m_max, _readonly(data[name]))
            elif kind == "gap":
                key = tuple(map(int, parts))
                if key in self._gap:
                    continue
                self._gap[key] = _readonly(data[name])
            elif kind == "pmf":
                key = tuple(map(int, parts))
                if key in self._pmf:
                    continue
                self._pmf[key] = _readonly(data[name])
            elif kind == "seg":
                length, gap, n_max, boundary = map(int, parts)
                key = (length, gap, n_max, bool(boundary))
                if key in self._seg or name not in seg_slots:
                    continue
                self._seg[key] = (int(seg_slots[name]), _readonly(data[name]))
            else:
                continue
            added += 1
        return added

    def spill(self, path: str | Path) -> None:
        """Merge whatever a concurrent writer already spilled, then save.

        Several processes may share one sidecar path; each spills at
        shutdown.  Load-then-save keeps the file a (best-effort) union —
        and because every entry is a deterministic function of its key,
        any interleaving still leaves only bit-exact values on disk.
        """
        if not self._dirty:
            return
        self.load(path)
        self.save(path)


_shared = KernelCache()


def shared_cache() -> KernelCache:
    """The process-local cache the combinatorics wrappers consult."""
    return _shared


def reset_shared_cache() -> KernelCache:
    """Swap in a fresh shared cache (tests, cold-path benchmarks)."""
    global _shared
    _shared = KernelCache()
    return _shared
