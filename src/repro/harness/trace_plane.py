"""Shared-memory trace plane: memory traces as mmap-able one-file entries.

The pickle artifact cache made LLC-filtered traces *persistent*, but every
process that needed one still paid a full unpickle into a private heap
copy — at ``jobs=N`` the same multi-megabyte arrays were duplicated N
times.  The trace plane stores each trace as one raw file instead, so any
number of worker processes map the *same* page-cache pages: materialize
once, share everywhere.  The parent prewarms the plane before fanning a
plan out (see :func:`repro.harness.runner.execute_plan`), so workers
never regenerate a trace another process already built.

Layout, sharded like the pickle cache: ``<cache-dir>/trace-plane/<kk>/<key>.trace``
holds a fixed 64-byte little-endian header (magic, ``PLANE_SCHEMA``,
length ``n``, ``tail_instructions``) followed by ``gaps`` (int64 × n),
``lines`` (int64 × n) and ``writes`` (bool × n), written straight from
the arrays.  A reader maps the file once and hands out three read-only
``np.memmap`` slices of it.

The entry is written through a temp file and published with one
``os.link`` (:class:`~repro.harness.cache.EntryStore`), so a writer that
dies mid-store (crashed worker, kill -9) leaves at most a ``.tmp`` file,
never a loadable-but-torn entry, and the first of two concurrent
prewarms of a key wins: the other reads the winner's entry back and
skips its own store.  An entry is valid only if its magic and schema
match and its size is exactly ``64 + 17 * n``; anything else is counted
``corrupt``, moved to ``<cache-dir>/quarantine/`` and reported as a miss
— corruption is recovered by recomputing, never a crash, and the torn
bytes survive for triage.  Read hits touch the file's mtime, giving the
size-quota GC (:mod:`~repro.harness.cache_gc`) an LRU signal.  The plane
obeys the same ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` knobs as the pickle
cache.

Schema-1 stores kept three ``.npy`` files plus a ``.meta.json`` commit
marker per entry, and older stores one ``<key>.lock`` file; this reader
ignores them, and :meth:`TracePlane.clear` and the GC delete them.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ..workloads.trace import AccessTrace
from .cache import EntryStore, cache_enabled, default_cache_dir

__all__ = [
    "PLANE_SCHEMA",
    "TracePlane",
    "NullTracePlane",
    "get_trace_plane",
    "trace_plane_dir",
]

#: Bump when the on-disk layout changes; old entries are then dropped on load.
PLANE_SCHEMA = 2

_MAGIC = b"ROPTRACE"
#: magic, schema, length, tail_instructions, zero padding to 64 bytes
_HEADER = struct.Struct("<8sQqq32x")
#: the AccessTrace array fields, in on-disk order
_ARRAYS = (("gaps", np.int64), ("lines", np.int64), ("writes", np.bool_))
_RECORD = sum(np.dtype(dt).itemsize for _, dt in _ARRAYS)  # bytes per access


class TracePlane(EntryStore):
    """A directory of one-file trace entries, addressed by content fingerprint."""

    suffix = ".trace"
    #: schema-1 entries were three ``.npy`` files plus a ``.meta.json`` marker
    legacy_globs = EntryStore.legacy_globs + ("*.npy", "*.meta.json")

    def __init__(self, root: str | Path) -> None:
        super().__init__(root)
        self.stores = 0

    @property
    def cache_dir(self) -> Path:
        return self.root.parent

    # -- read ----------------------------------------------------------------

    def _read(self, key: str) -> AccessTrace | None:
        """Mmap-backed trace for ``key``, or None (no hit/miss counting)."""
        path = self._file(key)
        try:
            raw = np.memmap(path, dtype=np.uint8, mode="r")
            magic, schema, n, tail = _HEADER.unpack_from(raw)
            if magic != _MAGIC or schema != PLANE_SCHEMA:
                raise ValueError(f"not a schema-{PLANE_SCHEMA} trace entry")
            if raw.size != _HEADER.size + _RECORD * n:
                raise ValueError("file size disagrees with header length")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, struct.error):
            # torn file, foreign bytes, stale schema — quarantine the
            # evidence and recompute
            self._quarantine(path)
            return None
        arrays = []
        offset = _HEADER.size
        for _, dtype in _ARRAYS:
            end = offset + np.dtype(dtype).itemsize * n
            arrays.append(raw[offset:end].view(dtype))
            offset = end
        return AccessTrace(*arrays, tail_instructions=tail)

    def load(self, key: str) -> AccessTrace | None:
        """The trace stored under ``key`` as read-only mmap views, or None."""
        trace = self._read(key)
        if trace is None:
            self.misses += 1
        else:
            self._hit(self._file(key))
        return trace

    # -- write ---------------------------------------------------------------

    def store(self, key: str, trace: AccessTrace) -> AccessTrace | None:
        """Persist ``trace`` under ``key``; returns the mmap-backed readback.

        The readback view is what callers should hand out: consumers then
        share page-cache pages instead of holding private heap copies.
        Returns None when the plane is unwritable or the readback failed
        (callers keep using the in-memory trace — never a crash).

        When a concurrent prewarm published ``key`` first, its entry is
        read back instead and ``stores`` is not incremented.  Arrays of
        another dtype are converted; a lossy conversion (say, float
        lines) raises ``TypeError``.
        """
        arrays = [
            np.ascontiguousarray(
                getattr(trace, name).astype(dtype, casting="same_kind", copy=False)
            )
            for name, dtype in _ARRAYS
        ]
        header = _HEADER.pack(_MAGIC, PLANE_SCHEMA, len(trace), int(trace.tail_instructions))
        try:
            published = self._commit(key, [header] + [arr.data for arr in arrays])
        except OSError:
            self.write_errors += 1
            return None
        if published:
            self.stores += 1
            if "REPRO_CHAOS" in os.environ:  # deferred: chaos imports this package
                from .chaos import tear_plane_entry

                tear_plane_entry(key, self.path(key))
        return self._read(key)


class NullTracePlane:
    """Disabled plane: every load misses, every store is dropped."""

    root = None
    hits = 0
    misses = 0
    corrupt = 0
    quarantined = 0
    stores = 0
    write_errors = 0
    bytes_written = 0

    @property
    def enabled(self) -> bool:
        return False

    def load(self, key: str) -> None:
        return None

    def store(self, key: str, trace: AccessTrace) -> None:
        return None

    def clear(self) -> int:
        return 0


_NULL = NullTracePlane()
_INSTANCES: dict[Path, TracePlane] = {}


def trace_plane_dir() -> Path:
    """Plane directory: a sibling of the pickle entries in the cache dir."""
    return default_cache_dir() / "trace-plane"


def get_trace_plane() -> TracePlane | NullTracePlane:
    """The trace plane for the current environment (re-read per call, so
    tests and the CLI can repoint ``REPRO_CACHE_DIR`` at any time)."""
    if not cache_enabled():
        return _NULL
    root = trace_plane_dir()
    inst = _INSTANCES.get(root)
    if inst is None:
        inst = _INSTANCES[root] = TracePlane(root)
    return inst
