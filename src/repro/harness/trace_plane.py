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

The entry is written through a temp file and committed by one
``os.replace``, so a writer that dies mid-store (crashed worker,
kill -9) leaves at most a ``.tmp`` file, never a loadable-but-torn
entry.  An entry is valid only if its magic and schema match and its
size is exactly ``64 + 17 * n``; anything else is counted ``corrupt``,
moved to ``<cache-dir>/quarantine/`` and reported as a miss — corruption
is recovered by recomputing, never a crash, and the torn bytes survive
for triage.  A per-key advisory lock (:mod:`~repro.harness.locks`)
deduplicates concurrent prewarms of the same key: the losing writer
waits, reads the winner's entry back, and skips its own store.  Read
hits touch the file's mtime, giving the size-quota GC
(:mod:`~repro.harness.cache_gc`) an LRU signal.  The plane obeys the
same ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` knobs as the pickle cache.

Schema-1 stores kept three ``.npy`` files plus a ``.meta.json`` commit
marker per entry; this reader ignores them, and :meth:`TracePlane.clear`
and the GC delete them.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from ..workloads.trace import AccessTrace
from .cache import cache_enabled, default_cache_dir

__all__ = [
    "PLANE_SCHEMA",
    "TracePlane",
    "NullTracePlane",
    "get_trace_plane",
    "trace_plane_dir",
]

#: Bump when the on-disk layout changes; old entries are then dropped on load.
PLANE_SCHEMA = 2

#: entry file suffix; schema-1 leftovers are ``*.npy`` and ``*.meta.json``
SUFFIX = ".trace"
LEGACY_GLOBS = ("*.npy", "*.meta.json")

_MAGIC = b"ROPTRACE"
#: magic, schema, length, tail_instructions, zero padding to 64 bytes
_HEADER = struct.Struct("<8sQqq32x")
#: the AccessTrace array fields, in on-disk order
_ARRAYS = (("gaps", np.int64), ("lines", np.int64), ("writes", np.bool_))
_RECORD = sum(np.dtype(dt).itemsize for _, dt in _ARRAYS)  # bytes per access


class TracePlane:
    """A directory of one-file trace entries, addressed by content fingerprint."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0  #: corrupt entries moved to quarantine
        self.stores = 0
        self.write_errors = 0
        self.bytes_written = 0

    @property
    def enabled(self) -> bool:
        return True

    def _file(self, key: str) -> str:
        # plain strings: pathlib (and np.memmap's Path.resolve) cost more
        # than the I/O of a small entry
        return f"{self.root}/{key[:2]}/{key}{SUFFIX}"

    def path(self, key: str) -> Path:
        """The file backing ``key`` (tests and cache management)."""
        return Path(self._file(key))

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
            self.corrupt += 1
            from .quarantine import quarantine_file

            if quarantine_file(Path(path), self.root.parent) is not None:
                self.quarantined += 1
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
            self.hits += 1
            try:
                os.utime(self._file(key))  # LRU signal for the GC
            except OSError:
                pass
        return trace

    # -- write ---------------------------------------------------------------

    def store(self, key: str, trace: AccessTrace) -> AccessTrace | None:
        """Persist ``trace`` under ``key``; returns the mmap-backed readback.

        The readback view is what callers should hand out: consumers then
        share page-cache pages instead of holding private heap copies.
        Returns None when the plane is unwritable or the readback failed
        (callers keep using the in-memory trace — never a crash).

        A per-key advisory lock deduplicates concurrent prewarms: the
        losing writer waits for the winner, reads the committed entry
        back, and skips its own store (``stores`` is not incremented).
        Arrays of another dtype are converted; a lossy conversion (say,
        float lines) raises ``TypeError``.
        """
        from .locks import file_lock

        arrays = [
            np.ascontiguousarray(
                getattr(trace, name).astype(dtype, casting="same_kind", copy=False)
            )
            for name, dtype in _ARRAYS
        ]
        header = _HEADER.pack(_MAGIC, PLANE_SCHEMA, len(trace), int(trace.tail_instructions))

        def write(fh) -> None:
            fh.write(header)
            for arr in arrays:
                fh.write(arr.data)

        path = self._file(key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            with file_lock(f"{directory}/{key}.lock"):
                existing = self._read(key)
                if existing is not None:
                    return existing  # a concurrent prewarm beat us to it
                self._write_file(directory, path, write)
        except OSError:
            self.write_errors += 1
            return None
        self.stores += 1
        if "REPRO_CHAOS" in os.environ:  # deferred: chaos imports this package
            from .chaos import tear_plane_entry

            tear_plane_entry(key, Path(path))
        return self._read(key)

    def _write_file(self, directory: str, path: str, write) -> None:
        """Atomic single-file write (temp + ``os.replace``), counting bytes."""
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
                self.bytes_written += fh.tell()
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry and schema-1 leftover; returns files removed."""
        removed = 0
        if self.root.is_dir():
            for pattern in (f"*{SUFFIX}",) + LEGACY_GLOBS:
                for p in self.root.glob(f"*/{pattern}"):
                    try:
                        p.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed


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
