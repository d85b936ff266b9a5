"""Persistent, content-keyed artifact cache for experiment results.

Every simulation in this repository is a pure function of its
configuration: traces are seeded, the controller is deterministic, and a
``(workload, SystemConfig, RunScale)`` point always produces the same
:class:`~repro.cpu.MulticoreResult`.  That makes results *content
addressable* — the cache key is a fingerprint of everything the result
depends on, and a stored artifact never goes stale as long as the
fingerprint covers its inputs.

Two kinds of artifact are cached:

* **LLC-filtered memory traces** (``SpecProfile.memory_trace``) — keyed on
  the benchmark's phase-model parameters, run length, seed and LLC
  geometry;
* **simulation results** (the runner's ``RunSpec`` executions) — keyed on
  the workload set, full ``SystemConfig`` and run length/seed.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default
  ``~/.cache/repro-artifacts``);
* ``REPRO_CACHE=off`` (or ``0``) — disable the disk cache entirely; the
  CLI's ``--no-cache`` flag sets it for one command.

Both this cache and the trace plane are :class:`EntryStore` trees with
one commit rule: an entry is written to a temp file in its shard and
published with ``os.link``, so the first writer of a key wins, a racing
writer sees ``FileExistsError`` and keeps the winner's entry, and a
writer that dies midway leaves at most a ``.tmp`` file.  No lock file is
involved.  A corrupted or truncated entry is treated as a miss, moved to
``<cache-dir>/quarantine/`` for triage, and recomputed — never a crash.
Read hits touch the entry's mtime, giving the size-quota garbage
collector (:mod:`~repro.harness.cache_gc`, ``REPRO_CACHE_QUOTA``) an LRU
signal.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import warnings
from collections.abc import Iterable
from pathlib import Path
from typing import Any

__all__ = [
    "CACHE_SCHEMA",
    "fingerprint",
    "atomic_write",
    "EntryStore",
    "ArtifactCache",
    "NullCache",
    "get_cache",
    "cache_enabled",
    "default_cache_dir",
    "MISS",
]

#: Bump when simulator semantics change in a way fingerprints cannot see
#: (e.g. a scheduling-policy fix): invalidates every stored artifact.
CACHE_SCHEMA = 4  # v4: rop_summary carries frozen (B,A) category_counts

#: Sentinel distinguishing "cached None" from "not cached".
MISS = object()


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-stable structure for fingerprinting.

    Dataclasses flatten to ``{class, field: value, ...}`` dicts so adding
    a field (with a new value) changes the fingerprint, enums reduce to
    their qualified name, and containers recurse.  Python's salted
    ``hash()`` is never used — fingerprints must agree across processes.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__class__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bytes, bytearray)):
        return obj.hex()
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")


def fingerprint(*parts: Any) -> str:
    """Stable hex digest of ``parts`` (configs, scales, scalars, tuples)."""
    blob = json.dumps(
        [CACHE_SCHEMA, [_canonical(p) for p in parts]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


def atomic_write(
    path: str | Path, chunks: Iterable[bytes | memoryview], *, replace: bool
) -> int | None:
    """Write ``chunks`` (bytes-like) to ``path`` atomically; returns bytes published.

    The data goes to a temp file in ``path``'s directory (created on
    first use), so readers see a whole file or none and a writer that
    dies midway leaves at most a ``.tmp`` file.  ``replace=True`` renames
    the temp file over ``path``, for files rewritten in place (quarantine
    bundles, job journal entries).  ``replace=False`` is the stores'
    first-writer-wins commit: the temp file is hard-linked to ``path``,
    and None is returned when ``path`` already exists because a racing
    writer published it first.  A filesystem without hard links falls
    back to the rename: still atomic, just not deduplicated.
    """
    directory = os.path.dirname(path)
    if not os.path.isdir(directory):
        os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            size = fh.tell()
        if not replace:
            try:
                os.link(tmp, path)
                return size
            except FileExistsError:
                return None
            except OSError:
                pass  # no hard links here: fall back to the rename
        os.replace(tmp, path)
        tmp = None
        return size
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


class EntryStore:
    """A sharded directory of content-addressed files, ``<root>/<kk>/<key><suffix>``.

    The part both stores share: entry paths, the counters, the
    first-writer-wins commit, quarantine of corrupt entries, the LRU
    mtime touch on a read hit, and :meth:`clear`.  Subclasses add the
    entry codec.
    """

    suffix = ""
    #: leftovers of older layouts, which :meth:`clear` and the GC delete:
    #: stores used to keep one ``<key>.lock`` file per entry
    legacy_globs: tuple[str, ...] = ("*.lock",)

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0  #: corrupt entries moved to quarantine
        self.write_errors = 0
        self.bytes_written = 0  #: entry bytes this instance published

    @property
    def enabled(self) -> bool:
        return True

    @property
    def cache_dir(self) -> Path:
        """The cache directory whose ``quarantine/`` takes corrupt entries."""
        return self.root

    def _file(self, key: str) -> str:
        # plain strings: pathlib (and np.memmap's Path.resolve) cost more
        # than the I/O of a small entry
        return f"{self.root}/{key[:2]}/{key}{self.suffix}"

    def path(self, key: str) -> Path:
        """The file backing ``key`` (tests and cache management)."""
        return Path(self._file(key))

    def _hit(self, path: str) -> None:
        """Count a read hit and touch its mtime, the GC's LRU signal."""
        self.hits += 1
        try:
            os.utime(path)
        except OSError:
            pass

    def _quarantine(self, path: str) -> None:
        """Count a corrupt entry and move it to quarantine for triage."""
        from .quarantine import quarantine_file

        self.corrupt += 1
        if quarantine_file(Path(path), self.cache_dir) is not None:
            self.quarantined += 1

    def _commit(self, key: str, chunks: Iterable[bytes | memoryview]) -> bool:
        """Publish ``chunks`` as ``key``'s entry; False if a racer already had.

        The first writer of a key wins and later writers leave its entry
        alone.  Only a successful publish counts ``bytes_written``.
        ``OSError`` propagates.
        """
        size = atomic_write(self._file(key), chunks, replace=False)
        if size is None:
            return False
        self.bytes_written += size
        return True

    def clear(self) -> int:
        """Delete every entry and legacy leftover; returns files removed."""
        removed = 0
        if self.root.is_dir():
            for pattern in (f"*{self.suffix}",) + self.legacy_globs:
                for p in self.root.glob(f"*/{pattern}"):
                    try:
                        p.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed


class ArtifactCache(EntryStore):
    """A directory of pickled artifacts, addressed by fingerprint."""

    suffix = ".pkl"

    def __init__(self, root: str | Path) -> None:
        super().__init__(root)
        self.bytes_read = 0  #: payload bytes served from disk
        self._warned_unwritable = False

    def get(self, key: str, default: Any = None) -> Any:
        """Load the artifact for ``key``, or ``default`` on any failure."""
        path = self._file(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
                size = os.fstat(fh.fileno()).st_size
        except FileNotFoundError:
            self.misses += 1
            return default
        except Exception:
            # truncated write, foreign bytes, unpicklable class — recover
            # by quarantining the entry (the evidence survives for triage)
            # and recomputing.
            self._quarantine(path)
            self.misses += 1
            return default
        self.bytes_read += size
        self._hit(path)
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically (safe under contention).

        An entry that already exists is kept: telemetry- and
        validate-forced reruns re-put stored keys, and a racing writer
        that publishes first wins (see :meth:`EntryStore._commit`).
        """
        try:
            if "REPRO_CHAOS" in os.environ:  # deferred: chaos imports cache
                from .chaos import inject_cache_write_error

                inject_cache_write_error(key)
            if os.path.exists(self._file(key)):
                return
            self._commit(key, [pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)])
        except OSError as exc:
            # a read-only or full cache dir degrades to a no-op, not a
            # crash — but say so once, or every future run re-simulates
            # without the user ever learning why
            self.write_errors += 1
            # an injected chaos failure is not a broken cache dir — the
            # warning would be a false alarm in every soak log
            if not self._warned_unwritable and "REPRO_CHAOS" not in os.environ:
                self._warned_unwritable = True
                warnings.warn(
                    f"artifact cache at {self.root} is not writable "
                    f"({type(exc).__name__}: {exc}); results will not persist and "
                    f"future runs will re-simulate (set REPRO_CACHE_DIR to a "
                    f"writable directory, or REPRO_CACHE=off to silence this)",
                    RuntimeWarning,
                    stacklevel=2,
                )


class NullCache:
    """Disabled cache: every get misses, every put is dropped."""

    root = None
    hits = 0
    misses = 0
    corrupt = 0
    quarantined = 0
    write_errors = 0
    bytes_written = 0
    bytes_read = 0

    @property
    def enabled(self) -> bool:
        return False

    def get(self, key: str, default: Any = None) -> Any:
        return default

    def put(self, key: str, value: Any) -> None:
        pass

    def clear(self) -> int:
        return 0


_NULL = NullCache()
_INSTANCES: dict[Path, ArtifactCache] = {}


def default_cache_dir() -> Path:
    """Cache directory honoring ``REPRO_CACHE_DIR``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-artifacts"


def cache_enabled() -> bool:
    """Whether the disk cache is active (``REPRO_CACHE``, default on)."""
    return os.environ.get("REPRO_CACHE", "on").lower() not in ("0", "off", "false", "no")


def get_cache() -> ArtifactCache | NullCache:
    """The artifact cache for the current environment (re-read per call,
    so tests and the CLI can repoint ``REPRO_CACHE_DIR`` at any time)."""
    if not cache_enabled():
        return _NULL
    root = default_cache_dir()
    inst = _INSTANCES.get(root)
    if inst is None:
        inst = _INSTANCES[root] = ArtifactCache(root)
    return inst
