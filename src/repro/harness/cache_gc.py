"""Size-quota garbage collection for the shared artifact store.

Policy-matrix sweeps (DARP/SARP-sized grids, RAIDR density sweeps)
run against one shared ``REPRO_CACHE_DIR`` grow it without bound:
every result pickle and every trace-plane artifact persists forever.
This module makes the store reclaimable:

* ``REPRO_CACHE_QUOTA`` (or ``repro cache gc --quota``) bounds the
  store's total size — ``500M``, ``2G``, or plain bytes;
* eviction is **LRU by mtime**: both stores touch an entry's anchor
  file on every read hit, so recently-used artifacts survive;
* entries referenced by a live plan are **protected**: the runner's
  end-of-plan auto-GC passes the plan's result and trace keys, so a
  quota too small for the working set evicts cold history, never the
  results the caller is about to read;
* ``verify`` load-checks every entry through the stores' own read
  paths, so corruption is detected — and quarantined — before a sweep
  trips over it.

An *entry* is one result pickle (``<kk>/<key>.pkl``) or one trace-plane
file (``trace-plane/<kk>/<key>.trace``).  Leftovers of older layouts are
entries of kind ``legacy``: the per-key ``<key>.lock`` files both stores
used to leave behind, and schema-1 trace groups
(``<key>.{gaps,lines,writes}.npy`` + ``<key>.meta.json``).  No reader
uses them any more, so every collection pass deletes them whatever the
quota.  Temp files and the quarantine/chaos administrative trees are
never touched.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .cache import ArtifactCache, default_cache_dir
from .trace_plane import TracePlane

__all__ = [
    "CacheEntry",
    "GcResult",
    "parse_quota",
    "quota_from_env",
    "iter_entries",
    "usage",
    "collect",
    "verify",
]

_SHARD = re.compile(r"^[0-9a-f]{2}$")


@dataclass(frozen=True)
class CacheEntry:
    """One evictable unit: a result pickle, a trace file or a legacy group."""

    key: str
    kind: str  #: ``result`` | ``trace`` | ``legacy``
    paths: tuple[Path, ...]
    bytes: int
    mtime: float


@dataclass
class GcResult:
    """Outcome of one :func:`collect` pass."""

    quota: int
    bytes_before: int
    bytes_after: int
    #: result and trace entries evicted (``freed_bytes``, ``evicted_keys``)
    evicted: int = 0
    freed_bytes: int = 0
    #: legacy leftovers deleted, which every pass does whatever the quota
    legacy_removed: int = 0
    kept: int = 0
    protected: int = 0
    dry_run: bool = False
    evicted_keys: list[str] = field(default_factory=list)


def parse_quota(raw: str | int) -> int:
    """``"500M"`` / ``"2G"`` / ``"1024K"`` / plain bytes → byte count."""
    if isinstance(raw, int):
        value = raw
    else:
        m = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([kKmMgGtT]?)[bB]?\s*", str(raw))
        if not m:
            from .runner import ConfigError

            raise ConfigError(
                f"cache quota must be bytes or <n>[K|M|G|T], got {raw!r}"
            )
        scale = {"": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}
        value = int(float(m.group(1)) * scale[m.group(2).lower()])
    if value <= 0:
        from .runner import ConfigError

        raise ConfigError(f"cache quota must be positive, got {raw!r}")
    return value


def quota_from_env() -> int | None:
    """``REPRO_CACHE_QUOTA`` as bytes, or None when unset."""
    raw = os.environ.get("REPRO_CACHE_QUOTA", "").strip()
    return parse_quota(raw) if raw else None


def _shard_dirs(root: Path) -> list[Path]:
    if not root.is_dir():
        return []
    return [d for d in root.iterdir() if d.is_dir() and _SHARD.match(d.name)]


def iter_entries(root: str | Path | None = None) -> list[CacheEntry]:
    """Every entry under the cache dir, as whole evictable units."""
    root = Path(root) if root is not None else default_cache_dir()
    entries: list[CacheEntry] = []
    for store, tree, kind in (
        (ArtifactCache, root, "result"),
        (TracePlane, root / "trace-plane", "trace"),
    ):
        for shard in _shard_dirs(tree):
            for path in shard.glob(f"*{store.suffix}"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                key = path.name[: -len(store.suffix)]
                entries.append(CacheEntry(key, kind, (path,), st.st_size, st.st_mtime))
            legacy: dict[str, list[Path]] = {}
            for pattern in store.legacy_globs:
                for path in shard.glob(pattern):
                    legacy.setdefault(path.name.split(".", 1)[0], []).append(path)
            for key, paths in legacy.items():
                size = mtime = 0
                for p in paths:
                    try:
                        st = p.stat()
                    except OSError:
                        continue
                    size += st.st_size
                    mtime = max(mtime, st.st_mtime)
                entries.append(CacheEntry(key, "legacy", tuple(paths), size, mtime))
    return entries


def _dir_usage(path: Path) -> tuple[int, int]:
    """(file count, total bytes) under ``path``, recursively."""
    files = total = 0
    if path.is_dir():
        for p in path.rglob("*"):
            if p.is_file():
                files += 1
                try:
                    total += p.stat().st_size
                except OSError:
                    pass
    return files, total


def usage(root: str | Path | None = None) -> dict:
    """Store statistics for ``repro cache stats``.

    Beyond live entries, the administrative trees are reported too:
    the ``quarantine/`` directory (corrupt entries + engine-fault
    bundles, as a count and byte total) and any ``chaos/<seed>/``
    marker directories left behind by :mod:`~repro.harness.chaos`
    soaks — both are invisible to the GC, so this is the only place a
    growing pile of triage material becomes visible.
    """
    root = Path(root) if root is not None else default_cache_dir()
    entries = iter_entries(root)
    by_kind: dict[str, dict] = {}
    for e in entries:
        agg = by_kind.setdefault(e.kind, {"entries": 0, "bytes": 0})
        agg["entries"] += 1
        agg["bytes"] += e.bytes
    quarantined, quarantine_bytes = _dir_usage(root / "quarantine")
    chaos_root = root / "chaos"
    chaos_seeds = (
        sorted(d.name for d in chaos_root.iterdir() if d.is_dir())
        if chaos_root.is_dir()
        else []
    )
    chaos_markers, chaos_bytes = _dir_usage(chaos_root)
    return {
        "root": str(root),
        "entries": len(entries),
        "bytes": sum(e.bytes for e in entries),
        "by_kind": by_kind,
        "quarantined": quarantined,
        "quarantine_bytes": quarantine_bytes,
        "chaos_seeds": chaos_seeds,
        "chaos_markers": chaos_markers,
        "chaos_bytes": chaos_bytes,
    }


def collect(
    quota: int,
    *,
    root: str | Path | None = None,
    protect: frozenset[str] | set[str] = frozenset(),
    dry_run: bool = False,
) -> GcResult:
    """Evict least-recently-used entries until the store fits ``quota``.

    ``protect`` holds keys a live plan still references (result keys and
    trace keys); protected entries are never evicted, even if the
    protected set alone exceeds the quota.  Legacy entries go first and
    always, since nothing can read them; they are counted in
    ``legacy_removed``, not as evictions.
    """
    entries = sorted(
        iter_entries(root), key=lambda e: (e.kind != "legacy", e.mtime, e.key)
    )
    total = sum(e.bytes for e in entries)
    res = GcResult(quota=quota, bytes_before=total, bytes_after=total, dry_run=dry_run)
    kept = []
    for entry in entries:
        if entry.kind != "legacy" and (res.bytes_after <= quota or entry.key in protect):
            kept.append(entry)
            continue
        if not dry_run:
            for p in entry.paths:
                try:
                    p.unlink()
                except OSError:
                    pass
        res.bytes_after -= entry.bytes
        if entry.kind == "legacy":
            res.legacy_removed += 1
            continue
        res.evicted += 1
        res.freed_bytes += entry.bytes
        res.evicted_keys.append(entry.key)
    res.kept = len(kept)
    res.protected = sum(1 for e in kept if e.key in protect)
    return res


def verify(root: str | Path | None = None) -> dict:
    """Load-check every entry through the stores' own read paths.

    Corrupt entries are moved to quarantine by the stores themselves
    (:meth:`ArtifactCache.get` / :meth:`TracePlane.load`), so a verify
    pass both *reports* and *heals* the store.
    """
    root = Path(root) if root is not None else default_cache_dir()
    cache = ArtifactCache(root)
    plane = TracePlane(root / "trace-plane")
    checked = corrupt = 0
    bad_keys: list[str] = []
    miss = object()
    for entry in iter_entries(root):
        if entry.kind == "legacy":
            continue  # no read path: collect() deletes these
        checked += 1
        if entry.kind == "result":
            ok = cache.get(entry.key, miss) is not miss
        else:
            ok = plane.load(entry.key) is not None
        if not ok:
            corrupt += 1
            bad_keys.append(f"{entry.kind}:{entry.key}")
    return {"checked": checked, "corrupt": corrupt, "bad": bad_keys}
