"""Quarantine: keep the evidence when an artifact or an engine misbehaves.

Two kinds of material land under ``<cache-dir>/quarantine/``:

* **corrupt store entries** — a torn pickle in the artifact cache or a
  torn ``.trace`` file in the trace plane used to be unlinked after
  counting; now the bytes are *moved* here (renamed with a ``.quar``
  suffix so no store glob ever picks them back up), preserving the
  evidence for triage while the store still recovers by recomputing;
* **engine-fault bundles** — when a spec faults inside the epoch engine
  and the runner transparently re-runs it on the scalar engine (the
  degradation ladder, DESIGN.md §10), a JSON bundle records everything
  needed to reproduce the fault offline: the spec (both as canonical
  JSON and as a pickled round-trippable object), the seed, the
  exception with its traceback, and the scalar rerun's result digest.

Bundle schema (``engine-fault-<key>.json``)::

    {
      "schema": 1,
      "kind": "engine-fault",
      "key": ..., "label": ..., "engine": "epoch",
      "workloads": [...], "instructions": N, "seed": N,
      "config": {...canonical SystemConfig...},
      "trace_llc": {...canonical LlcConfig...},
      "exc_type": ..., "message": ..., "traceback": ...,
      "spec_pickle": "<hex>",            # pickle.loads(bytes.fromhex(...))
      "scalar_result_digest": "<sha256>" # added after the scalar rerun
    }

Everything here is best-effort: quarantine exists to aid debugging, so a
full disk or read-only cache dir silently degrades to the old behaviour
(drop / skip) rather than failing the run it is documenting.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import traceback as _traceback
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .cache import _canonical, atomic_write, default_cache_dir

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import RunSpec

__all__ = [
    "QUARANTINE_SCHEMA",
    "quarantine_dir",
    "quarantine_file",
    "write_engine_fault_bundle",
    "attach_result_digest",
    "load_bundle",
    "bundle_spec",
    "list_bundles",
    "result_digest",
]

QUARANTINE_SCHEMA = 1


def quarantine_dir(root: str | Path | None = None) -> Path:
    """The quarantine directory under ``root`` (default: the cache dir)."""
    base = Path(root) if root is not None else default_cache_dir()
    return base / "quarantine"


def quarantine_file(path: Path, root: str | Path | None = None) -> Path | None:
    """Move a corrupt artifact into quarantine; returns its new path.

    The destination name gains a ``.quar`` suffix so the stores' entry
    globs (``*/*.pkl``, ``*/*.trace``) never match a quarantined file.
    On any failure the original is unlinked instead (the pre-quarantine
    behaviour) and None is returned.
    """
    dest_dir = quarantine_dir(root)
    try:
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / (path.name + ".quar")
        if dest.exists():
            # a second corruption of the same entry: keep both
            dest = dest_dir / f"{path.name}.{os.getpid()}.quar"
        os.replace(path, dest)
        return dest
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def result_digest(result: Any) -> str:
    """Stable digest of a pickled result (the bit-identity currency)."""
    return hashlib.sha256(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    """Atomic JSON write, rewriting any earlier version of the bundle."""
    atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True).encode()], replace=True)


def write_engine_fault_bundle(
    spec: "RunSpec", exc: BaseException, root: str | Path | None = None
) -> Path | None:
    """Persist an engine-fault bundle for ``spec``; returns its path.

    Written *before* the scalar rerun so the evidence survives even if
    the rerun also dies.  Returns None when the quarantine dir is
    unwritable — the fallback itself must still proceed.
    """
    bundle = {
        "schema": QUARANTINE_SCHEMA,
        "kind": "engine-fault",
        "key": spec.key,
        "label": spec.label,
        "engine": "epoch",
        "workloads": list(spec.workloads),
        "instructions": spec.instructions,
        "seed": spec.seed,
        "config": _canonical(spec.config),
        "trace_llc": _canonical(spec.trace_llc),
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(_traceback.format_exception(exc)),
        "spec_pickle": pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL).hex(),
    }
    path = quarantine_dir(root) / f"engine-fault-{spec.key}.json"
    try:
        _write_json(path, bundle)
    except OSError:
        return None
    return path


def attach_result_digest(path: Path, result: Any) -> None:
    """Record the scalar rerun's digest in an existing bundle (best-effort)."""
    try:
        bundle = json.loads(path.read_text())
        bundle["scalar_result_digest"] = result_digest(result)
        _write_json(path, bundle)
    except (OSError, ValueError):
        pass


def load_bundle(path: str | Path) -> dict:
    """Parse a quarantine bundle; raises ValueError on schema mismatch."""
    bundle = json.loads(Path(path).read_text())
    if bundle.get("schema") != QUARANTINE_SCHEMA:
        raise ValueError(
            f"quarantine bundle schema {bundle.get('schema')} != {QUARANTINE_SCHEMA}"
        )
    return bundle


def bundle_spec(bundle: dict) -> "RunSpec":
    """Reconstruct the quarantined :class:`RunSpec` for an offline rerun."""
    return pickle.loads(bytes.fromhex(bundle["spec_pickle"]))


def list_bundles(root: str | Path | None = None) -> list[Path]:
    """Every engine-fault bundle under the quarantine dir, sorted by name."""
    qdir = quarantine_dir(root)
    if not qdir.is_dir():
        return []
    return sorted(qdir.glob("engine-fault-*.json"))
