"""Seeded, randomized chaos injection (``REPRO_CHAOS=<seed>:<rate>``).

:mod:`~repro.harness.faults` injects *named* faults into *named* specs —
perfect for unit tests, useless for answering "does the whole harness
survive a storm of everything at once?".  Chaos mode arms every fault
site with one env var::

    REPRO_CHAOS=<seed>:<rate>[:<site>,<site>,...]

e.g. ``REPRO_CHAOS=7:0.2`` fires every site on ~20% of spec keys, and
``REPRO_CHAOS=7:1.0:epoch-fault`` forces an epoch-engine fault on every
spec.  Sites:

* ``worker-crash`` — ``os._exit`` inside a pool worker (the
  ``BrokenProcessPool`` → rebuild → culprit-isolation path); a no-op
  in the parent process, which must survive to drain the plan;
* ``cache-write``  — ``OSError`` inside ``ArtifactCache.put`` (counted
  as a cache write error; the result survives in memory);
* ``torn-plane``   — truncates one trace-plane ``.trace`` file right
  after its store commits (readers detect, quarantine, recompute);
* ``epoch-fault``  — raises :class:`EpochEngineFault` on the epoch
  engine's path in ``run_spec`` (the scalar-fallback ladder);
* ``slow-spec``    — a short sleep, exercising near-timeout skew.

Decisions are **deterministic**: a site fires for a spec key iff
``sha256(seed:site:key)`` maps below ``rate`` — the same seed and plan
always draw the same storm, so a red soak replays exactly.  Each
``(seed, site, key)`` point fires **at most once per cache dir**,
claimed via an ``O_CREAT|O_EXCL`` marker file under
``<cache-dir>/chaos/<seed>/`` that worker processes share; the claim is
what guarantees a crashed spec's retry succeeds instead of crashing
forever.  An unwritable marker dir disarms chaos (never fire what
cannot be claimed) — chaos therefore needs the cache dir enabled and
writable, which the soak harness arranges.

All sites are structurally *recoverable*: every one either falls inside
the runner's retry/fallback budget or degrades a store to recomputation,
so a chaos run must complete with zero failed specs and results
bit-identical to a fault-free run — the invariant the chaos soak
(``scripts/chaos_soak.py``, CI job ``chaos-soak``) enforces.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..config import ConfigError
from .cache import default_cache_dir

__all__ = [
    "CHAOS_SITES",
    "ChaosSpec",
    "EpochEngineFault",
    "chaos_enabled",
    "chaos_spec",
    "fired",
    "inject_worker_crash",
    "inject_slow_spec",
    "inject_epoch_fault",
    "inject_cache_write_error",
    "tear_plane_entry",
]

#: every site chaos mode can arm
CHAOS_SITES = (
    "worker-crash",
    "cache-write",
    "torn-plane",
    "epoch-fault",
    "slow-spec",
)

#: exit code a chaos-crashed worker dies with (distinct from faults.py's 13)
CRASH_EXIT_CODE = 66

#: ``slow-spec`` sleep; long enough to skew scheduling, short enough that
#: a storm of them cannot blow a CI job's budget
SLOW_SPEC_S = 0.4


class EpochEngineFault(RuntimeError):
    """Injected epoch-engine failure (exercises the scalar-fallback path)."""


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed ``REPRO_CHAOS`` directive."""

    seed: int
    rate: float
    sites: frozenset[str]


def chaos_enabled() -> bool:
    """Whether chaos mode is armed (cheap guard for lazy imports)."""
    return bool(os.environ.get("REPRO_CHAOS", "").strip())


def chaos_spec() -> ChaosSpec | None:
    """Parse ``REPRO_CHAOS``; None when unset, ConfigError when malformed."""
    raw = os.environ.get("REPRO_CHAOS", "").strip()
    if not raw:
        return None
    parts = raw.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(
            f"REPRO_CHAOS must be <seed>:<rate>[:<site>,...], got {raw!r}"
        )
    try:
        seed = int(parts[0])
        rate = float(parts[1])
    except ValueError:
        raise ConfigError(
            f"REPRO_CHAOS must be <seed>:<rate>[:<site>,...], got {raw!r}"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"REPRO_CHAOS rate must be in [0, 1], got {rate}")
    sites = frozenset(s.strip() for s in parts[2].split(",") if s.strip()) \
        if len(parts) == 3 else frozenset(CHAOS_SITES)
    unknown = sites - set(CHAOS_SITES)
    if unknown:
        raise ConfigError(
            f"REPRO_CHAOS sites {sorted(unknown)} unknown; known: {CHAOS_SITES}"
        )
    return ChaosSpec(seed=seed, rate=rate, sites=sites)


def _fraction(seed: int, site: str, key: str) -> float:
    """Deterministic draw in [0, 1) for one (seed, site, key) point."""
    digest = hashlib.sha256(f"{seed}:{site}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _marker_dir(seed: int) -> Path:
    return default_cache_dir() / "chaos" / str(seed)


def _claim(seed: int, site: str, key: str) -> bool:
    """Atomically claim one firing; False when already fired or unclaimable.

    The marker file is the cross-process once-only guarantee: the claim
    happens *before* the destructive act, so a worker that crashes right
    after claiming leaves the marker behind and the spec's retry runs
    clean.  An unclaimable dir (cache off, read-only) returns False —
    chaos never fires a fault it could fire again forever.
    """
    marker = _marker_dir(seed) / f"{site}--{key}"
    try:
        marker.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    except OSError:
        return False
    os.close(fd)
    return True


def _should_fire(site: str, key: str) -> bool:
    spec = chaos_spec()
    if spec is None or site not in spec.sites:
        return False
    if _fraction(spec.seed, site, key) >= spec.rate:
        return False
    return _claim(spec.seed, site, key)


def fired(seed: int | None = None) -> dict[str, int]:
    """Per-site count of firings claimed so far (soak reporting)."""
    if seed is None:
        spec = chaos_spec()
        if spec is None:
            return {}
        seed = spec.seed
    counts: dict[str, int] = {}
    mdir = _marker_dir(seed)
    if mdir.is_dir():
        for marker in mdir.iterdir():
            site = marker.name.split("--", 1)[0]
            counts[site] = counts.get(site, 0) + 1
    return counts


# ------------------------------------------------------------- fault sites


def inject_worker_crash(key: str) -> None:
    """Kill this process if it is a pool worker and the draw says so."""
    if multiprocessing.parent_process() is None:
        return  # never kill the parent: it must drain and persist
    if _should_fire("worker-crash", key):
        os._exit(CRASH_EXIT_CODE)


def inject_slow_spec(key: str) -> None:
    """Sleep briefly, skewing this spec toward any armed timeout."""
    if _should_fire("slow-spec", key):
        time.sleep(SLOW_SPEC_S)


def inject_epoch_fault(key: str) -> None:
    """Raise inside the epoch engine's path (scalar fallback must absorb)."""
    if _should_fire("epoch-fault", key):
        raise EpochEngineFault(f"chaos: injected epoch-engine fault for {key[:12]}")


def inject_cache_write_error(key: str) -> None:
    """Raise the OSError ``ArtifactCache.put`` counts as a write error."""
    if _should_fire("cache-write", key):
        raise OSError(f"chaos: injected cache write failure for {key[:12]}")


def tear_plane_entry(key: str, path: Path) -> bool:
    """Truncate one just-committed ``.trace`` file; True when torn."""
    if not _should_fire("torn-plane", key):
        return False
    try:
        with open(path, "r+b") as fh:
            fh.truncate(16)
    except OSError:
        return False
    return True
