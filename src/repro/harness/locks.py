"""Cross-process advisory file locks for the shared artifact stores.

The artifact cache and the trace plane are multi-writer by design: any
number of worker processes (and any number of concurrent invocations
sharing one ``REPRO_CACHE_DIR``) persist entries into the same tree.
Atomic temp-file + ``os.replace`` writes already make torn entries
impossible, but they cannot *deduplicate* work — two processes that miss
on the same key both serialize and both write, and the loser's bytes are
thrown away.  :func:`file_lock` adds a per-key advisory lock so the
loser waits briefly, re-checks for the winner's entry, and skips the
duplicate write.

The lock is strictly best-effort and must never become a new failure
mode, so it degrades to unlocked operation (which is still *safe*, just
duplicated) whenever:

* ``fcntl`` is unavailable (non-POSIX platforms);
* the lock file cannot be created (read-only cache dir — the write
  itself will then fail with proper accounting);
* the lock is not acquired within ``timeout_s`` (a dead holder's lock
  is released by the kernel when its fd closes, so a genuine timeout
  means heavy contention, and proceeding unlocked is the lesser evil).

Lock files (``<key>.lock``) stay behind after use — creating/unlinking
them atomically under contention is not worth the complexity, and every
store's entry globs (``*.pkl``, ``*.trace``) ignore them.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["file_lock"]

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None


@contextmanager
def file_lock(path: str | Path, timeout_s: float = 10.0):
    """Hold an exclusive advisory lock on ``path`` for the ``with`` body.

    Yields True while the lock is held, False when the implementation
    degraded to unlocked operation (missing fcntl, unwritable lock file,
    or contention past ``timeout_s``).  Callers treat the yielded value
    as a hint only: correctness never depends on the lock.
    """
    if fcntl is None:
        yield False
        return
    try:
        fd = os.open(os.fspath(path), os.O_CREAT | os.O_RDWR, 0o644)
    except OSError:
        yield False
        return
    locked = False
    try:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                locked = True
                break
            except OSError:
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
        yield locked
    finally:
        if locked:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - release is best-effort
                pass
        os.close(fd)
