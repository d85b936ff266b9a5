"""Simulator invariant checks.

A transaction-level model is only trustworthy if its shortcuts never
violate the physical constraints it claims to enforce. This module
audits a finished run — via the request log collected by
:class:`RequestLog` and the per-rank event records — against the
invariants the DDR4 model must uphold:

* **causality** — no request completes before it arrives, issues before
  it arrives, or completes before it issues;
* **bus exclusivity** — data bursts on one channel never overlap;
* **lock exclusion** — no DRAM data transfer overlaps its rank's refresh
  lock (SRAM service is exempt: the buffer lives in the controller;
  per-bank refresh freezes only the recorded bank, so the rank's other
  banks may legally keep serving);
* **refresh rate** — each rank performs one refresh per tREFI on average
  (within the JEDEC ±8-interval flexibility);
* **service accounting** — every demand read completes exactly once.

The test suite runs these after randomized workloads; downstream users
can wire :class:`RequestLog` into their own experiments the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dram.request import ReqKind, Request, ServiceKind
from .refresh_analysis import rank_events

__all__ = ["InvariantViolation", "RequestLog", "check_run"]


class InvariantViolation(AssertionError):
    """A physical constraint of the memory model was violated.

    Structured so harness code can aggregate and render violations
    without parsing the message: ``site`` names where the constraint
    lives (e.g. ``causality``, ``bus.ch0``, ``refresh-rate``), ``cycle``
    anchors it in simulated time (−1 when not cycle-specific) and
    ``detail`` is the human-readable explanation.
    """

    def __init__(self, site: str, detail: str, cycle: int = -1) -> None:
        self.site = site
        self.detail = detail
        self.cycle = cycle
        loc = f"[{site}]" + (f" @cycle {cycle}" if cycle >= 0 else "")
        super().__init__(f"{loc} {detail}")


@dataclass
class RequestLog:
    """Collects completed requests for post-run auditing.

    Attach with ``log.attach(memory_system)`` *before* submitting traffic;
    it wraps the controller's submit path to capture every request object.
    ``attach`` returns the log, and the log is a context manager, so the
    patch is always undone::

        with RequestLog().attach(ms) as log:
            ...drive traffic...
        check_run(log, ms)

    Call :meth:`detach` (idempotent) to restore the controller's original
    ``submit`` outside a ``with`` block.
    """

    requests: list[Request] = field(default_factory=list)
    #: (controller, original submit) while attached, else None
    _attached: tuple | None = field(default=None, repr=False, compare=False)

    def attach(self, memory_system) -> "RequestLog":
        """Start capturing every request submitted to ``memory_system``."""
        if self._attached is not None:
            raise RuntimeError("RequestLog is already attached; detach() first")
        controller = memory_system.controller
        original = controller.submit

        def wrapped(kind, line, cycle, core_id=0, on_complete=None, coord=None):
            req = original(kind, line, cycle, core_id, on_complete, coord)
            self.requests.append(req)
            return req

        controller.submit = wrapped  # type: ignore[method-assign]
        self._attached = (controller, original)
        return self

    def detach(self) -> None:
        """Restore the controller's original ``submit`` (idempotent)."""
        if self._attached is not None:
            controller, original = self._attached
            controller.submit = original  # type: ignore[method-assign]
            self._attached = None

    def __enter__(self) -> "RequestLog":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    @property
    def reads(self) -> list[Request]:
        """Captured demand reads."""
        return [r for r in self.requests if r.kind is ReqKind.READ]


def _check_causality(log: RequestLog) -> None:
    for r in log.requests:
        if r.complete_cycle < 0:
            continue
        if r.complete_cycle < r.arrival:
            raise InvariantViolation(
                "causality", f"completes before arrival: {r}", cycle=r.complete_cycle
            )
        if r.issue_cycle >= 0 and r.issue_cycle < r.arrival:
            raise InvariantViolation(
                "causality", f"issues before arrival: {r}", cycle=r.issue_cycle
            )
        if r.issue_cycle >= 0 and r.complete_cycle < r.issue_cycle:
            raise InvariantViolation(
                "causality", f"completes before issue: {r}", cycle=r.complete_cycle
            )


def _check_reads_complete(log: RequestLog) -> None:
    for r in log.reads:
        if r.complete_cycle < 0:
            raise InvariantViolation(
                "service-accounting", f"demand read never completed: {r}"
            )


def _check_bus_exclusive(log: RequestLog, burst: int) -> None:
    """DRAM data bursts on a channel must not overlap in time."""
    per_channel: dict[int, list[tuple[int, int]]] = {}
    for r in log.requests:
        if r.complete_cycle < 0 or r.service is ServiceKind.SRAM:
            continue
        if r.kind is not ReqKind.READ:
            continue  # writes complete silently; their windows are internal
        ch = r.coord.channel
        per_channel.setdefault(ch, []).append(
            (r.complete_cycle - burst, r.complete_cycle)
        )
    for ch, windows in per_channel.items():
        windows.sort()
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            if s2 < e1:
                raise InvariantViolation(
                    f"bus.ch{ch}",
                    f"overlapping data bursts [{s1},{e1}) and [{s2},{e2})",
                    cycle=s2,
                )


def _refresh_locks(snap) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """Lock windows ``(start, end, bank)`` per rank, from a sink snapshot.

    ``bank`` is -1 for an all-bank refresh (the whole rank freezes); a
    per-bank refresh freezes only the recorded bank, so reads served by
    the rank's other banks during the window are legal.
    """
    from ..telemetry import Category, Kind

    sel = (snap["cat"] == int(Category.REFRESH)) & (
        snap["kind"] == int(Kind.REFRESH_WINDOW)
    )
    locks: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for ch, rk, s, e, b in zip(
        snap["channel"][sel],
        snap["rank"][sel],
        snap["cycle"][sel],
        snap["a"][sel],
        snap["b"][sel],
    ):
        locks.setdefault((int(ch), int(rk)), []).append((int(s), int(e), int(b)))
    for windows in locks.values():
        windows.sort()
    return locks


def _check_lock_exclusion(log: RequestLog, locks) -> None:
    """No DRAM transfer may land inside its bank's/rank's refresh lock."""
    for r in log.requests:
        if r.complete_cycle < 0 or r.service is ServiceKind.SRAM:
            continue
        if r.kind is not ReqKind.READ:
            continue
        key = (r.coord.channel, r.coord.rank)
        for s, e, bank in locks.get(key, ()):
            if bank >= 0 and r.coord.bank != bank:
                continue  # per-bank refresh: other banks keep serving
            if s < r.complete_cycle <= e and r.complete_cycle - 1 >= s:
                # the burst's last beat lies inside the lock window
                raise InvariantViolation(
                    "lock-exclusion",
                    f"DRAM read data during refresh lock [{s},{e}): {r}",
                    cycle=r.complete_cycle,
                )


def _check_refresh_rate(events, refi: int, end_cycle: int) -> None:
    for key, ev in events.items():
        n = len(ev.refresh_starts)
        if end_cycle < 2 * refi:
            continue  # too short to judge
        expected = end_cycle // refi
        if abs(n - expected) > 9:  # JEDEC: up to 8 postponed + 1 in flight
            raise InvariantViolation(
                f"refresh-rate.{key}",
                f"{n} refreshes over {end_cycle} cycles (expected ≈{expected})",
            )


def check_run(
    log: RequestLog,
    memory_system,
    *,
    check_refresh: bool = True,
) -> None:
    """Audit a finished run; raises :class:`InvariantViolation` on failure."""
    t = memory_system.controller.t
    _check_causality(log)
    _check_reads_complete(log)
    _check_bus_exclusive(log, t.burst)
    if memory_system.record_events:
        snap = memory_system.sink.snapshot()
        _check_lock_exclusion(log, _refresh_locks(snap))
        if check_refresh and memory_system.config.refresh.enabled:
            org = memory_system.config.organization
            events = {
                (ch, rk): rank_events(snap, ch, rk)
                for ch in range(org.channels)
                for rk in range(org.ranks)
            }
            _check_refresh_rate(events, t.refi, memory_system.stats.end_cycle)
