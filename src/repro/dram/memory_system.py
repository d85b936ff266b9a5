"""Public facade over the DRAM substrate: event queue + controller + ROP.

:class:`MemorySystem` is the object most users interact with directly when
they are not going through the CPU co-simulation harness: submit reads and
writes at given cycles, run the event loop, and read back statistics.
"""

from __future__ import annotations

from typing import Callable

from ..config import SystemConfig
from ..events import EventQueue
from ..stats.collectors import ControllerStats
from ..telemetry import NULL_SINK, Category, TraceSink
from .controller import MemoryController
from .request import ReqKind, Request

__all__ = ["MemorySystem"]


class MemorySystem:
    """A complete memory system instance for one simulation run.

    Parameters
    ----------
    config:
        Full system configuration; ``config.rop.enabled`` decides whether a
        :class:`~repro.core.rop_engine.RopEngine` is attached.
    record_events:
        Capture per-rank request/refresh timestamps for the offline refresh
        analyses (costs memory proportional to traffic).  Implemented on
        the telemetry sink: a grow-policy :class:`TraceSink` collecting the
        REQUEST and REFRESH categories is created (unless ``sink`` is
        given, in which case those categories are enabled on it);
        :func:`repro.stats.refresh_analysis.rank_events` reads the
        per-rank view back from ``self.sink.snapshot()``.
    sink:
        Telemetry sink receiving cycle-level events from the controller,
        refresh manager and ROP engine; defaults to the no-op sink.
    events:
        Share an external event queue (the CPU co-simulation does this);
        a private queue is created otherwise.
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        record_events: bool = False,
        events: EventQueue | None = None,
        sink: TraceSink | None = None,
    ) -> None:
        self.config = config
        self.record_events = record_events
        self.events = events if events is not None else EventQueue()
        if sink is not None:
            self.sink = sink
            if record_events:
                self.sink.enable(Category.REQUEST)
                self.sink.enable(Category.REFRESH)
        elif record_events:
            self.sink = TraceSink(
                capacity=1 << 12,
                categories={Category.REQUEST, Category.REFRESH},
                policy="grow",
            )
        else:
            self.sink = NULL_SINK
        self.rop = None
        if config.rop.enabled:
            # imported here to keep repro.dram importable without repro.core
            from ..core.rop_engine import RopEngine

            self.rop = RopEngine(config)
            self.rop.set_sink(self.sink)
        self.controller = MemoryController(
            config, self.events, rop=self.rop, sink=self.sink
        )
        if self.rop is not None:
            self.rop.bind(self.controller)

    # ------------------------------------------------------------------ traffic

    def submit_read(
        self,
        line: int,
        cycle: int,
        core_id: int = 0,
        on_complete: Callable[[int], None] | None = None,
        coord=None,
    ) -> Request:
        """Enqueue a demand read for cache line ``line`` at ``cycle``.

        ``coord`` optionally carries the pre-decoded DRAM coordinates of
        ``line`` (see :meth:`MemoryController.submit`).
        """
        return self.controller.submit(
            ReqKind.READ, line, cycle, core_id, on_complete, coord
        )

    def submit_write(self, line: int, cycle: int, core_id: int = 0, coord=None) -> Request:
        """Enqueue a demand write for cache line ``line`` at ``cycle``."""
        return self.controller.submit(ReqKind.WRITE, line, cycle, core_id, None, coord)

    def schedule_read(
        self,
        line: int,
        cycle: int,
        core_id: int = 0,
        on_complete: Callable[[int], None] | None = None,
    ) -> None:
        """Schedule a read to *arrive* at ``cycle`` (event-ordered).

        Unlike :meth:`submit_read`, which must be called when simulated time
        has already reached ``cycle`` (the CPU co-simulation does), this
        enqueues an arrival event so open-loop traces interleave correctly
        with refresh activity.
        """
        self.events.push(
            cycle,
            lambda c, line=line: self.controller.submit(
                ReqKind.READ, line, c, core_id, on_complete
            ),
        )

    def schedule_write(self, line: int, cycle: int, core_id: int = 0) -> None:
        """Schedule a write to arrive at ``cycle`` (event-ordered)."""
        self.events.push(
            cycle,
            lambda c, line=line: self.controller.submit(ReqKind.WRITE, line, c, core_id),
        )

    # ------------------------------------------------------------------ running

    def run(self, until: int | None = None) -> int:
        """Drive the event loop; returns the number of events dispatched."""
        return self.events.run(until=until)

    def drain(self, horizon: int | None = None) -> int:
        """Run until every queued demand request has been issued.

        ``horizon`` bounds the run (refresh ticks continue forever, so an
        unbounded run would never exhaust the queue). Default: 16 refresh
        intervals past the current cycle.
        """
        t = self.controller.t
        limit = horizon if horizon is not None else self.events.now + 16 * t.refi
        while self.controller.pending_requests() and self.events.now < limit:
            if not self.events.step():
                break
        return self.events.now

    def finish(self) -> ControllerStats:
        """Finalize bookkeeping and return the stats object."""
        if self.rop is not None:
            self.rop.finalize(self.events.now)
        self.controller.finish(self.events.now)
        return self.stats

    # ------------------------------------------------------------------ results

    @property
    def stats(self) -> ControllerStats:
        """The controller's scalar counters."""
        return self.controller.stats

    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self.events.now

    def rop_summary(self) -> dict | None:
        """ROP engine summary, or None when ROP is disabled."""
        return self.rop.summary() if self.rop is not None else None
