"""Counters and per-rank event views populated during a simulation run.

:class:`ControllerStats` holds the scalar counters every run produces
(request mix, row-buffer outcomes, latencies, refresh and SRAM activity);
the energy model and the reporting harness read them. :class:`RankEvents`
is the per-rank timestamp view the paper's offline analyses (Figs. 2–4,
Table I) consume; the events themselves are stored once, in the
telemetry :class:`~repro.telemetry.TraceSink`, and
:func:`repro.stats.refresh_analysis.rank_events` builds the view from a
sink snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ControllerStats", "RankEvents"]


@dataclass
class ControllerStats:
    """Scalar counters for one memory-controller run."""

    # request mix
    reads: int = 0
    writes: int = 0
    prefetches: int = 0

    # row-buffer outcomes for DRAM-serviced demand accesses
    row_hits: int = 0
    row_closed: int = 0
    row_conflicts: int = 0

    # latency accounting (controller cycles, demand reads only)
    read_latency_sum: int = 0
    read_latency_max: int = 0
    reads_completed: int = 0

    # refresh activity
    refreshes: int = 0
    refresh_locked_cycles: int = 0
    #: demand reads that arrived while their target rank was frozen
    reads_arriving_in_lock: int = 0
    #: of those, reads serviced by the SRAM buffer while the lock was held
    sram_hits_in_lock: int = 0
    #: SRAM hits outside a lock (buffer still warm after the refresh)
    sram_hits_out_of_lock: int = 0
    #: lines filled into the SRAM buffer by prefetches
    sram_fills: int = 0
    #: lines invalidated from the buffer by demand writes
    sram_invalidations: int = 0
    #: prefetch opportunities where the throttle decided not to prefetch
    prefetch_skipped: int = 0
    #: DRAM cycles spent fetching prefetch lines (refresh-delay cost)
    prefetch_fetch_cycles: int = 0

    # simulated time
    end_cycle: int = 0

    @property
    def demand_accesses(self) -> int:
        """Total demand (read + write) requests."""
        return self.reads + self.writes

    @property
    def avg_read_latency(self) -> float:
        """Mean demand-read latency in controller cycles."""
        if self.reads_completed == 0:
            return 0.0
        return self.read_latency_sum / self.reads_completed

    @property
    def sram_hits(self) -> int:
        """Total reads serviced from the SRAM buffer."""
        return self.sram_hits_in_lock + self.sram_hits_out_of_lock

    @property
    def lock_hit_rate(self) -> float:
        """The paper's Fig. 9 metric: SRAM hits ÷ reads arriving in a lock."""
        if self.reads_arriving_in_lock == 0:
            return 0.0
        return self.sram_hits_in_lock / self.reads_arriving_in_lock

    @property
    def row_hit_rate(self) -> float:
        """Row-buffer hit fraction among DRAM-serviced demand accesses."""
        total = self.row_hits + self.row_closed + self.row_conflicts
        return self.row_hits / total if total else 0.0

    def merge(self, other: "ControllerStats") -> None:
        """Accumulate another stats object into this one (for sweeps)."""
        for name in self.__dataclass_fields__:
            if name == "read_latency_max":
                self.read_latency_max = max(self.read_latency_max, other.read_latency_max)
            elif name == "end_cycle":
                self.end_cycle = max(self.end_cycle, other.end_cycle)
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class RankEvents:
    """Per-rank event timestamps, as plain ``int`` lists (NumPy scalars
    would change the pickled results and so their digests)."""

    read_arrivals: list[int] = field(default_factory=list)
    write_arrivals: list[int] = field(default_factory=list)
    refresh_starts: list[int] = field(default_factory=list)
    refresh_ends: list[int] = field(default_factory=list)

    def arrays(self) -> dict[str, np.ndarray]:
        """Snapshot the lists as int64 NumPy arrays."""
        return {
            "reads": np.asarray(self.read_arrivals, dtype=np.int64),
            "writes": np.asarray(self.write_arrivals, dtype=np.int64),
            "refresh_starts": np.asarray(self.refresh_starts, dtype=np.int64),
            "refresh_ends": np.asarray(self.refresh_ends, dtype=np.int64),
        }

