"""Multi-core co-simulation: N trace-driven cores sharing one memory system.

Reproduces the paper's 4-core setup: each benchmark of a workload mix runs
on its own core; under rank partitioning each core's footprint is placed
in its own rank's address slice. The simulation ends when every core has
replayed its trace; per-core IPC feeds the weighted-speedup metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import AddressMapScheme, SystemConfig
from ..stats.collectors import ControllerStats
from ..stats.refresh_analysis import rank_events
from ..telemetry import MetricsRegistry, TraceSink
from ..workloads.trace import AccessTrace
from ..dram.memory_system import MemorySystem
from .core import Core

__all__ = ["CoreResult", "MulticoreResult", "run_cores"]


@dataclass(frozen=True)
class CoreResult:
    """Outcome of one core's run."""

    core_id: int
    instructions: int
    cpu_cycles: int
    ipc: float
    reads: int
    writes: int


@dataclass(frozen=True)
class MulticoreResult:
    """Outcome of one (possibly single-core) co-simulation."""

    cores: tuple[CoreResult, ...]
    stats: ControllerStats
    end_cycle: int
    rop_summary: dict | None
    #: per-(channel, rank) event records when ``record_events`` was set
    events: dict | None = None
    #: :class:`~repro.telemetry.MetricsRegistry` snapshot for this run
    metrics: dict | None = None

    @property
    def ipc(self) -> float:
        """Single-core convenience accessor (first core's IPC)."""
        return self.cores[0].ipc

    @property
    def ipcs(self) -> list[float]:
        """Per-core IPCs in core order."""
        return [c.ipc for c in self.cores]


def place_traces(
    traces: list[AccessTrace], config: SystemConfig
) -> list[AccessTrace]:
    """Place per-core traces into the address space.

    Under :class:`AddressMapScheme.RANK_PARTITIONED`, core *i*'s trace is
    offset into rank ``i % ranks``'s slice (the paper's rank-aware
    mapping). Under the shared mappings, cores are offset by equal strides
    of the line-address space so footprints do not alias but *do* spread
    across ranks and interfere — the paper's Baseline behaviour.
    """
    from ..dram.address_mapping import AddressMapper

    org = config.organization
    mapper = AddressMapper(org, config.address_map)
    placed = []
    for i, tr in enumerate(traces):
        if config.address_map is AddressMapScheme.RANK_PARTITIONED:
            base = mapper.partition_base(i % org.ranks)
        else:
            base = (i * org.total_lines) // max(1, len(traces))
        placed.append(tr.offset_lines(base))
    return placed


def run_cores(
    traces: list[AccessTrace],
    config: SystemConfig,
    *,
    record_events: bool = False,
    place: bool = True,
    max_cycles: int | None = None,
    audit: bool = False,
    sink: TraceSink | None = None,
    instrument: Callable[[MemorySystem], None] | None = None,
    engine: str | None = None,
    fallback_reasons: list[str] | None = None,
) -> MulticoreResult:
    """Run one co-simulation of ``traces`` (one per core) and return results.

    ``place=False`` replays traces at their given addresses (callers that
    pre-placed them); ``max_cycles`` bounds runaway simulations.

    ``audit=True`` captures every memory request and runs the invariant
    checker (:func:`repro.stats.invariants.check_run`) on the finished
    simulation, raising ``InvariantViolation`` instead of returning a
    physically impossible result.  The audit never changes the result:
    lock/refresh checks additionally need ``record_events=True``.

    ``sink`` wires a telemetry :class:`~repro.telemetry.TraceSink` through
    the memory system; it never changes the simulation outcome.

    ``instrument`` is called with the freshly built :class:`MemorySystem`
    before any traffic flows — the validation subsystem uses it to attach
    its check taps (observers only; they must not alter behaviour).

    ``engine`` selects the simulation engine: ``"scalar"`` (the reference
    object-dispatch loop) or ``"epoch"`` (the flat array-native kernel,
    bit-identical where supported, scalar fallback otherwise). ``None``
    defers to the ``REPRO_ENGINE`` environment variable, then scalar.

    ``fallback_reasons``, when a list is passed, collects the epoch
    kernel's decline reason (if any) for this call — per-call state, so
    the specs one worker runs each see their own reason.
    """
    from ..kernel import resolve_engine, run_epoch_kernel

    engine = resolve_engine(engine)
    memory = MemorySystem(config, record_events=record_events, sink=sink)
    if instrument is not None:
        instrument(memory)
    log = None
    if audit:
        from ..stats.invariants import RequestLog

        log = RequestLog().attach(memory)
    placed = place_traces(traces, config) if place else traces
    cores = [Core(i, tr, memory, config.core) for i, tr in enumerate(placed)]
    kernel_ran = False
    if engine == "epoch":
        declined = run_epoch_kernel(memory, cores, max_cycles, audited=audit)
        kernel_ran = declined is None
        if declined is not None and fallback_reasons is not None:
            fallback_reasons.append(declined)
    if not kernel_ran:
        for c in cores:
            c.start()
        memory.run(until=max_cycles)
    unfinished = [c.core_id for c in cores if not c.finished]
    if unfinished:
        raise RuntimeError(
            f"cores {unfinished} did not finish "
            f"(events now={memory.now}, pending={memory.controller.pending_requests()})"
        )
    # Memory events drain when the last access completes, but a program may
    # end with a compute tail: keep the memory (and its refresh schedule)
    # running until the slowest core actually retires, so refresh counts
    # and background-energy time cover the whole execution.
    last_retire = max(c.finish_cycle for c in cores)
    if not kernel_ran and last_retire > memory.now:
        memory.run(until=last_retire)
    stats = memory.finish()
    stats.end_cycle = max(stats.end_cycle, last_retire)
    if log is not None:
        from ..stats.invariants import check_run

        log.detach()
        check_run(log, memory)
    results = tuple(
        CoreResult(
            core_id=c.core_id,
            instructions=c.trace.total_instructions,
            cpu_cycles=c.cpu_cycles,
            ipc=c.ipc,
            reads=c.reads_issued,
            writes=c.writes_issued,
        )
        for c in cores
    )
    rop_summary = memory.rop_summary()
    events = None
    if record_events:
        snap = memory.sink.snapshot()
        org = config.organization
        events = {
            (ch, rk): rank_events(snap, ch, rk)
            for ch in range(org.channels)
            for rk in range(org.ranks)
        }
    return MulticoreResult(
        cores=results,
        stats=stats,
        end_cycle=memory.now,
        rop_summary=rop_summary,
        events=events,
        metrics=MetricsRegistry.from_run(stats, results, rop_summary).snapshot(),
    )
