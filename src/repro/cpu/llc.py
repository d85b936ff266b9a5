"""Last-level cache model: a set-associative, write-back, write-allocate
LRU cache that filters a CPU-level access trace into the memory-level
trace the DRAM controller sees.

Cache hit/miss outcomes depend only on the *order* of accesses, never on
their timing, so the filter runs once as a pure function and the resulting
memory trace is reused across every memory configuration — the
decoupling that keeps the paper's LLC-size sensitivity sweeps affordable
(see DESIGN.md §5).  The simulator never reads the LLC config itself, so
specs whose filtered traces coincide (a working set that fits every LLC
size of a sweep) share one simulation in the runner.

The LLC is the component that creates the bursty, pattern-bearing traffic
ROP's profiler exploits: hit runs produce silence at the memory level,
miss runs produce dense multi-delta request trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import LlcConfig
from ..workloads.trace import AccessTrace

__all__ = ["LlcResult", "Llc", "filter_trace"]


@dataclass(frozen=True)
class LlcResult:
    """Output of one LLC filtering pass."""

    memory_trace: AccessTrace  #: misses + write-backs, in program order
    accesses: int  #: CPU-level accesses observed
    misses: int  #: demand misses (loads and stores)
    writebacks: int  #: dirty evictions emitted

    @property
    def miss_rate(self) -> float:
        """Demand miss rate (misses / accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0


class Llc:
    """Streaming set-associative LRU cache (write-back, write-allocate).

    Each set is a dict mapping line → dirty flag; dict insertion order
    doubles as LRU order (oldest first), so a hit is re-inserted to move it
    to MRU and eviction pops the first key.
    """

    def __init__(self, cfg: LlcConfig) -> None:
        self.cfg = cfg
        self.num_sets = cfg.sets
        self.ways = cfg.ways
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, line: int, is_write: bool) -> tuple[bool, int | None]:
        """One access; returns ``(miss, evicted_dirty_line_or_None)``."""
        self.accesses += 1
        s = self._sets[line & (self.num_sets - 1)]
        if line in s:
            dirty = s.pop(line)
            s[line] = dirty or is_write
            return False, None
        self.misses += 1
        victim: int | None = None
        if len(s) >= self.ways:
            vline, vdirty = next(iter(s.items()))
            del s[vline]
            if vdirty:
                self.writebacks += 1
                victim = vline
        s[line] = is_write
        return True, victim

    def contains(self, line: int) -> bool:
        """True if ``line`` is currently cached."""
        return line in self._sets[line & (self.num_sets - 1)]

    @property
    def occupancy(self) -> int:
        """Lines currently resident."""
        return sum(len(s) for s in self._sets)


def filter_trace(trace: AccessTrace, cfg: LlcConfig) -> LlcResult:
    """Filter a CPU-level trace through the LLC (pure function).

    Misses become memory reads (write-allocate fetches stores too);
    dirty evictions become memory writes with a zero instruction gap.

    Exact run folding keeps the sequential LRU walk short.  An access to
    the line its set touched last is a hit that leaves the LRU order as
    it is; its only effect is to OR its write flag into that line's
    dirty bit, and no other line of the set is touched until the run of
    such re-hits ends, so nothing can be evicted inside it.  A stable
    argsort by set index lines each set's accesses up in program order;
    a *run head* is an access whose line differs from the previous one
    of its set, and ``np.logical_or.reduceat`` folds each run's write
    flags onto its head.  Only the heads walk the per-set dicts (the
    :class:`Llc` bookkeeping), in program order, recording each miss's
    access index; miss gaps are differences of the gap prefix sum at
    those indices, and the miss/write-back interleave is assembled with
    vectorized NumPy.  :class:`Llc` stays the per-access reference;
    ``benchmarks/bench_llc_filter.py`` and ``tests/test_llc.py`` check
    the two agree bit for bit.
    """
    n = len(trace)
    mask = cfg.sets - 1
    lines = trace.lines
    # the smallest unsigned key lets NumPy's stable sort use radix sort
    order = np.argsort((lines & mask).astype(np.min_scalar_type(mask)), kind="stable")
    by_set = lines[order]
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = by_set[1:] != by_set[:-1]
    starts = np.flatnonzero(new_run)
    # scatter run heads (and each run's folded write flag) back to
    # program order
    head = np.zeros(n, dtype=bool)
    head[order[starts]] = True
    run_write = np.zeros(n, dtype=bool)
    run_write[order[starts]] = np.logical_or.reduceat(trace.writes[order], starts)
    heads = np.flatnonzero(head)

    ways = cfg.ways
    sets: list[dict[int, bool]] = [dict() for _ in range(cfg.sets)]
    miss_heads: list[int] = []  #: run-head number of each miss
    wb_seq: list[int] = []  #: miss sequence number each write-back follows
    wb_lines: list[int] = []
    for k, line, wr in zip(
        range(len(heads)), lines[heads].tolist(), run_write[heads].tolist()
    ):
        s = sets[line & mask]
        if line in s:
            dirty = s.pop(line)
            s[line] = dirty or wr
            continue
        miss_heads.append(k)
        if len(s) >= ways:
            vline = next(iter(s))
            vdirty = s.pop(vline)
            if vdirty:
                wb_seq.append(len(miss_heads) - 1)
                wb_lines.append(vline)
        s[line] = wr
    n_miss = len(miss_heads)
    n_wb = len(wb_seq)
    miss_at = heads[np.asarray(miss_heads, dtype=np.int64)]
    elapsed = np.cumsum(trace.gaps, dtype=np.int64)
    at_miss = elapsed[miss_at]
    total = int(elapsed[-1]) if n else 0
    tail = total - (int(at_miss[-1]) if n_miss else 0) + trace.tail_instructions
    wseq = np.asarray(wb_seq, dtype=np.int64)
    # interleave: each write-back lands right after the miss that evicted
    # it, so miss m shifts right by the number of earlier write-backs
    pos_miss = np.arange(n_miss, dtype=np.int64) + np.searchsorted(
        wseq, np.arange(n_miss, dtype=np.int64), side="left"
    )
    pos_wb = pos_miss[wseq] + 1
    out_gaps = np.zeros(n_miss + n_wb, dtype=np.int64)
    out_lines = np.empty(n_miss + n_wb, dtype=np.int64)
    out_writes = np.zeros(n_miss + n_wb, dtype=bool)
    out_gaps[pos_miss] = np.diff(at_miss, prepend=np.int64(0))
    out_lines[pos_miss] = lines[miss_at]
    out_lines[pos_wb] = np.asarray(wb_lines, dtype=np.int64)
    out_writes[pos_wb] = True
    mem = AccessTrace(out_gaps, out_lines, out_writes, tail_instructions=tail)
    return LlcResult(mem, n, n_miss, n_wb)
