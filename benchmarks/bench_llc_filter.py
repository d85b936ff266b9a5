"""PERF — micro-benchmark guarding the run-folded ``filter_trace``.

``cpu/llc.py::filter_trace`` filters every CPU trace once per LLC
geometry before the memory trace can be cached, so it leads the trace
layer of the LLC-size sweeps.  It walks the per-set LRU dicts only at
*run heads*: a re-hit on the line its set touched last is folded onto
the run's head (its write flag ORed in) with vectorized NumPy, and the
miss gaps come from the gap prefix sum.  This bench pits it against the
per-access walk (every access visits the dicts, as ``Llc.access`` does)
on gcc's trace through a 512 KB, 8-way LLC and asserts:

* identical output (trace, counters, tail), and
* the folded filter is at least 1.5x faster.  This geometry keeps about
  18% of the accesses as run heads, so the margin is below what the
  LLC-size sweeps see (about 9% at 1-8 MB).
"""

from __future__ import annotations

import time

import numpy as np
from conftest import run_once

from repro.config import LlcConfig
from repro.cpu.llc import Llc, filter_trace
from repro.workloads import profile
from repro.workloads.trace import AccessTrace


def filter_trace_reference(trace: AccessTrace, cfg: LlcConfig):
    """The per-access walk: every access visits the set dicts."""
    cache = Llc(cfg)
    sets = cache._sets
    ways = cache.ways
    mask = cache.num_sets - 1
    out_gaps: list[int] = []
    out_lines: list[int] = []
    out_writes: list[bool] = []
    pending = 0
    gaps = trace.gaps.tolist()
    lines = trace.lines.tolist()
    writes = trace.writes.tolist()
    misses = 0
    writebacks = 0
    for gap, line, wr in zip(gaps, lines, writes):
        pending += gap
        s = sets[line & mask]
        if line in s:
            dirty = s.pop(line)
            s[line] = dirty or wr
            continue
        misses += 1
        out_gaps.append(pending)
        out_lines.append(line)
        out_writes.append(False)
        pending = 0
        if len(s) >= ways:
            vline = next(iter(s))
            vdirty = s.pop(vline)
            if vdirty:
                writebacks += 1
                out_gaps.append(0)
                out_lines.append(vline)
                out_writes.append(True)
        s[line] = wr
    mem = AccessTrace(
        np.asarray(out_gaps, dtype=np.int64),
        np.asarray(out_lines, dtype=np.int64),
        np.asarray(out_writes, dtype=bool),
        tail_instructions=pending + trace.tail_instructions,
    )
    return mem, misses, writebacks


def _time(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def test_filter_trace_speed_and_equivalence(benchmark, scale):
    # gcc has the richest mix of misses, hits and dirty evictions
    cpu = profile("gcc").cpu_trace(scale.instructions, seed=1)
    cfg = LlcConfig(size_bytes=512 * 1024, ways=8)

    def compare():
        ref_mem, ref_m, ref_w = filter_trace_reference(cpu, cfg)
        res = filter_trace(cpu, cfg)
        assert res.misses == ref_m and res.writebacks == ref_w
        assert np.array_equal(res.memory_trace.gaps, ref_mem.gaps)
        assert np.array_equal(res.memory_trace.lines, ref_mem.lines)
        assert np.array_equal(res.memory_trace.writes, ref_mem.writes)
        assert res.memory_trace.tail_instructions == ref_mem.tail_instructions
        return _time(filter_trace_reference, cpu, cfg), _time(filter_trace, cpu, cfg)

    t_ref, t_new = run_once(benchmark, compare)
    speedup = t_ref / t_new if t_new > 0 else float("inf")
    print(f"\nfilter_trace: per-access {t_ref * 1e3:.1f} ms, "
          f"run-folded {t_new * 1e3:.1f} ms (x{speedup:.2f})")
    assert speedup >= 1.5, (
        f"run-folded filter_trace only x{speedup:.2f} faster than the per-access "
        f"walk ({t_new:.4f}s vs {t_ref:.4f}s); expected at least x1.5"
    )
