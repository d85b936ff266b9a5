"""Unit + property tests for the last-level cache filter."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import LlcConfig
from repro.cpu.llc import Llc, filter_trace
from repro.workloads.trace import AccessTrace

SMALL = LlcConfig(size_bytes=16 * 1024, ways=4)  # 64 sets


def trace_of(lines, writes=None, gaps=None):
    n = len(lines)
    return AccessTrace.from_lists(
        gaps if gaps is not None else [1] * n,
        lines,
        writes if writes is not None else [False] * n,
    )


class TestLlcObject:
    def test_first_access_misses(self):
        c = Llc(SMALL)
        miss, victim = c.access(5, False)
        assert miss and victim is None

    def test_second_access_hits(self):
        c = Llc(SMALL)
        c.access(5, False)
        miss, _ = c.access(5, False)
        assert not miss

    def test_lru_eviction_order(self):
        c = Llc(SMALL)
        nsets = c.num_sets
        lines = [i * nsets for i in range(SMALL.ways + 1)]  # all map to set 0
        for l in lines[:-1]:
            c.access(l, False)
        c.access(lines[0], False)  # touch to make MRU
        miss, victim = c.access(lines[-1], False)
        assert miss
        # victim is the least recently used = lines[1] (clean → no WB line)
        assert victim is None
        assert not c.contains(lines[1])
        assert c.contains(lines[0])

    def test_dirty_eviction_returns_victim(self):
        c = Llc(SMALL)
        nsets = c.num_sets
        lines = [i * nsets for i in range(SMALL.ways + 1)]
        c.access(lines[0], True)  # dirty
        for l in lines[1:-1]:
            c.access(l, False)
        miss, victim = c.access(lines[-1], False)
        assert victim == lines[0]

    def test_write_hit_dirties(self):
        c = Llc(SMALL)
        nsets = c.num_sets
        c.access(0, False)
        c.access(0, True)  # dirty via write hit
        for i in range(1, SMALL.ways + 1):
            _, victim = c.access(i * nsets, False)
        assert victim == 0

    def test_occupancy(self):
        c = Llc(SMALL)
        for i in range(10):
            c.access(i, False)
        assert c.occupancy == 10


class TestFilterTrace:
    def test_all_misses_pass_through(self):
        tr = trace_of(list(range(100)))
        res = filter_trace(tr, SMALL)
        assert res.misses == 100
        assert len(res.memory_trace) == 100
        assert res.miss_rate == 1.0

    def test_hits_filtered_out(self):
        tr = trace_of([1, 2, 3, 1, 2, 3, 1, 2, 3])
        res = filter_trace(tr, SMALL)
        assert res.misses == 3
        assert len(res.memory_trace) == 3

    def test_gaps_accumulate_across_hits(self):
        tr = trace_of([1, 1, 1, 2], gaps=[10, 20, 30, 40])
        res = filter_trace(tr, SMALL)
        mt = res.memory_trace
        assert list(mt.gaps) == [10, 90]
        assert mt.total_instructions == tr.total_instructions

    def test_store_miss_fetches_line(self):
        # write-allocate: a store miss appears as a memory *read*
        tr = trace_of([7], writes=[True])
        mt = filter_trace(tr, SMALL).memory_trace
        assert len(mt) == 1 and not mt.writes[0]

    def test_writeback_emitted_on_dirty_eviction(self):
        nsets = SMALL.sets
        lines = [i * nsets for i in range(SMALL.ways + 1)]
        writes = [True] + [False] * SMALL.ways
        res = filter_trace(trace_of(lines, writes=writes), SMALL)
        assert res.writebacks == 1
        mt = res.memory_trace
        assert int(mt.writes.sum()) == 1
        wb_idx = int(np.argmax(mt.writes))
        assert mt.lines[wb_idx] == lines[0]
        assert mt.gaps[wb_idx] == 0  # write-backs carry no program progress

    def test_tail_instructions_preserved(self):
        tr = AccessTrace.from_lists([5], [1], [False], tail_instructions=100)
        mt = filter_trace(tr, SMALL).memory_trace
        assert mt.tail_instructions == 100

    def test_larger_cache_fewer_misses(self):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 2048, size=5000)
        tr = trace_of(lines.tolist())
        small = filter_trace(tr, LlcConfig(size_bytes=16 * 1024, ways=4))
        big = filter_trace(tr, LlcConfig(size_bytes=256 * 1024, ways=4))
        assert big.misses < small.misses

    def test_working_set_fits_no_capacity_misses(self):
        # 64 distinct lines fit a 16 KB cache: repeat passes all hit
        lines = list(range(64)) * 10
        res = filter_trace(trace_of(lines), SMALL)
        assert res.misses == 64


# ---------------------------------------------------------------- properties


def reference_filter(trace: AccessTrace, cfg: LlcConfig):
    """Per-access :meth:`Llc.access` walk: the memory trace and the cache."""
    cache = Llc(cfg)
    gaps, lines, writes = [], [], []
    pending = 0
    for gap, line, wr in zip(trace.gaps.tolist(), trace.lines.tolist(), trace.writes.tolist()):
        pending += gap
        miss, victim = cache.access(line, wr)
        if not miss:
            continue
        gaps.append(pending)
        lines.append(line)
        writes.append(False)
        pending = 0
        if victim is not None:
            gaps.append(0)
            lines.append(victim)
            writes.append(True)
    mem = AccessTrace.from_lists(
        gaps, lines, writes, tail_instructions=pending + trace.tail_instructions
    )
    return mem, cache


@st.composite
def bursty_traces(draw):
    """A geometry and a trace with repeat bursts, zero gaps and write mixes."""
    ways = draw(st.integers(1, 8))
    sets = 1 << draw(st.integers(0, 4))  # 1..16 sets
    cfg = LlcConfig(size_bytes=ways * sets * 64, ways=ways)
    # a footprint a few times the capacity: hits, misses and evictions
    space = draw(st.integers(1, 3 * ways * sets))
    bursts = draw(
        st.lists(
            st.tuples(
                st.integers(0, space - 1),  # line
                st.integers(1, 5),  # repeats
                st.lists(st.integers(0, 4), min_size=5, max_size=5),  # gaps
                st.lists(st.booleans(), min_size=5, max_size=5),  # writes
            ),
            max_size=80,
        )
    )
    gaps, lines, writes = [], [], []
    for line, reps, bgaps, bwrites in bursts:
        lines += [line] * reps
        gaps += bgaps[:reps]
        writes += bwrites[:reps]
    if lines and draw(st.booleans()):
        # end on a hit: the last line again
        lines.append(lines[-1])
        gaps.append(draw(st.integers(0, 4)))
        writes.append(draw(st.booleans()))
    tail = draw(st.integers(0, 10))
    return cfg, AccessTrace.from_lists(gaps, lines, writes, tail_instructions=tail)


@given(case=bursty_traces())
@example(case=(LlcConfig(size_bytes=64, ways=1), AccessTrace.from_lists([], [], [], 3)))
@example(
    case=(
        LlcConfig(size_bytes=2 * 64, ways=1),
        AccessTrace.from_lists([1, 0, 2, 0], [0, 1, 0, 0], [True, False, False, True], 5),
    )
)
@settings(max_examples=200, deadline=None)
def test_filter_matches_reference_model(case):
    """filter_trace's full result equals a per-access ``Llc.access`` walk."""
    cfg, tr = case
    res = filter_trace(tr, cfg)
    ref, cache = reference_filter(tr, cfg)
    mt = res.memory_trace
    for field in ("gaps", "lines", "writes"):
        got, want = getattr(mt, field), getattr(ref, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field
    assert mt.tail_instructions == ref.tail_instructions
    assert (res.accesses, res.misses, res.writebacks) == (
        cache.accesses,
        cache.misses,
        cache.writebacks,
    )


@given(lines=st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_instruction_conservation(lines):
    tr = trace_of(lines, gaps=[3] * len(lines))
    res = filter_trace(tr, SMALL)
    assert res.memory_trace.total_instructions == tr.total_instructions
