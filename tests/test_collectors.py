"""Unit tests for stats collectors."""

import numpy as np

from repro import SystemConfig
from repro.cpu import run_cores
from repro.stats.collectors import ControllerStats, RankEvents
from repro.stats.refresh_analysis import rank_events
from repro.telemetry import Category, Kind, TraceSink
from repro.workloads.trace import AccessTrace


class TestControllerStats:
    def test_defaults_zero(self):
        s = ControllerStats()
        assert s.reads == 0 and s.avg_read_latency == 0.0
        assert s.lock_hit_rate == 0.0
        assert s.row_hit_rate == 0.0

    def test_avg_latency(self):
        s = ControllerStats(reads_completed=4, read_latency_sum=100)
        assert s.avg_read_latency == 25.0

    def test_lock_hit_rate(self):
        s = ControllerStats(reads_arriving_in_lock=10, sram_hits_in_lock=6)
        assert s.lock_hit_rate == 0.6

    def test_row_hit_rate(self):
        s = ControllerStats(row_hits=6, row_closed=2, row_conflicts=2)
        assert s.row_hit_rate == 0.6

    def test_sram_hits_total(self):
        s = ControllerStats(sram_hits_in_lock=3, sram_hits_out_of_lock=4)
        assert s.sram_hits == 7

    def test_demand_accesses(self):
        s = ControllerStats(reads=5, writes=3, prefetches=100)
        assert s.demand_accesses == 8  # prefetches are not demand

    def test_merge_sums_counters(self):
        a = ControllerStats(reads=5, read_latency_max=30, end_cycle=100)
        b = ControllerStats(reads=7, read_latency_max=80, end_cycle=50)
        a.merge(b)
        assert a.reads == 12
        assert a.read_latency_max == 80  # max, not sum
        assert a.end_cycle == 100  # max, not sum


class TestRankEvents:
    def test_per_rank_separation(self):
        sink = TraceSink(capacity=64, categories={Category.REQUEST, Category.REFRESH})
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 10, 0, 0)
        sink.emit(Category.REQUEST, Kind.WRITE_ARRIVAL, 20, 0, 1)
        sink.emit(Category.REFRESH, Kind.REFRESH_WINDOW, 100, 0, 1, a=380, b=-1)
        snap = sink.snapshot()
        ev0 = rank_events(snap, 0, 0)
        ev1 = rank_events(snap, 0, 1)
        assert ev0.read_arrivals == [10] and ev0.write_arrivals == []
        assert ev1.write_arrivals == [20]
        assert ev1.refresh_starts == [100] and ev1.refresh_ends == [380]

    def test_all_events_keys(self):
        """A recorded run carries one view per (channel, rank), idle or not."""
        trace = AccessTrace.from_lists([4] * 200, list(range(200)), [False] * 200)
        r = run_cores([trace], SystemConfig.quad_core(), record_events=True)
        assert set(r.events) == {(0, 0), (0, 1), (0, 2), (0, 3)}

    def test_arrays_snapshot(self):
        ev = RankEvents(read_arrivals=[3, 1, 2])
        arrays = ev.arrays()
        assert arrays["reads"].dtype == np.int64
        assert list(arrays["reads"]) == [3, 1, 2]
        assert len(arrays["refresh_starts"]) == 0
