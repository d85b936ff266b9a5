"""Integration tests for the MemorySystem facade and ROP end-to-end
behaviour at the memory level."""


from repro import RefreshMode, SystemConfig
from repro.dram import MemorySystem
from repro.stats.refresh_analysis import rank_events


def stream(ms, n, period=20, start_line=0):
    for i in range(n):
        ms.schedule_read(start_line + i, i * period)


class TestFacade:
    def test_run_returns_event_count(self):
        ms = MemorySystem(SystemConfig.single_core())
        stream(ms, 10)
        assert ms.run() > 0

    def test_finish_finalizes(self):
        ms = MemorySystem(SystemConfig.single_core().with_rop())
        stream(ms, 100)
        ms.run()
        st = ms.finish()
        assert st.end_cycle > 0

    def test_now_property(self):
        ms = MemorySystem(SystemConfig.single_core())
        ms.submit_read(0, 0)
        ms.run()
        assert ms.now == ms.events.now > 0

    def test_rop_summary_none_when_disabled(self):
        ms = MemorySystem(SystemConfig.single_core())
        assert ms.rop_summary() is None

    def test_drain_flushes_queues(self):
        ms = MemorySystem(SystemConfig.single_core())
        for i in range(30):
            ms.submit_write(i * 100, 0)
        ms.drain()
        assert ms.controller.pending_requests() == 0

    def test_shared_event_queue(self):
        from repro.events import EventQueue

        q = EventQueue()
        ms = MemorySystem(SystemConfig.single_core(), events=q)
        assert ms.events is q


class TestRefreshOverheadShape:
    """The paper's central premise at the raw memory level."""

    def test_refresh_increases_avg_latency(self):
        def avg_lat(mode):
            ms = MemorySystem(SystemConfig.single_core().with_refresh_mode(mode))
            stream(ms, 5000)
            ms.run()
            return ms.finish().avg_read_latency

        assert avg_lat(RefreshMode.AUTO_1X) > avg_lat(RefreshMode.NONE)

    def test_rop_recovers_latency(self):
        def run(cfg):
            ms = MemorySystem(cfg)
            stream(ms, 8000)
            ms.run()
            return ms.finish()

        base = run(SystemConfig.single_core())
        # short run: shrink training so ROP actually operates
        rop = run(SystemConfig.single_core().with_rop(training_refreshes=5))
        ideal = run(SystemConfig.single_core().with_refresh_mode(RefreshMode.NONE))
        assert ideal.avg_read_latency < rop.avg_read_latency < base.avg_read_latency

    def test_rop_serves_reads_during_lock(self):
        ms = MemorySystem(SystemConfig.single_core().with_rop(training_refreshes=5))
        stream(ms, 10_000)
        ms.run()
        st = ms.finish()
        assert st.sram_hits_in_lock > 0
        # SRAM-serviced requests carry the SRAM service kind
        assert st.sram_hits == st.sram_hits_in_lock + st.sram_hits_out_of_lock

    def test_max_latency_bounded_by_lock(self):
        ms = MemorySystem(SystemConfig.single_core())
        stream(ms, 3000)
        ms.run()
        st = ms.finish()
        t = ms.controller.t
        # worst demand read waits for ~one full lock plus service/queueing
        assert st.read_latency_max < 3 * t.rfc


class TestPrefetchAccounting:
    def test_prefetches_counted_separately(self):
        ms = MemorySystem(SystemConfig.single_core().with_rop(training_refreshes=5))
        stream(ms, 10_000)
        ms.run()
        st = ms.finish()
        assert st.prefetches > 0
        assert st.reads == 10_000  # demand reads unaffected by prefetch count

    def test_prefetch_delay_accounted(self):
        ms = MemorySystem(SystemConfig.single_core().with_rop(training_refreshes=5))
        stream(ms, 10_000)
        ms.run()
        st = ms.finish()
        assert st.prefetch_fetch_cycles > 0

    def test_resident_lines_not_refetched(self):
        # feed a *stalled* stream: the same lines stay in the buffer across
        # refreshes and must not be fetched twice
        cfg = SystemConfig.single_core().with_rop(training_refreshes=2)
        ms = MemorySystem(cfg)
        t = ms.controller.t
        # very slow stream: ~6 reads per refresh interval
        for i in range(120):
            ms.schedule_read(i, i * 1000)
        ms.run()
        st = ms.finish()
        assert st.sram_fills <= st.prefetches + 1


class TestEventRecording:
    def test_recorder_captures_requests_and_refreshes(self):
        ms = MemorySystem(SystemConfig.single_core(), record_events=True)
        stream(ms, 2000)
        ms.run()
        ev = rank_events(ms.sink.snapshot(), 0, 0)
        assert len(ev.read_arrivals) == 2000
        assert len(ev.refresh_starts) == ms.stats.refreshes
        assert all(e - s == ms.controller.t.rfc for s, e in zip(ev.refresh_starts, ev.refresh_ends))
