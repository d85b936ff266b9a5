"""Integration tests for the alternative refresh schemes (extensions).

The paper compares ROP against auto-refresh and no-refresh only, but its
related-work section names the mechanisms implemented here: JEDEC FGR
(Mukundan et al.), Elastic Refresh (Stuecheli et al.), Refresh Pausing
(Nair et al.) and per-bank refresh (the paper's own future work).
"""

import pytest

from repro import RefreshConfig, RefreshMode, SystemConfig
from repro.cpu import run_cores
from repro.dram import MemorySystem
from repro.stats.refresh_analysis import rank_events
from repro.workloads.trace import AccessTrace


def stream_trace(n=6000, gap=5):
    return AccessTrace.from_lists([gap] * n, list(range(n)), [False] * n)


def ipc_of(mode, trace=None, **refresh_kwargs):
    cfg = SystemConfig.single_core()
    if refresh_kwargs:
        cfg = cfg.__class__(
            **{**cfg.__dict__, "refresh": RefreshConfig(mode=mode, **refresh_kwargs)}
        )
    else:
        cfg = cfg.with_refresh_mode(mode)
    return run_cores([trace if trace is not None else stream_trace()], cfg)


class TestPausing:
    def test_refresh_work_conserved(self):
        r = ipc_of(RefreshMode.PAUSING)
        auto = ipc_of(RefreshMode.AUTO_1X)
        # pausing performs the same total refresh work (±1 in-flight REF)
        assert abs(r.stats.refreshes - auto.stats.refreshes) <= 1
        t = SystemConfig.single_core().timings
        assert r.stats.refresh_locked_cycles == pytest.approx(
            r.stats.refreshes * t.rfc, rel=0.01
        )

    def test_pausing_beats_auto_under_load(self):
        r = ipc_of(RefreshMode.PAUSING)
        auto = ipc_of(RefreshMode.AUTO_1X)
        assert r.ipc > auto.ipc

    def test_pausing_below_ideal(self):
        r = ipc_of(RefreshMode.PAUSING)
        ideal = ipc_of(RefreshMode.NONE)
        assert r.ipc <= ideal.ipc + 1e-9

    def test_pausing_reduces_latency(self):
        # under continuous demand pausing degenerates to postponement (it
        # must force completion by the deadline), which still shifts locks
        # away from traffic — assert the average benefit
        r = ipc_of(RefreshMode.PAUSING)
        auto = ipc_of(RefreshMode.AUTO_1X)
        assert r.stats.avg_read_latency < auto.stats.avg_read_latency

    def test_pausing_interrupts_lock_for_bursty_traffic(self):
        # moderate traffic leaves queue-empty moments: locks get segmented
        # and a read colliding with a refresh waits far less than tRFC
        gaps = [160] * 2000
        tr = AccessTrace.from_lists(gaps, list(range(2000)), [False] * 2000)
        r = ipc_of(RefreshMode.PAUSING, trace=tr)
        t = SystemConfig.single_core().timings
        assert r.stats.read_latency_max < t.rfc

    def test_idle_memory_still_completes_refreshes(self):
        ms = MemorySystem(SystemConfig.single_core().with_refresh_mode(RefreshMode.PAUSING))
        t = ms.controller.t
        ms.schedule_read(0, 3 * t.refi)  # sparse demand keeps sim alive
        ms.run()
        assert ms.stats.refreshes >= 3

    def test_segment_count_respected(self):
        cfg = SystemConfig.single_core()
        cfg = cfg.__class__(
            **{
                **cfg.__dict__,
                "refresh": RefreshConfig(mode=RefreshMode.PAUSING, pause_segments=4),
            }
        )
        ms = MemorySystem(cfg, record_events=True)
        for i in range(4000):
            ms.schedule_read(i, i * 5)
        ms.run()
        ev = rank_events(ms.sink.snapshot(), 0, 0)
        t = ms.controller.t
        seg = t.rfc // 4
        for s, e in zip(ev.refresh_starts, ev.refresh_ends):
            assert e - s <= t.rfc
            assert (e - s) % seg == 0 or (e - s) == t.rfc


class TestFgr:
    def test_fgr_issues_more_refreshes(self):
        auto = ipc_of(RefreshMode.AUTO_1X)
        fgr2 = ipc_of(RefreshMode.FGR_2X)
        fgr4 = ipc_of(RefreshMode.FGR_4X)
        assert fgr2.stats.refreshes > auto.stats.refreshes
        assert fgr4.stats.refreshes > fgr2.stats.refreshes

    def test_fgr_total_lock_time_grows(self):
        auto = ipc_of(RefreshMode.AUTO_1X)
        fgr4 = ipc_of(RefreshMode.FGR_4X)
        assert fgr4.stats.refresh_locked_cycles > auto.stats.refresh_locked_cycles

    def test_fgr_shortens_individual_lock(self):
        auto = ipc_of(RefreshMode.AUTO_1X)
        fgr4 = ipc_of(RefreshMode.FGR_4X)
        assert fgr4.stats.read_latency_max < auto.stats.read_latency_max


class TestElastic:
    def test_elastic_helps_bursty_traffic(self):
        # bursts with idle gaps: postponement moves REFs into the gaps
        gaps = ([2] * 200 + [3000]) * 12
        n = len(gaps)
        tr = AccessTrace.from_lists(gaps, list(range(n)), [False] * n)
        auto = ipc_of(RefreshMode.AUTO_1X, trace=tr)
        el = ipc_of(RefreshMode.ELASTIC, trace=tr)
        assert el.stats.refreshes >= auto.stats.refreshes - 8
        assert el.ipc >= auto.ipc * 0.999


class TestPerBank:
    def test_per_bank_beats_all_bank_for_stream(self):
        auto = ipc_of(RefreshMode.AUTO_1X)
        pb = ipc_of(RefreshMode.PER_BANK)
        assert pb.ipc > auto.ipc

    def test_per_bank_leaves_rank_unlocked(self):
        ms = MemorySystem(SystemConfig.single_core().with_refresh_mode(RefreshMode.PER_BANK))
        t = ms.controller.t
        for i in range(2000):
            ms.schedule_read(i, i * 10)
        ms.run()
        # no demand read was flagged as arriving inside a *rank* lock
        assert ms.stats.reads_arriving_in_lock == 0
