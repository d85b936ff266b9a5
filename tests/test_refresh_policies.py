"""Unit tests for the pluggable refresh-policy zoo (DARP / SARP / RAIDR).

Covers the policy registry round-trip, each new policy's scheduling
mechanics in isolation, the subarray lock semantics on ``Rank``/``Bank``,
the per-policy golden models' failpoint trip tests, and the regression
that Elastic Refresh's owed counters — now owned by the policy object —
survive a round-trip through the artifact cache.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro import MemoryOrganization, RefreshConfig, RefreshMode, SystemConfig
from repro.dram.rank import Rank
from repro.dram.refresh import (
    REFRESH_POLICIES,
    ElasticRefresh,
    RefreshManager,
    RefreshPolicy,
    register_policy,
)
from repro.dram.timings import DDR4_1600 as T
from repro.dram.timings import DENSITY_TRFC_NS
from repro.validation.golden import validate_traces
from repro.workloads.trace import AccessTrace


def make(mode=RefreshMode.AUTO_1X, ranks=1, banks=8, **kwargs):
    org = MemoryOrganization(ranks=ranks, banks=banks)
    cfg = RefreshConfig(mode=mode, **kwargs)
    return RefreshManager(cfg, T, org)


def mixed_trace(n=3000, seed=7):
    import random

    rng = random.Random(seed)
    return AccessTrace.from_lists(
        [rng.randrange(1, 40) for _ in range(n)],
        [rng.randrange(0, 1 << 18) for _ in range(n)],
        [rng.random() < 0.3 for _ in range(n)],
    )


class TestRegistry:
    def test_every_mode_has_a_policy(self):
        for mode in RefreshMode:
            assert mode in REFRESH_POLICIES, f"no policy registered for {mode}"

    def test_manager_round_trips_each_mode(self):
        for mode in RefreshMode:
            mgr = make(mode=mode)
            assert isinstance(mgr.policy, REFRESH_POLICIES[mode])
            assert mgr.policy.mode is mode
            assert mode in type(mgr.policy).modes

    def test_unregistered_mode_is_a_clear_error(self):
        saved = REFRESH_POLICIES.pop(RefreshMode.AUTO_1X)
        try:
            with pytest.raises(ValueError, match="no RefreshPolicy registered"):
                make(mode=RefreshMode.AUTO_1X)
        finally:
            REFRESH_POLICIES[RefreshMode.AUTO_1X] = saved

    def test_register_policy_decorator(self):
        @register_policy(RefreshMode.AUTO_1X)
        class Custom(RefreshPolicy):
            pass

        try:
            assert REFRESH_POLICIES[RefreshMode.AUTO_1X] is Custom
            assert isinstance(make().policy, Custom)
        finally:
            from repro.dram.refresh import AutoRefresh

            register_policy(RefreshMode.AUTO_1X)(AutoRefresh)

    def test_kernel_decline_surface(self):
        assert make(mode=RefreshMode.DARP).kernel_decline is not None
        assert make(mode=RefreshMode.SARP).kernel_decline is not None
        for mode in (RefreshMode.AUTO_1X, RefreshMode.RAIDR, RefreshMode.ELASTIC):
            assert make(mode=mode).kernel_decline is None


class TestDarp:
    def test_idle_bank_gets_the_refresh(self):
        mgr = make(mode=RefreshMode.DARP)
        assert mgr.decide(0, 0, 1000, 0, set()) == 1
        assert mgr.banks_for(0, 0) == [0]  # round-robin accrual starts at 0

    def test_all_banks_busy_postpones(self):
        mgr = make(mode=RefreshMode.DARP)
        assert mgr.decide(0, 0, 1000, 8, set(range(8))) == 0
        assert mgr.owed(0, 0) == 1

    def test_most_owed_idle_bank_wins(self):
        mgr = make(mode=RefreshMode.DARP)
        busy = set(range(8))
        for _ in range(3):  # accrue debt on banks 0, 1, 2
            assert mgr.decide(0, 0, 0, 8, busy) == 0
        # bank 3 accrues this tick; bank 0 is still busy → lowest-id idle
        # bank with the (tied) highest debt is bank 1
        assert mgr.decide(0, 0, 0, 1, {0}) == 1
        assert mgr.banks_for(0, 0) == [1]

    def test_forced_dump_beyond_postpone_budget(self):
        mgr = make(mode=RefreshMode.DARP, postpone_max=2)
        busy = set(range(8))
        counts = [mgr.decide(0, 0, 0, 8, busy) for _ in range(17)]
        # bank 0 accrues at ticks 0/8/16; at tick 16 its debt hits 3 > 2
        assert counts[:16] == [0] * 16
        assert counts[16] == 3
        assert [mgr.banks_for(0, 0) for _ in range(3)] == [[0], [0], [0]]

    def test_budget_zero_is_in_order_per_bank(self):
        mgr = make(mode=RefreshMode.DARP, postpone_max=0)
        order = []
        for _ in range(16):
            assert mgr.decide(0, 0, 0, 8, set(range(8))) == 1
            order.extend(mgr.banks_for(0, 0))
        assert order == list(range(8)) * 2

    def test_piggyback_skips_banks_with_pending_reads(self):
        mgr = make(mode=RefreshMode.DARP)
        busy = set(range(8))
        for _ in range(3):  # debt on banks 0, 1, 2
            mgr.decide(0, 0, 0, 8, busy)
        assert mgr.piggyback_banks(0, 0, {1}) == [0, 2]
        assert mgr.owed(0, 0) == 1  # bank 1 still owes its refresh

    def test_piggyback_is_noop_without_debt(self):
        mgr = make(mode=RefreshMode.DARP)
        assert mgr.piggyback_banks(0, 0, set()) == []


class TestSarp:
    def test_round_robin_banks_rotating_subarrays(self):
        mgr = make(mode=RefreshMode.SARP, subarrays_per_bank=4)
        seen = [(mgr.banks_for(0, 0)[0]) for _ in range(16)]
        assert seen == list(range(8)) * 2
        assert [mgr.subarray_for(0, 0, 0) for _ in range(5)] == [0, 1, 2, 3, 0]
        assert mgr.subarray_for(0, 0, 1) == 0  # per-bank rotation is independent

    def test_subarray_conflict_blocks_same_subarray_only(self):
        rank = Rank(8)
        sub_rows = 256
        rank.sub_rows = sub_rows
        start, end = rank.start_subarray_refresh(1000, T, 0, 2, sub_rows)
        assert (start, end) == (1000, 1000 + T.rfc)
        # same subarray (row 2*256..3*256): column gate waits out the lock
        blocked = rank.plan(1000, 0, 2 * sub_rows + 5, False, T)
        assert blocked.col_cycle >= end
        # other subarray of the same bank proceeds immediately
        free = rank.plan(1000, 0, 7, False, T)
        assert free.col_cycle < end
        # other banks are untouched
        other = rank.plan(1000, 1, 2 * sub_rows + 5, False, T)
        assert other.col_cycle < end

    def test_subarray_refresh_respects_quiesce_and_serializes(self):
        rank = Rank(8)
        rank.sub_rows = 256
        plan = rank.plan(500, 0, 10, False, T)
        rank.commit(plan, 0, 10, False, T)
        s1, e1 = rank.start_subarray_refresh(500, T, 0, 0, 256)
        assert s1 >= rank.banks[0].busy_until or s1 >= 500
        s2, _e2 = rank.start_subarray_refresh(s1, T, 0, 1, 256)
        assert s2 >= e1  # back-to-back subarray locks serialize per bank

    def test_lock_committed_ahead_still_gates_its_subarray(self):
        """Regression: a bank's subarray locks are committed ahead of time,
        so a later lock on subarray 1 must not lift the gate on subarray
        0, whose own lock still lies in the future."""
        rank = Rank(8)
        rank.sub_rows = 256
        _s1, e1 = rank.start_subarray_refresh(1000, T, 0, 0, 256)
        s2, e2 = rank.start_subarray_refresh(1000, T, 0, 1, 256)
        assert s2 >= e1
        assert rank.plan(1000, 0, 5, False, T).col_cycle >= e1
        assert rank.plan(1000, 0, 256 + 5, False, T).col_cycle >= e2

    def test_lock_committed_ahead_holds_end_to_end(self):
        """The same overlap, reached by a ROP run that commits the next
        subarray lock while a read to the earlier one waits: the SARP
        golden model must see no burst inside a lock."""
        org = MemoryOrganization(channels=1, ranks=1, banks=4, rows=256, columns=32)
        cfg = (
            SystemConfig.single_core(
                organization=org, timings=T.with_refresh(refi=1200, rfc=100)
            )
            .with_refresh_mode(RefreshMode.SARP)
            .with_refresh_opts(subarrays_per_bank=2)
            .with_rop(
                sram_lines=64,
                training_refreshes=1,
                probabilistic=False,
                drain_before_refresh=False,
                adaptive_depth=False,
            )
        )
        gaps = [500, 0, 0, 0, 500, 0, 0, 0, 0, 0, 500, 0, 0, 0, 3865, 0, 0, 0, 0, 0]
        lines = [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 0, 32, 64, 96, 0, 32, 64, 96, 128, 160]
        trace = AccessTrace(
            gaps=np.array(gaps),
            lines=np.array(lines),
            writes=np.zeros(len(gaps), dtype=bool),
            tail_instructions=0,
        )
        _result, mismatches = validate_traces([trace], cfg)
        assert mismatches == []

    def test_open_row_closed_only_when_in_refreshing_subarray(self):
        rank = Rank(8)
        rank.sub_rows = 256
        plan = rank.plan(0, 0, 300, False, T)  # row 300 → subarray 1
        rank.commit(plan, 0, 300, False, T)
        rank.start_subarray_refresh(plan.data_end + 1, T, 0, 0, 256)
        assert rank.banks[0].open_row == 300  # subarray 0 lock leaves it open
        rank.start_subarray_refresh(plan.data_end + 1, T, 0, 1, 256)
        assert rank.banks[0].open_row is None


class TestRaidr:
    def test_bin_slot_arithmetic(self):
        mgr = make(
            mode=RefreshMode.RAIDR,
            raidr_window_ticks=8,
            raidr_bins=(0.5, 0.25, 0.25),
        )
        pol = mgr.policy
        assert (pol.window, pol.n64, pol.n128) == (8, 4, 2)
        # 4 windows: 64ms slots 4×4, 128ms slots alternate (4 fires),
        # 256ms slots every fourth window (2 fires)
        fired = sum(1 for i in range(32) if pol.fires(i))
        assert fired == 16 + 4 + 2

    def test_all_64ms_bins_fire_every_tick(self):
        mgr = make(mode=RefreshMode.RAIDR, raidr_bins=(1.0, 0.0, 0.0))
        assert all(mgr.decide(0, 0, i, 0) == 1 for i in range(64))

    def test_tick_counters_are_per_rank(self):
        mgr = make(
            mode=RefreshMode.RAIDR,
            ranks=2,
            raidr_window_ticks=4,
            raidr_bins=(0.25, 0.5, 0.25),
        )
        a = [mgr.decide(0, 0, i, 0) for i in range(8)]
        b = [mgr.decide(0, 1, i, 0) for i in range(8)]
        assert a == b  # independent counters replay the same schedule
        assert 0 < sum(a) < 8  # the grid really is decimated


class TestElasticOwnership:
    def test_owed_state_lives_on_the_policy(self):
        mgr = make(mode=RefreshMode.ELASTIC, ranks=2)
        assert isinstance(mgr.policy, ElasticRefresh)
        assert not hasattr(mgr, "_owed")
        mgr.decide(0, 1, 0, pending_demand=3)
        assert mgr.policy._owed[(0, 1)] == 1
        assert mgr.owed(0, 1) == 1
        assert mgr.owed(0, 0) == 0

    def test_owed_behavior_survives_artifact_cache_round_trip(
        self, tmp_path, monkeypatch
    ):
        from repro.harness import RunScale, RunSpec, execute_plan
        from repro.harness.runner import clear_result_memo

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cfg = SystemConfig.single_core().with_refresh_mode(RefreshMode.ELASTIC)
        spec = RunSpec.benchmark("lbm", cfg, RunScale.named("smoke"))
        clear_result_memo()
        cold = execute_plan([spec], jobs=1)[spec]
        clear_result_memo()
        warm = execute_plan([spec], jobs=1)[spec]
        assert hashlib.sha256(pickle.dumps(cold)).hexdigest() == hashlib.sha256(
            pickle.dumps(warm)
        ).hexdigest()
        assert warm.stats.refreshes == cold.stats.refreshes


class TestGoldenTripWires:
    """Each new golden model must fire under its REPRO_FAULTS failpoint."""

    def _trip(self, monkeypatch, tmp_path, check, skew, cfg):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({f"golden:{check}": skew}))
        monkeypatch.setenv("REPRO_FAULTS", str(faults))
        _result, mismatches = validate_traces([mixed_trace()], cfg)
        assert any(m.check == check for m in mismatches)
        monkeypatch.delenv("REPRO_FAULTS")
        _result, clean = validate_traces([mixed_trace()], cfg)
        assert clean == []

    def test_darp_schedule_trips(self, monkeypatch, tmp_path):
        cfg = SystemConfig.single_core().with_refresh_mode(RefreshMode.DARP)
        self._trip(monkeypatch, tmp_path, "darp-schedule", 7, cfg)

    def test_sarp_exclusion_trips(self, monkeypatch, tmp_path):
        cfg = SystemConfig.single_core().with_refresh_mode(RefreshMode.SARP)
        self._trip(monkeypatch, tmp_path, "sarp-exclusion", 1, cfg)

    def test_raidr_bins_trips(self, monkeypatch, tmp_path):
        cfg = (
            SystemConfig.single_core()
            .with_refresh_mode(RefreshMode.RAIDR)
            .with_refresh_opts(raidr_window_ticks=8)
        )
        self._trip(monkeypatch, tmp_path, "raidr-bins", 7, cfg)


class TestDensityAxis:
    def test_density_stretches_trfc_only(self):
        for gbit, ns in DENSITY_TRFC_NS.items():
            t = T.for_density(gbit)
            assert t.rfc == T.cycles(ns)
            assert t.refi == T.refi
        with pytest.raises(ValueError, match="unknown density"):
            T.for_density(64)

    def test_config_with_density(self):
        cfg = SystemConfig.single_core().with_density(32)
        assert cfg.timings.rfc == T.cycles(DENSITY_TRFC_NS[32])
