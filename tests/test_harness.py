"""Smoke + shape tests for the experiment harness at tiny scale."""

import pytest

from repro import SystemConfig
from repro.energy import system_energy
from repro.harness import (
    RunScale,
    RunSpec,
    execute_plan,
    fig1_refresh_overheads,
    fig2_to_4_and_table1,
    fig7_8_9_rop_comparison,
    fig10_11_weighted_speedup,
    fig12_13_14_llc_sensitivity,
    last_stats,
    reporting,
    three_systems,
)
from repro.stats.metrics import weighted_speedup

SC = RunScale.named("smoke")
BENCHES = ("lbm", "gobmk")


class TestScales:
    def test_named_scales(self):
        assert RunScale.named("smoke").instructions < RunScale.named("paper").instructions
        with pytest.raises(KeyError):
            RunScale.named("galactic")


class TestRunBenchmark:
    def test_run_produces_metrics(self):
        cfg = SystemConfig.single_core()
        spec = RunSpec.benchmark("lbm", cfg, SC)
        result = execute_plan([spec], jobs=1)[spec]
        assert result.ipc > 0
        assert system_energy(result.stats, cfg).total > 0
        assert spec.workloads == ("lbm",) and spec.config is cfg

    def test_alone_ipc_memoized(self):
        cfg = SystemConfig.quad_core()
        spec = RunSpec.alone("gobmk", cfg.llc, SC, cfg)
        a = execute_plan([spec], jobs=1)[spec].ipc
        b = execute_plan([spec], jobs=1)[spec].ipc
        assert a == b > 0
        assert last_stats().memo_hits == 1


class TestFig1:
    def test_rows_and_signs(self):
        rows = fig1_refresh_overheads(BENCHES, SC)
        assert [r["benchmark"] for r in rows] == list(BENCHES)
        for r in rows:
            assert r["perf_degradation_pct"] >= 0.0
            assert r["energy_overhead_pct"] > 0.0

    def test_render(self):
        out = reporting.render_fig1(fig1_refresh_overheads(("gobmk",), SC))
        assert "gobmk" in out and "AVERAGE" in out


class TestFig234Table1:
    def test_analysis_rows(self):
        rows = fig2_to_4_and_table1(BENCHES, SC)
        for row in rows:
            assert set(row.windows) == {1.0, 2.0, 4.0}
            wa = row.windows[1.0]
            assert wa.refreshes >= 0
        # continuous lbm: every refresh is blocking at the 1× window
        lbm = rows[0].windows[1.0]
        assert lbm.non_blocking_fraction < 0.1
        # sparse gobmk: almost all refreshes non-blocking (Fig. 2 shape)
        gob = rows[1].windows[1.0]
        assert gob.non_blocking_fraction > 0.7

    def test_blocked_counts_small(self):
        rows = fig2_to_4_and_table1(BENCHES, SC)
        for r in rows:
            # Fig. 3: each blocking refresh blocks only a handful of reads
            assert r.avg_blocked < 15
            assert r.max_blocked <= 64

    def test_renders(self):
        rows = fig2_to_4_and_table1(("gobmk",), SC)
        for render in (
            reporting.render_table1,
            reporting.render_fig2,
            reporting.render_fig3,
            reporting.render_fig4,
        ):
            assert "gobmk" in render(rows)


class TestFig789:
    def test_structure(self):
        rows = fig7_8_9_rop_comparison(("lbm",), SC, sram_sizes=(16, 64))
        row = rows[0]
        assert set(row["rop"]) == {16, 64}
        assert row["norm_ipc_norefresh"] > 1.0  # refresh hurts lbm
        for size in (16, 64):
            assert row["rop"][size]["norm_ipc"] > 0.9

    def test_render(self):
        rows = fig7_8_9_rop_comparison(("lbm",), SC, sram_sizes=(64,))
        assert "lbm" in reporting.render_fig7_8_9(rows)


class TestMulticore:
    def test_three_systems(self):
        systems = three_systems()
        assert set(systems) == {"Baseline", "Baseline-RP", "ROP"}
        assert systems["ROP"].rop.enabled
        assert not systems["Baseline"].rop.enabled

    def test_three_systems_llc_override(self):
        systems = three_systems(1 << 20)
        assert all(c.llc.size_bytes == 1 << 20 for c in systems.values())

    def test_run_mix(self):
        cfg = SystemConfig.quad_core()
        spec = RunSpec.mix("WL6", cfg, SC)
        alone = [RunSpec.alone(name, spec.trace_llc, SC, cfg) for name in spec.workloads]
        results = execute_plan([spec, *alone], jobs=1)
        ws = weighted_speedup(results[spec].ipcs, [results[s].ipc for s in alone])
        assert 0 < ws <= 4.0
        assert len(results[spec].cores) == 4

    def test_fig10_structure(self):
        rows = fig10_11_weighted_speedup(("WL6",), SC)
        row = rows[0]
        assert row["norm_ws"]["Baseline"] == pytest.approx(1.0)
        assert row["norm_energy"]["Baseline"] == pytest.approx(1.0)
        assert row["norm_ws"]["Baseline-RP"] > 0.9
        assert "ROP" in row["ws"]

    def test_fig12_structure(self):
        rows = fig12_13_14_llc_sensitivity(
            ("WL6",), SC, llc_sweep=(1 << 20, 2 << 20)
        )
        row = rows[0]
        assert set(row["llc"]) == {1 << 20, 2 << 20}
        for llc, data in row["llc"].items():
            assert set(data["norm_ws"]) == {"Baseline", "Baseline-RP", "ROP"}

    def test_renders(self):
        rows = fig10_11_weighted_speedup(("WL6",), SC)
        assert "WL6" in reporting.render_fig10_11(rows)
        srows = fig12_13_14_llc_sensitivity(("WL6",), SC, llc_sweep=(1 << 20,))
        assert "WL6" in reporting.render_llc_sensitivity(srows)
        assert "WL6" in reporting.render_llc_sensitivity(srows, "rop_armed_hit_rate")
