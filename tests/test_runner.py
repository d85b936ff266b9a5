"""Tests for the parallel experiment runner (harness/runner.py).

Covers the ISSUE-1 acceptance semantics at a sub-smoke scale so the
whole file stays fast: parallel-vs-sequential equivalence, spec
deduplication, cache hit/miss/invalidation, corrupted-entry recovery and
the REPRO_JOBS resolution rules.
"""

import json
from collections import Counter

import pytest

from repro import RefreshMode, SystemConfig
from repro.harness import (
    RunPlan,
    RunScale,
    RunSpec,
    alone_ipc,
    execute_plan,
    fig7_8_9_rop_comparison,
    last_stats,
    resolve_jobs,
    run_mix,
    set_cache_enabled,
)
from repro.harness.cache import ArtifactCache, NullCache
from repro.harness.quarantine import result_digest
from repro.harness.runner import clear_result_memo
from repro.workloads import profile, spec_profiles
from repro.workloads.spec_profiles import clear_trace_cache

#: deliberately smaller than the smoke scale: this file runs many plans
TINY = RunScale(instructions=120_000, seed=3, training_refreshes=3)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_result_memo()
    yield
    clear_result_memo()


class TestRunSpec:
    def test_key_is_stable_and_content_addressed(self):
        cfg = SystemConfig.single_core()
        a = RunSpec.benchmark("lbm", cfg, TINY)
        b = RunSpec.benchmark("lbm", SystemConfig.single_core(), TINY)
        assert a.key == b.key

    def test_key_covers_config(self):
        cfg = SystemConfig.single_core()
        base = RunSpec.benchmark("lbm", cfg, TINY)
        assert base.key != RunSpec.benchmark("lbm", cfg.with_rop(), TINY).key
        assert base.key != RunSpec.benchmark("gobmk", cfg, TINY).key
        assert (
            base.key
            != RunSpec.benchmark("lbm", cfg, RunScale(120_000, seed=4)).key
        )
        assert base.key != RunSpec.benchmark("lbm", cfg, TINY, record_events=True).key

    def test_alone_spec_disables_rop(self):
        cfg = SystemConfig.quad_core().with_rop()
        spec = RunSpec.alone("gobmk", cfg.llc, TINY, cfg)
        assert not spec.config.rop.enabled
        # two systems differing only in ROP share the same alone spec
        rp = SystemConfig.quad_core()
        assert spec.key == RunSpec.alone("gobmk", cfg.llc, TINY, rp).key

    def test_alone_spec_distinguishes_memory_config(self):
        # the ISSUE-1 satellite fix: alone IPC keys must cover the full
        # memory configuration, not just (benchmark, LLC, scale)
        shared = SystemConfig.quad_core(rank_partitioned=False)
        partitioned = SystemConfig.quad_core(rank_partitioned=True)
        a = RunSpec.alone("gobmk", shared.llc, TINY, shared)
        b = RunSpec.alone("gobmk", partitioned.llc, TINY, partitioned)
        assert a.key != b.key

    def test_mix_spec_share(self):
        cfg = SystemConfig.quad_core()
        spec = RunSpec.mix("WL6", cfg, TINY)
        assert len(spec.workloads) == 4
        assert spec.trace_llc.size_bytes == cfg.llc.size_bytes // 4


class TestExecutePlan:
    def test_dedup_identical_specs(self):
        cfg = SystemConfig.single_core()
        spec = RunSpec.benchmark("gobmk", cfg, TINY)
        plan = RunPlan()
        plan.add(spec)
        plan.add(RunSpec.benchmark("gobmk", cfg, TINY))
        results = plan.execute(jobs=1, cache=NullCache())
        stats = results.stats
        assert stats.requested == 2
        assert stats.unique == 1
        assert stats.executed == 1

    def test_memo_hit_on_second_plan(self):
        cfg = SystemConfig.single_core()
        spec = RunSpec.benchmark("gobmk", cfg, TINY)
        execute_plan([spec], jobs=1, cache=NullCache())
        execute_plan([spec], jobs=1, cache=NullCache())
        assert last_stats().memo_hits == 1
        assert last_stats().executed == 0

    def test_parallel_equals_sequential(self):
        """Same plan, jobs=1 vs jobs=2 → identical results."""
        cfg = SystemConfig.single_core()
        rows_seq = fig7_8_9_rop_comparison(("gobmk",), TINY, cfg, sram_sizes=(16,), jobs=1)
        clear_result_memo()
        rows_par = fig7_8_9_rop_comparison(("gobmk",), TINY, cfg, sram_sizes=(16,), jobs=2)
        assert last_stats().jobs == 2
        assert json.dumps(rows_seq, sort_keys=True) == json.dumps(rows_par, sort_keys=True)

    def test_warm_rerun_replays_identical_rows(self, tmp_path, monkeypatch):
        """A figure rerun over a parallel cold run's cache simulates
        nothing, serves every unique spec from a cache layer and renders
        the same rows."""
        cfg = SystemConfig.single_core()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        set_cache_enabled(True)
        try:
            cold = fig7_8_9_rop_comparison(("gobmk",), TINY, cfg, sram_sizes=(16,), jobs=2)
            clear_result_memo()
            clear_trace_cache()
            warm = fig7_8_9_rop_comparison(("gobmk",), TINY, cfg, sram_sizes=(16,), jobs=1)
        finally:
            set_cache_enabled(None)
        stats = last_stats()
        assert stats.executed == 0
        assert stats.hits == stats.unique
        assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)

    def test_parallel_multicore_result_fields(self):
        cfg = SystemConfig.single_core()
        specs = [
            RunSpec.benchmark("gobmk", cfg, TINY),
            RunSpec.benchmark("gobmk", cfg.with_rop(training_refreshes=3), TINY),
        ]
        seq = execute_plan(specs, jobs=1, cache=NullCache())
        seq_results = [seq[s] for s in specs]
        clear_result_memo()
        par = execute_plan(specs, jobs=2, cache=NullCache())
        for spec, expect in zip(specs, seq_results):
            got = par[spec]
            assert got.cores == expect.cores
            assert got.stats == expect.stats
            assert got.rop_summary == expect.rop_summary
            assert got.end_cycle == expect.end_cycle

    def test_cache_hit_and_invalidate_on_config_change(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cfg = SystemConfig.single_core()
        spec = RunSpec.benchmark("gobmk", cfg, TINY)
        execute_plan([spec], jobs=1, cache=cache)
        assert last_stats().executed == 1
        clear_result_memo()
        execute_plan([spec], jobs=1, cache=cache)
        assert last_stats().cache_hits == 1
        assert last_stats().executed == 0
        # a config change produces a different key → cache miss, re-run
        clear_result_memo()
        changed = RunSpec.benchmark("gobmk", cfg.with_rop(sram_lines=32), TINY)
        execute_plan([changed], jobs=1, cache=cache)
        assert last_stats().cache_hits == 0
        assert last_stats().executed == 1

    def test_corrupted_cache_entry_recomputes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cfg = SystemConfig.single_core()
        spec = RunSpec.benchmark("gobmk", cfg, TINY)
        expect = execute_plan([spec], jobs=1, cache=cache)[spec]
        cache.path(spec.key).write_bytes(b"not a pickle at all")
        clear_result_memo()
        got = execute_plan([spec], jobs=1, cache=cache)[spec]
        assert last_stats().executed == 1  # recomputed, no crash
        assert got.cores == expect.cores
        assert got.stats == expect.stats
        # and the entry was repaired
        clear_result_memo()
        execute_plan([spec], jobs=1, cache=cache)
        assert last_stats().cache_hits == 1

    def test_results_survive_trace_cache_clear(self, tmp_path):
        """Artifacts persist across 'processes' (simulated by memo clears)."""
        cache = ArtifactCache(tmp_path)
        cfg = SystemConfig.quad_core()
        r1 = run_mix("WL6", cfg, TINY, jobs=1)
        clear_result_memo()
        clear_trace_cache()
        # second invocation: all five runs (mix + 4 alone) from disk
        get_cache_hits_before = last_stats().cache_hits
        r2 = run_mix("WL6", cfg, TINY, jobs=1)
        assert r1.weighted_speedup == r2.weighted_speedup
        assert r1.result.cores == r2.result.cores


class TestOneSynthesisPerPlan:
    """A plan synthesizes each CPU trace once, however many LLC sizes filter it."""

    @staticmethod
    def _specs() -> list:
        # LLC-major declaration order, as the LLC-size sweeps declare it
        specs = []
        for llc_bytes in (1 << 20, 2 << 20):
            cfg = SystemConfig.single_core().with_llc_size(llc_bytes)
            specs += [RunSpec.benchmark(name, cfg, TINY) for name in ("gcc", "lbm")]
        return specs

    @pytest.fixture
    def synth_calls(self, monkeypatch):
        """Count ``generate_trace`` calls per (profile, instructions, seed)."""
        calls = Counter()
        real = spec_profiles.generate_trace

        def counting(model, instructions, seed, *, tag):
            calls[(tag, instructions, seed)] += 1
            return real(model, instructions, seed, tag=tag)

        monkeypatch.setattr(spec_profiles, "generate_trace", counting)
        clear_trace_cache()
        yield calls
        clear_trace_cache()

    def test_plan_synthesizes_each_cpu_trace_once(self, synth_calls, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plan"))
        specs = self._specs()
        results = execute_plan(specs, jobs=1)
        assert len(synth_calls) == 2
        assert set(synth_calls.values()) == {1}
        assert last_stats().prewarm_s > 0
        # the prewarm releases the last CPU trace before the simulations
        profile("lbm").cpu_trace(TINY.instructions, seed=TINY.seed)
        assert sum(synth_calls.values()) == 3

        # the same specs, each run alone with every trace memo cleared first
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alone"))
        for spec in specs:
            clear_trace_cache()
            clear_result_memo()
            alone = execute_plan([spec], jobs=1)[spec]
            assert result_digest(alone) == result_digest(results[spec])

    def test_memo_is_read_only_and_cleared(self, synth_calls):
        gcc = profile("gcc")
        trace = gcc.cpu_trace(TINY.instructions, seed=TINY.seed)
        assert gcc.cpu_trace(TINY.instructions, seed=TINY.seed) is trace
        for arr in (trace.gaps, trace.lines, trace.writes):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            trace.lines[0] = 0
        assert sum(synth_calls.values()) == 1
        clear_trace_cache()
        assert gcc.cpu_trace(TINY.instructions, seed=TINY.seed) is not trace
        assert sum(synth_calls.values()) == 2


class TestAloneIpc:
    def test_different_configs_do_not_share(self):
        """Regression for the alone_ipc memo-key bug: two systems with
        different memory configurations must not share a cached IPC — the
        old key was (benchmark, LLC, scale) only, so the second call below
        used to be a (wrong) memo hit."""
        shared = SystemConfig.quad_core(rank_partitioned=False)
        partitioned = SystemConfig.quad_core(rank_partitioned=True)
        a = alone_ipc("lbm", shared.llc, TINY, shared)
        assert last_stats().executed == 1
        b = alone_ipc("lbm", partitioned.llc, TINY, partitioned)
        assert last_stats().executed == 1  # simulated anew, not shared
        assert a > 0 and b > 0
        # and a genuinely different memory (no refresh) yields a different IPC
        c = alone_ipc("lbm", shared.llc, TINY, shared.with_refresh_mode(RefreshMode.NONE))
        assert last_stats().executed == 1
        assert c != a

    def test_memoized(self):
        cfg = SystemConfig.quad_core()
        a = alone_ipc("gobmk", cfg.llc, TINY, cfg)
        executed_first = last_stats().executed
        b = alone_ipc("gobmk", cfg.llc, TINY, cfg)
        assert a == b
        assert executed_first == 1
        assert last_stats().executed == 0


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs() == 1

    def test_auto_and_zero(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestReporting:
    def test_render_runner_stats(self):
        from repro.harness import reporting

        cfg = SystemConfig.single_core()
        execute_plan([RunSpec.benchmark("gobmk", cfg, TINY)], jobs=1, cache=NullCache())
        out = reporting.render_runner_stats(last_stats())
        assert "runner:" in out
        assert "jobs=1" in out
        assert "wall" in out
