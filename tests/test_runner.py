"""Tests for the parallel experiment runner (harness/runner.py).

Covers the ISSUE-1 acceptance semantics at a sub-smoke scale so the
whole file stays fast: parallel-vs-sequential equivalence, spec
deduplication, cache hit/miss/invalidation, corrupted-entry recovery and
the REPRO_JOBS resolution rules.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro import RefreshMode, SystemConfig
from repro.config import RefreshConfig, RopConfig
from repro.harness import (
    ExecutionPolicy,
    PlanExecutionError,
    RunPlan,
    RunScale,
    RunSpec,
    alone_ipc,
    execute_plan,
    fig7_8_9_rop_comparison,
    fig10_11_specs,
    last_failures,
    last_fallbacks,
    last_stats,
    resolve_jobs,
    run_mix,
    set_cache_enabled,
)
from repro.harness import runner
from repro.harness.cache import ArtifactCache, NullCache
from repro.harness.quarantine import result_digest
from repro.harness.reporting import render_runner_stats
from repro.harness.runner import clear_result_memo, simulation_config
from repro.harness.zoo import zoo_configs
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


class TestSharedSimulations:
    """Specs whose memory traces and simulation config coincide share one
    simulation; every member still gets its own memo, cache and records."""

    #: LLC sizes through which every TINY trace filters to the same trace
    SIZES = (1 << 20, 2 << 20, 4 << 20, 8 << 20)

    @staticmethod
    def _variants(name, sizes, cfg=None, **flags):
        cfg = cfg or SystemConfig.single_core().with_rop(training_refreshes=3)
        return [
            replace(RunSpec.benchmark(name, cfg.with_llc_size(size), TINY), **flags)
            for size in sizes
        ]

    @staticmethod
    def _same_traces(specs):
        digests = {
            profile(n).memory_trace(s.instructions, s.trace_llc, seed=s.seed).content_digest()
            for s in specs
            for n in s.workloads
        }
        return len(digests) == 1

    @pytest.fixture
    def run_spec_calls(self, monkeypatch):
        """Keys passed to ``run_spec``, in call order (in-process plans)."""
        calls = []
        real = runner.run_spec

        def counting(spec, *args, **kwargs):
            calls.append(spec.key)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(runner, "run_spec", counting)
        return calls

    def test_one_simulation_per_group(self, run_spec_calls, tmp_path):
        members = self._variants("bzip2", self.SIZES[:3])
        assert self._same_traces(members)
        # same traces but another DRAM-side config, and another trace
        no_rop = self._variants("bzip2", self.SIZES[:1], cfg=SystemConfig.single_core())
        small = self._variants("bzip2", (64 << 10,))
        assert not self._same_traces(members + small)
        specs = members + no_rop + small
        cache = ArtifactCache(tmp_path)
        results = execute_plan(specs, jobs=1, cache=cache)
        # the first member declared represents its group
        assert run_spec_calls == [members[0].key, no_rop[0].key, small[0].key]
        stats = last_stats()
        assert (stats.unique, stats.executed, stats.shared) == (5, 3, 2)
        assert "2 shared" in render_runner_stats(stats)
        for spec in specs:
            assert spec.key in runner._RESULT_MEMO
            assert cache.path(spec.key).exists()
        for spec in members:
            # bit-identical to the member's own solo run
            assert result_digest(results[spec]) == result_digest(runner.run_spec(spec))

        clear_result_memo()
        execute_plan(specs, jobs=1, cache=cache)
        stats = last_stats()
        assert (stats.cache_hits, stats.executed, stats.shared) == (5, 0, 0)

    def test_observation_specs_run_alone(self, run_spec_calls, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        plain = self._variants("gobmk", self.SIZES[:2])
        telemetry, validate, audit = (
            self._variants("gobmk", (size,), **{flag: True})[0]
            for flag, size in zip(("telemetry", "validate", "audit"), (*self.SIZES[2:], 16 << 20))
        )
        specs = plain + [telemetry, validate, audit]
        assert self._same_traces(specs)
        execute_plan(specs, jobs=1, cache=NullCache())
        assert run_spec_calls == [plain[0].key, telemetry.key, validate.key, audit.key]
        assert last_stats().shared == 1
        assert (tmp_path / f"gobmk-{telemetry.key[:12]}.trace.json").exists()

    def test_observation_by_policy_or_env_disables_sharing(self, monkeypatch):
        specs = self._variants("gobmk", self.SIZES)
        todo = [(s.key, s) for s in specs]
        digests = {ident: "same" for s in specs for ident in runner._trace_idents(s)}
        reps, shared = runner._share_simulations(todo, digests, audit=False)
        assert reps == todo[:1] and len(shared[specs[0].key]) == 3
        assert runner._share_simulations(todo, digests, audit=True) == (todo, {})
        for env in ("REPRO_AUDIT", "REPRO_TELEMETRY", "REPRO_VALIDATE"):
            monkeypatch.setenv(env, "1")
            assert runner._share_simulations(todo, digests, audit=False) == (todo, {})
            monkeypatch.delenv(env)
        # a trace whose prewarm failed has no digest: its spec runs alone
        del digests[runner._trace_idents(specs[1])[0]]
        reps, shared = runner._share_simulations(todo, digests, audit=False)
        assert [k for k, _ in reps] == [specs[0].key, specs[1].key]

    def test_representative_decline_reported_under_every_member(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        darp = SystemConfig.single_core().with_refresh_mode(RefreshMode.DARP)
        specs = self._variants("gobmk", self.SIZES[:3], cfg=darp)
        results = execute_plan(specs, jobs=1, cache=NullCache())
        assert last_stats().executed == 1
        assert [(f.key, f.kind) for f in results.engine_fallbacks] == [
            (s.key, "declined") for s in specs
        ]
        assert last_fallbacks() == results.engine_fallbacks

    def test_representative_fault_fails_every_member(self, tmp_path, monkeypatch):
        specs = self._variants("gobmk", self.SIZES[:3])
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"gobmk": {"mode": "error"}}))
        monkeypatch.setenv("REPRO_FAULTS", str(faults))
        keep_going = ExecutionPolicy(keep_going=True, backoff_s=0.0)
        results = execute_plan(specs, jobs=1, cache=NullCache(), policy=keep_going)
        assert len(results) == 0
        assert [(f.key, f.kind) for f in results.failures] == [(s.key, "error") for s in specs]
        assert last_failures() == results.failures
        assert (last_stats().executed, last_stats().failed) == (1, 3)
        with pytest.raises(PlanExecutionError) as err:
            execute_plan(specs, jobs=1, cache=NullCache(), policy=ExecutionPolicy())
        assert [f.key for f in err.value.failures] == [s.key for s in specs]

    def test_representative_engine_fault_copied_to_members(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        monkeypatch.setenv("REPRO_CHAOS", "5:1.0:epoch-fault")
        specs = self._variants("gobmk", self.SIZES[:3])
        results = execute_plan(specs, jobs=1)
        assert results.ok(*specs)
        assert [(f.key, f.kind) for f in results.engine_fallbacks] == [
            (s.key, "fault") for s in specs
        ]
        # one simulation faulted: one fallback, one quarantine bundle
        assert (last_stats().engine_fallbacks, last_stats().quarantined) == (1, 1)

    def test_rop_system_alone_runs_share_baseline_rp(self, run_spec_calls, tmp_path):
        """Figs. 10/11: the ROP system's alone runs differ from
        Baseline-RP's only in the disabled ``training_refreshes``."""
        specs = fig10_11_specs(("WL1",), TINY)
        rop_alone = [
            s for s in specs if not s.config.rop.enabled and s.config.rop.training_refreshes == 3
        ]
        assert len(rop_alone) == 4
        cache = ArtifactCache(tmp_path)
        results = execute_plan(specs, jobs=1, cache=cache)
        stats = last_stats()
        assert (stats.unique, stats.executed, stats.shared) == (15, 11, 4)
        assert not {s.key for s in rop_alone} & set(run_spec_calls)
        for spec in rop_alone:
            assert result_digest(results[spec]) == result_digest(runner.run_spec(spec))

        clear_result_memo()
        execute_plan(specs, jobs=1, cache=cache)
        stats = last_stats()
        assert (stats.cache_hits, stats.executed) == (15, 0)

    def test_no_refresh_densities_share_one_simulation(self, run_spec_calls):
        """Zoo: tRFC is the only density knob, and ``none`` never reads it."""
        grid = zoo_configs(TINY, policies=("auto_1x", "none"))
        specs = {point: RunSpec.benchmark("gobmk", cfg, TINY) for point, cfg in grid.items()}
        results = execute_plan(list(specs.values()), jobs=1, cache=NullCache())
        assert (last_stats().unique, last_stats().executed) == (8, 5)
        ran = Counter(name for (name, _), spec in specs.items() if spec.key in run_spec_calls)
        assert ran == {"auto_1x": 4, "none": 1}
        for (name, _), spec in specs.items():
            if name == "none":
                assert result_digest(results[spec]) == result_digest(runner.run_spec(spec))

    def test_parallel_equals_sequential_with_shared_groups(self):
        specs = self._variants("gobmk", self.SIZES[:3]) + self._variants("lbm", self.SIZES[:2])
        digests = []
        for jobs in (1, 2):
            clear_result_memo()
            results = execute_plan(specs, jobs=jobs, cache=NullCache())
            assert (last_stats().executed, last_stats().shared) == (2, 3)
            digests.append([result_digest(results[s]) for s in specs])
        assert digests[0] == digests[1]


class TestSimulationConfig:
    def test_blanks_what_the_simulator_ignores(self):
        base = SystemConfig.single_core()
        sim = simulation_config(base.with_llc_size(8 << 20))
        assert sim.llc is None and sim == simulation_config(base)
        # a disabled RopConfig collapses to the default
        off = replace(base, rop=replace(base.rop, training_refreshes=5, sram_lines=16))
        assert simulation_config(off).rop == RopConfig()
        # no refresh and no ROP: refresh options and tRFC/tREFI blanked
        none = base.with_refresh_mode(RefreshMode.NONE)
        dense = none.with_density(32).with_refresh_opts(stagger=False)
        assert simulation_config(dense) == simulation_config(none)
        assert simulation_config(none).refresh == RefreshConfig(mode=RefreshMode.NONE)
        assert (simulation_config(none).timings.refi, simulation_config(none).timings.rfc) == (0, 0)

    def test_keeps_what_the_simulator_reads(self):
        base = SystemConfig.single_core()
        rop = base.with_rop(training_refreshes=5)
        assert simulation_config(rop).rop == rop.rop
        assert simulation_config(base.with_density(32)) != simulation_config(base)
        # an enabled ROP sizes its windows from tREFI/tRFC and reads the
        # refresh grid even when no refresh is issued
        rop_none = rop.with_refresh_mode(RefreshMode.NONE)
        sim = simulation_config(rop_none.with_density(32))
        assert sim.timings == rop_none.with_density(32).timings
        assert sim != simulation_config(rop_none)
        stagger_off = rop_none.with_refresh_opts(stagger=False)
        assert simulation_config(stagger_off).refresh == stagger_off.refresh


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
