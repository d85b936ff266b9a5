"""Epoch-kernel equivalence gates: the array-native engine must be a
bit-exact drop-in for the scalar event-queue interpreter.

Four angles, ordered from the committed configurations outward:

* **corpus identity** — every system flavor the validation corpus can
  name produces byte-identical pickled results under both engines;
* **observer invariance** — attaching a telemetry sink changes nothing
  about an epoch-engine result (the sink observes, never steers);
* **fan-out invariance** — ``jobs=1`` and ``jobs=2`` plan executions
  under ``REPRO_ENGINE=epoch`` return identical result sets;
* **metamorphic fuzz** — Hypothesis drives both engines with the
  adversarial trace/config strategies of :mod:`repro.validation.fuzz`
  and asserts digest equality on every generated point (configurations
  the epoch kernel declines are exercised through its scalar fallback,
  which must also be invisible); on the same points, every field the
  runner's ``simulation_config`` blanks must leave both engines' results
  unchanged.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig
from repro.cpu.multicore import run_cores
from repro.kernel import ENGINES, resolve_engine
from repro.telemetry import TraceSink
from repro.harness.runner import core_llc_share, simulation_config
from repro.validation.corpus import _SYSTEMS
from repro.validation.fuzz import config_and_traces, ignored_field_variants
from repro.workloads import mix_profiles, profile

INSTR = 60_000


def _digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


def _run(cfg, engine: str, sink=None):
    trace = profile("lbm").memory_trace(INSTR, cfg.llc, seed=1)
    return run_cores([trace], cfg, engine=engine, sink=sink)


def _run_mix(cfg, mix: str, engine: str, sink=None):
    share = core_llc_share(cfg.llc.size_bytes)
    traces = [
        p.memory_trace(INSTR, share, seed=1) for p in mix_profiles(mix)
    ]
    return run_cores(traces, cfg, engine=engine, sink=sink)


class TestEngineResolution:
    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "scalar"

    def test_env_and_argument_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        assert resolve_engine() == "epoch"
        assert resolve_engine("scalar") == "scalar"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("vector")
        assert set(ENGINES) == {"scalar", "epoch"}


class TestCorpusDigestIdentity:
    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_scalar_and_epoch_agree(self, system):
        cfg = _SYSTEMS[system]()
        assert _digest(_run(cfg, "scalar")) == _digest(_run(cfg, "epoch"))


class TestMulticoreCorpusDigestIdentity:
    """The generalized kernel on the paper's 4-core systems (ISSUE 9)."""

    @pytest.mark.parametrize(
        "system", sorted(s for s in _SYSTEMS if s.startswith("quad_"))
    )
    def test_scalar_and_epoch_agree_on_mixes(self, system):
        cfg = _SYSTEMS[system]()
        assert _digest(_run_mix(cfg, "WL1", "scalar")) == _digest(
            _run_mix(cfg, "WL1", "epoch")
        )

    def test_mix_runs_produce_no_fallbacks(self):
        cfg = _SYSTEMS["quad_rop"]()
        declined: list[str] = []
        share = core_llc_share(cfg.llc.size_bytes)
        traces = [
            p.memory_trace(INSTR, share, seed=1) for p in mix_profiles("WL2")
        ]
        run_cores(traces, cfg, engine="epoch", fallback_reasons=declined)
        assert declined == []


class TestRefreshPolicyKernelSupport:
    """Zoo policies either ride the kernels or decline with a reason."""

    @pytest.mark.parametrize(
        "system,fragment",
        [("darp", "darp"), ("sarp", "sarp"), ("rop_darp", "darp")],
    )
    def test_policies_decline_with_structured_reason(self, system, fragment):
        cfg = _SYSTEMS[system]()
        declined: list[str] = []
        trace = profile("lbm").memory_trace(INSTR, cfg.llc, seed=1)
        run_cores([trace], cfg, engine="epoch", fallback_reasons=declined)
        assert len(declined) == 1
        assert "refresh-policy" in declined[0]
        assert fragment in declined[0]

    def test_raidr_rides_the_kernel_without_fallback(self):
        cfg = _SYSTEMS["raidr"]()
        declined: list[str] = []
        trace = profile("lbm").memory_trace(INSTR, cfg.llc, seed=1)
        run_cores([trace], cfg, engine="epoch", fallback_reasons=declined)
        assert declined == []


class TestObserverInvariance:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sink_does_not_change_the_result(self, engine):
        cfg = SystemConfig.single_core().with_rop()
        plain = _run(cfg, engine)
        observed = _run(cfg, engine, sink=TraceSink())
        assert _digest(plain) == _digest(observed)


class TestFanOutInvariance:
    def test_jobs1_equals_jobs2_under_epoch(self, tmp_path, monkeypatch):
        from repro.harness import RunScale, RunSpec, execute_plan
        from repro.harness.runner import clear_result_memo

        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        scale = RunScale.named("smoke")
        base = SystemConfig.single_core()
        rop = base.with_rop(training_refreshes=scale.training_refreshes)
        specs = [
            RunSpec.benchmark(name, cfg, scale)
            for name in ("lbm", "libquantum")
            for cfg in (base, rop)
        ]
        digests = {}
        for jobs in (1, 2):
            monkeypatch.setenv(
                "REPRO_CACHE_DIR", str(tmp_path / f"jobs{jobs}")
            )
            clear_result_memo()
            results = execute_plan(specs, jobs=jobs)
            digests[jobs] = {s.key: _digest(results[s]) for s in specs}
        assert digests[1] == digests[2]

    def test_jobs1_equals_jobs2_for_mixes_under_epoch(self, tmp_path, monkeypatch):
        from repro.harness import RunScale, RunSpec, execute_plan
        from repro.harness.runner import clear_result_memo

        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        scale = RunScale(instructions=INSTR, seed=1, training_refreshes=3)
        base = SystemConfig.quad_core()
        rop = base.with_rop(training_refreshes=scale.training_refreshes)
        specs = [
            RunSpec.mix(mix, cfg, scale)
            for mix in ("WL1", "WL2")
            for cfg in (base, rop)
        ]
        digests = {}
        for jobs in (1, 2):
            monkeypatch.setenv(
                "REPRO_CACHE_DIR", str(tmp_path / f"jobs{jobs}")
            )
            clear_result_memo()
            results = execute_plan(specs, jobs=jobs)
            digests[jobs] = {s.key: _digest(results[s]) for s in specs}
            assert len(results.engine_fallbacks) == 0
        assert digests[1] == digests[2]


class TestMetamorphicFuzz:
    @settings(max_examples=int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25")))
    @given(config_and_traces())
    def test_engines_agree_on_adversarial_points(self, point):
        cfg, traces = point
        scalar = run_cores(list(traces), cfg, engine="scalar")
        epoch = run_cores(list(traces), cfg, engine="epoch")
        assert _digest(scalar) == _digest(epoch)

    @settings(max_examples=int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25")))
    @given(config_and_traces(), st.data())
    def test_simulation_config_keeps_the_result(self, point, data):
        """Every field ``simulation_config`` blanks is one the simulator
        ignores: the canonical config (LLC restored) gives the same result
        on both engines, so specs sharing it may share one simulation."""
        cfg, traces = point
        variant = data.draw(ignored_field_variants(cfg))
        canonical = replace(simulation_config(variant), llc=variant.llc)
        for engine in ENGINES:
            assert _digest(run_cores(list(traces), variant, engine=engine)) == _digest(
                run_cores(list(traces), canonical, engine=engine)
            )

    def test_training_tick_prunes_every_rank_window(self):
        """Pinned falsifying point: one rank's training refresh starts past
        another's, so the scalar profilers prune arrivals the later-handled
        (earlier-starting) refresh would otherwise count in its B-window."""
        from repro.config import AddressMapScheme, RefreshMode
        from repro.validation.fuzz import FUZZ_ORG
        from repro.workloads.trace import AccessTrace

        timings = SystemConfig().timings.with_refresh(refi=1200, rfc=100)
        cfg = (
            SystemConfig.single_core(organization=FUZZ_ORG, timings=timings)
            .with_refresh_mode(RefreshMode.PER_BANK)
            .with_rop(
                sram_lines=4,
                training_refreshes=2,
                probabilistic=False,
                drain_before_refresh=True,
                adaptive_depth=False,
                bus_pressure_limit=0.0,
            )
        )
        cfg = replace(
            cfg,
            organization=replace(cfg.organization, ranks=4),
            address_map=AddressMapScheme.RANK_PARTITIONED,
        )
        lines2 = [0, 184, 2066, 6256, 22220, 8027, 0, 0, 0, 0, 2048, 6208, 6176, 2048,
                  6144, 0, 0, 32, 2048, 2048, 2048, 2048, 2048, 0, 96, 160, 2080, 0,
                  32, 64, 32, 0, 64, 32, 2048] + [0] * 28
        gaps2 = [36, 47, 23] + [0] * 28 + [25, 26, 26, 38, 50, 60] + [0] * 21 + [
            26, 37, 56, 59, 63
        ]
        traces = [
            AccessTrace.from_lists([0], [0], [False], 0),
            AccessTrace.from_lists(
                [1573] + [0] * 16, range(7608, 7625), [i % 3 == 0 for i in range(17)], 0
            ),
            AccessTrace.from_lists(gaps2, lines2, [i == 31 for i in range(63)], 0),
            AccessTrace.from_lists([0] * 26, [0] * 16 + [32] + [0] * 9, [False] * 26, 0),
        ]
        scalar = run_cores(traces, cfg, engine="scalar")
        epoch = run_cores(traces, cfg, engine="epoch")
        assert scalar.rop_summary == epoch.rop_summary
        assert _digest(scalar) == _digest(epoch)
