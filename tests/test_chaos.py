"""In-suite mini chaos soak (ISSUE 7).

A scaled-down version of ``scripts/chaos_soak.py``: one plan runs
fault-free, then again in a fresh cache dir with every chaos site armed
at a fixed seed.  The chaos run must complete with zero failed specs and
per-spec digests bit-identical to the fault-free run.  The full-size
soak (≥48 specs, CI job ``chaos-soak``) uses the same machinery.
"""

import dataclasses

import pytest

from repro import SystemConfig
from repro.harness import RunScale, RunSpec, execute_plan
from repro.harness.chaos import fired
from repro.harness.quarantine import list_bundles, result_digest
from repro.harness.runner import ExecutionPolicy, clear_result_memo, last_stats
from repro.workloads.spec_profiles import clear_trace_cache

TINY = RunScale(instructions=60_000, seed=3, training_refreshes=3)
NAMES = ("gobmk", "lbm", "bzip2", "astar")
CHAOS_SEED = 23


def build_specs():
    base = SystemConfig.single_core()
    rop = base.with_rop(training_refreshes=TINY.training_refreshes)
    return [
        RunSpec.benchmark(name, cfg, TINY)
        for name in NAMES
        for cfg in (base, rop)
    ]


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    from repro.harness import set_cache_enabled

    set_cache_enabled(None)
    monkeypatch.setenv("REPRO_CACHE", "on")
    clear_trace_cache()
    clear_result_memo()
    yield
    clear_trace_cache()
    clear_result_memo()


def run_plan(monkeypatch, cache_dir, chaos=None):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.setenv("REPRO_ENGINE", "epoch")
    if chaos:
        monkeypatch.setenv("REPRO_CHAOS", chaos)
    else:
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
    clear_trace_cache()
    clear_result_memo()
    specs = build_specs()
    # max_attempts=8: a pool break charges an attempt to every in-flight
    # casualty, so under a crash storm an *innocent* spec can lose several
    # attempts to other specs' crashes; the default budget of 3 is sized
    # for real faults, not a storm of injected ones
    results = execute_plan(
        specs,
        jobs=2,
        policy=dataclasses.replace(
            ExecutionPolicy(backoff_s=0.01), keep_going=True, max_attempts=8
        ),
    )
    return specs, results


def test_mini_soak_is_bit_identical_under_chaos(tmp_path, monkeypatch):
    specs, clean = run_plan(monkeypatch, tmp_path / "clean")
    assert not clean.failures
    expected = {s.key: result_digest(clean[s]) for s in specs}

    _, chaotic = run_plan(
        monkeypatch, tmp_path / "chaos", chaos=f"{CHAOS_SEED}:0.5"
    )
    counts = fired(CHAOS_SEED)
    # the fixed seed must actually produce a storm, or this test is a no-op
    assert sum(counts.values()) >= 3, f"chaos storm too quiet: {counts}"

    assert not chaotic.failures
    assert chaotic.ok(*specs)
    for spec in specs:
        assert result_digest(chaotic[spec]) == expected[spec.key], spec.label
    # fired markers are claimed *before* the destructive act, so they
    # upper-bound every downstream witness: a worker SIGTERMed by a pool
    # break can die between claiming an epoch fault and landing its
    # quarantine bundle, and a crash that loses a finished spec's record
    # drops its fallback entries from the ledger (the retry does not
    # refire a once-only fault).  Exact counting is covered by the
    # deterministic single-site tests in test_resilience.py.
    faults = counts.get("epoch-fault", 0)
    bundles = list_bundles(tmp_path / "chaos")
    assert len(bundles) <= faults
    assert last_stats().engine_fallbacks <= faults
    if faults:
        assert bundles, "epoch faults fired but no quarantine bundle survived"
