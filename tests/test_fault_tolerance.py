"""Failure-path tests for the fault-tolerant runner (ISSUE 2).

Faults are injected through :mod:`repro.harness.faults` (the
``REPRO_FAULTS`` env var), which works in worker processes under any
``--jobs`` level.  Everything runs at a sub-smoke scale so the file
stays fast despite executing many plans.
"""

import dataclasses
import json
import os
import signal
import threading
import time
import warnings

import pytest

from repro import SystemConfig
from repro.harness import (
    ConfigError,
    ExecutionPolicy,
    PlanExecutionError,
    RunScale,
    RunSpec,
    execute_plan,
    last_stats,
    reporting,
)
from repro.harness.cache import ArtifactCache, NullCache
from repro.harness.runner import clear_result_memo, run_spec

TINY = RunScale(instructions=120_000, seed=3, training_refreshes=3)

#: four distinct single-core specs (distinct benchmarks → distinct keys)
NAMES = ("gobmk", "lbm", "bzip2", "astar")


def tiny_specs(names=NAMES):
    cfg = SystemConfig.single_core()
    return [RunSpec.benchmark(n, cfg, TINY) for n in names]


def policy(**kw) -> ExecutionPolicy:
    """Test policy: near-zero backoff so retries don't slow the suite."""
    return dataclasses.replace(ExecutionPolicy(backoff_s=0.01), **kw)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_result_memo()
    yield
    clear_result_memo()


@pytest.fixture
def faults(tmp_path, monkeypatch):
    """Install a fault table; returns a function taking {identity: directive}."""

    def install(table: dict) -> None:
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(table))
        monkeypatch.setenv("REPRO_FAULTS", str(path))

    return install


class TestCrashIsolation:
    """Acceptance: a crashed worker loses only its own spec."""

    def test_crash_loses_only_that_spec_then_resumes(self, tmp_path, faults, monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")
        specs = tiny_specs()
        faults({"lbm": {"mode": "crash"}})
        results = execute_plan(
            specs, jobs=2, cache=cache, policy=policy(keep_going=True)
        )
        # the other N-1 results survived and were flushed to the cache
        assert len(results) == len(specs) - 1
        survivors = [s for s in specs if s.workloads != ("lbm",)]
        for s in survivors:
            assert results.ok(s)
            assert cache.path(s.key).exists()
        # the failure names the crashed spec
        assert len(results.failures) == 1
        failure = results.failures[0]
        assert failure.workloads == ("lbm",)
        assert failure.kind == "worker-lost"
        assert failure.attempts == 3  # retried up to the attempt cap
        assert last_stats().pool_rebuilds >= 1
        assert last_stats().failed == 1

        # resume: with the fault gone, only the missing spec simulates
        monkeypatch.delenv("REPRO_FAULTS")
        clear_result_memo()
        resumed = execute_plan(specs, jobs=2, cache=cache, policy=policy())
        assert last_stats().executed == 1
        assert last_stats().cache_hits == len(specs) - 1
        assert resumed.ok(*specs)
        assert not resumed.failures


class TestTimeout:
    def test_hung_worker_is_killed_at_spec_timeout(self, tmp_path, faults):
        specs = tiny_specs(("gobmk", "lbm", "bzip2"))
        faults({"lbm": {"mode": "hang", "seconds": 600}})
        t0 = time.monotonic()
        results = execute_plan(
            specs,
            jobs=2,
            cache=NullCache(),
            policy=policy(keep_going=True, spec_timeout_s=5.0),
        )
        assert time.monotonic() - t0 < 120  # plan was not blocked forever
        assert len(results) == 2
        assert len(results.failures) == 1
        failure = results.failures[0]
        assert failure.workloads == ("lbm",)
        assert failure.kind == "timeout"
        assert failure.exc_type == "TimeoutError"
        assert last_stats().timeouts == 1


class TestRetries:
    def test_flaky_spec_succeeds_within_attempt_cap(self, tmp_path, faults):
        specs = tiny_specs(("gobmk", "lbm"))
        faults({"lbm": {"mode": "flaky", "fails": 2}})
        results = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(max_attempts=3)
        )
        assert results.ok(*specs)
        assert not results.failures
        # two failed calls before success → two backoff retries recorded
        assert last_stats().retries == 2

    def test_flaky_sequential_path(self, faults):
        specs = tiny_specs(("lbm",))
        faults({"lbm": {"mode": "flaky", "fails": 1}})
        results = execute_plan(
            specs, jobs=1, cache=NullCache(), policy=policy(max_attempts=3)
        )
        assert results.ok(*specs)
        assert last_stats().retries == 1

    def test_transient_exhausts_attempt_cap(self, faults):
        specs = tiny_specs(("lbm",))
        faults({"lbm": {"mode": "transient"}})
        results = execute_plan(
            specs, jobs=1, cache=NullCache(), policy=policy(keep_going=True, max_attempts=2)
        )
        assert not results.ok(specs[0])
        assert results.failures[0].kind == "transient"
        assert results.failures[0].attempts == 2
        assert last_stats().retries == 1

    def test_deterministic_error_is_not_retried(self, faults):
        specs = tiny_specs(("lbm",))
        faults({"lbm": {"mode": "error", "message": "boom"}})
        results = execute_plan(
            specs, jobs=1, cache=NullCache(), policy=policy(keep_going=True, max_attempts=5)
        )
        failure = results.failures[0]
        assert failure.kind == "error"
        assert failure.attempts == 1  # no retries for deterministic errors
        assert failure.message == "boom"
        assert "RuntimeError" in failure.traceback


class TestFailFastVsKeepGoing:
    def test_fail_fast_raises_with_failure_report(self, faults):
        specs = tiny_specs(("gobmk", "lbm"))
        faults({"lbm": {"mode": "error"}})
        with pytest.raises(PlanExecutionError) as exc:
            execute_plan(
                specs, jobs=1, cache=NullCache(), policy=policy(keep_going=False)
            )
        assert exc.value.failures[0].workloads == ("lbm",)
        assert "lbm" in str(exc.value)

    def test_fail_fast_persists_completed_results(self, tmp_path, faults):
        cache = ArtifactCache(tmp_path / "cache")
        specs = tiny_specs(("gobmk", "lbm"))  # gobmk runs first, then lbm fails
        faults({"lbm": {"mode": "error"}})
        with pytest.raises(PlanExecutionError):
            execute_plan(specs, jobs=1, cache=cache, policy=policy())
        assert cache.path(specs[0].key).exists()

    def test_keep_going_returns_partial_results(self, faults):
        specs = tiny_specs(("gobmk", "lbm", "bzip2"))
        faults({"lbm": {"mode": "error"}})
        results = execute_plan(
            specs, jobs=1, cache=NullCache(), policy=policy(keep_going=True)
        )
        assert len(results) == 2
        assert results.get(specs[1]) is None
        assert results.failure_for(specs[1]) is not None
        assert results.failure_for(specs[0]) is None


class TestInterrupt:
    def test_sigint_drains_persists_and_hints_resume(self, tmp_path, faults, capfd, monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")
        # two fast specs run first; two hangers keep the plan busy while
        # the timer delivers SIGINT to the main thread
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar"))
        faults({"bzip2": {"mode": "hang", "seconds": 600},
                "astar": {"mode": "hang", "seconds": 600}})
        timer = threading.Timer(4.0, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                execute_plan(specs, jobs=2, cache=cache, policy=policy(keep_going=True))
        finally:
            timer.cancel()
        # the fast specs completed and were flushed before the interrupt
        assert cache.path(specs[0].key).exists()
        assert cache.path(specs[1].key).exists()
        assert "re-run the same command to resume" in capfd.readouterr().err

        # resume: the cached specs are hits, only the missing two run
        monkeypatch.delenv("REPRO_FAULTS")
        clear_result_memo()
        resumed = execute_plan(specs, jobs=2, cache=cache, policy=policy())
        assert last_stats().cache_hits == 2
        assert last_stats().executed == 2
        assert resumed.ok(*specs)

    def test_sigint_drains_with_queued_futures(
        self, tmp_path, faults, capfd, monkeypatch
    ):
        """With two futures per worker in flight, the fast pair is
        harvested and persisted while two hangers run and two more specs
        wait in the executor; the interrupt kills both kinds, and the
        resume runs exactly the four that never finished."""
        cache = ArtifactCache(tmp_path / "cache")
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar", "gcc", "omnetpp"))
        faults({"bzip2": {"mode": "hang", "seconds": 600},
                "astar": {"mode": "hang", "seconds": 600}})
        timer = threading.Timer(4.0, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                execute_plan(specs, jobs=2, cache=cache, policy=policy(keep_going=True))
        finally:
            timer.cancel()
        # the fast pair was flushed before the interrupt; the queued pair
        # never started
        assert cache.path(specs[0].key).exists()
        assert cache.path(specs[1].key).exists()
        assert not any(cache.path(s.key).exists() for s in specs[2:])
        assert "re-run the same command to resume" in capfd.readouterr().err

        monkeypatch.delenv("REPRO_FAULTS")
        clear_result_memo()
        resumed = execute_plan(specs, jobs=2, cache=cache, policy=policy())
        assert last_stats().cache_hits == 2
        assert last_stats().executed == 4
        assert resumed.ok(*specs)


class TestEquivalence:
    def test_fault_tolerance_features_do_not_change_results(self):
        """All FT knobs on + no failures ≡ the sequential jobs=1 path."""
        specs = tiny_specs(("gobmk", "lbm"))
        seq = execute_plan(specs, jobs=1, cache=NullCache())
        expected = [seq[s] for s in specs]
        clear_result_memo()
        par = execute_plan(
            specs,
            jobs=2,
            cache=NullCache(),
            policy=policy(max_attempts=5, spec_timeout_s=600.0, keep_going=True),
        )
        for spec, expect in zip(specs, expected):
            got = par[spec]
            assert got.cores == expect.cores
            assert got.stats == expect.stats
            assert got.rop_summary == expect.rop_summary
            assert got.end_cycle == expect.end_cycle
        assert not par.failures


class TestPolicyResolution:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "7")
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_KEEP_GOING", "1")
        p = ExecutionPolicy.from_env()
        assert p.max_attempts == 7
        assert p.spec_timeout_s == 12.5
        assert p.keep_going

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "soon")
        with pytest.raises(ConfigError):
            ExecutionPolicy.from_env()

    def test_resolve_jobs_raises_config_error_not_systemexit(self, monkeypatch):
        from repro.harness import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError):
            resolve_jobs()
        # ConfigError is a ValueError, not a SystemExit, so library callers
        # can handle it
        assert issubclass(ConfigError, ValueError)
        assert not issubclass(ConfigError, SystemExit)


class TestCacheWriteWarning:
    def test_unwritable_cache_warns_once(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = ArtifactCache(blocker / "cache")  # parent is a file → OSError
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put("aa" + "0" * 38, {"x": 1})
        assert cache.write_errors == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would fail
            cache.put("bb" + "0" * 38, {"x": 2})
        assert cache.write_errors == 2


class TestAudit:
    def test_audited_run_spec_matches_unaudited(self):
        spec = tiny_specs(("gobmk",))[0]
        plain = run_spec(spec)
        audited = run_spec(spec, audit=True)
        assert audited.cores == plain.cores
        assert audited.stats == plain.stats

    def test_audit_via_spec_field_and_events(self):
        cfg = SystemConfig.single_core()
        spec = dataclasses.replace(
            RunSpec.benchmark("gobmk", cfg, TINY, record_events=True), audit=True
        )
        result = run_spec(spec)  # full audit incl. lock/refresh checks
        assert result.events is not None
        # audit is excluded from the cache key: same artifact either way
        assert spec.key == RunSpec.benchmark("gobmk", cfg, TINY, record_events=True).key


class TestFailureReporting:
    def test_render_failures_and_stats_line(self, faults):
        specs = tiny_specs(("gobmk", "lbm"))
        faults({"lbm": {"mode": "error", "message": "injected"}})
        results = execute_plan(
            specs, jobs=1, cache=NullCache(), policy=policy(keep_going=True)
        )
        table = reporting.render_failures(results.failures)
        assert "lbm" in table and "error" in table
        line = reporting.render_runner_stats(last_stats())
        assert "1 failed" in line

    def test_clean_stats_line_has_no_failure_counters(self):
        execute_plan(tiny_specs(("gobmk",)), jobs=1, cache=NullCache())
        line = reporting.render_runner_stats(last_stats())
        assert "failed" not in line and "retries" not in line
