"""Parallel dispatch x fault-tolerance tests.

Every pool future carries one spec, and the in-process path settles
outcomes through the same code as the pool.  Running in parallel must
not change results, and every fault-tolerance guarantee stays per spec:
a crash isolates the culprit, a deterministic error never costs other
specs their results, and retries resubmit only the failed spec.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro import SystemConfig
from repro.harness import (
    ExecutionPolicy,
    RunScale,
    RunSpec,
    execute_plan,
    last_stats,
)
from repro.harness import runner
from repro.harness.cache import NullCache
from repro.harness.runner import clear_result_memo

TINY = RunScale(instructions=120_000, seed=3, training_refreshes=3)
NAMES = ("gobmk", "lbm", "bzip2", "astar", "gcc", "omnetpp")


def tiny_specs(names=NAMES):
    cfg = SystemConfig.single_core()
    return [RunSpec.benchmark(n, cfg, TINY) for n in names]


def policy(**kw) -> ExecutionPolicy:
    return dataclasses.replace(ExecutionPolicy(backoff_s=0.01), **kw)


def digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_result_memo()
    yield
    clear_result_memo()


@pytest.fixture
def faults(tmp_path, monkeypatch):
    def install(table: dict) -> None:
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(table))
        monkeypatch.setenv("REPRO_FAULTS", str(path))

    return install


@pytest.fixture
def max_pending(monkeypatch):
    """Record the largest number of futures in flight after any dispatch."""
    seen = [0]
    dispatch = runner._PlanRunner._dispatch

    def recording(self):
        dispatch(self)
        seen[0] = max(seen[0], len(self.pending))

    monkeypatch.setattr(runner._PlanRunner, "_dispatch", recording)
    return seen


class TestEquivalence:
    def test_parallel_equals_sequential_bit_for_bit(self):
        specs = tiny_specs()
        seq = execute_plan(specs, jobs=1, cache=NullCache())
        expected = {s.key: digest(seq[s]) for s in specs}
        clear_result_memo()
        par = execute_plan(specs, jobs=2, cache=NullCache(), policy=policy())
        assert {s.key: digest(par[s]) for s in specs} == expected
        assert not par.failures


class TestCrashIsolation:
    def test_crash_isolates_culprit_and_retries_only_it(self, faults):
        """A crash in one worker loses only the crashing spec."""
        specs = tiny_specs()
        faults({"lbm": {"mode": "crash"}})
        results = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(keep_going=True)
        )
        # the culprit is attributed precisely, the other specs survive
        assert len(results) == len(specs) - 1
        assert len(results.failures) == 1
        failure = results.failures[0]
        assert failure.workloads == ("lbm",)
        assert failure.kind == "worker-lost"
        assert failure.attempts == 3  # retried serially up to the cap
        assert last_stats().pool_rebuilds >= 1

        # the surviving results equal a clean sequential run
        faults({})
        clear_result_memo()
        clean = execute_plan(specs, jobs=1, cache=NullCache())
        for s in specs:
            if s.workloads != ("lbm",):
                assert digest(results[s]) == digest(clean[s])

    def test_error_spares_other_specs(self, faults):
        """A deterministic error is classified in the worker: the other
        specs complete, nothing is re-run."""
        specs = tiny_specs()
        faults({"bzip2": {"mode": "error", "message": "boom"}})
        results = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(keep_going=True)
        )
        assert len(results) == len(specs) - 1
        failure = results.failures[0]
        assert failure.workloads == ("bzip2",)
        assert failure.kind == "error"
        assert failure.attempts == 1  # deterministic: no retries
        assert failure.message == "boom"
        assert last_stats().retries == 0  # no other spec was resubmitted


class TestRetries:
    def test_flaky_spec_retried_alone(self, faults):
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar"))
        faults({"lbm": {"mode": "flaky", "fails": 2}})
        results = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(max_attempts=3)
        )
        assert results.ok(*specs)
        assert not results.failures
        # exactly the flaky spec's two failed calls were retried
        assert last_stats().retries == 2

    def test_results_match_sequential_despite_retries(self, faults):
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar"))
        seq = execute_plan(specs, jobs=1, cache=NullCache())
        expected = {s.key: digest(seq[s]) for s in specs}
        clear_result_memo()
        faults({"gobmk": {"mode": "flaky", "fails": 1}})
        retried = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(max_attempts=3)
        )
        assert {s.key: digest(retried[s]) for s in specs} == expected


class TestDegradedPool:
    def test_spent_rebuild_budget_finishes_in_process(self, tmp_path, monkeypatch):
        """Past ``max_pool_rebuilds`` the pool is dropped and the plan, the
        broken pool's casualties first, finishes in-process."""
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar"))
        seq = execute_plan(specs, jobs=1, cache=NullCache())
        expected = {s.key: digest(seq[s]) for s in specs}
        clear_result_memo()
        # every spec kills the first worker that runs it (never the parent)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CHAOS", "5:1.0:worker-crash")
        results = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(max_pool_rebuilds=0)
        )
        assert {s.key: digest(results[s]) for s in specs} == expected
        stats = last_stats()
        assert (stats.pool_rebuilds, stats.retries, stats.failed) == (1, len(specs), 0)


class TestWindow:
    @pytest.mark.parametrize(
        "timeout_s, depth", [(None, 4), (600.0, 2)], ids=["default", "spec-timeout"]
    )
    def test_in_flight_window(self, max_pending, timeout_s, depth):
        """Two futures per worker, or one while a timeout is armed (a
        deadline must name a running spec); either way results equal jobs=1."""
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar", "gcc"))
        seq = execute_plan(specs, jobs=1, cache=NullCache())
        expected = {s.key: digest(seq[s]) for s in specs}
        clear_result_memo()
        par = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(spec_timeout_s=timeout_s)
        )
        assert {s.key: digest(par[s]) for s in specs} == expected
        assert max_pending[0] == depth


class TestSequentialOutcomes:
    def test_jobs1_failure_records(self, faults):
        """At ``jobs=1`` a spec that stays flaky past its budget and a
        deterministic error fail with these fields and retry counts."""
        specs = tiny_specs(("gobmk", "lbm", "bzip2"))
        faults({
            "lbm": {"mode": "flaky", "fails": 5},
            "bzip2": {"mode": "error", "message": "boom"},
        })
        results = execute_plan(
            specs, jobs=1, cache=NullCache(),
            policy=policy(keep_going=True, max_attempts=3),
        )
        assert results.ok(specs[0])
        flaky, error = results.failures
        assert (flaky.workloads, flaky.kind, flaky.exc_type, flaky.attempts) == (
            ("lbm",), "transient", "OSError", 3,
        )
        assert flaky.message == "injected flaky fault for lbm (call 3/5)"
        assert flaky.traceback.rstrip().endswith(f"OSError: {flaky.message}")
        assert (error.workloads, error.kind, error.exc_type, error.attempts) == (
            ("bzip2",), "error", "RuntimeError", 1,
        )
        assert error.message == "boom"
        assert error.traceback.rstrip().endswith("RuntimeError: boom")
        stats = last_stats()
        assert (stats.retries, stats.failed, stats.executed) == (2, 2, 3)
