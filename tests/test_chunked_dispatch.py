"""Chunked-dispatch x fault-tolerance tests (ISSUE 4).

Batching K specs per future must not change results, and every
fault-tolerance guarantee stays *per spec*: a crash mid-chunk isolates
the culprit, a deterministic error never costs chunk-mates their
results, and retries resubmit only the failed spec.
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
from repro.harness.cache import NullCache
from repro.harness.runner import _auto_chunk_size, clear_result_memo

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


class TestEquivalence:
    def test_chunked_equals_sequential_bit_for_bit(self):
        specs = tiny_specs()
        seq = execute_plan(specs, jobs=1, cache=NullCache())
        expected = {s.key: digest(seq[s]) for s in specs}
        clear_result_memo()
        chunked = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(chunk_size=3)
        )
        assert {s.key: digest(chunked[s]) for s in specs} == expected
        stats = last_stats()
        assert stats.chunks == 2  # 6 specs / chunk of 3
        assert not chunked.failures

    def test_chunked_equals_unchunked_parallel(self):
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar"))
        unchunked = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(chunk_size=1)
        )
        expected = {s.key: digest(unchunked[s]) for s in specs}
        clear_result_memo()
        chunked = execute_plan(
            specs, jobs=2, cache=NullCache(), policy=policy(chunk_size=4)
        )
        assert {s.key: digest(chunked[s]) for s in specs} == expected


class TestCrashMidChunk:
    def test_crash_isolates_culprit_and_retries_only_it(self, faults):
        """Acceptance: a crash mid-chunk loses only the crashing spec."""
        specs = tiny_specs()
        faults({"lbm": {"mode": "crash"}})
        results = execute_plan(
            specs, jobs=2, cache=NullCache(),
            policy=policy(keep_going=True, chunk_size=3),
        )
        # the culprit is attributed precisely, chunk-mates survive
        assert len(results) == len(specs) - 1
        assert len(results.failures) == 1
        failure = results.failures[0]
        assert failure.workloads == ("lbm",)
        assert failure.kind == "worker-lost"
        assert failure.attempts == 3  # retried serially up to the cap
        assert last_stats().pool_rebuilds >= 1

        # the surviving results equal a clean unchunked run
        faults({})
        clear_result_memo()
        clean = execute_plan(specs, jobs=1, cache=NullCache())
        for s in specs:
            if s.workloads != ("lbm",):
                assert digest(results[s]) == digest(clean[s])

    def test_error_mid_chunk_spares_chunk_mates(self, faults):
        """A deterministic error is classified in the worker: chunk-mates
        complete in the same dispatch, nothing is re-run."""
        specs = tiny_specs()
        faults({"bzip2": {"mode": "error", "message": "boom"}})
        results = execute_plan(
            specs, jobs=2, cache=NullCache(),
            policy=policy(keep_going=True, chunk_size=3),
        )
        assert len(results) == len(specs) - 1
        failure = results.failures[0]
        assert failure.workloads == ("bzip2",)
        assert failure.kind == "error"
        assert failure.attempts == 1  # deterministic: no retries
        assert failure.message == "boom"
        stats = last_stats()
        assert stats.retries == 0  # chunk-mates were never resubmitted
        assert stats.chunks == 2


class TestRetriesWithinChunks:
    def test_flaky_spec_retried_alone(self, faults):
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar"))
        faults({"lbm": {"mode": "flaky", "fails": 2}})
        results = execute_plan(
            specs, jobs=2, cache=NullCache(),
            policy=policy(max_attempts=3, chunk_size=4),
        )
        assert results.ok(*specs)
        assert not results.failures
        stats = last_stats()
        # exactly the flaky spec's two failed calls were retried; its
        # three chunk-mates ran once (first chunk + 2 single-spec retries)
        assert stats.retries == 2
        assert stats.chunks == 3

    def test_results_match_sequential_despite_retries(self, faults):
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar"))
        seq = execute_plan(specs, jobs=1, cache=NullCache())
        expected = {s.key: digest(seq[s]) for s in specs}
        clear_result_memo()
        faults({"gobmk": {"mode": "flaky", "fails": 1}})
        retried = execute_plan(
            specs, jobs=2, cache=NullCache(),
            policy=policy(max_attempts=3, chunk_size=2),
        )
        assert {s.key: digest(retried[s]) for s in specs} == expected


class TestChunkSizing:
    def test_auto_chunk_size(self):
        assert _auto_chunk_size(4, 1) == 1  # sequential: no batching
        assert _auto_chunk_size(4, 8) == 1  # fewer specs than workers
        assert _auto_chunk_size(16, 2) == 2  # ~4 waves per worker
        assert _auto_chunk_size(72, 4) == 4
        assert _auto_chunk_size(10_000, 4) == 8  # capped

    def test_spec_timeout_forces_single_spec_chunks(self):
        specs = tiny_specs(("gobmk", "lbm", "bzip2", "astar"))
        execute_plan(
            specs, jobs=2, cache=NullCache(),
            policy=policy(chunk_size=4, spec_timeout_s=600.0),
        )
        assert last_stats().chunks == len(specs)
