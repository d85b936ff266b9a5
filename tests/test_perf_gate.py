"""The CI perf gate (``benchmarks/perf_gate.py``): its committed
reference record and the spec timers it re-measures.

The gate is a script, not a package module, so it is loaded by path.
The timers run once each at a tiny scale: this checks that they still
build, pre-trace and simulate their specs, not how fast they do it.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from repro.harness import RunScale

ROOT = Path(__file__).resolve().parent.parent
TINY = RunScale(instructions=60_000, seed=3, training_refreshes=2)


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", ROOT / "benchmarks" / "perf_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_record_carries_every_gated_metric(perf_gate):
    record = perf_gate.committed_epoch_record(ROOT / "BENCH_runner.json")
    assert record is not None
    for metric in (
        "single_spec_cycles_per_sec",
        "multicore_spec_cycles_per_sec",
        "auto_spec_cycles_per_sec",
    ):
        assert record[metric] > 0


@pytest.mark.parametrize("timer", ["single_spec", "auto_spec", "multicore_spec"])
def test_timer_simulates_its_spec(perf_gate, timer, tmp_path, monkeypatch):
    # registered first, so teardown restores what reset_state repoints
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    perf_gate.reset_state(str(tmp_path / "cache"))
    best, cycles = getattr(perf_gate, timer)(TINY, 1)
    assert 0 < best < float("inf")
    assert cycles > 0
    assert "REPRO_ENGINE" not in os.environ  # the engine override is undone
