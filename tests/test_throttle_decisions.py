"""Throttle-probability and SkipReason coverage (Section IV-C).

The probabilistic throttle is a pair of seeded coin flips: with window
occupancy ``B > 0`` ROP prefetches with probability ``λ``; with
``B == 0`` it stays quiet with probability ``β``.  These tests drive the
coin directly and check the empirical go-rates against the configured
probabilities within a binomial tolerance, then exercise the engine end
to end so every :class:`SkipReason` is observed in telemetry with the
cause it claims.
"""

from __future__ import annotations

import math

import pytest

from repro import SystemConfig
from repro.config import RopConfig
from repro.core.prefetcher import Prefetcher
from repro.core.profiler import LambdaBeta
from repro.dram import MemorySystem
from repro.rng import make_rng
from repro.telemetry import Kind, SkipReason, TraceSink

# ------------------------------------------------------------- direct drive

_N = 4000


def _go_rate(b_count: int, lam: float, beta: float, seed: int = 7) -> float:
    pf = Prefetcher(RopConfig(enabled=True), make_rng(seed, "rop-throttle"))
    gos = sum(pf.decide(b_count, LambdaBeta(lam, beta)) for _ in range(_N))
    assert pf.decisions_go + pf.decisions_skip == _N
    assert pf.decisions_go == gos
    return gos / _N


def _tolerance(p: float) -> float:
    # 4σ binomial band plus a small floor; false-failure odds ~1e-4, and
    # the profiles are derandomized in CI so a pass is a pass forever
    return 4.0 * math.sqrt(p * (1.0 - p) / _N) + 0.01


@pytest.mark.parametrize("lam", [0.15, 0.5, 0.85])
def test_busy_window_prefetches_at_rate_lambda(lam):
    rate = _go_rate(b_count=3, lam=lam, beta=0.5)
    assert abs(rate - lam) < _tolerance(lam)


@pytest.mark.parametrize("beta", [0.2, 0.6, 0.9])
def test_empty_window_stays_quiet_at_rate_beta(beta):
    rate = _go_rate(b_count=0, lam=0.5, beta=beta)
    assert abs(rate - (1.0 - beta)) < _tolerance(1.0 - beta)


def test_degenerate_probabilities_are_deterministic():
    assert _go_rate(3, lam=1.0, beta=0.5) == 1.0
    assert _go_rate(3, lam=0.0, beta=0.5) == 0.0
    assert _go_rate(0, lam=0.5, beta=1.0) == 0.0


def test_ablation_bypasses_coin():
    """probabilistic=False: go iff the window saw traffic, no randomness."""
    pf = Prefetcher(
        RopConfig(enabled=True, probabilistic=False), make_rng(1, "rop-throttle")
    )
    assert pf.decide(5, LambdaBeta(0.0, 1.0)) is True
    assert pf.decide(0, LambdaBeta(1.0, 0.0)) is False


def test_unprofiled_rank_stays_quiet():
    pf = Prefetcher(RopConfig(enabled=True), make_rng(1, "rop-throttle"))
    assert all(not pf.decide(b, None) for b in (0, 1, 8))
    assert pf.decisions_go == 0


def test_same_seed_same_decisions():
    lb = LambdaBeta(0.5, 0.5)
    runs = []
    for _ in range(2):
        pf = Prefetcher(RopConfig(enabled=True), make_rng(11, "rop-throttle"))
        runs.append([pf.decide(1, lb) for _ in range(200)])
    assert runs[0] == runs[1]


# ------------------------------------------------------- engine SkipReasons


def _rop_system(**rop_kw):
    base = SystemConfig.single_core()
    timings = base.timings.with_refresh(refi=1200, rfc=100)
    cfg = SystemConfig.single_core(timings=timings)
    return cfg.with_rop(training_refreshes=1, sram_lines=16, **rop_kw)


def _run(cfg, workload):
    # all-category sink: the default record_events sink drops ROP events
    ms = MemorySystem(cfg, record_events=True, sink=TraceSink(1 << 14, policy="grow"))
    cycle = 0
    for line, gap in workload:
        cycle += gap
        ms.schedule_read(line, cycle)
    ms.run()
    ms.finish()
    return ms


def _skip_reasons(ms):
    snap = ms.sink.snapshot()
    mask = snap["kind"] == int(Kind.PREFETCH_SKIP)
    return snap["a"][mask]


_STREAM = [(i, 5) for i in range(800)]  # unit stride, steady 1-in-5 traffic


def test_bus_pressure_skip_observed():
    """A zero pressure budget converts every post-training plan to a skip."""
    ms = _run(_rop_system(bus_pressure_limit=0.0), _STREAM)
    reasons = _skip_reasons(ms)
    assert len(reasons) > 0
    assert (reasons == int(SkipReason.BUS_PRESSURE)).all()
    assert ms.stats.refreshes > 1  # training actually completed


def test_no_candidates_skip_observed():
    """Patternless traffic trains λ/β but leaves the table empty-handed."""
    rng = make_rng(3, "skip-workload")
    workload = [(int(rng.integers(0, 1 << 22)), 5) for _ in range(800)]
    ms = _run(_rop_system(bus_pressure_limit=1.0, probabilistic=False), workload)
    reasons = _skip_reasons(ms)
    assert len(reasons) > 0
    assert int(SkipReason.NO_CANDIDATES) in set(int(r) for r in reasons)


def test_throttle_skip_observed_and_tagged():
    """λ=0, β=1 forces the coin to 'skip'; the event says THROTTLE."""
    ms = _run(_rop_system(bus_pressure_limit=1.0), _STREAM)
    eng = ms.rop
    assert not eng.sm.is_training
    key = (0, 0)
    eng.lam_beta[key] = LambdaBeta(0.0, 1.0)
    before = len(_skip_reasons(ms))
    assert eng.plan_prefetch(0, 0, ms.stats.end_cycle + 50_000) == []
    reasons = _skip_reasons(ms)
    assert len(reasons) == before + 1
    assert int(reasons[-1]) == int(SkipReason.THROTTLE)


def test_skip_reasons_are_always_valid():
    """Every emitted PREFETCH_SKIP carries a defined SkipReason code."""
    valid = {int(r) for r in SkipReason}
    for limit in (0.0, 0.45, 1.0):
        ms = _run(_rop_system(bus_pressure_limit=limit), _STREAM)
        assert all(int(r) in valid for r in _skip_reasons(ms))
