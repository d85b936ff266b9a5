"""Whole-system property tests: randomized workloads must satisfy every
physical invariant of the memory model (see repro.stats.invariants)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import RefreshMode, SystemConfig
from repro.dram import MemorySystem
from repro.stats.invariants import InvariantViolation, RequestLog, check_run
from repro.stats.refresh_analysis import rank_events

workload_strategy = st.lists(
    st.tuples(
        st.integers(0, 1 << 20),  # line
        st.integers(1, 60),  # inter-arrival gap (cycles)
        st.booleans(),  # is_write
    ),
    min_size=1,
    max_size=400,
)


def replay(cfg, workload):
    ms = MemorySystem(cfg, record_events=True)
    log = RequestLog()
    log.attach(ms)
    cycle = 0
    for line, gap, is_write in workload:
        cycle += gap
        if is_write:
            ms.schedule_write(line, cycle)
        else:
            ms.schedule_read(line, cycle)
    ms.run()
    ms.finish()
    return ms, log


@given(workload=workload_strategy)
@settings(max_examples=40, deadline=None)
def test_baseline_invariants(workload):
    ms, log = replay(SystemConfig.single_core(), workload)
    check_run(log, ms)


@given(workload=workload_strategy)
@settings(max_examples=25, deadline=None)
def test_rop_invariants(workload):
    cfg = SystemConfig.single_core().with_rop(training_refreshes=3)
    ms, log = replay(cfg, workload)
    check_run(log, ms)


@given(workload=workload_strategy)
@settings(max_examples=15, deadline=None)
def test_multirank_invariants(workload):
    ms, log = replay(SystemConfig.quad_core(), workload)
    check_run(log, ms)


@given(
    workload=workload_strategy,
    mode=st.sampled_from(
        [RefreshMode.FGR_2X, RefreshMode.PER_BANK, RefreshMode.PAUSING, RefreshMode.ELASTIC]
    ),
)
@settings(max_examples=20, deadline=None)
def test_alt_refresh_mode_invariants(workload, mode):
    cfg = SystemConfig.single_core().with_refresh_mode(mode)
    ms, log = replay(cfg, workload)
    # refresh-rate bookkeeping differs per mode; physical invariants only
    check_run(log, ms, check_refresh=False)


def test_per_bank_refresh_other_banks_keep_serving():
    """Regression: per-bank refresh freezes one bank, not the rank.

    A read stream alternating across banks keeps completing while single
    banks refresh; the lock-exclusion audit must not mistake the
    recorded per-bank windows for rank-wide locks (found by Hypothesis).
    """
    from repro.telemetry import Kind

    cfg = SystemConfig.single_core().with_refresh_mode(RefreshMode.PER_BANK)
    workload = [(i * 97, 25, False) for i in range(400)]
    ms, log = replay(cfg, workload)
    check_run(log, ms, check_refresh=False)
    # sanity: the run refreshed, and the windows carry the frozen bank
    snap = ms.sink.snapshot()
    assert len(rank_events(snap, 0, 0).refresh_starts) > 0
    banks = snap["b"][snap["kind"] == int(Kind.REFRESH_WINDOW)]
    assert (banks >= 0).all()


def test_attach_detach_restores_submit():
    ms = MemorySystem(SystemConfig.single_core())
    original = ms.controller.submit
    log = RequestLog().attach(ms)
    assert ms.controller.submit != original
    log.detach()
    # bound methods compare equal (same function, same instance)
    assert ms.controller.submit == original
    log.detach()  # idempotent


def test_attach_twice_rejected():
    ms = MemorySystem(SystemConfig.single_core())
    log = RequestLog().attach(ms)
    with pytest.raises(RuntimeError):
        log.attach(ms)
    log.detach()


def test_context_manager_detaches():
    ms = MemorySystem(SystemConfig.single_core())
    original = ms.controller.submit
    with RequestLog().attach(ms) as log:
        ms.schedule_read(0, 5)
        ms.run()
        ms.finish()
    assert ms.controller.submit == original
    assert len(log.requests) == 1
    check_run(log, ms)


def test_violation_detected():
    """The checker itself must catch a fabricated violation."""
    ms, log = replay(SystemConfig.single_core(), [(0, 5, False)])
    log.requests[0].complete_cycle = log.requests[0].arrival - 1
    with pytest.raises(InvariantViolation):
        check_run(log, ms)


def test_read_never_completed_detected():
    ms, log = replay(SystemConfig.single_core(), [(0, 5, False)])
    log.requests[0].complete_cycle = -1
    with pytest.raises(InvariantViolation):
        check_run(log, ms)


def test_violation_is_structured():
    """Violations carry (site, cycle, detail) for aggregation/rendering."""
    ms, log = replay(SystemConfig.single_core(), [(0, 5, False)])
    log.requests[0].complete_cycle = log.requests[0].arrival - 1
    with pytest.raises(InvariantViolation) as info:
        check_run(log, ms)
    exc = info.value
    assert exc.site == "causality"
    assert exc.cycle == log.requests[0].complete_cycle
    assert "completes before arrival" in exc.detail
    # the rendered message embeds site and cycle
    assert "[causality]" in str(exc)
    assert f"@cycle {exc.cycle}" in str(exc)


def test_violation_without_cycle_renders_without_anchor():
    exc = InvariantViolation("service-accounting", "read never completed")
    assert exc.cycle == -1
    assert str(exc).startswith("[service-accounting]")
    assert "@cycle" not in str(exc)


def test_violation_is_assertion_error_subclass():
    # the runner's failure taxonomy keys off AssertionError → "invariant"
    assert issubclass(InvariantViolation, AssertionError)
