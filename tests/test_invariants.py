"""Whole-system property tests: randomized workloads replayed straight into
the memory system must agree with every golden model of
:mod:`repro.validation.golden` — causality, DDR timing and bus
exclusivity, the refresh schedule and lock exclusion, and the counter
recounts.

These found a real bug once: a refresh started while a read's data
burst was still on the pins (``Bank.quiesce_at`` ignored
``busy_until``), fixed in cache schema v2.
"""

from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro import RefreshMode, SystemConfig
from repro.dram import MemorySystem
from repro.harness.runner import classify_failure
from repro.stats.refresh_analysis import rank_events
from repro.telemetry import Category, Kind
from repro.validation import (
    GoldenMismatchError,
    Mismatch,
    ValidationSession,
    render_mismatch_table,
)

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
    """Replay ``workload`` under a :class:`ValidationSession`.

    Returns the memory system, the session and the finished run's
    stand-in result (the golden checks read ``stats`` and
    ``rop_summary`` only).
    """
    session = ValidationSession(cfg)
    ms = MemorySystem(cfg, sink=session.sink)
    session.instrument(ms)
    cycle = 0
    for line, gap, is_write in workload:
        cycle += gap
        if is_write:
            ms.schedule_write(line, cycle)
        else:
            ms.schedule_read(line, cycle)
    ms.run()
    result = SimpleNamespace(stats=ms.finish(), rop_summary=ms.rop_summary())
    return ms, session, result


def assert_valid(cfg, workload):
    ms, session, result = replay(cfg, workload)
    assert session.finish(result) == []
    return ms


@given(workload=workload_strategy)
@settings(max_examples=40, deadline=None)
def test_baseline_invariants(workload):
    assert_valid(SystemConfig.single_core(), workload)


@given(workload=workload_strategy)
@settings(max_examples=25, deadline=None)
def test_rop_invariants(workload):
    assert_valid(SystemConfig.single_core().with_rop(training_refreshes=3), workload)


@given(workload=workload_strategy)
@settings(max_examples=15, deadline=None)
def test_multirank_invariants(workload):
    assert_valid(SystemConfig.quad_core(), workload)


@given(
    workload=workload_strategy,
    mode=st.sampled_from(
        [
            RefreshMode.FGR_2X,
            RefreshMode.PER_BANK,
            RefreshMode.PAUSING,
            RefreshMode.ELASTIC,
            RefreshMode.SARP,
        ]
    ),
)
@settings(max_examples=20, deadline=None)
def test_alt_refresh_mode_invariants(workload, mode):
    assert_valid(SystemConfig.single_core().with_refresh_mode(mode), workload)


def test_per_bank_refresh_other_banks_keep_serving():
    """Regression: per-bank refresh freezes one bank, not the rank.

    A read stream alternating across banks keeps completing while single
    banks refresh; lock exclusion must not mistake the recorded per-bank
    windows for rank-wide locks (found by Hypothesis).
    """
    cfg = SystemConfig.single_core().with_refresh_mode(RefreshMode.PER_BANK)
    ms = assert_valid(cfg, [(i * 97, 25, False) for i in range(400)])
    # sanity: the run refreshed, and the windows carry the frozen bank
    snap = ms.sink.snapshot()
    assert len(rank_events(snap, 0, 0).refresh_starts) > 0
    banks = snap["b"][snap["kind"] == int(Kind.REFRESH_WINDOW)]
    assert (banks >= 0).all()


def _one_read():
    """A clean one-read run: (session, result, rid, issue, complete)."""
    _, session, result = replay(SystemConfig.single_core(), [(0, 5, False)])
    snap = session.sink.snapshot()
    issue = snap["cycle"][snap["kind"] == int(Kind.ISSUE)][0]
    done = snap["kind"] == int(Kind.COMPLETE)
    return session, result, int(snap["a"][done][0]), int(issue), int(snap["cycle"][done][0])


def test_violation_detected():
    """The causality check must catch a fabricated violation: a read
    whose column command lies after its completion."""
    session, result, rid, _, complete = _one_read()
    session.sink.emit(Category.SERVICE, Kind.ISSUE, complete + 1, 0, 0, a=rid, b=0)
    assert {m.check for m in session.finish(result)} == {"causality"}


def test_read_never_completed_detected():
    session, result, _, _, _ = _one_read()
    stats = replace(result.stats, reads_completed=0)
    mismatches = session.finish(SimpleNamespace(stats=stats, rop_summary=None))
    assert ("counters", "reads == reads_completed") in {(m.check, m.site) for m in mismatches}


def test_violation_is_structured():
    """Mismatches carry (check, site, cycle, detail) for aggregation/rendering."""
    session, result, rid, issue, complete = _one_read()
    session.sink.emit(Category.SERVICE, Kind.COMPLETE, complete, 0, 0, a=rid, b=-1)
    (m,) = [m for m in session.finish(result) if m.check == "causality"]
    assert (m.site, m.cycle, m.expected) == ("ch0.rank0", complete, "latency >= 0")
    assert m.actual == f"latency -1, issue {issue}" and m.detail == f"read rid {rid}"
    # the error message embeds the check name and the anchoring cycle
    text = str(GoldenMismatchError([m]))
    assert "in check(s): causality" in text and f"  {complete}  " in text


def test_violation_without_cycle_renders_without_anchor():
    table = render_mismatch_table([Mismatch("counters", "reads", 2, 1)])
    row = table.splitlines()[-1].split()
    assert row[:3] == ["counters", "reads", "-"]


def test_violation_is_assertion_error_subclass():
    # the runner's failure taxonomy files a golden mismatch as "invariant"
    assert issubclass(GoldenMismatchError, AssertionError)
    assert classify_failure(GoldenMismatchError([])) == "invariant"
