"""Unit + property tests for the offline refresh analysis (Figs. 2–4,
Table I)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.collectors import RankEvents
from repro.stats.refresh_analysis import analyze_rank, blocked_per_refresh

W = 100


def events(reads=(), writes=(), refreshes=(), rfc=10):
    ev = RankEvents()
    ev.read_arrivals = sorted(reads)
    ev.write_arrivals = sorted(writes)
    ev.refresh_starts = sorted(refreshes)
    ev.refresh_ends = [s + rfc for s in ev.refresh_starts]
    return ev


def test_lambda_simple():
    # refresh at 200: B has the read at 150, A has the read at 250
    ev = events(reads=[150, 250], refreshes=[200])
    wa = analyze_rank(ev, W)
    assert wa.lam == 1.0
    assert np.isnan(wa.beta)  # B=0 never occurred


def test_beta_simple():
    ev = events(reads=[1000], refreshes=[200])
    wa = analyze_rank(ev, W)
    assert wa.beta == 1.0
    assert np.isnan(wa.lam)


def test_writes_count_in_b_only():
    ev = events(writes=[150, 250], refreshes=[200])
    wa = analyze_rank(ev, W)
    assert wa.b_counts[0] == 1  # the write at 150
    assert wa.a_counts[0] == 0  # the write at 250 is not a blocked read


def test_e1_e2_fractions():
    ev = events(
        reads=[150, 250, 1150, 1250],  # refresh 200: E1; refresh 2000: E2
        refreshes=[200, 2000],
    )
    wa = analyze_rank(ev, W)
    assert wa.e1_fraction == pytest.approx(0.5)
    assert wa.e2_fraction == pytest.approx(0.5)
    assert wa.dominant_fraction == 1.0


def test_non_blocking_fraction():
    ev = events(reads=[250], refreshes=[200, 2000, 4000])
    wa = analyze_rank(ev, W)
    assert wa.non_blocking_fraction == pytest.approx(2 / 3)


def test_a_window_override():
    ev = events(reads=[205], refreshes=[200])
    assert analyze_rank(ev, W, a_window=10).a_counts[0] == 1
    assert analyze_rank(ev, W, a_window=4).a_counts[0] == 0


def test_blocked_per_refresh_uses_lock_window():
    ev = events(reads=[202, 205, 250], refreshes=[200], rfc=10)
    blocked = blocked_per_refresh(ev)
    assert blocked.tolist() == [2]  # 202 and 205 inside [200, 210)


def test_empty_events():
    wa = analyze_rank(events(), W)
    assert wa.refreshes == 0
    assert wa.non_blocking_fraction == 0.0
    assert wa.dominant_fraction == 0.0


# ---------------------------------------------------------------- properties


@given(
    reads=st.lists(st.integers(0, 3000), max_size=50),
    writes=st.lists(st.integers(0, 3000), max_size=30),
    refreshes=st.lists(st.integers(200, 2800), min_size=1, max_size=10, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_analysis_matches_bruteforce(reads, writes, refreshes):
    ev = events(reads=reads, writes=writes, refreshes=refreshes)
    wa = analyze_rank(ev, W)
    reads_s = sorted(reads)
    all_s = sorted(reads + writes)
    starts = sorted(refreshes)
    for i, t in enumerate(starts):
        b = sum(1 for x in all_s if t - W <= x < t)
        a = sum(1 for x in reads_s if t <= x < t + W)
        assert wa.b_counts[i] == b
        assert wa.a_counts[i] == a


@given(
    reads=st.lists(st.integers(0, 3000), min_size=1, max_size=60),
    refreshes=st.lists(st.integers(100, 2900), min_size=2, max_size=12, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_lambda_beta_are_probabilities(reads, refreshes):
    wa = analyze_rank(events(reads=reads, refreshes=refreshes), W)
    for v in (wa.lam, wa.beta):
        assert np.isnan(v) or 0.0 <= v <= 1.0
    assert 0.0 <= wa.dominant_fraction <= 1.0
    assert wa.e1_fraction + wa.e2_fraction <= 1.0 + 1e-12
