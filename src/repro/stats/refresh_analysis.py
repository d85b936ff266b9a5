"""Offline refresh/traffic correlation analysis (Section III of the paper).

Operates on per-rank event timestamps — the
:class:`~repro.stats.collectors.RankEvents` view that :func:`rank_events`
builds from a telemetry :class:`~repro.telemetry.TraceSink` snapshot —
and reproduces, fully vectorized with ``numpy.searchsorted``:

* **Fig. 2** — fraction of *non-blocking* refreshes at 1×/2×/4× examined
  windows (no read arrives within the window after the refresh start);
* **Fig. 3** — average number of requests blocked per *blocking* refresh
  (reads arriving while the rank is actually locked);
* **Fig. 4** — fraction of the two dominant events E1 (B>0 ∧ A>0) and
  E2 (B=0 ∧ A=0);
* **Table I** — the conditional probabilities λ = P{A>0 | B>0} and
  β = P{A=0 | B=0}.

``B`` counts reads *and* writes in the window before a refresh; ``A``
counts reads only in the window after the refresh start — exactly the
profiler's definitions (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..telemetry import Kind
from .collectors import RankEvents

__all__ = ["WindowAnalysis", "analyze_rank", "blocked_per_refresh", "rank_events"]


@dataclass(frozen=True)
class WindowAnalysis:
    """Per-refresh window occupancy counts and derived paper metrics."""

    window: int  #: B/A window length in controller cycles
    b_counts: np.ndarray  #: requests (R+W) in [T−W, T) per refresh
    a_counts: np.ndarray  #: reads in [T, T+W) per refresh

    @property
    def refreshes(self) -> int:
        """Number of refreshes analyzed."""
        return len(self.b_counts)

    # -- Table I ------------------------------------------------------------------

    @property
    def lam(self) -> float:
        """λ = P{A>0 | B>0}; NaN when B>0 never occurred."""
        b_pos = self.b_counts > 0
        n = int(b_pos.sum())
        if n == 0:
            return float("nan")
        return float((self.a_counts[b_pos] > 0).mean())

    @property
    def beta(self) -> float:
        """β = P{A=0 | B=0}; NaN when B=0 never occurred."""
        b_zero = self.b_counts == 0
        n = int(b_zero.sum())
        if n == 0:
            return float("nan")
        return float((self.a_counts[b_zero] == 0).mean())

    # -- Fig. 4 -------------------------------------------------------------------

    @property
    def e1_fraction(self) -> float:
        """Fraction of refreshes with B>0 ∧ A>0."""
        if self.refreshes == 0:
            return 0.0
        return float(((self.b_counts > 0) & (self.a_counts > 0)).mean())

    @property
    def e2_fraction(self) -> float:
        """Fraction of refreshes with B=0 ∧ A=0."""
        if self.refreshes == 0:
            return 0.0
        return float(((self.b_counts == 0) & (self.a_counts == 0)).mean())

    @property
    def dominant_fraction(self) -> float:
        """E1 + E2 — the prediction coverage the paper's Fig. 4 reports."""
        return self.e1_fraction + self.e2_fraction

    # -- Fig. 2 -------------------------------------------------------------------

    @property
    def non_blocking_fraction(self) -> float:
        """Fraction of refreshes whose A-window saw no read (Fig. 2)."""
        if self.refreshes == 0:
            return 0.0
        return float((self.a_counts == 0).mean())


def _count_between(sorted_times: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized count of events in [lo, hi) for each (lo, hi) pair."""
    return np.searchsorted(sorted_times, hi, side="left") - np.searchsorted(
        sorted_times, lo, side="left"
    )


def analyze_rank(
    events: RankEvents,
    window: int,
    *,
    a_window: int | None = None,
) -> WindowAnalysis:
    """Compute per-refresh B/A counts for one rank's event record."""
    arr = events.arrays()
    reads = arr["reads"]
    all_requests = np.sort(np.concatenate([reads, arr["writes"]]))
    starts = arr["refresh_starts"]
    aw = a_window if a_window is not None else window
    b = _count_between(all_requests, starts - window, starts)
    a = _count_between(reads, starts, starts + aw)
    return WindowAnalysis(window=window, b_counts=b, a_counts=a)


def blocked_per_refresh(events: RankEvents) -> np.ndarray:
    """Reads arriving inside each refresh's actual lock window (Fig. 3).

    Uses the recorded [start, end) lock intervals, i.e. the physical
    ``tRFC`` freeze rather than an analysis window.
    """
    arr = events.arrays()
    reads = arr["reads"]
    return _count_between(reads, arr["refresh_starts"], arr["refresh_ends"])


def rank_events(snapshot: dict[str, np.ndarray], channel: int, rank: int) -> RankEvents:
    """One rank's request arrivals and refresh lock windows, read from a
    :meth:`TraceSink.snapshot() <repro.telemetry.TraceSink.snapshot>`.

    The sink must have collected the REQUEST and REFRESH categories
    (``MemorySystem(record_events=True)`` enables both).
    """
    here = (snapshot["channel"] == channel) & (snapshot["rank"] == rank)
    kind = snapshot["kind"]
    windows = here & (kind == int(Kind.REFRESH_WINDOW))
    return RankEvents(
        read_arrivals=snapshot["cycle"][here & (kind == int(Kind.READ_ARRIVAL))].tolist(),
        write_arrivals=snapshot["cycle"][here & (kind == int(Kind.WRITE_ARRIVAL))].tolist(),
        refresh_starts=snapshot["cycle"][windows].tolist(),
        refresh_ends=snapshot["a"][windows].tolist(),
    )

