"""Interpreter-speed probe and reference-host normalization.

The benchmark host is shared, and its speed flips between a fast and a
slow state (about 1.6x apart) every second or so: the same pure-Python
work can take half as long again in one process as in the next.  Every
host-time metric is therefore reported in *reference-host seconds*::

    normalized = raw_seconds * PROBE_REF_S / probe_s

``probe_s`` is the time of one :func:`probe_unit`, a fixed dict/int loop
that never touches ``repro``.  A bracketing probe on either side of a
multi-second call misses the state flips inside it, so the probe runs
in short slices *during* each timed call instead: an interval timer
fires every :data:`INTERVAL_S` and the signal handler times one unit
(about a tenth of run time).  ``raw_seconds`` is the call's wall time
minus the probe time spent inside it, and ``probe_s`` is the mean of
the units timed during the call — the call's own average interpreter
speed.  ``PROBE_REF_S`` is a constant: the probe's median on the host
the benchmark was calibrated on.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

__all__ = ["PROBE_REF_S", "Probe", "normalize", "probe_unit"]

#: median probe_unit time on the calibration host (2-vCPU x86-64,
#: CPython 3.11, fast state); a constant, so normalized seconds of two
#: commits compare directly
PROBE_REF_S = 0.00055

#: loop iterations of one probe unit (about half a millisecond)
PROBE_ITERS = 4_000

#: probe timer period; one unit per period keeps the probe near a tenth
#: of run time
INTERVAL_S = 0.005

#: units timed right after a call too short to catch enough timer ticks
MIN_UNITS = 3


def probe_unit(iters: int = PROBE_ITERS) -> int:
    """A fixed dict/int workload shaped like the simulator's hot loops."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(iters):
        k = (i * 7919) & 1023
        v = table.get(k, 0) + i
        table[k] = v
        acc ^= v
    return acc


def normalize(raw_s: float, probe_s: float, ref_s: float = PROBE_REF_S) -> float:
    """Raw host seconds converted to reference-host seconds."""
    return raw_s * ref_s / probe_s


class Probe:
    """Times probe units during timed calls; keeps every unit's time."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        #: (start, duration) of every probe unit, in run order
        self.samples: list[tuple[float, float]] = []
        #: (start, end) of the last timed call
        self.window = (0.0, 0.0)

    def _unit(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe_unit()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextmanager
    def sampling(self):
        """Time one probe unit every ``interval_s`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._unit)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` under the probe.

        Returns ``(result, raw_s, probe_s)``: wall seconds minus the probe
        time spent inside the call, and the mean probe unit time during it.
        """
        first = len(self.samples)
        with self.sampling():
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
        self.window = (t0, t1)
        inside = [d for t, d in self.samples[first:] if t < t1]
        raw = (t1 - t0) - sum(inside)
        while len(inside) < MIN_UNITS:
            self._unit()
            inside.append(self.samples[-1][1])
        return result, raw, statistics.fmean(inside)

    def spread(self) -> float:
        """Interquartile range of this run's probe units over their median."""
        units = [d for _, d in self.samples]
        if len(units) < 2:
            return 0.0
        q1, q2, q3 = statistics.quantiles(units, n=4)
        return (q3 - q1) / q2

    def median(self) -> float:
        units = [d for _, d in self.samples]
        return statistics.median(units) if units else 0.0
