"""Benchmark-side tracing: spans around the program's public functions.

The traced run wraps the functions named in :data:`LAYER_SPANS` from the
benchmark's side — the program itself is unchanged — and restores the
originals when the :class:`Tracer` context exits.  A span records its
name, start, end, parent span and the spec key it ran under, plus the
work counts its :data:`COUNTERS` hook reads off the call.  Spans are kept
in memory; :func:`layer_metrics` folds them into the per-layer metrics.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  ``layers.json``
maps each layer to its spans, its metrics and the end-to-end metric
(and workload) it should move.
"""

from __future__ import annotations

import bisect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "LAYER_SPANS",
    "Span",
    "Tracer",
    "coverage",
    "layer_metrics",
    "self_times",
]


@dataclass
class Span:
    """One traced call."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    #: fingerprint of the spec being simulated (or the cache key read /
    #: written), None outside any spec
    key: str | None = None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _target(path: str) -> tuple[Any, str]:
    """Resolve ``"module:Class.attr"`` / ``"module:func"`` to (owner, attr)."""
    mod_name, _, qual = path.partition(":")
    owner: Any = sys.modules.get(mod_name) or __import__(mod_name, fromlist=["_"])
    *outer, attr = qual.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


#: span name -> the public function it wraps; module-level functions are
#: patched on every ``repro`` module that binds them
LAYER_SPANS: dict[str, str] = {
    "workloads.synthesis": "repro.workloads.spec_profiles:SpecProfile.cpu_trace",
    "cpu.llc.filter": "repro.cpu.llc:filter_trace",
    "trace_plane.store": "repro.harness.trace_plane:TracePlane.store",
    "trace_plane.load": "repro.harness.trace_plane:TracePlane.load",
    "dram.decode": "repro.dram.address_mapping:AddressMapper.decode_array",
    "kernel.epoch": "repro.kernel.epoch:run_epoch_kernel",
    "kernel.epoch_multi": "repro.kernel.epoch_multi:run_epoch_multi",
    "dram.scalar_run": "repro.dram.memory_system:MemorySystem.run",
    "cpu.run_cores": "repro.cpu.multicore:run_cores",
    "energy.system_energy": "repro.energy.dram_power:system_energy",
    "cache.get": "repro.harness.cache:ArtifactCache.get",
    "cache.put": "repro.harness.cache:ArtifactCache.put",
    "runner.dispatch": "repro.harness.runner:execute_plan",
    "runner.run_spec": "repro.harness.runner:run_spec",
}


def _cache_get_counts(args, kwargs, result) -> dict[str, float]:
    default = args[2] if len(args) > 2 else kwargs.get("default")
    return {"hits": float(result is not default)}


def _kernel_counts(args, kwargs, result) -> dict[str, float]:
    if result is not None:  # declined: the scalar engine runs instead
        return {"declined": 1.0}
    return {"cycles": float(args[0].now)}


#: span name -> hook reading work counts off (args, kwargs, result)
COUNTERS: dict[str, Callable[..., dict[str, float]]] = {
    "workloads.synthesis": lambda a, k, r: {"accesses": float(len(r))},
    "cpu.llc.filter": lambda a, k, r: {"accesses": float(r.accesses), "misses": float(r.misses)},
    "dram.decode": lambda a, k, r: {"lines": float(len(a[1]))},
    "kernel.epoch": _kernel_counts,
    "cache.get": _cache_get_counts,
    "runner.dispatch": lambda a, k, r: {"memo_hits": float(r.stats.memo_hits)},
}


class Tracer:
    """Installs span wrappers on enter, restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._key: str | None = None
        self._next_id = 0
        #: (owner, attr, original) for every patched binding
        self._patched: list[tuple[Any, str, Any]] = []

    # -- span recording ------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        count = COUNTERS.get(name)
        is_spec = name == "runner.run_spec"
        is_cache = name.startswith("cache.")

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            outer_key = self._key
            if is_spec:
                self._key = args[0].key
            key = args[1] if is_cache and self._key is None else self._key
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._key = outer_key
            span = Span(sid, name, start, end, parent, key)
            if count is not None:
                span.counts = count(args, kwargs, result)
            self.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, path in LAYER_SPANS.items():
            owner, attr = _target(path)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            # a module-level function: rebind it wherever repro imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, wrapper)
        return self

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Callable) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# ------------------------------------------------------------------ analysis


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(intervals, start: float, end: float) -> list[tuple[float, float]]:
    return [(max(s, start), min(e, end)) for s, e in intervals if e > start and s < end]


class _Probes:
    """Probe units as sorted intervals, for cutting them out of spans."""

    def __init__(self, probe_units) -> None:
        self.intervals = sorted((t, t + d) for t, d in probe_units)
        self.starts = [a for a, _ in self.intervals]

    def within(self, start: float, end: float) -> list[tuple[float, float]]:
        lo = bisect.bisect_left(self.starts, start)
        return self.intervals[lo : bisect.bisect_right(self.starts, end)]

    def time_in(self, span: Span) -> float:
        return _union_length(_clip(self.within(span.start, span.end), span.start, span.end))


def self_times(spans: list[Span], probe_units=()) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    ``probe_units`` — ``(start, duration)`` pairs of probe units that ran
    inside spans — are taken off too: they interrupted the span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    probes = _Probes(probe_units)
    out = {}
    for s in spans:
        covered = _clip(children.get(s.id, []) + probes.within(s.start, s.end), s.start, s.end)
        out[s.id] = s.duration - _union_length(covered)
    return out


def coverage(spans: list[Span], start: float, end: float, probe_units=()) -> float:
    """Share of ``[start, end]``, probe time excluded, that spans cover."""
    probes = _clip([(t, t + d) for t, d in probe_units], start, end)
    spans_and_probes = _union_length(_clip([(s.start, s.end) for s in spans], start, end) + probes)
    probe_s = _union_length(probes)
    return (spans_and_probes - probe_s) / (end - start - probe_s)


def layer_metrics(spans: list[Span], scale: float = 1.0, probe_units=()) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``scale`` converts raw seconds to reference-host seconds (the phase's
    ``PROBE_REF_S / probe_s``); probe units are taken off self times.
    Counts are summed over the layer's spans.
    """
    own = self_times(spans, probe_units)
    probes = _Probes(probe_units)
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    calls: dict[str, int] = {}
    kernel_run_s = 0.0
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id] * scale
        calls[s.name] = calls.get(s.name, 0) + 1
        bucket = counts.setdefault(s.name, {})
        for k, v in s.counts.items():
            bucket[k] = bucket.get(k, 0.0) + v
        if s.name == "kernel.epoch" and "cycles" in s.counts:
            # inclusive of decode and epoch_multi, not of probe units
            kernel_run_s += (s.duration - probes.time_in(s)) * scale

    def t(name: str) -> float:
        return self_s.get(name, 0.0)

    def c(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0.0)

    filter_s = t("cpu.llc.filter")
    llc_acc = c("cpu.llc.filter", "accesses")
    gets = calls.get("cache.get", 0)
    return {
        "workloads.synthesis_s": t("workloads.synthesis"),
        "workloads.accesses": c("workloads.synthesis", "accesses"),
        "cpu.llc.filter_s": filter_s,
        "cpu.llc.accesses_per_s": llc_acc / filter_s if filter_s else 0.0,
        "cpu.llc.miss_ratio": c("cpu.llc.filter", "misses") / llc_acc if llc_acc else 0.0,
        "trace_plane.store_s": t("trace_plane.store"),
        "trace_plane.load_s": t("trace_plane.load"),
        "dram.decode_s": t("dram.decode"),
        "dram.decoded_lines": c("dram.decode", "lines"),
        "kernel.epoch_s": t("kernel.epoch"),
        "kernel.epoch_multi_s": t("kernel.epoch_multi"),
        "kernel.declined": c("kernel.epoch", "declined"),
        "kernel.sim_cycles_per_s": (
            c("kernel.epoch", "cycles") / kernel_run_s if kernel_run_s else 0.0
        ),
        "dram.scalar_run_s": t("dram.scalar_run"),
        "cpu.run_cores_self_s": t("cpu.run_cores"),
        "energy.system_energy_s": t("energy.system_energy"),
        "energy.calls": float(calls.get("energy.system_energy", 0)),
        "cache.get_s": t("cache.get"),
        "cache.put_s": t("cache.put"),
        "cache.hit_ratio": c("cache.get", "hits") / gets if gets else 0.0,
        "runner.dispatch_self_s": t("runner.dispatch"),
        "runner.run_spec_self_s": t("runner.run_spec"),
        "runner.specs_executed": float(calls.get("runner.run_spec", 0)),
        "runner.memo_hits": c("runner.dispatch", "memo_hits"),
        "harness.driver_self_s": t("harness.driver"),
    }
