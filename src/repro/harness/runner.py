"""Parallel experiment execution: declare a grid, run it on all cores.

The paper's figures and tables are embarrassingly parallel grids of
independent, deterministic simulations (12 benchmarks × 6 systems for
Figs. 7–9; 6 mixes × 4 LLC sizes × 3 systems for Figs. 12–14).  Instead
of looping, a driver *declares* its grid as :class:`RunSpec` points on a
:class:`RunPlan` and executes the plan once:

* identical specs are **deduplicated** — Fig. 1 and Fig. 7 both need the
  same baseline and no-refresh runs, which used to simulate twice;
* results are served from a process-local memo, then the persistent
  content-keyed :mod:`~repro.harness.cache`, and only then simulated;
* cache misses fan out over a ``ProcessPoolExecutor`` (``REPRO_JOBS``
  env var or the ``jobs=`` argument; ``jobs=1`` runs in-process,
  preserving the sequential behaviour bit for bit — determinism is
  seeded, so parallel and sequential execution produce identical
  results);
* before simulating a plan of more than one uncached spec, the parent
  **prewarms the trace plane** (:mod:`~repro.harness.trace_plane`):
  every unique memory trace is materialized once as a ``.trace`` file
  that workers memory-map instead of regenerating per process, grouped
  by CPU trace so each CPU trace is synthesized once per plan;
* specs whose memory traces, :func:`simulation_config` (the
  ``SystemConfig`` without the fields the simulator ignores, such as
  ``llc``, which only shapes the traces) and ``record_events`` coincide
  **share one simulation**: the first one declared runs, and its result
  is published under every member's own key (under ``REPRO_TELEMETRY``
  or ``REPRO_VALIDATE`` every spec runs on its own);
* every pool future carries **one spec**, with up to two per worker in
  flight so a worker never idles while the parent stores the last
  result.

Run options reach a plan through one channel, the ``REPRO_*``
environment, which pool workers inherit; the CLI turns its flags into
those variables for the duration of one command.  :func:`execute_plan`
parses every variable it and :func:`run_spec` read before its first
memo or cache lookup, so a malformed one raises :class:`ConfigError`
before anything simulates.

Execution is **fault tolerant**: outcomes are tracked per spec, so one
worker crash, hang or pathological config loses only the culprit spec.
In-process and pool outcomes are settled by the same code.  The
behaviour is governed by :class:`ExecutionPolicy`:

* failures are classified (:class:`SpecFailure` — ``transient``,
  ``worker-lost``, ``timeout``, ``invariant``, ``error``) where the spec
  ran; transient failures are retried with exponential backoff up to
  ``max_attempts``, resubmitting only the failed spec;
* a broken process pool is rebuilt (suspect specs are re-run one at a
  time to isolate the culprit) and, past ``max_pool_rebuilds``,
  execution degrades to in-process;
* ``spec_timeout_s`` bounds each spec's wall clock — a hung worker is
  killed, reported as a ``timeout`` failure, and innocent in-flight
  specs are resubmitted without penalty;
* completed results are flushed to the artifact cache *as they finish*,
  so a killed or crashed sweep resumes by simply re-running the same
  plan: only failed/missing specs simulate again;
* ``keep_going`` returns partial :class:`PlanResults` with a
  ``failures`` report instead of raising :class:`PlanExecutionError`
  on the first final failure;
* ``SIGINT``/``SIGTERM`` drain in-flight work, persist what completed
  and print a resume hint before re-raising ``KeyboardInterrupt``.

Every execution updates :func:`last_stats` (wall clock, dedup, cache-hit
and failure counters) and :func:`last_failures`, which the CLI prints
after each figure.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

from ..config import ConfigError, LlcConfig, RefreshConfig, RefreshMode, RopConfig, SystemConfig
from ..cpu import MulticoreResult, run_cores
from ..workloads import mix_profiles, profile
from .cache import MISS, fingerprint, get_cache
from .faults import maybe_inject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .experiment import RunScale

__all__ = [
    "ConfigError",
    "EngineFallback",
    "ExecutionPolicy",
    "PlanExecutionError",
    "RunSpec",
    "RunPlan",
    "PlanResults",
    "RunnerStats",
    "SpecFailure",
    "cached_result",
    "classify_failure",
    "execute_plan",
    "run_spec",
    "spec_fingerprint",
    "validation_enabled",
    "resolve_jobs",
    "core_llc_share",
    "last_stats",
    "last_failures",
    "last_fallbacks",
    "session_stats",
    "simulation_config",
    "clear_result_memo",
]


def core_llc_share(llc_bytes: int, cores: int = 4) -> LlcConfig:
    """Per-core slice of the statically partitioned shared LLC."""
    return LlcConfig(size_bytes=max(64 * 1024, llc_bytes // cores))


@dataclass(frozen=True)
class RunSpec:
    """One deterministic co-simulation point.

    Identity (and therefore the cache key) covers everything the result
    depends on: the per-core workload names, the full ``SystemConfig``,
    the LLC geometry the traces are filtered through, and the run
    length/seed.  Presentation details (system labels, normalization)
    live in the drivers, so the same spec declared by two figures is one
    simulation.  Observation (``REPRO_TELEMETRY``, ``REPRO_VALIDATE``)
    is no part of a spec: the golden models check a result without
    changing it, and the trace sink observes a run without changing it.
    """

    workloads: tuple[str, ...]
    config: SystemConfig
    #: per-core LLC slice the traces are filtered through (equals
    #: ``config.llc`` for single-core runs, a quarter slice for mixes)
    trace_llc: LlcConfig
    instructions: int
    seed: int
    record_events: bool = False

    @property
    def key(self) -> str:
        """Content fingerprint — the artifact-cache address."""
        return fingerprint(
            "run",
            list(self.workloads),
            self.config,
            self.trace_llc,
            self.instructions,
            self.seed,
            self.record_events,
        )

    @property
    def label(self) -> str:
        """Human-readable identity for failure reports."""
        return "+".join(self.workloads)

    # -- constructors matching the paper's experiment shapes ---------------

    @classmethod
    def benchmark(
        cls,
        name: str,
        config: SystemConfig,
        scale: "RunScale",
        *,
        record_events: bool = False,
    ) -> "RunSpec":
        """Single benchmark on a single-core system."""
        return cls(
            workloads=(name,),
            config=config,
            trace_llc=config.llc,
            instructions=scale.instructions,
            seed=scale.seed,
            record_events=record_events,
        )

    @classmethod
    def mix(
        cls,
        mix: str,
        config: SystemConfig,
        scale: "RunScale",
        *,
        llc_bytes: int | None = None,
    ) -> "RunSpec":
        """Four-benchmark workload mix on a multi-core system."""
        names = tuple(p.name for p in mix_profiles(mix))
        share = core_llc_share(llc_bytes if llc_bytes is not None else config.llc.size_bytes)
        return cls(
            workloads=names,
            config=config,
            trace_llc=share,
            instructions=scale.instructions,
            seed=scale.seed,
        )

    @classmethod
    def alone(
        cls, name: str, llc: LlcConfig, scale: "RunScale", config: SystemConfig
    ) -> "RunSpec":
        """Alone run (weighted-speedup denominator): ROP off, same memory.

        The disabled ``RopConfig`` keeps ``config``'s other ROP fields, so
        the alone runs of two systems that differ only there (Baseline-RP
        and ROP) have distinct keys; they share one simulation through
        :func:`simulation_config` instead.
        """
        base = replace(config, rop=replace(config.rop, enabled=False))
        return cls(
            workloads=(name,),
            config=base,
            trace_llc=llc,
            instructions=scale.instructions,
            seed=scale.seed,
        )


def spec_fingerprint(spec: RunSpec) -> str:
    """Stable public content fingerprint of ``spec`` — its cache address.

    This is the promoted, supported form of the internal cache-key
    computation (``RunSpec.key``): a 40-hex-char sha256 prefix over the
    canonicalized workload set, full :class:`~repro.config.SystemConfig`,
    trace-LLC geometry, run length, seed and ``record_events`` flag, all
    under the current ``CACHE_SCHEMA``.  Two processes (or two hosts)
    always agree on it, so ``repro fingerprint`` can print a result's
    address without running it.
    """
    return spec.key


def cached_result(key: str) -> MulticoreResult | None:
    """The stored result for a spec fingerprint, or None when absent.

    Read-through order matches :func:`execute_plan`: the in-process memo
    first, then the persistent artifact cache (a disk hit is promoted
    into the memo).  Never simulates.
    """
    memoized = _RESULT_MEMO.get(key)
    if memoized is not None:
        return memoized
    cached = get_cache().get(key, MISS)
    if cached is MISS:
        return None
    _RESULT_MEMO[key] = cached
    return cached


def telemetry_enabled() -> bool:
    """Whether runs attach a trace sink (``REPRO_TELEMETRY``)."""
    return _env_flag("REPRO_TELEMETRY")


def validation_enabled() -> bool:
    """Whether runs attach the golden-model checks (``REPRO_VALIDATE``)."""
    return _env_flag("REPRO_VALIDATE")


def trace_dir() -> "Path":
    """Directory worker trace files land in.

    ``REPRO_TRACE_DIR`` wins (the CLI sets it so spawned workers agree);
    the default is a ``traces/`` sibling inside the artifact-cache dir.
    """
    from pathlib import Path

    env = os.environ.get("REPRO_TRACE_DIR", "").strip()
    if env:
        return Path(env)
    from .cache import default_cache_dir

    return default_cache_dir() / "traces"


def _export_worker_trace(spec: RunSpec, sink) -> "Path | None":
    """Write this worker's Perfetto trace; failures never fail the run."""
    from ..telemetry import write_chrome_trace

    tck_ns = spec.config.effective_timings().tck_ns
    path = trace_dir() / f"{spec.label}-{spec.key[:12]}.trace.json"
    try:
        return write_chrome_trace(sink, tck_ns, path, label=spec.label)
    except OSError:
        return None


@dataclass(frozen=True)
class EngineFallback:
    """One spec's epoch→scalar engine fallback (threaded per spec).

    Replaces the old module-global ``kernel.last_fallback()``: reasons
    travel in the spec's own outcome record, so one spec's fallback can
    never masquerade as another's.
    """

    key: str
    workloads: tuple[str, ...]
    #: ``declined`` (unsupported topology — routine, not counted) or
    #: ``fault`` (the epoch engine raised; quarantined + scalar re-run)
    kind: str
    reason: str
    exc_type: str = ""
    #: quarantine bundle path (``fault`` only; empty if unwritable)
    quarantine: str = ""

    @property
    def label(self) -> str:
        return "+".join(self.workloads)


def run_spec(
    spec: RunSpec,
    fallbacks: "list[EngineFallback] | None" = None,
) -> MulticoreResult:
    """Execute one spec (pure function; also the worker-process entry).

    With ``REPRO_TELEMETRY=1`` a :class:`~repro.telemetry.TraceSink`
    rides along and the worker exports a Perfetto trace file under
    :func:`trace_dir`; the returned result is bit-identical either way.

    With ``REPRO_VALIDATE=1`` the differential golden models of
    :mod:`repro.validation` observe the run — causality, DDR timing,
    the refresh schedule and lock exclusion, counter recounts, and for
    ROP λ/β, Eq. 3 and the SRAM — and any disagreement raises
    :class:`~repro.validation.GoldenMismatchError` (classified
    ``invariant``) instead of returning — and caching — a result the
    analytical models contradict.  The checks observe through taps both
    engines drive, so a validated spec stays on the epoch kernel.

    Under the epoch engine this function is the **degradation ladder**
    (DESIGN.md §10): a topology the kernel declines runs scalar inside
    ``run_cores`` and is recorded as a ``declined`` fallback; an
    exception on the epoch path (engine fault, golden mismatch) writes a
    quarantine bundle and transparently re-runs the spec on the scalar
    engine, recorded as a ``fault`` fallback.  ``fallbacks``, when a
    list is passed, collects those :class:`EngineFallback` records.
    """
    maybe_inject(spec)
    chaos = "REPRO_CHAOS" in os.environ
    if chaos:
        from .chaos import inject_slow_spec, inject_worker_crash

        inject_worker_crash(spec.key)
        inject_slow_spec(spec.key)
    from ..kernel import resolve_engine

    engine = resolve_engine()
    traces = [
        profile(name).memory_trace(spec.instructions, spec.trace_llc, seed=spec.seed)
        for name in spec.workloads
    ]

    def _simulate(eng: str) -> tuple[MulticoreResult, list[str]]:
        sink = None
        session = None
        if validation_enabled():
            # imported lazily, like in classify_failure: most runs never
            # validate, and the golden models add to every process's
            # start-up time
            from ..validation import GoldenMismatchError, ValidationSession

            session = ValidationSession(spec.config)
            sink = session.sink
        elif telemetry_enabled():
            from ..telemetry import TraceSink

            sink = TraceSink()
        declined: list[str] = []
        result = run_cores(
            traces,
            spec.config,
            record_events=spec.record_events,
            sink=sink,
            instrument=session.instrument if session is not None else None,
            engine=eng,
            fallback_reasons=declined,
        )
        if session is not None:
            mismatches = session.finish(result)
            if mismatches:
                raise GoldenMismatchError(mismatches)
        if sink is not None and telemetry_enabled():
            _export_worker_trace(spec, sink)
        return result, declined

    if engine != "epoch":
        return _simulate(engine)[0]
    try:
        if chaos:
            from .chaos import inject_epoch_fault

            inject_epoch_fault(spec.key)
        result, declined = _simulate("epoch")
    except Exception as exc:
        # the degradation ladder: quarantine the evidence, then re-run on
        # the reference scalar engine.  A fault the scalar engine shares
        # (a genuine model bug) re-raises from the rerun and fails the
        # spec with its usual classification.
        from .quarantine import attach_result_digest, write_engine_fault_bundle

        bundle = write_engine_fault_bundle(spec, exc)
        result = _simulate("scalar")[0]
        if bundle is not None:
            attach_result_digest(bundle, result)
        if fallbacks is not None:
            fallbacks.append(
                EngineFallback(
                    key=spec.key,
                    workloads=spec.workloads,
                    kind="fault",
                    reason=f"{type(exc).__name__}: {exc}",
                    exc_type=type(exc).__name__,
                    quarantine=str(bundle) if bundle is not None else "",
                )
            )
    else:
        if declined and fallbacks is not None:
            fallbacks.append(
                EngineFallback(
                    key=spec.key,
                    workloads=spec.workloads,
                    kind="declined",
                    reason=declined[0],
                )
            )
    return result


def _err_record(exc: BaseException, kind: str | None = None) -> tuple:
    """An ``err`` outcome record for ``exc`` (see :func:`_run_one`)."""
    return (
        "err",
        kind or classify_failure(exc),
        type(exc).__name__,
        str(exc),
        "".join(_traceback.format_exception(exc)),
    )


def _run_one(spec: RunSpec) -> tuple:
    """Run one spec and return its outcome record (also the worker entry).

    Failures are captured and classified *here*, where the spec ran.
    The record is either ``("ok", result, fallbacks)`` — ``fallbacks`` a
    tuple of this spec's :class:`EngineFallback` records — or ``("err",
    kind, exc_type, message, traceback)`` — exception *strings*, not
    exception objects, so a result pipe can never fail on an unpicklable
    exception.  A worker that dies outright (crash, OOM kill) returns
    nothing; the parent sees ``BrokenExecutor`` and falls back to serial
    culprit isolation.
    """
    fallbacks: list[EngineFallback] = []
    try:
        result = run_spec(spec, fallbacks=fallbacks)
    except Exception as exc:
        return _err_record(exc)
    return ("ok", result, tuple(fallbacks))


# --------------------------------------------------------------- policy


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "on", "true", "yes")


def _env_float(name: str, default: float | None) -> float | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a number of seconds, got {raw!r}") from None
    return value if value > 0 else None


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-tolerance knobs for one :func:`execute_plan` call.

    The explicit ``policy=`` argument wins; otherwise
    :meth:`from_env` reads the ``REPRO_*`` environment variables.
    """

    #: total executions allowed per spec (first try + transient retries)
    max_attempts: int = 3
    #: base of the exponential backoff between retries, in seconds
    backoff_s: float = 0.25
    #: per-spec wall-clock limit; ``None`` disables (no effect at jobs=1,
    #: where a spec cannot be preempted)
    spec_timeout_s: float | None = None
    #: collect failures and return partial results instead of raising
    keep_going: bool = False
    #: broken-pool rebuilds tolerated before degrading to in-process
    max_pool_rebuilds: int = 5

    @classmethod
    def from_env(cls) -> "ExecutionPolicy":
        """Policy from ``REPRO_RETRIES`` / ``REPRO_RETRY_BACKOFF`` /
        ``REPRO_SPEC_TIMEOUT`` / ``REPRO_KEEP_GOING``."""
        backoff = _env_float("REPRO_RETRY_BACKOFF", cls.backoff_s)
        return cls(
            max_attempts=_env_int("REPRO_RETRIES", cls.max_attempts),
            backoff_s=backoff if backoff is not None else 0.0,
            spec_timeout_s=_env_float("REPRO_SPEC_TIMEOUT", None),
            keep_going=_env_flag("REPRO_KEEP_GOING"),
        )


# --------------------------------------------------------- failure taxonomy


@dataclass(frozen=True)
class SpecFailure:
    """One spec's final (post-retry) failure."""

    key: str
    workloads: tuple[str, ...]
    #: taxonomy: ``transient`` | ``worker-lost`` | ``timeout`` |
    #: ``invariant`` | ``error``
    kind: str
    exc_type: str
    message: str
    traceback: str
    attempts: int

    @property
    def label(self) -> str:
        return "+".join(self.workloads)


class PlanExecutionError(RuntimeError):
    """Raised in fail-fast mode when any spec fails terminally.

    Completed results were already flushed to the artifact cache, so
    re-running the same plan resumes from the failure.
    """

    def __init__(self, failures: Iterable[SpecFailure]) -> None:
        self.failures = tuple(failures)
        first = self.failures[0]
        super().__init__(
            f"{len(self.failures)} spec(s) failed; first: {first.label} "
            f"[{first.kind}] {first.exc_type}: {first.message}"
        )


#: exception types treated as transient (worth retrying)
_TRANSIENT_TYPES = (
    BrokenExecutor,  # worker death / broken pool
    OSError,  # resource exhaustion, fork failures, fs hiccups
    EOFError,  # torn pipe to a dying worker
    pickle.PicklingError,
    pickle.UnpicklingError,
)


def classify_failure(exc: BaseException) -> str:
    """Map an exception to the runner's failure taxonomy."""
    from ..validation import GoldenMismatchError

    if isinstance(exc, GoldenMismatchError):
        return "invariant"
    if isinstance(exc, BrokenExecutor):
        return "worker-lost"
    if isinstance(exc, _TRANSIENT_TYPES):
        return "transient"
    return "error"


# ----------------------------------------------------------------- stats


@dataclass
class RunnerStats:
    """Counters for one ``execute_plan`` call (or a session aggregate).

    ``failed`` and ``timeouts`` count specs, so every member of a shared
    simulation counts; ``executed``, ``retries``, ``engine_fallbacks`` and
    ``quarantined`` count simulations and the events in them.
    """

    requested: int = 0  #: specs declared (before dedup)
    unique: int = 0  #: distinct specs after dedup
    memo_hits: int = 0  #: served from the in-process memo
    cache_hits: int = 0  #: served from the persistent artifact cache
    executed: int = 0  #: simulations that entered execution at least once
    shared: int = 0  #: specs served by another spec's simulation in the same plan
    jobs: int = 1  #: worker processes used
    wall_s: float = 0.0  #: wall-clock seconds for the whole plan
    retries: int = 0  #: resubmissions after transient failures
    timeouts: int = 0  #: specs killed at the per-spec timeout
    failed: int = 0  #: specs that failed terminally (post-retry)
    pool_rebuilds: int = 0  #: broken process pools replaced
    cache_write_errors: int = 0  #: artifact-cache puts that failed (results not persisted)
    engine_fallbacks: int = 0  #: epoch-engine faults absorbed by a scalar re-run
    quarantined: int = 0  #: quarantine items written (fault bundles + corrupt entries)
    cache_evictions: int = 0  #: result/trace entries evicted by the end-of-plan quota GC
    cache_bytes_written: int = 0  #: bytes persisted to disk (results + trace plane)
    prewarm_s: float = 0.0  #: trace-plane prewarm before the plan's simulations
    pool_spinup_s: float = 0.0  #: ProcessPoolExecutor construction time

    @property
    def hits(self) -> int:
        """Total results served without simulating."""
        return self.memo_hits + self.cache_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of unique specs served from a cache layer."""
        return self.hits / self.unique if self.unique else 0.0

    def absorb(self, other: "RunnerStats") -> None:
        """Accumulate ``other`` into this aggregate."""
        self.requested += other.requested
        self.unique += other.unique
        self.memo_hits += other.memo_hits
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.shared += other.shared
        self.jobs = max(self.jobs, other.jobs)
        self.wall_s += other.wall_s
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.failed += other.failed
        self.pool_rebuilds += other.pool_rebuilds
        self.cache_write_errors += other.cache_write_errors
        self.engine_fallbacks += other.engine_fallbacks
        self.quarantined += other.quarantined
        self.cache_evictions += other.cache_evictions
        self.cache_bytes_written += other.cache_bytes_written
        self.prewarm_s += other.prewarm_s
        self.pool_spinup_s += other.pool_spinup_s


#: in-process L1 over the disk cache: spec key → result
_RESULT_MEMO: dict[str, MulticoreResult] = {}
_LAST_STATS = RunnerStats()
_SESSION_STATS = RunnerStats()
_LAST_FAILURES: tuple[SpecFailure, ...] = ()
_LAST_FALLBACKS: tuple[EngineFallback, ...] = ()


def clear_result_memo() -> None:
    """Drop the in-process result memo (tests and equivalence checks)."""
    _RESULT_MEMO.clear()


def last_stats() -> RunnerStats:
    """Counters of the most recent ``execute_plan`` call."""
    return _LAST_STATS


def last_failures() -> tuple[SpecFailure, ...]:
    """Failure report of the most recent ``execute_plan`` call."""
    return _LAST_FAILURES


def last_fallbacks() -> tuple[EngineFallback, ...]:
    """Engine-fallback records of the most recent ``execute_plan`` call."""
    return _LAST_FALLBACKS


def session_stats() -> RunnerStats:
    """Counters accumulated over the whole process."""
    return _SESSION_STATS


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else 1.

    ``REPRO_JOBS=0`` (or ``auto``) means one worker per CPU.  A
    malformed value raises :class:`ConfigError` (the CLI boundary turns
    it into an exit message).
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1").strip().lower()
        try:
            jobs = 0 if raw == "auto" else int(raw or 1)
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer or 'auto', got {raw!r}"
            ) from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


class PlanResults:
    """Results of an executed plan, indexed by :class:`RunSpec`.

    In keep-going mode some specs may be missing: ``failures`` reports
    them, :meth:`ok` checks for presence, and :meth:`get` returns a
    default instead of raising.
    """

    def __init__(
        self,
        by_key: dict[str, MulticoreResult],
        stats: RunnerStats,
        failures: tuple[SpecFailure, ...] = (),
        engine_fallbacks: tuple[EngineFallback, ...] = (),
    ) -> None:
        self._by_key = by_key
        self.stats = stats
        self.failures = failures
        #: per-spec epoch→scalar fallback records from this plan's
        #: executed specs (``declined`` and ``fault`` kinds alike)
        self.engine_fallbacks = engine_fallbacks

    def __getitem__(self, spec: RunSpec) -> MulticoreResult:
        return self._by_key[spec.key]

    def __contains__(self, spec: RunSpec) -> bool:
        return spec.key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)

    def get(self, spec: RunSpec, default=None):
        """Result for ``spec``, or ``default`` when it failed."""
        return self._by_key.get(spec.key, default)

    def ok(self, *specs: RunSpec) -> bool:
        """Whether every given spec produced a result."""
        return all(s.key in self._by_key for s in specs)

    def failure_for(self, spec: RunSpec) -> SpecFailure | None:
        """The failure record for ``spec``, if it failed."""
        for f in self.failures:
            if f.key == spec.key:
                return f
        return None

    def merged_metrics(self) -> dict:
        """Plan-wide metrics: every result's registry snapshot, merged.

        Results are visited in sorted-key order and the merge itself is
        order-independent, so ``jobs=1`` and ``jobs=N`` executions of the
        same plan produce identical merged metrics.
        """
        from ..telemetry import MetricsRegistry

        snaps = [
            self._by_key[key].metrics
            for key in sorted(self._by_key)
            if getattr(self._by_key[key], "metrics", None)
        ]
        return MetricsRegistry.merge(snaps)


# ------------------------------------------------------------ the engine


class _Interrupted(Exception):
    """Internal: a SIGINT/SIGTERM arrived; unwind after persisting."""


def _worker_init() -> None:
    """Worker-process signal hygiene.

    Workers must not inherit the parent's graceful-drain handlers (a
    forked child would otherwise swallow the ``terminate()`` used to
    reclaim hung workers), and they ignore ``SIGINT`` so a terminal
    Ctrl-C reaches only the parent, which drains and persists.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


#: one-spec futures in flight per worker: the second keeps the worker busy
#: while the parent unpickles and stores the first one's result
_FUTURES_PER_WORKER = 2


class _PlanRunner:
    """Drives one plan's cache misses to completion, fault-tolerantly."""

    def __init__(
        self,
        todo: list[tuple[str, RunSpec]],
        jobs: int,
        policy: ExecutionPolicy,
        cache,
        stats: RunnerStats,
        shared: "dict[str, list[tuple[str, RunSpec]]] | None" = None,
    ) -> None:
        self.specs: dict[str, RunSpec] = dict(todo)
        #: representative key → the other specs its simulation serves
        self.shared = shared or {}
        self.queue: deque[str] = deque(k for k, _ in todo)
        #: specs rerun one at a time after a pool break, to isolate the
        #: culprit: only the poisonous spec can break the fresh pool again
        self.suspects: deque[str] = deque()
        self.jobs = jobs
        self.policy = policy
        self.cache = cache
        self.stats = stats
        self.attempts: dict[str, int] = {k: 0 for k, _ in todo}
        self.needs_backoff: set[str] = set()
        self.results: dict[str, MulticoreResult] = {}
        self.failures: dict[str, SpecFailure] = {}
        self.fallbacks: list[EngineFallback] = []
        self.pool: ProcessPoolExecutor | None = None
        #: in-flight futures: future → the spec key it runs
        self.pending: dict[Future, str] = {}
        self.deadlines: dict[Future, float] = {}
        # a deadline must name a spec that is running, so only as many
        # futures as workers are in flight while a timeout is armed
        self.depth = jobs if policy.spec_timeout_s is not None else _FUTURES_PER_WORKER * jobs
        self.aborted = False  # fail-fast tripped
        self.interrupted: str | None = None  # signal name

    # -- outcomes -----------------------------------------------------------

    def _group(self, key: str) -> list[tuple[str, RunSpec]]:
        """The specs whose outcome is ``key``'s simulation, ``key`` first."""
        return [(key, self.specs[key]), *self.shared.get(key, ())]

    def _settle(self, key: str, record: tuple) -> None:
        """Turn one attempt's outcome record into a success, a retry or a
        terminal failure, wherever the attempt ran.

        A ``worker-lost`` retry goes to the suspects (run alone, to
        isolate a culprit); any other retry goes to the front of the
        queue, so ``jobs=1`` retries a spec before starting the next.
        """
        if record[0] == "ok":
            self._record_success(key, record[1], record[2])
            return
        kind = record[1]
        if kind in ("transient", "worker-lost") and self.attempts[key] < self.policy.max_attempts:
            self.stats.retries += 1
            self.needs_backoff.add(key)
            if kind == "worker-lost":
                self.suspects.append(key)
            else:
                self.queue.appendleft(key)
        else:
            self._record_failure(key, *record[1:])

    def _record_success(
        self,
        key: str,
        result: MulticoreResult,
        fallbacks: tuple[EngineFallback, ...],
    ) -> None:
        for fb in fallbacks:
            if fb.kind == "fault":
                self.stats.engine_fallbacks += 1
                if fb.quarantine:
                    self.stats.quarantined += 1
        for member, spec in self._group(key):
            self.results[member] = result
            _RESULT_MEMO[member] = result
            self.fallbacks.extend(
                replace(fb, key=member, workloads=spec.workloads) for fb in fallbacks
            )
            # flush immediately: a later crash or kill must not lose this
            self.cache.put(member, result)

    def _record_failure(
        self, key: str, kind: str, exc_type: str, message: str, tb: str
    ) -> None:
        for member, spec in self._group(key):
            if kind == "timeout":
                self.stats.timeouts += 1
            self.failures[member] = SpecFailure(
                key=member,
                workloads=spec.workloads,
                kind=kind,
                exc_type=exc_type,
                message=message,
                traceback=tb,
                attempts=self.attempts[key],
            )
            self.stats.failed += 1
        if not self.policy.keep_going:
            self.aborted = True

    def _next(self) -> str:
        """Pop the next spec to attempt (suspects first) and count the
        attempt, after its retry backoff if it owes one."""
        key = (self.suspects or self.queue).popleft()
        if key in self.needs_backoff:
            self.needs_backoff.discard(key)
            # exponential: attempt n+1 sleeps ~base·2ⁿ⁻¹
            if self.policy.backoff_s > 0:
                time.sleep(min(self.policy.backoff_s * 2 ** (self.attempts[key] - 1), 2.0))
        self.attempts[key] += 1
        return key

    # -- in-process engine (jobs=1 and the degraded-pool fallback) ----------

    def run_sequential(self) -> None:
        while (self.suspects or self.queue) and not (self.aborted or self.interrupted):
            key = self._next()
            try:
                record = _run_one(self.specs[key])
            except KeyboardInterrupt:
                self.interrupted = "SIGINT"
                return
            self._settle(key, record)

    # -- parallel engine ----------------------------------------------------

    def run_parallel(self) -> None:
        with self._signal_guard():
            self.pool = self._new_pool()
            try:
                while (self.queue or self.suspects or self.pending) and not self.aborted:
                    if self.interrupted:
                        raise _Interrupted
                    if self.pool is None:
                        # the pool broke too many times: finish in-process
                        self.run_sequential()
                        break
                    self._dispatch()
                    if not self.pending:
                        continue
                    done, _ = wait(
                        set(self.pending), timeout=self._wait_timeout(),
                        return_when=FIRST_COMPLETED,
                    )
                    for fut in done:
                        if fut in self.pending:  # a pool break may clear it
                            self._harvest(fut)
                    self._check_deadlines()
            except _Interrupted:
                pass
            finally:
                self._shutdown_pool(kill=bool(self.pending))
                self.pending.clear()
                self.deadlines.clear()

    def _new_pool(self) -> ProcessPoolExecutor:
        remaining = len(self.queue) + len(self.suspects) + len(self.pending)
        t0 = time.perf_counter()
        pool = ProcessPoolExecutor(
            max_workers=max(1, min(self.jobs, remaining)), initializer=_worker_init
        )
        self.stats.pool_spinup_s += time.perf_counter() - t0
        return pool

    def _shutdown_pool(self, *, kill: bool) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        if kill:
            # a hung or poisoned worker never returns: kill outright
            # (SIGKILL — a stuck worker may not honour anything milder;
            # private attribute, but the only way to reclaim the worker)
            procs = list((getattr(pool, "_processes", None) or {}).values())
            for proc in procs:
                try:
                    proc.kill()
                except Exception:
                    pass
            for proc in procs:
                try:
                    proc.join(timeout=5)
                except Exception:
                    pass
        try:
            pool.shutdown(wait=not kill, cancel_futures=True)
        except Exception:
            pass

    def _dispatch(self) -> None:
        """Fill the in-flight window; suspects run strictly one at a time."""
        while True:
            if self.suspects:
                if self.pending:
                    return  # serial isolation: wait for the lone flight
            elif not self.queue or len(self.pending) >= self.depth:
                return
            key = self._next()
            try:
                fut = self.pool.submit(_run_one, self.specs[key])
            except (BrokenExecutor, RuntimeError) as exc:
                # the pool died between harvest and submit
                self.attempts[key] -= 1
                (self.suspects if self.suspects else self.queue).appendleft(key)
                self._handle_pool_break(exc)
                return
            self.pending[fut] = key
            if self.policy.spec_timeout_s is not None:
                self.deadlines[fut] = time.monotonic() + self.policy.spec_timeout_s

    def _wait_timeout(self) -> float:
        """Poll interval: next deadline if timeouts are armed, else 0.5 s
        (short enough to notice signals promptly)."""
        if self.deadlines:
            nearest = min(self.deadlines.values()) - time.monotonic()
            return max(0.01, min(nearest, 0.5))
        return 0.5

    def _harvest(self, fut: Future) -> None:
        key = self.pending.pop(fut)
        self.deadlines.pop(fut, None)
        try:
            record = fut.result()
        except BrokenExecutor as exc:
            # a dead worker breaks the whole executor: this spec and every
            # other in-flight one fail collaterally; handle them at once
            self._handle_pool_break(exc, casualties=(key,))
            return
        except Exception as exc:
            # transport failure (e.g. a torn result pipe): the worker's
            # record is gone
            record = _err_record(exc)
        self._settle(key, record)

    def _handle_pool_break(
        self, exc: BaseException, casualties: tuple[str, ...] = ()
    ) -> None:
        """Replace a broken pool; casualties retry serially (culprit isolation)."""
        # every casualty keeps its attempt: the culprit is unknown, and
        # serial re-execution lets innocents succeed on the next try
        record = _err_record(exc, "worker-lost")
        for key in (*casualties, *self.pending.values()):
            self._settle(key, record)
        self._replace_pool()

    def _check_deadlines(self) -> None:
        if not self.deadlines:
            return
        now = time.monotonic()
        expired = [fut for fut, dl in self.deadlines.items() if dl <= now and not fut.done()]
        if not expired:
            return
        # harvest whatever finished first, then abandon the stuck pool
        for fut in [f for f in list(self.pending) if f.done()]:
            self._harvest(fut)
        expired = [f for f in expired if f in self.pending]
        if not expired:
            return
        timeout_s = self.policy.spec_timeout_s
        for fut in expired:
            # only running specs are in flight while a timeout is armed,
            # so the deadline names the spec that overran it
            exc = TimeoutError(f"spec exceeded --spec-timeout of {timeout_s:g}s")
            self._settle(self.pending.pop(fut), _err_record(exc, "timeout"))
        # innocents that shared the killed pool go back unpenalized
        for key in reversed(list(self.pending.values())):
            self.attempts[key] -= 1
            self.queue.appendleft(key)
        self._replace_pool()

    def _replace_pool(self) -> None:
        """Kill the pool and whatever is in flight, then start a fresh one
        unless the plan aborted or the rebuild budget is spent (then
        ``run_parallel`` finishes in-process)."""
        self.stats.pool_rebuilds += 1
        self.pending.clear()
        self.deadlines.clear()
        self._shutdown_pool(kill=True)
        if not self.aborted and self.stats.pool_rebuilds <= self.policy.max_pool_rebuilds:
            self.pool = self._new_pool()

    # -- signals ------------------------------------------------------------

    def _signal_guard(self):
        runner = self

        class _Guard:
            def __enter__(self):
                self.saved = {}
                if threading.current_thread() is not threading.main_thread():
                    return self  # signal handlers only work on the main thread
                for sig in (signal.SIGINT, signal.SIGTERM):
                    try:
                        self.saved[sig] = signal.signal(sig, self._on_signal)
                    except (ValueError, OSError):  # pragma: no cover
                        pass
                return self

            def _on_signal(self, signum, frame):
                if runner.interrupted:  # second signal: give up immediately
                    raise KeyboardInterrupt
                runner.interrupted = signal.Signals(signum).name

            def __exit__(self, *exc):
                for sig, handler in self.saved.items():
                    try:
                        signal.signal(sig, handler)
                    except (ValueError, OSError):  # pragma: no cover
                        pass

        return _Guard()


#: one memory trace's identity: (profile name, instructions, seed, LLC)
TraceIdent = tuple[str, int, int, LlcConfig]


def _trace_idents(spec: RunSpec) -> list[TraceIdent]:
    return [(name, spec.instructions, spec.seed, spec.trace_llc) for name in spec.workloads]


def prewarm_traces(specs: Iterable[RunSpec]) -> dict[TraceIdent, str]:
    """Materialize every unique memory trace once, ahead of the simulations.

    ``SpecProfile.memory_trace`` persists traces through the trace plane
    (:mod:`~repro.harness.trace_plane`), so generating them here, in the
    parent, means every worker memory-maps the shared ``.trace`` files
    instead of regenerating identical traces per process.  Traces are
    visited grouped by CPU trace, so every LLC geometry of one CPU trace
    is filtered back to back and ``SpecProfile.cpu_trace``'s one-entry
    memo synthesizes each CPU trace once per plan.  Failures are
    swallowed: the spec that actually needs the trace will re-raise
    with proper per-spec attribution.

    Returns each materialized trace's
    :meth:`~repro.workloads.trace.AccessTrace.content_digest`, keyed by
    trace identity (a trace that failed has none).
    """
    from ..workloads import profile as _profile
    from ..workloads.spec_profiles import release_cpu_trace

    idents = dict.fromkeys(ident for spec in specs for ident in _trace_idents(spec))
    digests: dict[TraceIdent, str] = {}
    # stable sort on the CPU-trace identity: declaration order within it
    for ident in sorted(idents, key=lambda i: i[:3]):
        name, instructions, seed, llc = ident
        try:
            trace = _profile(name).memory_trace(instructions, llc, seed=seed)
        except Exception:
            continue
        digests[ident] = trace.content_digest()
    # the simulations read memory traces only: do not pin the last CPU
    # trace through them
    release_cpu_trace()
    return digests


def simulation_config(config: SystemConfig) -> SystemConfig:
    """``config`` with every field the simulator ignores set to a default.

    The simulation key of :func:`_share_simulations`: on the same memory
    traces, two configs with equal simulation configs give bit-identical
    results.  Blanked are

    * ``llc`` — the LLC acts only through the traces it filters;
    * a disabled ``rop``, collapsed to ``RopConfig()`` — no ``RopEngine``
      is built, and both epoch kernels then use their no-engine defaults;
    * under ``RefreshMode.NONE`` with ROP off, the other ``refresh``
      fields and ``timings.refi``/``timings.rfc`` — no refresh is ever
      scheduled.  An enabled ROP sizes its windows from ``refi``/``rfc``
      (``RopConfig.window_base``), so with ROP on they stay.
    """
    rop = config.rop if config.rop.enabled else RopConfig()
    refresh, timings = config.refresh, config.timings
    if not refresh.enabled and not rop.enabled:
        refresh = RefreshConfig(mode=RefreshMode.NONE)
        timings = timings.with_refresh(refi=0, rfc=0)
    return replace(config, llc=None, rop=rop, refresh=refresh, timings=timings)


def _share_simulations(
    todo: list[tuple[str, RunSpec]],
    digests: dict[TraceIdent, str],
) -> tuple[list[tuple[str, RunSpec]], dict[str, list[tuple[str, RunSpec]]]]:
    """Group ``todo`` by simulation key; one representative runs per group.

    The simulation key is what a run reads: the content digest of each
    core's memory trace, :func:`simulation_config` and
    ``record_events``.  A spec whose traces have no digest stays on its
    own.
    Returns the representatives, the first spec declared of each group,
    in declaration order, and for each representative key the other
    members it serves.
    """
    # specs share config objects: canonicalize and fingerprint each once
    sim_configs: dict[int, SystemConfig] = {}  # id(config) → simulation config
    config_keys: dict[int, str] = {}  # id(config) → its fingerprint
    # the frozen configs' own hash is cheap, but their == equates 1 with
    # 1.0: a coarse group of two or more is split by the fingerprint
    coarse: dict[str, tuple] = {}
    sizes: dict[tuple, int] = {}
    for key, spec in todo:
        traces = [digests.get(ident) for ident in _trace_idents(spec)]
        if None in traces:
            continue
        sim_config = sim_configs.get(id(spec.config))
        if sim_config is None:
            sim_config = sim_configs[id(spec.config)] = simulation_config(spec.config)
        group = coarse[key] = (tuple(traces), sim_config, spec.record_events)
        sizes[group] = sizes.get(group, 0) + 1
    groups: dict[object, list[tuple[str, RunSpec]]] = {}
    for key, spec in todo:
        group: object = coarse.get(key, key)
        if sizes.get(group, 0) > 1:
            config_key = config_keys.get(id(spec.config))
            if config_key is None:
                config_key = fingerprint(sim_configs[id(spec.config)])
                config_keys[id(spec.config)] = config_key
            group = (group, config_key)
        groups.setdefault(group, []).append((key, spec))
    reps = [members[0] for members in groups.values()]
    shared = {members[0][0]: members[1:] for members in groups.values() if len(members) > 1}
    return reps, shared


def _parse_run_options() -> int | None:
    """Parse the ``REPRO_*`` variables a plan's specs read; return the quota.

    Covers ``REPRO_ENGINE``, the ``REPRO_FAULTS`` file, ``REPRO_CHAOS``
    and ``REPRO_CACHE_QUOTA`` (returned in bytes, None when unset); a
    malformed one raises :class:`ConfigError`.
    """
    from ..kernel import resolve_engine
    from .cache_gc import quota_from_env
    from .faults import fault_table

    resolve_engine()
    fault_table()
    if "REPRO_CHAOS" in os.environ:
        from .chaos import chaos_spec

        chaos_spec()
    return quota_from_env()


def execute_plan(
    specs: "Iterable[RunSpec] | RunPlan",
    *,
    jobs: int | None = None,
    cache=None,
    policy: ExecutionPolicy | None = None,
) -> PlanResults:
    """Run every spec (deduplicated, cached, parallel) and map results.

    ``jobs=1`` executes in-process in declaration order — exactly the
    legacy sequential path.  ``jobs>1`` fans cache misses out over a
    process pool; results are identical because every simulation is a
    pure function of its spec.  Either way, cache misses whose memory
    traces and :func:`simulation_config` coincide share one simulation
    (:func:`_share_simulations`).

    Every ``REPRO_*`` variable the plan reads is parsed before the first
    memo or cache lookup: a malformed one raises :class:`ConfigError`
    with nothing looked up, simulated or written.

    Failure semantics follow ``policy`` (see :class:`ExecutionPolicy`):
    by default the first terminal failure raises
    :class:`PlanExecutionError`; with ``keep_going`` the returned
    :class:`PlanResults` carries partial results plus ``failures``.
    Either way, every completed result was already flushed to the
    artifact cache, so re-running the same plan resumes where it
    stopped — only missing specs simulate.
    """
    global _LAST_STATS, _LAST_FAILURES, _LAST_FALLBACKS
    t0 = time.perf_counter()
    spec_list = list(specs.specs if isinstance(specs, RunPlan) else specs)
    jobs = resolve_jobs(jobs)
    policy = ExecutionPolicy.from_env() if policy is None else policy
    quota = _parse_run_options()
    observed = telemetry_enabled() or validation_enabled()
    cache = get_cache() if cache is None else cache

    unique: dict[str, RunSpec] = {}
    for spec in spec_list:
        unique.setdefault(spec.key, spec)

    stats = RunnerStats(requested=len(spec_list), unique=len(unique), jobs=jobs)
    write_errors_before = getattr(cache, "write_errors", 0)
    from .trace_plane import get_trace_plane

    plane = get_trace_plane()
    bytes_before = getattr(cache, "bytes_written", 0) + plane.bytes_written
    quar_before = getattr(cache, "quarantined", 0) + plane.quarantined
    results: dict[str, MulticoreResult] = {}
    todo: list[tuple[str, RunSpec]] = []
    for key, spec in unique.items():
        if observed:
            # a cached result carries no trace and was never checked:
            # force execution so the sink / golden models observe the
            # run (the result is bit-identical anyway)
            todo.append((key, spec))
            continue
        memoized = _RESULT_MEMO.get(key)
        if memoized is not None:
            results[key] = memoized
            stats.memo_hits += 1
            continue
        cached = cache.get(key, MISS)
        if cached is not MISS:
            results[key] = cached
            _RESULT_MEMO[key] = cached
            stats.cache_hits += 1
            continue
        todo.append((key, spec))

    failures: tuple[SpecFailure, ...] = ()
    engine_fallbacks: tuple[EngineFallback, ...] = ()
    interrupted: str | None = None
    if todo:
        shared: dict[str, list[tuple[str, RunSpec]]] = {}
        if len(todo) > 1:
            # materialize every trace up front, grouped by CPU trace, so
            # each CPU trace is synthesized once and pool workers mmap the
            # shared artifacts instead of regenerating one copy each
            t_warm = time.perf_counter()
            digests = prewarm_traces(spec for _, spec in todo)
            stats.prewarm_s = time.perf_counter() - t_warm
            if not observed:  # an observed spec runs on its own
                todo, shared = _share_simulations(todo, digests)
                stats.shared = sum(len(members) for members in shared.values())
        runner = _PlanRunner(todo, jobs, policy, cache, stats, shared)
        if jobs > 1 and len(todo) > 1:
            runner.run_parallel()
        else:
            runner.run_sequential()
        results.update(runner.results)
        failures = tuple(runner.failures.values())
        engine_fallbacks = tuple(runner.fallbacks)
        interrupted = runner.interrupted
        stats.executed = sum(1 for n in runner.attempts.values() if n > 0)

    # entries the stores quarantined during this plan's reads/writes, on
    # top of the engine-fault bundles counted per spec
    stats.quarantined += (
        getattr(cache, "quarantined", 0) + plane.quarantined - quar_before
    )

    if not interrupted and quota is not None and getattr(cache, "root", None) is not None:
        # end-of-plan auto-GC: a quota keeps a shared cache dir bounded,
        # but never at the expense of the plan the caller is about to read
        from .cache_gc import collect
        from ..workloads import profile as _profile

        protect: set[str] = set(unique)
        for spec in unique.values():
            for name in spec.workloads:
                try:
                    protect.add(
                        _profile(name).trace_key(
                            spec.instructions, spec.trace_llc, seed=spec.seed
                        )
                    )
                except Exception:
                    pass
        gc_res = collect(quota, root=cache.root, protect=protect)
        stats.cache_evictions = gc_res.evicted

    stats.wall_s = time.perf_counter() - t0
    stats.cache_write_errors = getattr(cache, "write_errors", 0) - write_errors_before
    stats.cache_bytes_written = (
        getattr(cache, "bytes_written", 0) + plane.bytes_written - bytes_before
    )
    _LAST_STATS = stats
    _SESSION_STATS.absorb(stats)
    _LAST_FAILURES = failures
    _LAST_FALLBACKS = engine_fallbacks

    if interrupted:
        print(
            f"repro: {interrupted} — {len(results)}/{stats.unique} unique results "
            f"persisted to the artifact cache; re-run the same command to resume "
            f"(only missing specs will simulate)",
            file=sys.stderr,
        )
        raise KeyboardInterrupt(f"plan interrupted by {interrupted}")
    if failures and not policy.keep_going:
        raise PlanExecutionError(failures)
    return PlanResults(results, stats, failures, engine_fallbacks)


class RunPlan:
    """A declared grid of runs; drivers build one and execute it once."""

    def __init__(self) -> None:
        self.specs: list[RunSpec] = []

    def add(self, spec: RunSpec) -> RunSpec:
        """Declare one spec; returns it as the result-lookup handle."""
        self.specs.append(spec)
        return spec

    # -- declaration sugar mirroring RunSpec constructors -------------------

    def benchmark(self, name, config, scale, *, record_events=False) -> RunSpec:
        return self.add(
            RunSpec.benchmark(name, config, scale, record_events=record_events)
        )

    def mix(self, mix, config, scale, *, llc_bytes=None) -> RunSpec:
        return self.add(RunSpec.mix(mix, config, scale, llc_bytes=llc_bytes))

    def alone(self, name, llc, scale, config) -> RunSpec:
        return self.add(RunSpec.alone(name, llc, scale, config))

    def __len__(self) -> int:
        return len(self.specs)

    def execute(
        self,
        *,
        jobs: int | None = None,
        cache=None,
        policy: ExecutionPolicy | None = None,
    ) -> PlanResults:
        """Execute the declared grid (dedup → cache → parallel fan-out)."""
        return execute_plan(self, jobs=jobs, cache=cache, policy=policy)
