"""Job store: the service plane's durable record of every submitted plan.

A *job* is one submitted plan, identified by its plan fingerprint
(:func:`~repro.service.specs.plan_fingerprint`) — so resubmitting the
same plan finds the same job, which is the whole idempotency story.
States move strictly ``queued → running → done | failed``.

Every mutation is journaled to ``<cache-dir>/service/jobs/<id>.json``
with the store's usual atomic-write discipline (temp + ``os.replace``),
and the journal carries the *raw request descriptors*, not pickled
specs — so a restarted server re-materializes each recovered job's
specs through the same codec that admitted them.  Recovery is cheap by
construction: any spec a crashed job already finished was flushed to
the artifact cache by ``execute_plan``, so the re-run simulates only
what was genuinely lost.

The store itself is synchronous, single-writer (all mutations happen on
the event loop or the dispatcher thread's completion callback, never
concurrently), and tolerant of an unwritable journal dir: the service
keeps working from memory and simply loses restart durability.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..harness.cache import atomic_write, default_cache_dir

__all__ = ["JOB_SCHEMA", "Job", "JobStore", "jobs_dir"]

JOB_SCHEMA = 1

#: legal states, in lifecycle order
STATES = ("queued", "running", "done", "failed")


def jobs_dir(root: str | Path | None = None) -> Path:
    """The job-journal directory under the artifact-cache dir."""
    base = Path(root) if root is not None else default_cache_dir()
    return base / "service" / "jobs"


@dataclass
class Job:
    """One submitted plan and everything a client may ask about it."""

    id: str  #: plan fingerprint — the idempotency key and plan ETag
    state: str  #: ``queued`` | ``running`` | ``done`` | ``failed``
    #: raw request descriptors, index-aligned with ``spec_keys``
    request: list[dict]
    #: per-spec result fingerprints (the ``/results/{fp}`` addresses)
    spec_keys: list[str]
    labels: list[str]
    jobs: int  #: worker-fleet size this job runs with
    created_s: float
    started_s: float | None = None
    finished_s: float | None = None
    #: job-level error (dispatcher crash, request re-materialization
    #: failure) — per-spec failures go in ``failures`` instead
    error: str = ""
    #: the runner's failure table, JSON-shaped (key/label/kind/exc/message)
    failures: list[dict] = field(default_factory=list)
    #: RunnerStats snapshot of the executed plan
    stats: dict = field(default_factory=dict)
    #: plan-wide merged MetricsRegistry snapshot (done jobs only)
    metrics: dict = field(default_factory=dict)
    schema: int = JOB_SCHEMA

    @property
    def unique_keys(self) -> list[str]:
        """Deduplicated spec fingerprints, submission order preserved."""
        return list(dict.fromkeys(self.spec_keys))

    def public(self) -> dict:
        """The JSON body ``GET /plans/{id}`` returns."""
        out = asdict(self)
        out["specs"] = [
            {"fingerprint": k, "label": label}
            for k, label in zip(self.spec_keys, self.labels)
        ]
        return out


class JobStore:
    """In-memory job table with a crash-safe JSON journal."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.dir = jobs_dir(root)
        self._jobs: dict[str, Job] = {}
        self.journal_errors = 0

    # ------------------------------------------------------------- journal

    def _journal(self, job: Job) -> None:
        """Persist ``job`` atomically; an unwritable dir degrades silently."""
        try:
            data = json.dumps(asdict(job), sort_keys=True).encode()
            atomic_write(self.dir / f"{job.id}.json", [data], replace=True)
        except (OSError, TypeError, ValueError):
            self.journal_errors += 1

    def recover(self) -> list[Job]:
        """Load journaled jobs; interrupted ones are requeued.

        A job found ``running`` (or still ``queued``) was interrupted by
        a crash or restart: it goes back to ``queued`` and is returned
        so the dispatcher can pick it up again.  Torn or foreign journal
        files are skipped, never fatal.
        """
        requeued: list[Job] = []
        if not self.dir.is_dir():
            return requeued
        for path in sorted(self.dir.glob("*.json")):
            try:
                raw = json.loads(path.read_text())
                if raw.get("schema") != JOB_SCHEMA:
                    continue
                raw.pop("schema", None)
                job = Job(schema=JOB_SCHEMA, **raw)
            except (OSError, ValueError, TypeError):
                continue
            if job.state not in STATES or job.id in self._jobs:
                continue
            if job.state in ("queued", "running"):
                job.state = "queued"
                job.started_s = None
                requeued.append(job)
                self._journal(job)
            self._jobs[job.id] = job
        return requeued

    # -------------------------------------------------------------- access

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def all(self) -> list[Job]:
        return sorted(self._jobs.values(), key=lambda j: j.created_s)

    def counts(self) -> dict[str, int]:
        out = {state: 0 for state in STATES}
        for job in self._jobs.values():
            out[job.state] += 1
        return out

    # ----------------------------------------------------------- lifecycle

    def submit(
        self,
        job_id: str,
        request: list[dict],
        spec_keys: list[str],
        labels: list[str],
        jobs: int,
    ) -> tuple[Job, bool]:
        """Create (or find) the job for a plan; returns (job, created)."""
        existing = self._jobs.get(job_id)
        if existing is not None:
            return existing, False
        job = Job(
            id=job_id,
            state="queued",
            request=request,
            spec_keys=spec_keys,
            labels=labels,
            jobs=jobs,
            created_s=time.time(),
        )
        self._jobs[job_id] = job
        self._journal(job)
        return job, True

    def mark_running(self, job: Job) -> None:
        job.state = "running"
        job.started_s = time.time()
        self._journal(job)

    def finish(
        self,
        job: Job,
        *,
        failures: list[dict] | None = None,
        stats: dict | None = None,
        metrics: dict | None = None,
        error: str = "",
    ) -> None:
        """Move a job to its terminal state (failed iff anything failed)."""
        job.failures = failures or []
        job.stats = stats or {}
        job.metrics = metrics or {}
        job.error = error
        job.state = "failed" if (job.failures or error) else "done"
        job.finished_s = time.time()
        self._journal(job)
