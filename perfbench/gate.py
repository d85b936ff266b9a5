"""Correctness gate: warm rows equal cold rows, epoch equals scalar.

No expected digest is stored anywhere: every check compares two outputs
of the same run, so a legitimate model change needs no benchmark edit.

* :func:`rows_check` — the warm phase's rows must hash to the cold
  phase's digest (the cache served exactly what the simulation wrote).
* :func:`engine_checks` — the cold phase's plan must finish every spec
  without an epoch-engine fault: a faulting kernel is quietly re-run on
  the scalar engine, so the timing would measure the wrong engine and
  the scalar re-check would compare scalar with scalar.
* :func:`scalar_recheck` — a seeded sample of the sweep's specs is re-run
  on the reference scalar engine; each result must pickle to the same
  sha256 as the epoch engine's.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "Check",
    "engine_checks",
    "result_digest",
    "rows_check",
    "run_scalar",
    "sample_specs",
    "scalar_recheck",
]


@dataclass(frozen=True)
class Check:
    """Outcome of one correctness operation."""

    name: str
    ok: bool
    detail: str = ""


def result_digest(result: Any) -> str:
    """sha256 of a simulation result's pickle (the bit-identity contract)."""
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


def rows_check(name: str, cold_digest: str, warm_digest: str) -> Check:
    """The warm (or traced) rows must hash to the cold rows' digest."""
    return Check(name, cold_digest == warm_digest, f"cold {cold_digest[:12]} warm {warm_digest[:12]}")


def engine_checks(fallbacks, failures) -> list[Check]:
    """A failed check per epoch-engine fault and per failed spec of a plan.

    ``fallbacks`` / ``failures`` are the plan's ``last_fallbacks()`` /
    ``last_failures()``; ``declined`` fallbacks are the routine scalar
    path and pass.
    """
    checks = [
        Check(f"epoch fault {f.label}", False, f.reason) for f in fallbacks if f.kind == "fault"
    ]
    checks += [
        Check(f"spec failed {f.label}", False, f"[{f.kind}] {f.exc_type}: {f.message}")
        for f in failures
    ]
    return checks


def sample_specs(specs, declined_keys: set[str], seed: int) -> list:
    """One seeded pick per kernel class present in ``specs``.

    Classes: single-workload specs the epoch engine did not decline
    (flat kernel, or ``epoch_multi`` on a multi-rank memory) and
    multi-core specs (``epoch_multi``).  Declined specs already ran
    scalar, so re-running them checks nothing.
    """
    unique = list({s.key: s for s in specs}.values())
    groups = [
        [s for s in unique if len(s.workloads) == 1 and s.key not in declined_keys],
        [s for s in unique if len(s.workloads) > 1],
    ]
    rng = random.Random(seed)
    return [rng.choice(group) for group in groups if group]


def run_scalar(spec):
    """Run ``spec`` on the reference scalar engine (no cache, no memo)."""
    from repro.harness.runner import run_spec

    saved = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = "scalar"
    try:
        return run_spec(spec)
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved


def scalar_recheck(specs, epoch_result: Callable[[Any], Any]) -> list[Check]:
    """Compare each spec's epoch result with a fresh scalar run."""
    checks = []
    for spec in specs:
        want = result_digest(run_scalar(spec))
        got = result_digest(epoch_result(spec))
        checks.append(
            Check(
                f"scalar==epoch {spec.label}",
                got == want,
                f"epoch {got[:12]} scalar {want[:12]}",
            )
        )
    return checks
