"""Failure injection ("failpoints") for exercising runner fault tolerance.

Point ``REPRO_FAULTS`` at a JSON file mapping a spec identity — either
the spec's content ``key`` or its workload label (``"lbm"``,
``"lbm+gobmk+milc+bzip2"``) — to a fault directive, and
:func:`~repro.harness.runner.run_spec` will trigger the fault at the top
of that simulation.  The environment variable is inherited by worker
processes, so injection works identically at any ``--jobs`` level and
under any multiprocessing start method.  With ``REPRO_FAULTS`` unset
this module is a single dictionary lookup per simulation.

Directives (``{"<identity>": {"mode": ..., ...}}``):

* ``{"mode": "error"}`` — raise ``RuntimeError`` (deterministic, never
  retried);
* ``{"mode": "transient"}`` — raise ``OSError`` (classified transient,
  retried with backoff);
* ``{"mode": "flaky", "fails": N}`` — transient ``OSError`` for the
  first N calls, success afterwards; the attempt counter lives in a
  sidecar file next to the JSON so it survives worker processes;
* ``{"mode": "crash"}`` — ``os._exit(13)``: kills the worker outright,
  breaking the process pool (the ``BrokenProcessPool`` path);
* ``{"mode": "hang", "seconds": S}`` — sleep S seconds (default 3600),
  the per-spec timeout path.

This is a test/ops facility: chaos-testing a deployment's retry and
timeout configuration uses the same directives as the unit tests.

The same file also arms **golden-model skews** for the validation
subsystem: a ``"golden:<check>"`` key (e.g. ``"golden:ddr-timing"``)
maps to a numeric skew that :mod:`repro.validation.golden` applies to
the *golden* side of the named check, deliberately breaking the model.
The differential gate must then report the disagreement — the
self-test behind ``repro validate``'s acceptance criterion.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING

from ..config import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from .runner import RunSpec

__all__ = ["fault_table", "maybe_inject", "golden_skew"]


def fault_table() -> dict | None:
    """The parsed ``REPRO_FAULTS`` file; None when the variable is unset.

    A missing, unreadable or non-object file raises
    :class:`~repro.config.ConfigError` naming the variable.
    """
    path = os.environ.get("REPRO_FAULTS")
    if not path:
        return None
    try:
        table = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"REPRO_FAULTS must name a JSON fault file: {exc}") from None
    if not isinstance(table, dict):
        raise ConfigError(f"REPRO_FAULTS file {path} must hold a JSON object")
    return table


def golden_skew(check: str):
    """Armed skew for golden check ``check`` (None when not armed).

    Looks up the ``"golden:<check>"`` key of :func:`fault_table`.
    :func:`~repro.harness.runner.execute_plan` and ``repro validate``
    reject an unreadable fault file up front; one that vanishes during
    a run disarms quietly rather than failing the validated run.
    """
    try:
        table = fault_table()
    except ConfigError:
        return None
    return None if table is None else table.get(f"golden:{check}")


def maybe_inject(spec: "RunSpec") -> None:
    """Trigger the configured fault for ``spec``, if any (else no-op)."""
    table = fault_table()
    if table is None:
        return
    directive = table.get(spec.key) or table.get("+".join(spec.workloads))
    if directive:
        _apply(directive, spec, Path(os.environ["REPRO_FAULTS"]))


def _apply(directive: dict, spec: "RunSpec", faults_path: Path) -> None:
    mode = directive.get("mode", "error")
    label = "+".join(spec.workloads)
    if mode == "error":
        raise RuntimeError(directive.get("message", f"injected fault for {label}"))
    if mode == "transient":
        raise OSError(directive.get("message", f"injected transient fault for {label}"))
    if mode == "flaky":
        fails = int(directive.get("fails", 1))
        counter = faults_path.parent / f"fault-{spec.key}.count"
        seen = int(counter.read_text()) if counter.exists() else 0
        counter.write_text(str(seen + 1))
        if seen < fails:
            raise OSError(f"injected flaky fault for {label} (call {seen + 1}/{fails})")
        return
    if mode == "crash":
        os._exit(int(directive.get("code", 13)))
    if mode == "hang":
        time.sleep(float(directive.get("seconds", 3600)))
        return
    raise ValueError(f"unknown fault mode {mode!r} in {faults_path}")
