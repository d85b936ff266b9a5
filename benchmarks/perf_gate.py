#!/usr/bin/env python3
"""Perf-regression gate for the epoch engine's simulation throughput.

Reads the committed ``BENCH_runner.json``, finds the most recent
``runner_scaling`` record whose headline single-spec number was taken
under the **epoch** engine, re-measures the same metrics on this machine
(lbm+ROP smoke spec, plus the WL1 quad-core+ROP mix spec when the
record carries ``multicore_spec_cycles_per_sec``; traces
pre-materialized, best of ``--reps``) and fails if either fresh
cycles/s number fell more than ``--tolerance`` (default 20 %) below the
committed value.

When the record carries ``auto_spec_cycles_per_sec`` (the plain
AUTO_1X baseline, no ROP), that metric is additionally gated at the
tighter ``--auto-tolerance`` (default 5 %): the refresh-policy registry
sits on every simulated cycle's dispatch path, so a regression there is
held to a stricter budget than end-to-end plan noise.

The gate applies to the epoch engine only: the scalar interpreter is the
bit-exactness reference, not a performance target, and older records
that predate the ``engine`` field are ignored.

The committed references are absolute cycles/s numbers taken on the
host that recorded them, not host-normalized figures: on a slower host
the gate can fail on unchanged code, and on a faster one it can miss a
real regression.  Host-normalized, repeated timings of whole sweeps
live in ``perfbench/`` (``python3 perfbench/run.py``); ``BENCH_runner.json``
is read-only here and nothing appends to it any more.

Usage::

    python benchmarks/perf_gate.py [--bench BENCH_runner.json]
                                   [--tolerance 0.20] [--reps 5] [--strict]

Exit codes: 0 pass, 1 regression, 2 no committed epoch record (gate
vacuously passes with a warning unless --strict).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def committed_epoch_record(path: Path) -> dict | None:
    """Newest runner_scaling record with an epoch-engine headline."""
    try:
        history = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    for record in reversed(history):
        if (
            record.get("bench") == "runner_scaling"
            and record.get("engine") == "epoch"
            and record.get("single_spec_cycles_per_sec")
        ):
            return record
    return None


def reset_state(cache_dir: str) -> None:
    """Point the artifact cache at ``cache_dir`` and drop in-process memos."""
    from repro.harness.runner import clear_result_memo
    from repro.workloads.spec_profiles import clear_trace_cache

    os.environ["REPRO_CACHE_DIR"] = cache_dir
    clear_result_memo()
    clear_trace_cache()


def _time_spec(spec, reps: int):
    """Best-of-``reps`` wall time for one spec on the epoch engine.

    Traces are pre-materialized by the caller; the result memo is
    cleared between reps so every iteration simulates.
    """
    from repro.harness.runner import clear_result_memo, run_spec

    prev = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = "epoch"
    try:
        best, cycles = float("inf"), 0
        for _ in range(reps):
            clear_result_memo()
            t0 = time.perf_counter()
            result = run_spec(spec)
            best = min(best, time.perf_counter() - t0)
            cycles = result.end_cycle
    finally:
        if prev is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = prev
    return best, cycles


def single_spec(scale, reps: int):
    """Hot-loop timing: one ROP spec, trace pre-materialized, best of reps."""
    from repro import SystemConfig
    from repro.harness import RunSpec
    from repro.workloads import profile

    cfg = SystemConfig.single_core().with_rop(
        training_refreshes=scale.training_refreshes
    )
    spec = RunSpec.benchmark("lbm", cfg, scale)
    profile("lbm").memory_trace(scale.instructions, cfg.llc, seed=scale.seed)
    return _time_spec(spec, reps)


def auto_spec(scale, reps: int):
    """Plain AUTO_1X baseline timing (no ROP): the refresh-policy
    dispatch hot path every other configuration builds on."""
    from repro import SystemConfig
    from repro.harness import RunSpec
    from repro.workloads import profile

    cfg = SystemConfig.single_core()
    spec = RunSpec.benchmark("lbm", cfg, scale)
    profile("lbm").memory_trace(scale.instructions, cfg.llc, seed=scale.seed)
    return _time_spec(spec, reps)


def multicore_spec(scale, reps: int):
    """Multicore hot-loop timing: a Fig. 10-style 4-core mix spec on the
    quad-core ROP system, traces pre-materialized, best of reps."""
    from repro import SystemConfig
    from repro.harness import RunSpec
    from repro.workloads import profile

    cfg = SystemConfig.quad_core().with_rop(
        training_refreshes=scale.training_refreshes
    )
    spec = RunSpec.mix("WL1", cfg, scale)
    for name in spec.workloads:
        profile(name).memory_trace(spec.instructions, spec.trace_llc, seed=spec.seed)
    return _time_spec(spec, reps)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default="BENCH_runner.json",
                    help="committed timing-record file")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional drop below the committed "
                         "cycles/s before failing (default 0.20)")
    ap.add_argument("--auto-tolerance", type=float, default=0.05,
                    help="tighter budget for the AUTO_1X baseline spec "
                         "(refresh-policy dispatch path; default 0.05)")
    ap.add_argument("--reps", type=int, default=5,
                    help="timing repetitions, best-of (default 5)")
    ap.add_argument("--scale", default="smoke",
                    choices=("smoke", "default", "paper"))
    ap.add_argument("--strict", action="store_true",
                    help="fail (exit 2) when no committed epoch record "
                         "exists instead of passing vacuously")
    args = ap.parse_args()

    record = committed_epoch_record(Path(args.bench))
    if record is None:
        print(f"perf-gate: no committed epoch record in {args.bench}; "
              f"{'failing (--strict)' if args.strict else 'nothing to gate'}")
        return 2 if args.strict else 0
    from repro.harness import RunScale

    scale = RunScale.named(args.scale)
    gates = [
        ("single-spec", record["single_spec_cycles_per_sec"], single_spec,
         args.tolerance)
    ]
    if record.get("multicore_spec_cycles_per_sec"):
        gates.append(
            (
                "multicore-mix",
                record["multicore_spec_cycles_per_sec"],
                multicore_spec,
                args.tolerance,
            )
        )
    if record.get("auto_spec_cycles_per_sec"):
        gates.append(
            (
                "auto-baseline",
                record["auto_spec_cycles_per_sec"],
                auto_spec,
                args.auto_tolerance,
            )
        )
    else:
        print("perf-gate: committed record predates auto_spec_cycles_per_sec; "
              "skipping the AUTO_1X dispatch-path gate")
    failed = False
    with tempfile.TemporaryDirectory(prefix="repro-perf-gate-") as tmp:
        for name, committed, timer, tolerance in gates:
            reset_state(os.path.join(tmp, name))
            t_best, cycles = timer(scale, args.reps)
            fresh = cycles / t_best
            floor = committed * (1.0 - tolerance)
            verdict = "PASS" if fresh >= floor else "FAIL"
            failed |= fresh < floor
            print(f"perf-gate [{verdict}] epoch {name}: "
                  f"{fresh / 1e3:,.0f}k cycles/s fresh vs {committed / 1e3:,.0f}k "
                  f"committed (floor {floor / 1e3:,.0f}k at "
                  f"-{tolerance:.0%} tolerance, best of {args.reps})")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
