#!/usr/bin/env python3
"""Cold-then-warm sweep benchmark of the ROP simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload llc_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each run is one process with ``jobs=1`` and the epoch engine.  It times
``setup_s`` (fresh interpreter until ``repro`` is imported, the plan is
declared and the caches are opened; median of several), then repeats
cycles of

* a **cold** phase — the workload's driver call against a fresh, empty
  artifact cache and trace plane (``sweep_s``), and
* a **warm** phase — the same driver call re-run against the cache the
  cold phase wrote, after ``clear_result_memo()`` / ``clear_trace_cache()``
  (``rerender_s``, median over its repeats),

a fixed number of times per workload (:data:`CYCLES`, fitted so a whole
run takes 25-40 s on the calibration host).  Cycle ``c`` sweeps the
workload's inputs at seed ``seed * 1000 + c``, and the run reports the
mean over its cycles, so each figure averages the same input instances
on every commit, however fast the host or the code.  ``--seconds`` is
only a safety cap: a run still short of its cycles after
``CAP_FACTOR * seconds`` fails rather than average fewer inputs.  Host
times are reported in reference-host seconds (see ``probe.py``); the
raw seconds and the probe seconds are printed beside them.  ``--trace 1``
instead runs the traced cycle (``spans.py``) and reports the per-layer
metrics; ``layers.json`` says which end-to-end metric each should move.

Every run checks its outputs (``gate.py``); the last stdout line is the
JSON result, and a correctness mismatch exits with code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout: per-run cache dirs, span dumps
WORK = ROOT / ".perfbench"

WORKLOADS = ("llc_sweep", "mix_sweep", "zoo_sweep")
#: cold/warm cycles of an untraced run; a traced cycle runs the cold
#: phase twice (plain and traced), so a traced run makes half as many
CYCLES = {"llc_sweep": 10, "mix_sweep": 6, "zoo_sweep": 6}
#: a run fails once it has taken this many times --seconds ...
CAP_FACTOR = 4
#: ... or this many seconds, whichever is less
MAX_RUN_S = 150.0
#: setup_s samples per run (after one unmeasured warm-up)
SETUP_REPS = 7
#: warm re-runs per cycle
WARM_REPS = 5
#: cycle c of the run with --seed s sweeps the inputs of seed s * SEED_STRIDE + c
SEED_STRIDE = 1000
#: environment pinned for every run; every other REPRO_* variable is cleared
PINNED_ENV = {"REPRO_ENGINE": "epoch", "REPRO_JOBS": "1", "REPRO_CACHE": "on"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "rerender_s": "s",
    "sim_instr_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _columns(summary, rows: list[tuple]) -> tuple:
    """``summary`` (median, mean) of each column of ``rows``."""
    return tuple(summary(column) for column in zip(*rows))


class TimeCapExceeded(RuntimeError):
    """The run hit its safety cap before finishing its fixed cycles."""


class Bench:
    """One workload's run: cache directories, probe units, checks."""

    def __init__(
        self,
        workload: str,
        seed: int,
        tmp: Path,
        cap_s: float,
        instructions: int | None = None,
    ):
        import gate
        import sweeps
        from probe import Probe

        self.gate = gate
        self.sweeps = sweeps
        self.name = workload
        self.workload = sweeps.WORKLOADS[workload]
        self.seed = seed
        self.instructions = instructions
        self.t_start = time.perf_counter()
        self.cap_s = cap_s
        self.use_inputs(0)
        self.tmp = tmp
        self.probe = Probe()
        self.checks: list = []
        self.specs_run = 0
        self.declined: set[str] = set()
        self._cache_n = 0
        self._cache_dir: Path | None = None

    # -- phases ----------------------------------------------------------------

    def use_inputs(self, cycle: int) -> None:
        """Select the inputs of ``cycle``: the sweep at seed ``seed * 1000 + cycle``.

        Each cycle sweeps a fresh seeded instance of the workload, so the
        run's figures average over several inputs: at smoke length a
        trace holds only a few busy/idle phases, and one instance's work
        moves by 5-12% from seed to seed.
        """
        self.scale = self.sweeps.scale_for(self.seed * SEED_STRIDE + cycle, self.instructions)
        self.specs = self.workload.declare(self.scale)
        self.unique = len({s.key for s in self.specs})

    def fresh_cache(self) -> None:
        """Point the program at a new, empty cache dir; drop in-process memos."""
        from repro.harness.runner import clear_result_memo
        from repro.workloads import clear_trace_cache

        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
        self._cache_n += 1
        self._cache_dir = self.tmp / f"cache-{self._cache_n}"
        os.environ["REPRO_CACHE_DIR"] = str(self._cache_dir)
        clear_result_memo()
        clear_trace_cache()

    def cold(self, driver=None) -> tuple[str, float, float]:
        """One cold phase; returns (rows digest, raw seconds, probe seconds).

        Every epoch-engine fault and failed spec of the plan is a failed check.
        """
        from repro.harness import last_failures, last_fallbacks

        self.fresh_cache()
        rows, raw, probe_s = self.probe.timed(driver or self.workload.run, self.scale)
        self.specs_run += self.unique
        fallbacks = last_fallbacks()
        self.declined |= {f.key for f in fallbacks if f.kind == "declined"}
        self.checks += self.gate.engine_checks(fallbacks, last_failures())
        return self.sweeps.rows_digest(rows), raw, probe_s

    def warm(self, cold_digest: str, driver=None) -> tuple[float, float]:
        """One warm re-run against the cold phase's cache: (raw, probe) seconds."""
        from repro.harness.runner import clear_result_memo
        from repro.workloads import clear_trace_cache

        clear_result_memo()
        clear_trace_cache()
        rows, raw, probe_s = self.probe.timed(driver or self.workload.run, self.scale)
        self.checks.append(
            self.gate.rows_check("warm rows", cold_digest, self.sweeps.rows_digest(rows))
        )
        return raw, probe_s

    def setup_once(self) -> tuple[float, float]:
        """One fresh-interpreter set-up (setup_child.py): (raw, probe) seconds.

        The child runs the probe on itself; its probe time is taken off
        the spawn-to-exit wall time.
        """
        cmd = [sys.executable, str(HERE / "setup_child.py"), self.name, str(self.scale.seed)]
        if self.instructions is not None:
            cmd.append(str(self.instructions))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        units = json.loads(proc.stdout.strip().splitlines()[-1])
        return wall - sum(units), statistics.fmean(units)

    def finish_checks(self) -> None:
        """Scalar re-check of a seeded spec sample (outside any timed region)."""
        from repro.harness import cached_result

        sample = self.gate.sample_specs(self.specs, self.declined, self.seed)
        self.checks += self.gate.scalar_recheck(sample, lambda s: cached_result(s.key))

    def simulated_instructions(self) -> int:
        """Instructions simulated by the sweep's unique specs (from results)."""
        from repro.harness import cached_result

        unique = {s.key: s for s in self.specs}
        return sum(c.instructions for k in unique for c in cached_result(k).cores)

    def cycles(self, n: int):
        """Cycle numbers ``0 .. n-1``; raises once the run passes its cap."""
        for cycle in range(n):
            if self.elapsed > self.cap_s:
                raise TimeCapExceeded(
                    f"{self.name}: {self.elapsed:.1f} s cap of {self.cap_s:.0f} s hit after "
                    f"{cycle} of {n} cycles"
                )
            yield cycle

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    # -- runs --------------------------------------------------------------------

    def untraced(self, cycles: int) -> dict:
        """End-to-end metrics: {name: (value, raw_s or None, probe_s or None)}.

        A repeat of the same inputs (set-up, warm re-run) is summarized by
        its median; distinct input instances (cycles) by their mean.
        """
        from probe import normalize

        def sample(raw: float, probe_s: float) -> tuple[float, float, float]:
            return normalize(raw, probe_s), raw, probe_s

        self.setup_once()  # warm-up: byte-compile, page cache
        setup = [sample(*self.setup_once()) for _ in range(SETUP_REPS)]
        cold, warm = [], []
        for cycle in self.cycles(cycles):
            self.use_inputs(cycle)
            digest, raw, probe_s = self.cold()
            cold.append(sample(raw, probe_s))
            warm.append(_columns(statistics.median, [
                sample(*self.warm(digest)) for _ in range(WARM_REPS)
            ]))

        # before the scalar re-check, which is outside the measured region
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.finish_checks()
        sweep = _columns(statistics.fmean, cold)
        return {
            "setup_s": _columns(statistics.median, setup),
            "sweep_s": sweep,
            "rerender_s": _columns(statistics.fmean, warm),
            "sim_instr_per_s": (self.simulated_instructions() / sweep[0], None, None),
            "peak_rss_mb": (peak_kb / 1024, None, None),
            "ok_frac": (1.0 - self.failed / self.attempted, None, None),
            "_samples": {
                "setup": len(setup),
                "cycles": len(cold),
                "warm": len(warm) * WARM_REPS,
                "elapsed_s": round(self.elapsed, 1),
            },
        }

    def traced(self, cycles: int) -> dict:
        """Per-layer metrics: means over traced cycles (distinct inputs)."""
        import spans
        from probe import PROBE_REF_S, normalize
        from repro.harness import get_cache
        from repro.harness.trace_plane import get_trace_plane

        per_cycle: list[dict[str, float]] = []
        last_spans: list = []
        for cycle in self.cycles(cycles):
            self.use_inputs(cycle)
            plain_digest, plain_raw, plain_probe = self.cold()
            with spans.Tracer() as tracer:
                driver = tracer.wrap(self.workload.run, "harness.driver")
                first = len(self.probe.samples)
                digest, raw, probe_s = self.cold(driver)
                cold_window = self.probe.window
                cold_spans = list(tracer.spans)
                self.warm(digest, driver)
            self.checks.append(self.gate.rows_check("traced rows", plain_digest, digest))
            # probe units interrupt traced calls: take them off the spans
            units = self.probe.samples[first:]
            metrics = spans.layer_metrics(tracer.spans, PROBE_REF_S / probe_s, units)
            cache, plane = get_cache(), get_trace_plane()
            metrics["cache.bytes_read"] = float(cache.bytes_read)
            metrics["cache.bytes_written"] = float(cache.bytes_written)
            metrics["trace_plane.bytes_written"] = float(plane.bytes_written)
            traced_s = normalize(raw, probe_s)
            metrics["bench.trace_overhead_frac"] = traced_s / normalize(plain_raw, plain_probe) - 1
            # the layers below the driver: its own span covers the whole call
            layer_spans = [s for s in cold_spans if s.name != "harness.driver"]
            metrics["bench.layer_coverage_frac"] = spans.coverage(
                layer_spans, *cold_window, units
            )
            per_cycle.append(metrics)
            last_spans = tracer.spans

        self.finish_checks()
        self.write_spans(last_spans)
        return {
            name: (statistics.fmean(m[name] for m in per_cycle), None, None)
            for name in per_cycle[0]
        } | {"_samples": {"cycles": len(per_cycle), "elapsed_s": round(self.elapsed, 1)}}

    def write_spans(self, recorded: list) -> None:
        """Dump the last traced cycle's spans as JSON lines."""
        with open(WORK / f"spans-{self.name}-seed{self.seed}.jsonl", "w") as fh:
            for s in recorded:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")

    # -- accounting ---------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return self.specs_run + len(self.checks)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.checks)


def host_line(probe) -> str:
    import numpy
    from probe import PROBE_REF_S

    return (
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} probe_ref_s={PROBE_REF_S} "
        f"probe_s={probe.median():.6f} probe_spread={probe.spread():.4f} "
        f"probe_units={len(probe.samples)}"
    )


def result_lines(bench: Bench, measured: dict, units: dict[str, str]) -> list[str]:
    lines = [host_line(bench.probe), f"samples: {measured.pop('_samples')}"]
    for check in bench.checks:
        if not check.ok:
            lines.append(f"MISMATCH {check.name}: {check.detail}")
    for name, (value, raw, probe_s) in measured.items():
        extra = f"  (raw {raw:.6f} s, probe {probe_s:.6f} s)" if raw is not None else ""
        lines.append(f"{bench.name} {name} = {value:.6g} {units.get(name, '')}{extra}")
    return lines


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_one(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    instructions: int | None = None,
    cycles: int | None = None,
) -> int:
    """One workload's run; prints the report and the JSON result line.

    ``instructions`` shortens every spec and ``cycles`` overrides
    :data:`CYCLES` (the benchmark's own tests).  A run that hits its time
    cap prints no result and returns 3.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV, REPRO_CACHE_DIR=str(tmp / "cache-0"))
    sys.path.insert(0, str(SRC))
    cycles = cycles or CYCLES[workload]
    try:
        bench = Bench(workload, seed, tmp, min(CAP_FACTOR * seconds, MAX_RUN_S), instructions)
        if trace:
            measured, units = bench.traced(max(1, cycles // 2)), per_layer_units()
        else:
            measured, units = bench.untraced(cycles), END_TO_END_UNITS
    except TimeCapExceeded as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in result_lines(bench, measured, units):
        print(line)
    correct = bench.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in measured.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        status = status or proc.returncode
        if not lines:
            merged["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
