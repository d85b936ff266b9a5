"""The benchmark's three sweep workloads, declared on the public harness API.

Each workload is a deterministic grid of :class:`repro.harness.RunSpec`
points at smoke length, seeded through ``RunScale(seed=...)``:

* ``llc_sweep`` — every SPEC profile x LLC 1/2/4/8 MB, single-core ROP-64:
  48 specs, each with its own trace (trace synthesis + LLC filtering heavy);
* ``mix_sweep`` — the Figs. 10/11 four-core sweep
  (:func:`repro.harness.fig10_11_weighted_speedup`): 90 requested specs,
  54 unique (``epoch_multi`` heavy);
* ``zoo_sweep`` — the refresh-policy zoo (:func:`repro.harness.zoo_sweep`)
  over 4 benchmarks x 12 policies x 4 densities: 192 specs over 4 traces
  (DARP/SARP/rop_darp decline to the scalar engine).

Drivers are called through module attributes (``harness.execute_plan``,
``energy.system_energy``) so the traced run's wrappers see every call.
Importing this module imports ``repro``; the caller puts ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from repro import energy, harness
from repro.config import SystemConfig
from repro.harness import LLC_SWEEP_BYTES, RunScale, RunSpec
from repro.harness.zoo import zoo_configs
from repro.workloads import SPEC_PROFILES, WORKLOAD_MIXES

__all__ = ["WORKLOADS", "Workload", "rows_digest", "scale_for"]

#: benchmarks of the zoo workload: two streaming-intensive, two light
ZOO_BENCHMARKS = ("lbm", "libquantum", "bzip2", "gobmk")

#: SRAM buffer lines of the llc_sweep ROP system
LLC_SWEEP_SRAM_LINES = 64

SMOKE = RunScale.named("smoke")


def scale_for(seed: int, instructions: int | None = None) -> RunScale:
    """Smoke-length run scale carrying the input seed.

    ``instructions`` overrides the run length (the benchmark's own tests
    use a tiny one); ROP training stays at the smoke budget.
    """
    return RunScale(
        instructions=instructions or SMOKE.instructions,
        seed=seed,
        training_refreshes=SMOKE.training_refreshes,
    )


@dataclass(frozen=True)
class Workload:
    """One sweep: its declared specs and the driver call that runs them."""

    name: str
    #: every spec the driver requests, duplicates included
    declare: Callable[[RunScale], list[RunSpec]]
    #: the driver call; returns the sweep's rows
    run: Callable[[RunScale], list[dict]]


# ------------------------------------------------------------------ llc_sweep


def _llc_points(scale: RunScale) -> dict[tuple[str, int], RunSpec]:
    points = {}
    for llc_bytes in LLC_SWEEP_BYTES:
        cfg = (
            SystemConfig.single_core()
            .with_llc_size(llc_bytes)
            .with_rop(
                sram_lines=LLC_SWEEP_SRAM_LINES,
                training_refreshes=scale.training_refreshes,
            )
        )
        for name in SPEC_PROFILES:
            points[(name, llc_bytes)] = RunSpec.benchmark(name, cfg, scale)
    return points


def llc_sweep(scale: RunScale) -> list[dict]:
    """IPC, energy and SRAM hit rate per (profile, LLC size), ROP-64."""
    points = _llc_points(scale)
    results = harness.execute_plan(list(points.values()), jobs=1)
    rows = []
    for (name, llc_bytes), spec in points.items():
        result = results[spec]
        e = energy.system_energy(result.stats, spec.config)
        rows.append(
            {
                "benchmark": name,
                "llc_mb": llc_bytes >> 20,
                "ipc": result.ipc,
                "energy_nj": e.total,
                "lock_hit_rate": result.stats.lock_hit_rate,
            }
        )
    return rows


# ------------------------------------------------------------ mix / zoo sweeps


def _zoo_specs(scale: RunScale) -> list[RunSpec]:
    # the same grid zoo_sweep declares
    grid = zoo_configs(scale)
    return [
        RunSpec.benchmark(name, cfg, scale) for cfg in grid.values() for name in ZOO_BENCHMARKS
    ]


WORKLOADS: dict[str, Workload] = {
    "llc_sweep": Workload(
        "llc_sweep",
        declare=lambda scale: list(_llc_points(scale).values()),
        run=llc_sweep,
    ),
    "mix_sweep": Workload(
        "mix_sweep",
        declare=lambda scale: harness.fig10_11_specs(tuple(WORKLOAD_MIXES), scale),
        run=lambda scale: harness.fig10_11_weighted_speedup(
            tuple(WORKLOAD_MIXES), scale, jobs=1
        ),
    ),
    "zoo_sweep": Workload(
        "zoo_sweep",
        declare=_zoo_specs,
        run=lambda scale: harness.zoo_sweep(ZOO_BENCHMARKS, scale, jobs=1),
    ),
}


def rows_digest(rows: list[dict]) -> str:
    """sha256 of the rows' canonical JSON (floats in full repr precision)."""
    blob = json.dumps(rows, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()
