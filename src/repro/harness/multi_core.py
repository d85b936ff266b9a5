"""Multi-programmed experiment drivers: Figs. 10–14.

The paper's 4-core setup: four benchmarks per workload mix on a 4-rank
memory; three systems are compared — *Baseline* (shared mapping),
*Baseline-RP* (rank partitioning only) and *ROP* (rank partitioning +
refresh-oriented prefetching). The 4 MB LLC is shared in the paper; we
model it as statically partitioned (each core filters through a
``size / 4`` slice), which keeps LLC filtering a pure per-trace function —
see DESIGN.md.

Each driver declares its full (mix × system [× LLC size]) grid — mix
co-simulations *and* the alone runs that feed the weighted-speedup
denominator — on one :class:`~repro.harness.runner.RunPlan` and executes
it once, and everything fans out over ``REPRO_JOBS`` workers.  The
Baseline-RP and ROP alone runs are distinct specs (their disabled
``RopConfig``s differ in ``training_refreshes``), but both run on the same
ROP-off memory, so they share one simulation through the simulation key
(:func:`~repro.harness.runner.simulation_config`), not the spec key.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import LlcConfig, SystemConfig
from ..cpu import MulticoreResult
from ..energy import EnergyBreakdown, system_energy
from ..stats.metrics import weighted_speedup
from ..workloads import WORKLOAD_MIXES, mix_profiles
from .experiment import RunScale
from .runner import PlanExecutionError, PlanResults, RunPlan, RunSpec, core_llc_share

__all__ = [
    "MixRun",
    "LLC_SWEEP_BYTES",
    "run_mix",
    "fig10_11_weighted_speedup",
    "fig12_13_14_llc_sensitivity",
]

#: LLC capacities of the paper's sensitivity study (Figs. 12–14)
LLC_SWEEP_BYTES: tuple[int, ...] = tuple(m * 1024 * 1024 for m in (1, 2, 4, 8))


@dataclass(frozen=True)
class MixRun:
    """One workload mix × one memory system."""

    mix: str
    system: str
    result: MulticoreResult
    energy: EnergyBreakdown
    weighted_speedup: float


def _core_llc_share(llc_bytes: int, cores: int = 4) -> LlcConfig:
    """Per-core slice of the statically partitioned shared LLC."""
    return core_llc_share(llc_bytes, cores)


@dataclass(frozen=True)
class _MixPoint:
    """Declared specs for one (mix, system) grid point."""

    mix: str
    system: str
    config: SystemConfig
    spec: RunSpec
    alone_specs: tuple[RunSpec, ...]

    def complete(self, results: PlanResults) -> bool:
        """Whether every spec of this point survived (keep-going mode)."""
        return results.ok(self.spec, *self.alone_specs)

    def assemble(self, results: PlanResults) -> MixRun:
        """Build the :class:`MixRun` once the plan has executed."""
        result = results[self.spec]
        alone = [results[s].ipc for s in self.alone_specs]
        return MixRun(
            mix=self.mix,
            system=self.system,
            result=result,
            energy=system_energy(result.stats, self.config),
            weighted_speedup=weighted_speedup(result.ipcs, alone),
        )


def _declare_mix(
    plan: RunPlan,
    mix: str,
    config: SystemConfig,
    scale: RunScale,
    *,
    system: str = "",
    llc_bytes: int | None = None,
) -> _MixPoint:
    """Declare the co-simulation and the four alone runs for one point."""
    spec = plan.mix(mix, config, scale, llc_bytes=llc_bytes)
    alone_specs = tuple(
        plan.alone(p.name, spec.trace_llc, scale, config) for p in mix_profiles(mix)
    )
    return _MixPoint(mix, system or "custom", config, spec, alone_specs)


def run_mix(
    mix: str,
    config: SystemConfig,
    scale: RunScale,
    *,
    system: str = "",
    llc_bytes: int | None = None,
    jobs: int | None = None,
) -> MixRun:
    """Run one mix on one memory system and compute its weighted speedup."""
    plan = RunPlan()
    point = _declare_mix(plan, mix, config, scale, system=system, llc_bytes=llc_bytes)
    results = plan.execute(jobs=jobs)
    if not point.complete(results):
        # keep-going cannot salvage a single point: every spec is needed
        raise PlanExecutionError(results.failures)
    return point.assemble(results)


def three_systems(
    llc_bytes: int | None = None, *, training_refreshes: int = 50
) -> dict[str, SystemConfig]:
    """The paper's three multi-core systems, optionally at a given LLC size."""
    base = SystemConfig.quad_core(rank_partitioned=False)
    rp = SystemConfig.quad_core(rank_partitioned=True)
    systems = {
        "Baseline": base,
        "Baseline-RP": rp,
        "ROP": rp.with_rop(training_refreshes=training_refreshes),
    }
    if llc_bytes is not None:
        systems = {k: v.with_llc_size(llc_bytes) for k, v in systems.items()}
    return systems


def fig10_11_specs(
    mixes: tuple[str, ...] = tuple(WORKLOAD_MIXES),
    scale: RunScale = RunScale(),
) -> list[RunSpec]:
    """Every spec the Figs. 10/11 sweep executes (mixes + alone runs).

    Declared against a throwaway plan with the same grid logic as
    :func:`fig10_11_weighted_speedup`, so benchmarks can enumerate the
    sweep's inputs — e.g. to pre-materialize its traces outside a timed
    region — without duplicating the mix/system construction.
    """
    plan = RunPlan()
    systems = three_systems(training_refreshes=scale.training_refreshes)
    specs: list[RunSpec] = []
    for mix in mixes:
        for name, cfg in systems.items():
            point = _declare_mix(plan, mix, cfg, scale, system=name)
            specs.append(point.spec)
            specs.extend(point.alone_specs)
    return specs


def fig10_11_weighted_speedup(
    mixes: tuple[str, ...] = tuple(WORKLOAD_MIXES),
    scale: RunScale = RunScale(),
    *,
    jobs: int | None = None,
) -> list[dict]:
    """Figs. 10/11: normalized weighted speedup and energy, three systems."""
    systems = three_systems(training_refreshes=scale.training_refreshes)
    plan = RunPlan()
    grid = {
        mix: {
            name: _declare_mix(plan, mix, cfg, scale, system=name)
            for name, cfg in systems.items()
        }
        for mix in mixes
    }
    results = plan.execute(jobs=jobs)
    rows = []
    for mix in mixes:
        # keep-going: a mix contributes a row only if all three systems
        # survived — the row normalizes everything to Baseline
        if not all(point.complete(results) for point in grid[mix].values()):
            continue
        runs = {name: point.assemble(results) for name, point in grid[mix].items()}
        base = runs["Baseline"]
        rows.append(
            {
                "mix": mix,
                "ws": {name: r.weighted_speedup for name, r in runs.items()},
                "norm_ws": {
                    name: r.weighted_speedup / base.weighted_speedup
                    for name, r in runs.items()
                },
                "norm_energy": {
                    name: r.energy.total / base.energy.total for name, r in runs.items()
                },
                "rop_lock_hit_rate": runs["ROP"].result.stats.lock_hit_rate,
            }
        )
    return rows


def fig12_13_14_llc_sensitivity(
    mixes: tuple[str, ...] = tuple(WORKLOAD_MIXES),
    scale: RunScale = RunScale(),
    llc_sweep: tuple[int, ...] = LLC_SWEEP_BYTES,
    *,
    jobs: int | None = None,
) -> list[dict]:
    """Figs. 12/13/14: weighted speedup, energy and hit rate vs LLC size.

    Values are normalized to the *Baseline* system at the same LLC size,
    matching the paper's presentation.
    """
    plan = RunPlan()
    grid: dict[str, dict[int, dict[str, _MixPoint]]] = {}
    for mix in mixes:
        grid[mix] = {}
        for llc_bytes in llc_sweep:
            systems = three_systems(
                llc_bytes, training_refreshes=scale.training_refreshes
            )
            grid[mix][llc_bytes] = {
                name: _declare_mix(
                    plan, mix, cfg, scale, system=name, llc_bytes=llc_bytes
                )
                for name, cfg in systems.items()
            }
    results = plan.execute(jobs=jobs)
    rows = []
    for mix in mixes:
        per_llc = {}
        for llc_bytes, points in grid[mix].items():
            # keep-going: drop the (mix, LLC) point unless all three
            # Baseline-normalized systems survived
            if not all(point.complete(results) for point in points.values()):
                continue
            runs = {name: point.assemble(results) for name, point in points.items()}
            base = runs["Baseline"]
            per_llc[llc_bytes] = {
                "norm_ws": {
                    name: r.weighted_speedup / base.weighted_speedup
                    for name, r in runs.items()
                },
                "norm_energy": {
                    name: r.energy.total / base.energy.total for name, r in runs.items()
                },
                "rop_lock_hit_rate": runs["ROP"].result.stats.lock_hit_rate,
                "rop_armed_hit_rate": (
                    runs["ROP"].result.rop_summary["armed_hit_rate"]
                    if runs["ROP"].result.rop_summary
                    else 0.0
                ),
            }
        if per_llc:
            rows.append({"mix": mix, "llc": per_llc})
    return rows
