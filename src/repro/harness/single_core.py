"""Single-core experiment drivers: Figs. 1–4, 7–9 and Table I.

Every function returns plain data structures (lists of row dicts) that
:mod:`repro.harness.reporting` renders in the paper's format, so the same
drivers back the CLI, the paper claims (:mod:`repro.validation.claims`),
the examples and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import RefreshMode, SystemConfig
from ..energy import system_energy
from ..stats.refresh_analysis import WindowAnalysis, analyze_rank, blocked_per_refresh
from ..workloads import SPEC_PROFILES
from .experiment import RunScale
from .runner import RunPlan

__all__ = [
    "DEFAULT_BENCHMARKS",
    "SRAM_SIZES",
    "fig1_refresh_overheads",
    "fig2_to_4_and_table1",
    "fig7_8_9_rop_comparison",
]

#: the paper's twelve benchmarks, intensive first (Table II order)
DEFAULT_BENCHMARKS: tuple[str, ...] = tuple(SPEC_PROFILES)

#: SRAM buffer capacities evaluated in Figs. 7–9
SRAM_SIZES: tuple[int, ...] = (16, 32, 64, 128)


# ---------------------------------------------------------------- Fig. 1


def fig1_refresh_overheads(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    scale: RunScale = RunScale(),
    config: SystemConfig | None = None,
    *,
    jobs: int | None = None,
) -> list[dict]:
    """Fig. 1: baseline vs idealized no-refresh memory.

    Returns one row per benchmark with the IPC degradation and extra
    energy refresh causes.
    """
    cfg = config if config is not None else SystemConfig.single_core()
    ideal_cfg = cfg.with_refresh_mode(RefreshMode.NONE)
    plan = RunPlan()
    grid = {
        name: (plan.benchmark(name, cfg, scale), plan.benchmark(name, ideal_cfg, scale))
        for name in benchmarks
    }
    results = plan.execute(jobs=jobs)
    rows = []
    for name, (base_spec, ideal_spec) in grid.items():
        if not results.ok(base_spec, ideal_spec):
            continue  # keep-going: this benchmark lost a spec, skip its row
        base, ideal = results[base_spec], results[ideal_spec]
        base_e = system_energy(base.stats, cfg)
        ideal_e = system_energy(ideal.stats, ideal_cfg)
        rows.append(
            {
                "benchmark": name,
                "ipc_baseline": base.ipc,
                "ipc_norefresh": ideal.ipc,
                "perf_degradation_pct": (ideal.ipc / base.ipc - 1.0) * 100.0,
                "energy_baseline_mj": base_e.total_mj,
                "energy_norefresh_mj": ideal_e.total_mj,
                "energy_overhead_pct": (base_e.total / ideal_e.total - 1.0) * 100.0,
            }
        )
    return rows


# ---------------------------------------------------------- Figs. 2–4, Table I


@dataclass(frozen=True)
class RefreshAnalysisRow:
    """Per-benchmark offline analysis results across window multiples."""

    benchmark: str
    #: window multiple → WindowAnalysis (λ, β, E1/E2, non-blocking %)
    windows: dict[float, WindowAnalysis]
    #: reads blocked per *blocking* refresh (physical tRFC lock)
    avg_blocked: float
    max_blocked: int


def fig2_to_4_and_table1(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    scale: RunScale = RunScale(),
    config: SystemConfig | None = None,
    window_mults: tuple[float, ...] = (1.0, 2.0, 4.0),
    *,
    jobs: int | None = None,
) -> list[RefreshAnalysisRow]:
    """One baseline run per benchmark, analyzed at 1×/2×/4× windows.

    Covers Fig. 2 (non-blocking fraction), Fig. 3 (blocked requests per
    blocking refresh), Fig. 4 (dominant events E1/E2) and Table I (λ, β).
    """
    cfg = config if config is not None else SystemConfig.single_core()
    refi = cfg.effective_timings().refi
    plan = RunPlan()
    specs = {
        name: plan.benchmark(name, cfg, scale, record_events=True)
        for name in benchmarks
    }
    results = plan.execute(jobs=jobs)
    rows = []
    for name, spec in specs.items():
        if not results.ok(spec):
            continue  # keep-going: benchmark failed, report has no row
        events = results[spec].events[(0, 0)]
        windows = {
            mult: analyze_rank(events, int(refi * mult)) for mult in window_mults
        }
        blocked = blocked_per_refresh(events)
        blocking = blocked[blocked > 0]
        rows.append(
            RefreshAnalysisRow(
                benchmark=name,
                windows=windows,
                avg_blocked=float(blocking.mean()) if len(blocking) else 0.0,
                max_blocked=int(blocked.max()) if len(blocked) else 0,
            )
        )
    return rows


# ---------------------------------------------------------------- Figs. 7–9


def fig7_8_9_rop_comparison(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    scale: RunScale = RunScale(),
    config: SystemConfig | None = None,
    sram_sizes: tuple[int, ...] = SRAM_SIZES,
    *,
    jobs: int | None = None,
) -> list[dict]:
    """Figs. 7/8/9: baseline vs ROP (several buffer sizes) vs no-refresh.

    Returns one row per benchmark with normalized IPC (Fig. 7), normalized
    energy (Fig. 8) and the SRAM hit rate per buffer size (Fig. 9).

    The whole (benchmark × system) grid is declared up front and executed
    as one plan, so runs shared with other figures are deduplicated and
    cache misses fan out over ``jobs`` worker processes.
    """
    cfg = config if config is not None else SystemConfig.single_core()
    ideal_cfg = cfg.with_refresh_mode(RefreshMode.NONE)
    rop_cfgs = {
        size: cfg.with_rop(sram_lines=size, training_refreshes=scale.training_refreshes)
        for size in sram_sizes
    }
    plan = RunPlan()
    grid = {
        name: (
            plan.benchmark(name, cfg, scale),
            plan.benchmark(name, ideal_cfg, scale),
            {size: plan.benchmark(name, rop_cfgs[size], scale) for size in sram_sizes},
        )
        for name in benchmarks
    }
    results = plan.execute(jobs=jobs)
    rows = []
    for name, (base_spec, ideal_spec, rop_specs) in grid.items():
        if not results.ok(base_spec, ideal_spec, *rop_specs.values()):
            continue  # keep-going: a system run failed, skip the benchmark
        base, ideal = results[base_spec], results[ideal_spec]
        base_e = system_energy(base.stats, cfg)
        ideal_e = system_energy(ideal.stats, ideal_cfg)
        row: dict = {
            "benchmark": name,
            "ipc_baseline": base.ipc,
            "norm_ipc_norefresh": ideal.ipc / base.ipc,
            "norm_energy_norefresh": ideal_e.total / base_e.total,
            "rop": {},
        }
        for size in sram_sizes:
            rop = results[rop_specs[size]]
            rop_e = system_energy(rop.stats, rop_cfgs[size])
            row["rop"][size] = {
                "norm_ipc": rop.ipc / base.ipc,
                "norm_energy": rop_e.total / base_e.total,
                "lock_hit_rate": rop.stats.lock_hit_rate,
                "armed_hit_rate": (
                    rop.rop_summary["armed_hit_rate"] if rop.rop_summary else 0.0
                ),
            }
        rows.append(row)
    return rows
