"""The paper's shape claims, each one named predicate over the drivers' rows.

The paper's results are shapes: ROP sits between Baseline and the
no-refresh ideal (Figs. 7–9), its 4-core gain is ordered by mix intensity
and persists across LLC sizes (Figs. 10–13), refreshes rarely block and
block few reads (Figs. 1–4, Table I).  Each bound the reproduction asserts
is one :class:`Claim` here, beside the design ablations, the parameter
sensitivity and the related-work extension (DARP/SARP, Chang et al.,
HPCA'14) on the policy zoo.

:func:`collect` declares every row the claims read: the rows the figure
drivers return, plus the ablation and sensitivity points as
``RunPlan.benchmark`` specs (memo, cache and ``REPRO_JOBS`` apply to them
like to any figure).  :func:`evaluate` returns one :class:`Verdict` per claim.
``scripts/run_experiments.py`` prints the verdicts beside the paper's
numbers, and ``tests/test_claims.py`` requires every check to hold at
smoke scale.

A claim is one of three kinds:

* a *check*: its measured value must satisfy ``op bound``;
* *paper-only*: a check whose sample floor a smoke run does not reach
  (400 k instructions see under 20 refreshes); below paper scale it is
  reported, not checked;
* *report-only*: a measured value with no bound (Fig. 14).

A check whose selection is empty, or whose rows are missing, measures NaN
and fails: an unmeasured claim does not hold.

This module sits above the drivers: ``repro``, ``repro.harness`` and
``repro.validation`` do not import it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from ..config import AddressMapScheme, SystemConfig, WindowBase
from ..harness import (
    LLC_SWEEP_BYTES,
    SRAM_SIZES,
    RunPlan,
    RunScale,
    fig1_refresh_overheads,
    fig2_to_4_and_table1,
    fig7_8_9_rop_comparison,
    fig10_11_weighted_speedup,
    fig12_13_14_llc_sensitivity,
    reporting,
    zoo_matrix,
    zoo_sweep,
)
from ..workloads import profile

__all__ = ["CLAIMS", "Claim", "Verdict", "collect", "evaluate", "render_verdicts"]

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: zoo slice the extension claims read, at the density extremes
ZOO_POLICIES = ("auto_1x", "darp", "rop", "rop_darp", "none")
ZOO_DENSITIES = (8, 32)


@dataclass(frozen=True)
class Claim:
    """One asserted bound: ``measure(rows) op bound``."""

    id: str
    artifact: str
    #: what the paper reports (EXPERIMENTS.md scorecard)
    paper: str
    measure: Callable[[dict], float]
    #: comparison the measured value must pass; "" marks a report-only entry
    op: str = ""
    bound: float = math.nan
    #: why the check needs paper scale ("" = checked at every scale)
    paper_only: str = ""

    @property
    def checks(self) -> bool:
        return bool(self.op)


@dataclass(frozen=True)
class Verdict:
    """A claim's measured value and status on one row set."""

    claim: Claim
    measured: float
    #: "holds", "fails", "paper-only" (not checked below paper scale) or "report"
    status: str


def _lo(values: Iterable[float]) -> float:
    return min(values, default=math.nan)


def _hi(values: Iterable[float]) -> float:
    return max(values, default=math.nan)


# ------------------------------------------------------------- row selections


def _window(rows: dict, name: str):
    """Benchmark ``name``'s 1× window analysis (Figs. 2–4, Table I)."""
    return next(r.windows[1.0] for r in rows["fig2_4"] if r.benchmark == name)


def _table1_gaps(rows: dict, stat: str) -> list[float]:
    """|measured − paper| of λ or β over benchmarks with ≥ 30 refreshes."""
    gaps = []
    for r in rows["fig2_4"]:
        w, p = r.windows[1.0], profile(r.benchmark)
        target = p.paper_lambda if stat == "lam" else p.paper_beta
        value = getattr(w, stat)
        if w.refreshes < 30 or math.isnan(value):
            continue
        if stat == "beta" and target <= 0.05:
            continue
        gaps.append(abs(value - target))
    return gaps


def _rop_cells(rows: dict) -> list[tuple[dict, dict]]:
    """(benchmark row, ROP point) at the SRAM sizes Figs. 7/8 check."""
    sizes = SRAM_SIZES if rows["paper"] else (64,)
    return [(r, r["rop"][s]) for r in rows["fig7_9"] for s in sizes]


def _fig9_hit_rates(rows: dict) -> list[float]:
    """Armed hit rate of the predictable streams at the largest buffer."""
    size = max(SRAM_SIZES) if rows["paper"] else 64
    return [
        r["rop"][size]["armed_hit_rate"]
        for r in rows["fig7_9"]
        if r["benchmark"] in ("lbm", "libquantum", "bwaves")
    ]


def _mix(rows: dict, key: str, system: str) -> dict[str, float]:
    return {r["mix"]: r[key][system] for r in rows["fig10_11"]}


def _llc_points(rows: dict) -> list[dict]:
    return [d for r in rows["fig12_14"] for d in r["llc"].values()]


def _heavy_gain_drift(rows: dict) -> float:
    """First (heaviest) mix: ROP gain at the largest LLC minus the smallest."""
    heavy = rows["fig12_14"][0]["llc"]
    return heavy[max(heavy)]["norm_ws"]["ROP"] - heavy[min(heavy)]["norm_ws"]["ROP"]


def _zoo_ratios(rows: dict, policy: str) -> list[float]:
    """Per-benchmark IPC of ``policy`` over auto-refresh at 8 Gb, the
    density of ``SystemConfig.single_core()``."""
    ipc = {
        (z["benchmark"], z["policy"]): z["ipc"]
        for z in rows["zoo"]
        if z["density_gbit"] == 8
    }
    return [ipc[(b, policy)] / v for (b, p), v in ipc.items() if p == "auto_1x"]


def _zoo_cells(rows: dict) -> dict[tuple[str, int], dict]:
    return {(m["policy"], m["density_gbit"]): m for m in zoo_matrix(rows["zoo"])}


def _zoo_rop_darp(rows: dict) -> list[float]:
    cells = _zoo_cells(rows)
    return [
        cells[("rop_darp", g)]["norm_ipc"] / cells[("darp", g)]["norm_ipc"]
        for (p, g) in cells
        if p == "darp"
    ]


def _zoo_refresh_growth(rows: dict) -> float:
    cells = _zoo_cells(rows)
    return cells[("auto_1x", 32)]["refresh_fraction"] - cells[("auto_1x", 8)][
        "refresh_fraction"
    ]


def _ablation_ratio(rows: dict, variant: str) -> float:
    abl = rows["ablations"]
    return abl[variant]["ipc"] / abl["default"]["ipc"]


def _sens_ipcs(rows: dict) -> list[float]:
    return [v["ipc"] for v in rows["sensitivity"].values()]


def _sens_spread(rows: dict) -> float:
    ipcs = _sens_ipcs(rows)
    return (max(ipcs) - min(ipcs)) / max(ipcs)


# -------------------------------------------------------------------- claims

_SPARSE = "fewer than 20 refreshes per benchmark below paper scale"
_EXT = "not reported (extrapolated in §VI)"

CLAIMS: tuple[Claim, ...] = (
    Claim(
        "fig1.ideal-not-slower", "Fig. 1 perf", "refresh costs ≤7.3 %, avg 3.3 %",
        lambda r: _lo(x["perf_degradation_pct"] for x in r["fig1"]), ">=", -0.5,
    ),
    Claim(
        "fig1.refresh-costs-energy", "Fig. 1 energy", "+26.5 % avg, ≤41.6 %",
        lambda r: _lo(x["energy_overhead_pct"] for x in r["fig1"]), ">", 0.0,
    ),
    Claim(
        "fig2.gobmk-non-blocking", "Fig. 2", "non-intensive avg 79.3 % non-blocking",
        lambda r: _window(r, "gobmk").non_blocking_fraction, ">", 0.5,
    ),
    Claim(
        "fig2.lbm-blocking", "Fig. 2", "intensive streams block most refreshes",
        lambda r: _window(r, "lbm").non_blocking_fraction, "<", 0.2,
    ),
    Claim(
        "fig2.wider-window-fewer", "Fig. 2", "non-blocking share falls 1×→4×",
        lambda r: _hi(
            x.windows[4.0].non_blocking_fraction - x.windows[1.0].non_blocking_fraction
            for x in r["fig2_4"]
        ),
        "<=", 1e-9,
    ),
    Claim(
        "fig3.few-blocked", "Fig. 3", "few reads per blocking refresh (max 12)",
        lambda r: _hi(x.avg_blocked for x in r["fig2_4"]), "<", 16.0,
    ),
    Claim(
        "fig4.e1-e2-dominate", "Fig. 4", "E1+E2 dominate",
        lambda r: _lo(
            x.windows[1.0].dominant_fraction
            for x in r["fig2_4"]
            if x.windows[1.0].refreshes >= 20
        ),
        ">", 0.5, paper_only=_SPARSE,
    ),
    Claim(
        "tab1.lambda-near-paper", "Table I", "per-benchmark λ, window-insensitive",
        lambda r: _hi(_table1_gaps(r, "lam")), "<", 0.35, paper_only=_SPARSE,
    ),
    Claim(
        "tab1.beta-near-paper", "Table I", "per-benchmark β (where β > 0.05)",
        lambda r: _hi(_table1_gaps(r, "beta")), "<", 0.35, paper_only=_SPARSE,
    ),
    Claim(
        "fig7.rop-not-below-baseline", "Fig. 7", "ROP +3.3 % avg, ≤+9.2 %",
        lambda r: _lo(p["norm_ipc"] for _, p in _rop_cells(r)), ">", 0.985,
    ),
    Claim(
        "fig7.rop-near-ideal", "Fig. 7", "sometimes beats no-refresh",
        lambda r: _hi(p["norm_ipc"] / x["norm_ipc_norefresh"] for x, p in _rop_cells(r)),
        "<", 1.05,
    ),
    Claim(
        "fig8.ideal-saves-energy", "Fig. 8", "no-refresh is the energy floor",
        lambda r: _hi(x["norm_energy_norefresh"] for x in r["fig7_9"]), "<", 1.0,
    ),
    Claim(
        "fig8.rop-energy", "Fig. 8", "ROP saves ≤6.7 % energy (3.6 % avg)",
        lambda r: _hi(p["norm_energy"] for _, p in _rop_cells(r)), "<", 1.04,
    ),
    Claim(
        "fig9.predictable-hit-rate", "Fig. 9", "hit rate ≥0.6, grows with capacity",
        lambda r: _lo(_fig9_hit_rates(r)), ">", 0.55,
    ),
    Claim(
        "fig10.rp-not-below-baseline", "Fig. 10", "rank partitioning beats Baseline",
        lambda r: _lo(_mix(r, "norm_ws", "Baseline-RP").values()), ">", 0.99,
    ),
    Claim(
        "fig10.rop-not-below-baseline", "Fig. 10", "ROP/Baseline ≤1.8×, geomean 1.29×",
        lambda r: _lo(_mix(r, "norm_ws", "ROP").values()), ">", 0.99,
    ),
    Claim(
        "fig10.rop-vs-rp", "Fig. 10 (vs RP)", "ROP beats Baseline-RP by 6.5 % geomean",
        lambda r: _lo(
            x["norm_ws"]["ROP"] / x["norm_ws"]["Baseline-RP"] for x in r["fig10_11"]
        ),
        ">", 0.97,
    ),
    Claim(
        "fig10.intensity-order", "Fig. 10", "gain ordered by intensity (WL1 ≥ WL6)",
        lambda r: _mix(r, "norm_ws", "ROP")["WL1"] - _mix(r, "norm_ws", "ROP")["WL6"],
        ">=", 0.0,
    ),
    Claim(
        "fig11.rop-energy", "Fig. 11", "energy −22.6 % geomean, ≤−40 % (WL2)",
        lambda r: _hi(_mix(r, "norm_energy", "ROP").values()), "<", 1.02,
    ),
    Claim(
        "fig11.rp-energy", "Fig. 11", "rank partitioning saves energy",
        lambda r: _hi(_mix(r, "norm_energy", "Baseline-RP").values()), "<", 1.02,
    ),
    Claim(
        "fig11.intensity-order", "Fig. 11", "heavier mix saves more (WL1 vs WL6)",
        lambda r: (
            _mix(r, "norm_energy", "ROP")["WL1"] - _mix(r, "norm_energy", "ROP")["WL6"]
        ),
        "<=", 0.02,
    ),
    Claim(
        "fig12.rop-not-below-baseline", "Fig. 12", "ROP gain at every LLC size",
        lambda r: _lo(d["norm_ws"]["ROP"] for d in _llc_points(r)), ">", 0.97,
    ),
    Claim(
        "fig12.gain-shrinks", "Fig. 12", "gains shrink as LLC grows",
        _heavy_gain_drift, "<=", 0.12,
    ),
    Claim(
        "fig13.rop-energy", "Fig. 13", "savings persist across LLC sizes",
        lambda r: _hi(d["norm_energy"]["ROP"] for d in _llc_points(r)), "<", 1.03,
    ),
    Claim(
        "fig14.hit-rate", "Fig. 14", "hit rate high across LLC sizes",
        lambda r: _lo(d["rop_armed_hit_rate"] for d in _llc_points(r)),
    ),
    Claim(
        "abl.throttle-vs-always-prefetch", "Ablation", "not reported (λ≈1 for lbm)",
        lambda r: abs(_ablation_ratio(r, "always-prefetch") - 1.0), "<=", 0.02,
    ),
    Claim(
        "abl.interleaved-map-hit-rate", "Ablation", "relies on bank locality [22]",
        lambda r: (
            r["ablations"]["interleaved-map"]["armed_hit_rate"]
            - r["ablations"]["default"]["armed_hit_rate"]
        ),
        "<", 0.0,
    ),
    Claim(
        "abl.short-window", "Ablation", "window-insensitive (Table I)",
        lambda r: abs(_ablation_ratio(r, "window-0.25x") - 1.0), "<=", 0.03,
    ),
    Claim(
        "abl.no-drain", "Ablation", "not reported",
        lambda r: _ablation_ratio(r, "no-drain"),
    ),
    Claim(
        "abl.fixed-depth", "Ablation", "not reported",
        lambda r: _ablation_ratio(r, "fixed-depth"),
    ),
    Claim(
        "sens.ipc-spread", "Sensitivity", "fixed, not swept (50 / 0.6 / 1× tREFI)",
        _sens_spread, "<", 0.02,
    ),
    Claim(
        "sens.defaults-near-best", "Sensitivity", "fixed, not swept (50 / 0.6 / 1× tREFI)",
        lambda r: r["sensitivity"]["default"]["ipc"] / max(_sens_ipcs(r)), ">=", 0.99,
    ),
    Claim(
        "ext.none-bounds-auto", "Extension", _EXT,
        lambda r: _lo(_zoo_ratios(r, "none")), ">=", 0.999,
    ),
    Claim(
        "ext.rop-not-below-auto", "Extension", _EXT,
        lambda r: _lo(_zoo_ratios(r, "rop")), ">=", 0.985,
    ),
    Claim(
        "zoo.rop-not-below-auto", "Extension", _EXT,
        lambda r: _lo(m["norm_ipc"] for (p, _), m in _zoo_cells(r).items() if p == "rop"),
        ">=", 0.995,
    ),
    Claim(
        "zoo.rop-darp-vs-darp", "Extension (DARP)", _EXT,
        lambda r: _lo(_zoo_rop_darp(r)), ">=", 0.995,
    ),
    Claim(
        "zoo.refresh-share-grows", "Extension", _EXT,
        _zoo_refresh_growth, ">", 0.0,
    ),
)


# ---------------------------------------------------------- collect/evaluate


def _ablation_configs() -> dict[str, SystemConfig]:
    """One ROP design decision flipped per variant, lbm, 10 training refreshes."""
    base = SystemConfig.single_core()
    interleaved = SystemConfig.single_core(address_map=AddressMapScheme.ROW_RANK_BANK_COL)
    variants = {
        "default": (base, {}),
        "always-prefetch": (base, {"probabilistic": False}),
        "no-drain": (base, {"drain_before_refresh": False}),
        "fixed-depth": (base, {"adaptive_depth": False}),
        "window-0.25x": (base, {"window_mult": 0.25}),
        "interleaved-map": (interleaved, {}),
    }
    return {
        name: cfg.with_rop(training_refreshes=10, **kw)
        for name, (cfg, kw) in variants.items()
    }


def _sensitivity_configs(scale: RunScale) -> dict[str, SystemConfig]:
    """ROP's own parameters swept around the paper's values, libquantum."""
    t = scale.training_refreshes
    variants = {
        "default": {},
        f"training={max(2, t // 2)}": {"training_refreshes": max(2, t // 2)},
        f"training={t * 2}": {"training_refreshes": t * 2},
        "threshold=0.4": {"hit_rate_threshold": 0.4},
        "threshold=0.8": {"hit_rate_threshold": 0.8},
        "window=0.5x tREFI": {"window_mult": 0.5},
        "window=2.0x tREFI": {"window_mult": 2.0},
        "window=4x tRFC": {"window_base": WindowBase.TRFC, "window_mult": 4.0},
    }
    return {
        name: SystemConfig.single_core().with_rop(**{"training_refreshes": t, **kw})
        for name, kw in variants.items()
    }


def collect(scale: RunScale, benchmarks: tuple[str, ...], mixes: tuple[str, ...]) -> dict:
    """Run every row the claims read; ``evaluate`` takes the result.

    Figs. 7–9 run at every SRAM size (the claims read ROP-64 below paper
    scale); Figs. 12–14 sweep 1 and 4 MB below paper scale, all four
    sizes at it.  The ablation and sensitivity points run at ``scale``'s
    length and seed.  Figs. 1/7 run first, so the zoo's 8 Gb
    auto-refresh, ROP and no-refresh points are memo hits.
    """
    paper = scale == RunScale.named("paper", seed=scale.seed)
    plan = RunPlan()
    ablations = {
        name: plan.benchmark("lbm", cfg, scale) for name, cfg in _ablation_configs().items()
    }
    sensitivity = {
        name: plan.benchmark("libquantum", cfg, scale)
        for name, cfg in _sensitivity_configs(scale).items()
    }
    rows = {
        "paper": paper,
        "fig1": fig1_refresh_overheads(benchmarks, scale),
        "fig2_4": fig2_to_4_and_table1(benchmarks, scale),
        "fig7_9": fig7_8_9_rop_comparison(benchmarks, scale, sram_sizes=SRAM_SIZES),
        "fig10_11": fig10_11_weighted_speedup(mixes, scale),
        "fig12_14": fig12_13_14_llc_sensitivity(
            mixes, scale, llc_sweep=LLC_SWEEP_BYTES if paper else (1 << 20, 4 << 20)
        ),
        "zoo": zoo_sweep(benchmarks, scale, densities=ZOO_DENSITIES, policies=ZOO_POLICIES),
    }
    results = plan.execute()
    for key, specs in (("ablations", ablations), ("sensitivity", sensitivity)):
        rows[key] = {
            name: {
                "ipc": results[spec].ipc,
                "armed_hit_rate": results[spec].rop_summary["armed_hit_rate"],
            }
            for name, spec in specs.items()
            if results.ok(spec)
        }
    return rows


def evaluate(rows: dict) -> list[Verdict]:
    """One verdict per claim, in :data:`CLAIMS` order."""
    verdicts = []
    for claim in CLAIMS:
        try:
            value = float(claim.measure(rows))
        except (LookupError, StopIteration, ZeroDivisionError, ValueError):
            value = math.nan  # rows missing: the claim is unmeasured
        if not claim.checks:
            status = "report"
        elif claim.paper_only and not rows["paper"]:
            status = "paper-only"
        else:
            status = "holds" if _OPS[claim.op](value, claim.bound) else "fails"
        verdicts.append(Verdict(claim, value, status))
    return verdicts


def render_verdicts(verdicts: list[Verdict]) -> str:
    """Claim id, the paper's number, the measured value, bound and status."""
    body = [
        [
            v.claim.id,
            v.claim.paper,
            f"{v.measured:.4f}",
            f"{v.claim.op} {v.claim.bound:g}" if v.claim.checks else "—",
            v.status,
        ]
        for v in verdicts
    ]
    return reporting.format_table(["claim", "paper", "measured", "bound", "verdict"], body)
