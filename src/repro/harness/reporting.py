"""Paper-style rendering of harness results as plain-text tables."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..stats.metrics import geomean

__all__ = [
    "format_table",
    "render_fig1",
    "render_table1",
    "render_fig2",
    "render_fig3",
    "render_fig4",
    "render_fig7_8_9",
    "render_fig10_11",
    "render_llc_sensitivity",
    "render_runner_stats",
    "render_failures",
    "render_engine_fallbacks",
    "render_metrics",
]

#: rendered when keep-going execution left a figure with no surviving rows
EMPTY_NOTE = "(no surviving results — every contributing spec failed)"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Render rows as a fixed-width text table."""
    rows = [list(map(str, r)) for r in rows]
    widths = [len(h) for h in headers]
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line("-" * w for w in widths)]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def _pct(x: float) -> str:
    return f"{x:.2f}%"


def _f(x: float, nd: int = 3) -> str:
    return "nan" if (isinstance(x, float) and math.isnan(x)) else f"{x:.{nd}f}"


def render_fig1(rows: list[dict]) -> str:
    """Fig. 1: refresh performance and energy overheads."""
    if not rows:
        return EMPTY_NOTE
    body = [
        (
            r["benchmark"],
            _f(r["ipc_baseline"]),
            _f(r["ipc_norefresh"]),
            _pct(r["perf_degradation_pct"]),
            _pct(r["energy_overhead_pct"]),
        )
        for r in rows
    ]
    avg_perf = sum(r["perf_degradation_pct"] for r in rows) / len(rows)
    avg_energy = sum(r["energy_overhead_pct"] for r in rows) / len(rows)
    body.append(("AVERAGE", "", "", _pct(avg_perf), _pct(avg_energy)))
    return format_table(
        ["benchmark", "IPC(base)", "IPC(noref)", "perf loss", "extra energy"], body
    )


def render_table1(rows) -> str:
    """Table I: λ and β per benchmark at each window multiple."""
    if not rows:
        return EMPTY_NOTE
    mults = sorted(next(iter(rows)).windows)
    headers = ["benchmark"] + [f"λ@{m:g}x" for m in mults] + [f"β@{m:g}x" for m in mults]
    body = []
    for r in rows:
        body.append(
            [r.benchmark]
            + [_f(r.windows[m].lam, 2) for m in mults]
            + [_f(r.windows[m].beta, 2) for m in mults]
        )
    return format_table(headers, body)


def render_fig2(rows) -> str:
    """Fig. 2: percentage of non-blocking refreshes per window multiple."""
    if not rows:
        return EMPTY_NOTE
    mults = sorted(next(iter(rows)).windows)
    headers = ["benchmark"] + [f"non-blocking@{m:g}x" for m in mults]
    body = [
        [r.benchmark]
        + [_pct(100 * r.windows[m].non_blocking_fraction) for m in mults]
        for r in rows
    ]
    return format_table(headers, body)


def render_fig3(rows) -> str:
    """Fig. 3: blocked requests per blocking refresh (physical lock)."""
    if not rows:
        return EMPTY_NOTE
    body = [(r.benchmark, _f(r.avg_blocked, 2), r.max_blocked) for r in rows]
    return format_table(["benchmark", "avg blocked", "max blocked"], body)


def render_fig4(rows) -> str:
    """Fig. 4: dominant events E1 + E2 per window multiple."""
    if not rows:
        return EMPTY_NOTE
    mults = sorted(next(iter(rows)).windows)
    headers = ["benchmark"] + [f"E1+E2@{m:g}x" for m in mults]
    body = [
        [r.benchmark]
        + [_pct(100 * r.windows[m].dominant_fraction) for m in mults]
        for r in rows
    ]
    return format_table(headers, body)


def render_fig7_8_9(rows: list[dict]) -> str:
    """Figs. 7/8/9 combined: normalized IPC, energy and hit rates."""
    if not rows:
        return EMPTY_NOTE
    sizes = sorted(next(iter(rows))["rop"]) if rows else []
    headers = (
        ["benchmark", "noref IPC"]
        + [f"ROP{s} IPC" for s in sizes]
        + ["noref E"]
        + [f"ROP{s} E" for s in sizes]
        + [f"HR{s}" for s in sizes]
    )
    body = []
    for r in rows:
        body.append(
            [r["benchmark"], _f(r["norm_ipc_norefresh"])]
            + [_f(r["rop"][s]["norm_ipc"]) for s in sizes]
            + [_f(r["norm_energy_norefresh"])]
            + [_f(r["rop"][s]["norm_energy"]) for s in sizes]
            + [_f(r["rop"][s]["armed_hit_rate"], 2) for s in sizes]
        )
    return format_table(headers, body)


def render_fig10_11(rows: list[dict]) -> str:
    """Figs. 10/11: normalized weighted speedup and energy per mix."""
    if not rows:
        return EMPTY_NOTE
    systems = list(next(iter(rows))["norm_ws"])
    headers = (
        ["mix"]
        + [f"WS {s}" for s in systems]
        + [f"E {s}" for s in systems]
    )
    body = []
    for r in rows:
        body.append(
            [r["mix"]]
            + [_f(r["norm_ws"][s]) for s in systems]
            + [_f(r["norm_energy"][s]) for s in systems]
        )
    gm_ws = {s: geomean([r["norm_ws"][s] for r in rows]) for s in systems}
    gm_e = {s: geomean([r["norm_energy"][s] for r in rows]) for s in systems}
    body.append(
        ["GEOMEAN"] + [_f(gm_ws[s]) for s in systems] + [_f(gm_e[s]) for s in systems]
    )
    return format_table(headers, body)


def render_runner_stats(stats) -> str:
    """One-line execution summary: dedup, cache hits, jobs, wall clock.

    ``N shared`` counts specs served by another spec's simulation in the
    same plan (not simulated, and not a cache hit).

    ``stats`` is a :class:`~repro.harness.runner.RunnerStats` (from
    ``last_stats()`` for the most recent plan, or ``session_stats()``
    for the process aggregate).
    """
    dedup = stats.requested - stats.unique
    line = (
        f"runner: {stats.requested} runs ({stats.unique} unique, {dedup} deduped) | "
        f"cache hits {stats.hits}/{stats.unique} ({100 * stats.hit_rate:.0f}%: "
        f"{stats.memo_hits} memo + {stats.cache_hits} disk) | "
        f"simulated {stats.executed} with jobs={stats.jobs} | "
        f"wall {stats.wall_s:.2f}s"
    )
    if stats.shared:
        line += f" | {stats.shared} shared"
    if stats.cache_bytes_written:
        line += f" | cache +{stats.cache_bytes_written / (1 << 20):.1f} MiB"
    # fault-tolerance counters only appear when something went wrong, so
    # the clean-run line stays stable
    extras = [
        f"{count} {label}"
        for label, count in (
            ("retries", stats.retries),
            ("timeouts", stats.timeouts),
            ("failed", stats.failed),
            ("pool rebuilds", stats.pool_rebuilds),
            ("cache write errors", stats.cache_write_errors),
            ("engine fallbacks", stats.engine_fallbacks),
            ("quarantined", stats.quarantined),
            ("cache evictions", stats.cache_evictions),
        )
        if count
    ]
    if extras:
        line += " | " + ", ".join(extras)
    return line


def render_metrics(snapshot: dict, *, prefix: str | None = None) -> str:
    """Table view of a :class:`~repro.telemetry.MetricsRegistry` snapshot.

    ``snapshot`` is either one run's ``MulticoreResult.metrics`` or a
    plan-wide ``PlanResults.merged_metrics()``; ``prefix`` keeps only
    metric names starting with it (e.g. ``"rop."``).
    """
    from ..telemetry import MetricsRegistry

    if not snapshot:
        return "(no metrics recorded)"

    def keep(name: str) -> bool:
        return prefix is None or name.startswith(prefix)

    body: list[tuple[str, str, str]] = []
    for name, value in snapshot.get("counters", {}).items():
        if keep(name):
            body.append((name, "counter", f"{value:g}"))
    for name in snapshot.get("gauges", {}):
        if keep(name):
            body.append((name, "gauge", _f(MetricsRegistry.gauge_value(snapshot, name))))
    for name, h in snapshot.get("histograms", {}).items():
        if not keep(name):
            continue
        n = sum(h["counts"])
        mean = h["sum"] / n if n else 0.0
        body.append((name, "histogram", f"n={n} mean={mean:.1f}"))
    if not body:
        return "(no metrics recorded)"
    body.sort()
    return format_table(["metric", "type", "value"], body)


def render_failures(failures) -> str:
    """Failure report: one row per terminally failed spec.

    ``failures`` is an iterable of
    :class:`~repro.harness.runner.SpecFailure` (``PlanResults.failures``
    or ``last_failures()``).
    """
    failures = list(failures)
    if not failures:
        return "no failures"
    body = [
        (
            f.label,
            f.kind,
            f.attempts,
            f"{f.exc_type}: {f.message}"[:72],
        )
        for f in failures
    ]
    table = format_table(["spec", "kind", "attempts", "error"], body)
    return (
        f"{len(failures)} spec(s) failed (completed results are cached; "
        f"re-run the same command to retry only these):\n{table}"
    )


def render_engine_fallbacks(fallbacks) -> str:
    """One-line warning when specs silently ran on the scalar engine.

    ``fallbacks`` is an iterable of
    :class:`~repro.harness.runner.EngineFallback`
    (``PlanResults.engine_fallbacks`` or ``last_fallbacks()``).  A sweep
    whose specs fell back runs at scalar speed without failing anything,
    which is easy to miss — this surfaces the count and the top decline
    reasons.  Returns ``""`` when every spec rode the requested engine.
    """
    fallbacks = list(fallbacks)
    if not fallbacks:
        return ""
    by_reason: dict[str, int] = {}
    for fb in fallbacks:
        reason = fb.reason if fb.kind == "declined" else f"fault: {fb.exc_type}"
        by_reason[reason] = by_reason.get(reason, 0) + 1
    top = sorted(by_reason.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    detail = "; ".join(f"{n}x {reason}" for reason, n in top)
    return (
        f"warning: {len(fallbacks)} spec(s) ran on the scalar engine "
        f"({detail})"
    )


def render_llc_sensitivity(rows: list[dict], metric: str = "norm_ws") -> str:
    """Figs. 12/13/14: a metric vs LLC size, ROP normalized to Baseline.

    ``metric`` is one of ``norm_ws``, ``norm_energy``,
    ``rop_lock_hit_rate``, ``rop_armed_hit_rate``.
    """
    if not rows:
        return EMPTY_NOTE
    # union across rows: keep-going mixes may have lost different points
    llcs = sorted({llc for r in rows for llc in r["llc"]})
    headers = ["mix"] + [f"{llc // (1024 * 1024)}MB" for llc in llcs]
    body = []
    for r in rows:
        cells = [r["mix"]]
        for llc in llcs:
            data = r["llc"].get(llc)
            if data is None:  # point lost to a keep-going failure
                cells.append("—")
            elif metric in ("norm_ws", "norm_energy"):
                cells.append(_f(data[metric]["ROP"]))
            else:
                cells.append(_f(data[metric], 2))
        body.append(cells)
    return format_table(headers, body)
