#!/usr/bin/env python3
"""Run the full experiment set and emit EXPERIMENTS.md content.

This is the script that produced EXPERIMENTS.md: every table and figure
driver, rendered as markdown-ish text blocks, followed by one verdict per
paper claim (``repro.validation.claims``) with the paper's number beside
the measured value.  The single-core tables come from the claims' rows;
the multi-core tables run at a third of the scale's length per core,
while the Fig. 10–14 claims run at the full length.

Usage:  python scripts/run_experiments.py [out.md] [--scale paper]
"""

import sys
import time

from repro.harness import (
    DEFAULT_BENCHMARKS,
    RunScale,
    fig10_11_weighted_speedup,
    fig12_13_14_llc_sensitivity,
    reporting,
)
from repro.stats.metrics import geomean
from repro.validation import claims
from repro.workloads import WORKLOAD_MIXES


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS_RAW.md"
    scale_name = "paper"
    if "--scale" in sys.argv:
        scale_name = sys.argv[sys.argv.index("--scale") + 1]
    scale = RunScale.named(scale_name)
    mix_scale = RunScale(
        instructions=scale.instructions // 3,
        seed=scale.seed,
        training_refreshes=max(10, scale.training_refreshes // 2),
    )
    lines: list[str] = [
        f"# Raw experiment output (scale={scale_name}, "
        f"{scale.instructions} instructions single-core, "
        f"{mix_scale.instructions} per core multi-core)",
        "",
    ]

    def block(title: str, text: str) -> None:
        print(f"\n===== {title} =====\n{text}", flush=True)
        lines.append(f"## {title}\n\n```\n{text}\n```\n")

    t0 = time.time()
    mixes = tuple(WORKLOAD_MIXES)
    rows = claims.collect(scale, DEFAULT_BENCHMARKS, mixes)

    block("FIG1 refresh overheads (perf + energy)", reporting.render_fig1(rows["fig1"]))

    rows234 = rows["fig2_4"]
    block("TAB1 lambda/beta", reporting.render_table1(rows234))
    block("FIG2 non-blocking refreshes", reporting.render_fig2(rows234))
    block("FIG3 blocked per blocking refresh", reporting.render_fig3(rows234))
    block("FIG4 dominant events", reporting.render_fig4(rows234))

    rows789 = rows["fig7_9"]
    block("FIG7/8/9 single-core ROP", reporting.render_fig7_8_9(rows789))
    gains = [r["rop"][64]["norm_ipc"] for r in rows789]
    lines.append(
        f"ROP-64 normalized IPC geomean: {geomean(gains):.4f}; "
        f"max gain {max(gains):.4f}\n"
    )

    rows1011 = fig10_11_weighted_speedup(mixes, mix_scale)
    block("FIG10/11 multi-programmed", reporting.render_fig10_11(rows1011))

    rows121314 = fig12_13_14_llc_sensitivity(
        mixes, mix_scale, llc_sweep=tuple(m << 20 for m in (1, 2, 4, 8))
    )
    block(
        "FIG12 weighted speedup vs LLC (ROP/Baseline)",
        reporting.render_llc_sensitivity(rows121314, "norm_ws"),
    )
    block(
        "FIG13 energy vs LLC (ROP/Baseline)",
        reporting.render_llc_sensitivity(rows121314, "norm_energy"),
    )
    block(
        "FIG14 armed hit rate vs LLC",
        reporting.render_llc_sensitivity(rows121314, "rop_armed_hit_rate"),
    )

    block(
        f"Paper claims (scale={scale_name})",
        claims.render_verdicts(claims.evaluate(rows))
        + f"\nfig10.* to fig14.* are measured on 4-core runs of {scale.instructions}"
        f" instructions per core; the FIG10-14 tables above run {mix_scale.instructions}.",
    )

    lines.append(f"_Total wall time: {time.time() - t0:.0f}s_\n")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines))
    print(f"\nwrote {out_path} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
