"""EXT — extension study: ROP vs the related-work refresh schemes.

The paper compares ROP only against auto-refresh and the idealized
memory, arguing other schemes' gains "can be extrapolated". This bench
makes the comparison explicit, in two layers:

* the original single-density matrix — JEDEC fine-grained refresh
  (2x/4x), Elastic-Refresh-style postponement, Refresh-Pausing-style
  interruptible refresh, per-bank refresh and ROP on the same workloads;
* the **refresh-policy zoo sweep** — every registered policy (including
  DARP, SARP, RAIDR and the ROP compositions) × device density
  (4–32 Gb, tRFC 260–780 ns), reporting IPC and energy normalized to
  auto-refresh at the same density. As density grows the refresh tax
  grows, and the zoo shows which schemes keep paying it.

The full zoo grid is ``python -m repro sweep``.
"""

from conftest import run_once

from repro import RefreshMode, SystemConfig
from repro.cpu import run_cores
from repro.harness import reporting, render_zoo, zoo_matrix, zoo_sweep
from repro.workloads import profile

MODES = (
    RefreshMode.AUTO_1X,
    RefreshMode.FGR_2X,
    RefreshMode.FGR_4X,
    RefreshMode.ELASTIC,
    RefreshMode.PAUSING,
    RefreshMode.PER_BANK,
    RefreshMode.DARP,
    RefreshMode.SARP,
    RefreshMode.RAIDR,
    RefreshMode.NONE,
)

#: zoo slice exercised under pytest-benchmark: the policies the ISSUE's
#: figure needs (both ROP compositions) at the density extremes
ZOO_BENCH_POLICIES = (
    "auto_1x",
    "per_bank",
    "darp",
    "sarp",
    "raidr",
    "rop",
    "rop_per_bank",
    "rop_darp",
)
ZOO_BENCH_DENSITIES = (8, 32)


def run_matrix(scale, benches):
    rows = []
    for name in benches:
        cfg = SystemConfig.single_core()
        mt = profile(name).memory_trace(scale.instructions, cfg.llc, seed=scale.seed)
        ipcs = {}
        for mode in MODES:
            ipcs[mode.value] = run_cores([mt], cfg.with_refresh_mode(mode)).ipc
        ipcs["rop"] = run_cores(
            [mt], cfg.with_rop(training_refreshes=scale.training_refreshes)
        ).ipc
        rows.append({"benchmark": name, "ipc": ipcs})
    return rows


def test_refresh_scheme_comparison(benchmark, scale, bench_benchmarks):
    rows = run_once(benchmark, run_matrix, scale, bench_benchmarks)
    headers = ["benchmark"] + [m.value for m in MODES] + ["rop"]
    body = []
    for r in rows:
        base = r["ipc"]["auto_1x"]
        body.append(
            [r["benchmark"]]
            + [f"{r['ipc'][m.value] / base:.4f}" for m in MODES]
            + [f"{r['ipc']['rop'] / base:.4f}"]
        )
    print("\nIPC normalized to auto-refresh baseline:")
    print(reporting.format_table(headers, body))
    for r in rows:
        ipc = r["ipc"]
        assert ipc["none"] >= ipc["auto_1x"] * 0.999  # ideal is the bound
        assert ipc["rop"] >= ipc["auto_1x"] * 0.985  # ROP never collapses


def test_zoo_policy_density_sweep(benchmark, scale, bench_benchmarks):
    rows = run_once(
        benchmark,
        zoo_sweep,
        bench_benchmarks,
        scale,
        densities=ZOO_BENCH_DENSITIES,
        policies=ZOO_BENCH_POLICIES,
    )
    print()
    print(render_zoo(rows))
    cells = {(m["policy"], m["density_gbit"]): m for m in zoo_matrix(rows)}
    for gbit in ZOO_BENCH_DENSITIES:
        # ROP composes: it never loses IPC against its own refresh scheme
        assert cells[("rop", gbit)]["norm_ipc"] >= 0.995
        assert cells[("rop_darp", gbit)]["norm_ipc"] >= (
            cells[("darp", gbit)]["norm_ipc"] * 0.995
        )
    # the refresh energy tax grows with density (the zoo's reason to exist)
    assert (
        cells[("auto_1x", 32)]["refresh_fraction"]
        > cells[("auto_1x", 8)]["refresh_fraction"]
    )

