"""Command-line interface: run paper experiments without writing code.

Examples
--------
::

    python -m repro info
    python -m repro compare lbm --instructions 3000000
    python -m repro analyze bzip2 gobmk
    python -m repro fig 7 --scale default
    python -m repro fig 10 --scale smoke
    python -m repro schemes libquantum
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import SystemConfig, RefreshMode, __version__
from .cpu import run_cores
from .energy import system_energy
from .harness import (
    DEFAULT_BENCHMARKS,
    ZOO_DENSITIES,
    ZOO_POLICIES,
    ConfigError,
    PlanExecutionError,
    RunPlan,
    RunScale,
    render_zoo,
    zoo_sweep,
    fig1_refresh_overheads,
    fig2_to_4_and_table1,
    fig7_8_9_rop_comparison,
    fig10_11_weighted_speedup,
    fig12_13_14_llc_sensitivity,
    last_failures,
    last_fallbacks,
    last_stats,
    reporting,
)
from .validation import GoldenMismatchError, known_systems, system_config
from .workloads import SPEC_PROFILES, WORKLOAD_MIXES, profile

__all__ = ["main"]


def _env_overlay(args) -> dict[str, str]:
    """The ``REPRO_*`` values this command's run-option flags stand for.

    The environment is the one channel for run options: every layer
    reads it, and pool workers inherit it.  :func:`main` applies the
    overlay for one command and restores the previous values after it.
    """
    keep_going = "1" if getattr(args, "keep_going", False) else None
    if getattr(args, "fail_fast", False):
        keep_going = "0"
    flags = {
        "REPRO_ENGINE": getattr(args, "engine", None),
        "REPRO_VALIDATE": "1" if getattr(args, "validate", False) else None,
        "REPRO_TELEMETRY": "1" if getattr(args, "telemetry", False) else None,
        "REPRO_TRACE_DIR": getattr(args, "trace_dir", None),
        "REPRO_CACHE": "off" if getattr(args, "no_cache", False) else None,
        "REPRO_SPEC_TIMEOUT": getattr(args, "spec_timeout", None),
        "REPRO_RETRIES": getattr(args, "retries", None),
        "REPRO_KEEP_GOING": keep_going,
    }
    return {name: str(value) for name, value in flags.items() if value is not None}


#: figures whose positional names are workload mixes, not benchmarks
_MIX_FIGURES = ("10", "11", "12", "13", "14")


def _check_names(args) -> None:
    """Reject an unknown benchmark or mix name before anything runs."""
    benchmarks = list(getattr(args, "benchmarks", None) or ())
    if getattr(args, "benchmark", None):
        benchmarks.append(args.benchmark)
    mixes = [args.mix] if getattr(args, "mix", None) else []
    if getattr(args, "figure", None) in _MIX_FIGURES:
        benchmarks, mixes = [], benchmarks
    for names, known, what in (
        (benchmarks, SPEC_PROFILES, "benchmark"),
        (mixes, WORKLOAD_MIXES, "mix"),
    ):
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ConfigError(f"unknown {what} {unknown[0]!r}; known: {', '.join(known)}")


def _print_runner_stats(args=None) -> None:
    print()
    print(reporting.render_runner_stats(last_stats()))
    if args is not None and getattr(args, "telemetry", False):
        from .harness.runner import trace_dir

        print(f"telemetry: per-run Perfetto traces under {trace_dir()}")
    fallback_note = reporting.render_engine_fallbacks(last_fallbacks())
    if fallback_note:
        print(fallback_note, file=sys.stderr)
    failures = last_failures()
    if failures:
        print()
        print(reporting.render_failures(failures), file=sys.stderr)


def _scale(args) -> RunScale:
    if args.instructions:
        return RunScale(
            instructions=args.instructions,
            seed=args.seed,
            training_refreshes=max(5, min(50, args.instructions // 120_000)),
        )
    return RunScale.named(args.scale, seed=args.seed)


def _cmd_info(args) -> int:
    cfg = SystemConfig.single_core()
    t = cfg.timings
    print(f"repro {__version__} — ROP (ICPP 2016) reproduction")
    print(f"DDR4-1600: tCK={t.tck_ns} ns, CL={t.cl}, tRCD={t.rcd}, tRP={t.rp}")
    print(f"tREFI={t.refi} cycles ({t.ns(t.refi) / 1000:.1f} µs), "
          f"tRFC={t.rfc} cycles ({t.ns(t.rfc):.0f} ns), "
          f"duty={t.refresh_duty_cycle:.2%}")
    print(f"benchmarks: {', '.join(SPEC_PROFILES)}")
    print("mixes: "
          + "; ".join(f"{m}={'+'.join(v)}" for m, v in WORKLOAD_MIXES.items()))
    return 0


def _cmd_compare(args) -> int:
    scale = _scale(args)
    cfg = SystemConfig.single_core()
    configs = (
        cfg,
        cfg.with_refresh_mode(RefreshMode.NONE),
        cfg.with_rop(training_refreshes=scale.training_refreshes),
    )
    plan = RunPlan()
    grid = {
        name: [plan.benchmark(name, c, scale) for c in configs]
        for name in args.benchmarks
    }
    results = plan.execute(jobs=args.jobs)
    for name, specs in grid.items():
        if not results.ok(*specs):
            continue  # keep-going: a run failed; the failure report names it
        base, ideal, rop = (results[s] for s in specs)
        e_base = system_energy(base.stats, cfg)
        e_rop = system_energy(rop.stats, configs[2])
        gap = ideal.ipc - base.ipc
        rec = (rop.ipc - base.ipc) / gap * 100 if gap > 1e-9 else float("nan")
        print(f"\n{name} ({base.stats.demand_accesses} requests)")
        print(f"  IPC    baseline {base.ipc:.4f}  no-refresh {ideal.ipc:.4f}  "
              f"ROP {rop.ipc:.4f} ({rec:.0f}% of gap recovered)")
        print(f"  energy baseline {e_base.total_mj:.3f} mJ  "
              f"ROP {e_rop.total_mj:.3f} mJ "
              f"({(e_rop.total / e_base.total - 1) * 100:+.1f}%)")
        print(f"  SRAM   hit rate {rop.stats.lock_hit_rate:.2f} (Fig. 9 metric), "
              f"armed {rop.rop_summary['armed_hit_rate']:.2f}")
    _print_runner_stats(args)
    return 0


def _cmd_analyze(args) -> int:
    scale = _scale(args)
    rows = fig2_to_4_and_table1(tuple(args.benchmarks), scale, jobs=args.jobs)
    print(reporting.render_table1(rows))
    print()
    print(reporting.render_fig2(rows))
    print()
    print(reporting.render_fig3(rows))
    print()
    print(reporting.render_fig4(rows))
    _print_runner_stats(args)
    return 0


def _cmd_fig(args) -> int:
    scale = _scale(args)
    fig = args.figure
    benches = tuple(args.benchmarks) if args.benchmarks else DEFAULT_BENCHMARKS
    mixes = tuple(args.benchmarks) if args.benchmarks else tuple(WORKLOAD_MIXES)
    if fig == "1":
        print(reporting.render_fig1(fig1_refresh_overheads(benches, scale, jobs=args.jobs)))
    elif fig in ("2", "3", "4", "t1"):
        rows = fig2_to_4_and_table1(benches, scale, jobs=args.jobs)
        render = {
            "2": reporting.render_fig2,
            "3": reporting.render_fig3,
            "4": reporting.render_fig4,
            "t1": reporting.render_table1,
        }[fig]
        print(render(rows))
    elif fig in ("7", "8", "9"):
        rows = fig7_8_9_rop_comparison(
            benches, scale, sram_sizes=(16, 32, 64, 128), jobs=args.jobs
        )
        print(reporting.render_fig7_8_9(rows))
    elif fig in ("10", "11"):
        print(
            reporting.render_fig10_11(fig10_11_weighted_speedup(mixes, scale, jobs=args.jobs))
        )
    elif fig in ("12", "13", "14"):
        rows = fig12_13_14_llc_sensitivity(
            mixes, scale, llc_sweep=tuple(m << 20 for m in (1, 2, 4, 8)), jobs=args.jobs
        )
        metric = {"12": "norm_ws", "13": "norm_energy", "14": "rop_armed_hit_rate"}[fig]
        print(reporting.render_llc_sensitivity(rows, metric))
    else:
        raise ConfigError(f"unknown figure {fig!r}; known: 1 2 3 4 t1 7 8 9 10 11 12 13 14")
    _print_runner_stats(args)
    return 0


def _cmd_schemes(args) -> int:
    scale = _scale(args)
    cfg = SystemConfig.single_core()
    # the zoo's per-mode refresh options (RAIDR's short bin window)
    opts = {mode: o for mode, rop, o in ZOO_POLICIES.values() if not rop}
    configs = {
        m.value: cfg.with_refresh_mode(m).with_refresh_opts(**opts.get(m, {}))
        for m in RefreshMode
    }
    configs["rop"] = cfg.with_rop(training_refreshes=scale.training_refreshes)
    plan = RunPlan()
    grid = {
        name: {h: plan.benchmark(name, c, scale) for h, c in configs.items()}
        for name in args.benchmarks
    }
    results = plan.execute(jobs=args.jobs)
    body = []
    for name, specs in grid.items():
        if not results.ok(*specs.values()):
            continue  # keep-going: a run failed; the failure report names it
        base = results[specs[RefreshMode.AUTO_1X.value]].ipc
        body.append([name] + [f"{results[s].ipc / base:.4f}" for s in specs.values()])
    print("IPC normalized to auto-refresh:")
    print(reporting.format_table(["benchmark", *configs], body))
    _print_runner_stats(args)
    return 0


def _cmd_sweep(args) -> int:
    """Refresh-policy zoo: policy × device-density IPC/energy matrix."""
    scale = _scale(args)
    policies = tuple(args.refresh) if args.refresh else None
    densities = tuple(args.density) if args.density else ZOO_DENSITIES
    benches = tuple(args.benchmarks) if args.benchmarks else ("lbm", "libquantum")
    rows = zoo_sweep(
        benches, scale, densities=densities, policies=policies, jobs=args.jobs
    )
    print(render_zoo(rows))
    _print_runner_stats(args)
    return 0


def _cmd_trace(args) -> int:
    """Run one benchmark with full telemetry and export its trace."""
    from .kernel import resolve_engine
    from .telemetry import MetricsRegistry, TraceSink, write_chrome_trace, write_csv, write_jsonl

    engine = resolve_engine()
    scale = _scale(args)
    cfg = SystemConfig.single_core()
    if not args.baseline:
        cfg = cfg.with_rop(training_refreshes=scale.training_refreshes)
    mt = profile(args.benchmark).memory_trace(scale.instructions, cfg.llc, seed=scale.seed)
    sink = TraceSink(capacity=args.capacity)
    result = run_cores([mt], cfg, sink=sink, engine=engine)

    suffix = {"chrome": ".trace.json", "jsonl": ".jsonl", "csv": ".csv"}[args.format]
    out = Path(args.out) if args.out else Path(f"{args.benchmark}{suffix}")
    tck_ns = cfg.effective_timings().tck_ns
    if args.format == "chrome":
        write_chrome_trace(sink, tck_ns, out, label=args.benchmark)
    elif args.format == "jsonl":
        write_jsonl(sink, out)
    else:
        write_csv(sink, out)

    s = sink.summary()
    print(f"{args.benchmark}: IPC {result.ipc:.4f}, "
          f"{result.stats.demand_accesses} demand accesses, "
          f"{result.stats.refreshes} refreshes over {result.end_cycle} cycles")
    print(f"trace: {s['stored']} events stored ({s['emitted']} emitted, "
          f"{s['dropped']} dropped, ring capacity {s['capacity']})")
    print()
    merged = MetricsRegistry.merge([result.metrics, MetricsRegistry.from_trace(sink).snapshot()])
    print(reporting.render_metrics(merged, prefix=args.metrics_prefix))
    print()
    print(f"wrote {out}", end="")
    if args.format == "chrome":
        print(" — open it at https://ui.perfetto.dev or chrome://tracing", end="")
    print()
    return 0


def _cmd_profile(args) -> int:
    """cProfile one spec's simulation and print the hottest functions."""
    import cProfile
    import pstats

    from .harness import RunSpec
    from .harness.runner import run_spec
    from .kernel import resolve_engine

    engine = resolve_engine()
    scale = _scale(args)
    if bool(args.mix) == bool(args.benchmark):
        print("repro profile: name a benchmark or pass --mix (not both)",
              file=sys.stderr)
        return 2
    if args.mix:
        cfg = SystemConfig.quad_core()
        if not args.baseline:
            cfg = cfg.with_rop(training_refreshes=scale.training_refreshes)
        spec = RunSpec.mix(args.mix, cfg, scale)
        label = f"{args.mix} ({'+'.join(spec.workloads)})"
    else:
        cfg = SystemConfig.single_core()
        if not args.baseline:
            cfg = cfg.with_rop(training_refreshes=scale.training_refreshes)
        spec = RunSpec.benchmark(args.benchmark, cfg, scale)
        label = args.benchmark
    if not args.include_tracegen:
        # materialize the traces first: the steady-state hot path being
        # tuned is the simulation, not one-time trace generation
        for name in spec.workloads:
            profile(name).memory_trace(spec.instructions, spec.trace_llc, seed=spec.seed)
    prof = cProfile.Profile()
    prof.enable()
    result = run_spec(spec)
    prof.disable()
    print(f"{label} [{engine} engine]: IPC {result.ipc:.4f}, "
          f"{result.stats.demand_accesses} demand accesses, "
          f"{result.end_cycle} controller cycles")
    stats = pstats.Stats(prof)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out} (load with pstats or snakeviz)")
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


def _cmd_validate(args) -> int:
    """Run the committed validation corpus under the golden models."""
    from .harness.faults import fault_table
    from .kernel import resolve_engine
    from .validation import load_corpus, render_mismatch_table, run_entry

    # a malformed engine or fault file exits 2 before any run; an
    # unreadable fault file would otherwise disarm the golden skews
    resolve_engine()
    fault_table()
    entries = load_corpus(args.corpus)
    if args.list:
        for e in entries:
            bands = ", ".join(sorted(e.expect)) or "-"
            print(f"{e.name:22s} {e.system:12s} {'+'.join(e.workloads):14s} "
                  f"{e.instructions:>9,d} instr  bands: {bands}")
        return 0
    if args.only:
        wanted = set(args.only)
        unknown = wanted - {e.name for e in entries}
        if unknown:
            print(f"repro validate: unknown entries {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        entries = [e for e in entries if e.name in wanted]
    all_mismatches = []
    for entry in entries:
        result, mismatches = run_entry(entry)
        status = "FAIL" if mismatches else "ok"
        print(f"{status:4s} {entry.name}: IPC {result.ipc:.4f}, "
              f"{result.stats.refreshes} refreshes, "
              f"{len(mismatches)} mismatch(es)")
        all_mismatches.extend(mismatches)
    if all_mismatches:
        print()
        print(render_mismatch_table(all_mismatches), file=sys.stderr)
        print(f"\nrepro validate: FAIL — {len(all_mismatches)} mismatch(es) "
              f"across {len(entries)} entries", file=sys.stderr)
        return 1
    print(f"\nrepro validate: {len(entries)} entries green")
    return 0


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover


def _cmd_cache(args) -> int:
    """Inspect, bound, or heal the persistent artifact store."""
    from .harness.cache_gc import collect, parse_quota, quota_from_env, usage, verify

    root = Path(args.dir) if args.dir else None
    if args.cache_cmd == "stats":
        u = usage(root)
        print(f"artifact store at {u['root']}")
        print(f"  entries: {u['entries']} ({_fmt_bytes(u['bytes'])})")
        for kind, agg in sorted(u["by_kind"].items()):
            print(f"    {kind:7s}{agg['entries']:7d} entries  "
                  f"{_fmt_bytes(agg['bytes'])}")
        print(f"  quarantine: {u['quarantined']} files "
              f"({_fmt_bytes(u['quarantine_bytes'])})")
        if u["chaos_seeds"]:
            print(f"  chaos markers: {u['chaos_markers']} files "
                  f"({_fmt_bytes(u['chaos_bytes'])}) across seeds "
                  f"{', '.join(u['chaos_seeds'])}")
        quota = quota_from_env()
        if quota is not None:
            print(f"  quota (REPRO_CACHE_QUOTA): {_fmt_bytes(quota)}")
        return 0
    if args.cache_cmd == "gc":
        quota = parse_quota(args.quota) if args.quota else quota_from_env()
        if quota is None:
            print("repro cache gc: no quota given (pass --quota or set "
                  "REPRO_CACHE_QUOTA)", file=sys.stderr)
            return 2
        res = collect(quota, root=root, dry_run=args.dry_run)
        verb = "would evict" if res.dry_run else "evicted"
        print(f"{verb} {res.evicted} entries ({_fmt_bytes(res.freed_bytes)}): "
              f"{_fmt_bytes(res.bytes_before)} -> {_fmt_bytes(res.bytes_after)} "
              f"against a {_fmt_bytes(res.quota)} quota; {res.kept} kept")
        if res.legacy_removed:
            verb = "would remove" if res.dry_run else "removed"
            print(f"{verb} {res.legacy_removed} legacy leftovers "
                  f"(per-key .lock files, schema-1 trace groups)")
        return 0
    rep = verify(root)
    for bad in rep["bad"]:
        print(f"  quarantined corrupt entry {bad}", file=sys.stderr)
    print(f"checked {rep['checked']} entries: {rep['corrupt']} corrupt "
          f"(corrupt entries are moved to quarantine)")
    return 1 if rep["corrupt"] else 0


def _cmd_fingerprint(args) -> int:
    """Print the cache address of each benchmark's spec without running it."""
    from .harness import RunSpec, cached_result, spec_fingerprint

    try:
        cfg = system_config(args.system)
    except ValueError as exc:
        print(f"repro fingerprint: {exc}", file=sys.stderr)
        return 2
    scale = _scale(args)
    if cfg.rop.enabled:
        cfg = cfg.with_rop(training_refreshes=scale.training_refreshes)
    for name in args.benchmarks:
        key = spec_fingerprint(RunSpec.benchmark(name, cfg, scale))
        state = "cached" if cached_result(key) is not None else "absent"
        print(f"{key}  {state:6s}  {name}/{args.system}")
    return 0


def _cmd_characterize(args) -> int:
    from .workloads import characterize

    scale = _scale(args)
    cfg = SystemConfig.single_core()
    headers = [
        "benchmark", "MPKI", "wr%", "busy%", "λ~", "β~", "predict", "dwell",
    ]
    body = []
    for name in args.benchmarks:
        mt = profile(name).memory_trace(scale.instructions, cfg.llc, seed=scale.seed)
        pr = characterize(mt)
        body.append([
            name,
            f"{pr.mpki:.1f}",
            f"{pr.write_fraction:.2f}",
            f"{pr.busy_window_fraction:.2f}",
            f"{pr.busy_persistence:.2f}",
            f"{pr.quiet_persistence:.2f}",
            f"{pr.delta_predictability:.2f}",
            f"{pr.mean_bank_dwell:.1f}",
        ])
    print("memory-level trace characterization "
          "(λ~/β~: busy/quiet window persistence):")
    print(reporting.format_table(headers, body))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def scale_flags(sp):
        sp.add_argument("--scale", default="default",
                        choices=("smoke", "default", "paper"))
        sp.add_argument("--instructions", type=int, default=0,
                        help="override the scale's instruction count")
        sp.add_argument("--seed", type=int, default=1)

    def common(sp):
        """Scale flags plus the runner flags of commands that execute plans."""
        scale_flags(sp)
        sp.add_argument("--jobs", type=int, default=None,
                        help="parallel simulation workers "
                             "(default: REPRO_JOBS or 1; 0 = all CPUs)")
        sp.add_argument("--no-cache", action="store_true",
                        help="disable the persistent artifact cache "
                             "(REPRO_CACHE_DIR) for this invocation")
        sp.add_argument("--spec-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-spec wall-clock limit; a hung worker is "
                             "killed and reported as a timeout failure "
                             "(default: REPRO_SPEC_TIMEOUT; 0 disables)")
        sp.add_argument("--retries", type=int, default=None, metavar="N",
                        help="executions allowed per spec before a transient "
                             "failure becomes terminal (default: REPRO_RETRIES "
                             "or 3)")
        fail = sp.add_mutually_exclusive_group()
        fail.add_argument("--keep-going", action="store_true",
                          help="on spec failure, keep running the remaining "
                               "specs and render figures from surviving "
                               "points (failures are listed at the end)")
        fail.add_argument("--fail-fast", action="store_true",
                          help="abort the plan on the first terminal failure "
                               "(the default; overrides REPRO_KEEP_GOING=1)")
        observe_flags(sp)
        engine_flag(sp)

    def observe_flags(sp):
        """Flags that attach observers to every simulated spec."""
        sp.add_argument("--telemetry", action="store_true",
                        help="attach a cycle-level trace sink to every "
                             "simulated spec and export per-run Perfetto "
                             "traces (results are bit-identical; cached "
                             "results are re-simulated so the trace exists)")
        sp.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="directory for --telemetry trace files "
                             "(default: REPRO_TRACE_DIR or "
                             "<artifact-cache>/traces)")
        sp.add_argument("--validate", action="store_true",
                        help="check every simulated spec against the "
                             "differential golden models (causality, λ/β, "
                             "Eq. 3, refresh schedule, DDR timing, SRAM "
                             "model); a disagreement fails the run")

    def engine_flag(sp):
        sp.add_argument("--engine", default=None,
                        choices=("scalar", "epoch"),
                        help="simulation engine: scalar = reference "
                             "event-queue interpreter, epoch = array-native "
                             "epoch-stepped kernel (default: REPRO_ENGINE "
                             "or scalar; results are bit-identical)")

    sp = sub.add_parser("info", help="print configuration summary")
    sp.set_defaults(func=_cmd_info)

    sp = sub.add_parser("compare", help="baseline vs no-refresh vs ROP")
    sp.add_argument("benchmarks", nargs="+")
    common(sp)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("analyze", help="Figs. 2-4 + Table I window analysis")
    sp.add_argument("benchmarks", nargs="+")
    common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("fig", help="regenerate one paper figure/table")
    sp.add_argument("figure", help="1 2 3 4 t1 7 8 9 10 11 12 13 14")
    sp.add_argument("benchmarks", nargs="*",
                    help="benchmarks (Figs. 1-9) or mixes (Figs. 10-14)")
    common(sp)
    sp.set_defaults(func=_cmd_fig)

    sp = sub.add_parser("schemes", help="compare all refresh schemes + ROP")
    sp.add_argument("benchmarks", nargs="+")
    common(sp)
    sp.set_defaults(func=_cmd_schemes)

    sp = sub.add_parser(
        "sweep",
        help="refresh-policy zoo: every policy (DARP/SARP/RAIDR/ROP "
             "compositions) x device density (4-32 Gb), IPC + energy "
             "normalized to auto-refresh",
    )
    sp.add_argument("benchmarks", nargs="*",
                    help="benchmarks to sweep (default: lbm libquantum)")
    sp.add_argument("--refresh", action="append", default=None,
                    metavar="POLICY", choices=sorted(ZOO_POLICIES),
                    help="restrict to a policy (repeatable; auto_1x is "
                         "always included as the baseline)")
    sp.add_argument("--density", action="append", type=int, default=None,
                    metavar="GBIT", choices=sorted(ZOO_DENSITIES),
                    help="restrict to a device density in Gbit "
                         "(repeatable; default: all of 4 8 16 32)")
    common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser(
        "trace",
        help="run one benchmark with full telemetry and export a "
             "Perfetto-loadable trace",
    )
    sp.add_argument("benchmark")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="output path (default: <benchmark>.trace.json)")
    sp.add_argument("--format", default="chrome",
                    choices=("chrome", "jsonl", "csv"),
                    help="chrome = trace-event JSON for Perfetto "
                         "(default); jsonl/csv = raw event dumps")
    sp.add_argument("--capacity", type=int, default=1 << 18,
                    help="trace ring-buffer capacity in events; oldest "
                         "events are overwritten beyond it (default 262144)")
    sp.add_argument("--baseline", action="store_true",
                    help="trace the baseline system instead of ROP")
    sp.add_argument("--metrics-prefix", default=None, metavar="PREFIX",
                    help="only print metrics whose name starts with PREFIX "
                         "(e.g. rop. or trace.)")
    scale_flags(sp)
    engine_flag(sp)
    sp.set_defaults(func=_cmd_trace)

    sp = sub.add_parser(
        "profile",
        help="cProfile one benchmark's simulation and print the hot spots",
    )
    sp.add_argument("benchmark", nargs="?", default=None)
    sp.add_argument("--mix", default=None, metavar="MIX",
                    help="profile a 4-core workload mix (e.g. WL1) on the "
                         "quad-core system instead of a single benchmark — "
                         "exercises the multicore hot loop")
    sp.add_argument("--top", type=int, default=25, metavar="N",
                    help="rows of the pstats report to print (default 25)")
    sp.add_argument("--sort", default="tottime",
                    choices=("tottime", "cumulative", "ncalls"),
                    help="pstats sort order (default tottime)")
    sp.add_argument("--baseline", action="store_true",
                    help="profile the baseline system instead of ROP")
    sp.add_argument("--include-tracegen", action="store_true",
                    help="profile trace generation + LLC filtering too "
                         "(default: pre-materialize the trace so only the "
                         "simulation is profiled)")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="also dump raw cProfile stats to FILE")
    scale_flags(sp)
    observe_flags(sp)
    engine_flag(sp)
    sp.set_defaults(func=_cmd_profile)

    sp = sub.add_parser(
        "characterize", help="trace statistics (MPKI, burstiness, predictability)"
    )
    sp.add_argument("benchmarks", nargs="+")
    scale_flags(sp)
    sp.set_defaults(func=_cmd_characterize)

    sp = sub.add_parser(
        "cache",
        help="inspect, garbage-collect, or verify the persistent artifact "
             "store (REPRO_CACHE_DIR)",
    )
    cache_sub = sp.add_subparsers(dest="cache_cmd", required=True)
    csp = cache_sub.add_parser("stats", help="store size, entry counts, quota")
    csp.add_argument("--dir", default=None, metavar="DIR",
                     help="cache directory (default: REPRO_CACHE_DIR)")
    csp.set_defaults(func=_cmd_cache)
    csp = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a size quota"
    )
    csp.add_argument("--dir", default=None, metavar="DIR",
                     help="cache directory (default: REPRO_CACHE_DIR)")
    csp.add_argument("--quota", default=None, metavar="SIZE",
                     help="target size, e.g. 500M or 2G "
                          "(default: REPRO_CACHE_QUOTA)")
    csp.add_argument("--dry-run", action="store_true",
                     help="report what would be evicted without deleting")
    csp.set_defaults(func=_cmd_cache)
    csp = cache_sub.add_parser(
        "verify",
        help="load-check every entry; corrupt ones are quarantined "
             "(exit 1 if any were found)",
    )
    csp.add_argument("--dir", default=None, metavar="DIR",
                     help="cache directory (default: REPRO_CACHE_DIR)")
    csp.set_defaults(func=_cmd_cache)

    sp = sub.add_parser(
        "fingerprint",
        help="print the content fingerprints (cache addresses) of benchmark "
             "runs, and whether each is cached, without running them",
    )
    sp.add_argument("benchmarks", nargs="+", help="benchmark names")
    sp.add_argument("--system", default="baseline",
                    help="system flavor (default baseline): "
                         + ", ".join(known_systems()))
    scale_flags(sp)
    sp.set_defaults(func=_cmd_fingerprint)

    sp = sub.add_parser(
        "validate",
        help="run the committed validation corpus against the analytical "
             "golden models and expected-stat bands (exit 1 on mismatch)",
    )
    sp.add_argument("--corpus", default=None, metavar="FILE",
                    help="corpus YAML file (default: the committed corpus)")
    sp.add_argument("--only", action="append", default=None, metavar="NAME",
                    help="run only the named entry (repeatable)")
    sp.add_argument("--list", action="store_true",
                    help="list corpus entries and exit")
    sp.set_defaults(func=_cmd_validate)
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    The run-option flags become ``REPRO_*`` variables for this command
    (:func:`_env_overlay`); every ``REPRO_*`` entry of ``os.environ`` is
    restored afterwards, so one call never leaks into the next.

    Translates library errors into exit codes here, at the boundary:
    malformed configuration (``ConfigError``, including an unknown
    benchmark or mix name and a malformed ``REPRO_*`` value) exits 2
    with one stderr line; a fail-fast plan
    failure prints the failure report and exits 1, as does a golden-model
    mismatch of a single validated run (``profile --validate``); and an
    interrupt (after the runner has persisted completed results and
    printed its resume hint) exits 130.
    """
    args = build_parser().parse_args(argv)
    saved = {name: value for name, value in os.environ.items() if name.startswith("REPRO_")}
    try:
        os.environ.update(_env_overlay(args))
        _check_names(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except PlanExecutionError as exc:
        print(reporting.render_failures(exc.failures), file=sys.stderr)
        return 1
    except GoldenMismatchError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    finally:
        for name in [n for n in os.environ if n.startswith("REPRO_")]:
            if name not in saved:
                del os.environ[name]
        os.environ.update(saved)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
