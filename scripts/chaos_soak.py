#!/usr/bin/env python
"""Chaos soak: a multi-wave plan under ``REPRO_CHAOS`` must finish clean.

The resilience claim this script enforces (CI job ``chaos-soak``): with
every chaos site armed — worker crashes, cache write failures, torn
trace-plane artifacts, injected epoch-engine faults, near-timeout slow
specs — a ≥48-spec plan still completes with **zero failed specs** and
per-spec result digests **bit-identical** to a fault-free run of the
same plan.  Chaos decisions are deterministic in the seed, so a red
soak replays exactly with the same command line.

Phases:

1. *fault-free* — the full plan on the epoch engine in a fresh cache
   dir; records every spec's result digest;
2. *chaos* — the same plan in another fresh cache dir with
   ``REPRO_CHAOS=<seed>:<rate>`` armed, dispatched in two waves (wave 2
   resumes over wave 1's surviving cache) plus a final full-plan pass
   that must be served entirely from cache.  Wave 2 arms a spec timeout
   (one future per worker in flight, not two), so slow specs run under
   a live deadline;
3. *compare* — digests per spec key (every member of a shared
   simulation included), failure counts, the fallback
   ledger (an injected epoch fault must appear in
   ``RunnerStats.engine_fallbacks`` and leave a loadable quarantine
   bundle), and the chaos store's shards, which must hold only
   ``.pkl``/``.trace`` entries.

Usage::

    PYTHONPATH=src python scripts/chaos_soak.py --jobs 2
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


#: profiles that also run, at the first seed, through a 1 MB and a 4 MB
#: LLC (at soak length their traces match the 2 MB ones), without refresh
#: at two densities, and with a disabled non-default ROP: each variant
#: shares a simulation with another spec, so shared groups go through
#: the fault ladder as one
SHARED_PROFILES = ("lbm", "gcc", "bzip2", "gobmk")

#: chaos wave 2's spec timeout: far above any soak spec + ``SLOW_SPEC_S``
WAVE2_TIMEOUT_S = 60.0


def build_plan(instructions: int, seeds: tuple[int, ...]):
    from dataclasses import replace

    from repro import RefreshMode, SystemConfig
    from repro.harness import RunScale, RunSpec
    from repro.workloads import SPEC_PROFILES

    base = SystemConfig.single_core()
    rop = base.with_rop(training_refreshes=3)
    specs = []
    for name in SPEC_PROFILES:
        for seed in seeds:
            scale = RunScale(instructions=instructions, seed=seed, training_refreshes=3)
            specs.append(RunSpec.benchmark(name, base, scale))
            specs.append(RunSpec.benchmark(name, rop, scale))
    scale = RunScale(instructions=instructions, seed=seeds[0], training_refreshes=3)
    no_refresh = base.with_refresh_mode(RefreshMode.NONE)
    variants = [base.with_llc_size(1 << 20), base.with_llc_size(4 << 20)]
    # tRFC is all a density sets, and no refresh never reads it
    variants += [no_refresh.with_density(4), no_refresh.with_density(32)]
    # training_refreshes=3 against the default 50, with ROP off
    variants.append(replace(rop, rop=replace(rop.rop, enabled=False)))
    for cfg in variants:
        specs += [RunSpec.benchmark(name, cfg, scale) for name in SHARED_PROFILES]
    return specs


def run_phase(specs, cache_dir: Path, jobs: int, chaos: str | None, waves: int):
    """Execute ``specs`` against ``cache_dir``; returns (digests, stats list)."""
    from dataclasses import replace

    from repro.harness import ExecutionPolicy
    from repro.harness.quarantine import result_digest
    from repro.harness.runner import clear_result_memo, execute_plan, last_stats
    from repro.workloads.spec_profiles import clear_trace_cache

    os.environ["REPRO_CACHE"] = "on"
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ["REPRO_ENGINE"] = "epoch"
    if chaos:
        os.environ["REPRO_CHAOS"] = chaos
    else:
        os.environ.pop("REPRO_CHAOS", None)
    # force the disk/plan path: both in-process memos (results + traces)
    # would otherwise mask this phase's store traffic from chaos
    clear_result_memo()
    clear_trace_cache()

    # max_attempts=8: every pool break charges an attempt to each of the
    # up to 2×jobs in-flight casualties, so a storm of injected worker
    # crashes can cost an innocent spec several attempts; the soak sizes
    # the budget for the storm
    policy = ExecutionPolicy(keep_going=True, backoff_s=0.01, max_attempts=8)
    digests: dict[str, str] = {}
    failures = []
    stats_list = []
    per_wave = (len(specs) + waves - 1) // waves
    for w in range(waves):
        wave = specs[w * per_wave:(w + 1) * per_wave]
        if not wave:
            continue
        timeout = WAVE2_TIMEOUT_S if chaos and w == 1 else None
        results = execute_plan(
            wave, jobs=jobs, policy=replace(policy, spec_timeout_s=timeout)
        )
        failures.extend(results.failures)
        stats_list.append(last_stats())
        for spec in wave:
            res = results.get(spec)
            if res is not None:
                digests[spec.key] = result_digest(res)
    # final pass over the whole plan: every spec must now be a cache hit
    clear_result_memo()
    results = execute_plan(specs, jobs=jobs, policy=policy)
    failures.extend(results.failures)
    stats_list.append(last_stats())
    replay = last_stats()
    if replay.executed:
        # cache-write chaos drops a result from disk (it survives the wave
        # in memory); the replay pass re-simulates exactly those specs —
        # their markers are claimed, so this pass runs fault-free
        print(f"  replay pass re-simulated {replay.executed} specs "
              f"(results lost to injected cache-write failures)")
    return digests, failures, stats_list


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=11, help="chaos seed")
    ap.add_argument("--rate", type=float, default=0.35,
                    help="per-(site,key) firing probability")
    ap.add_argument("--instructions", type=int, default=120_000)
    ap.add_argument("--waves", type=int, default=2)
    args = ap.parse_args()

    specs = build_plan(args.instructions, seeds=(3, 4))
    n_unique = len({s.key for s in specs})
    print(f"chaos soak: {len(specs)} specs ({n_unique} unique), "
          f"jobs={args.jobs}, chaos seed={args.seed} rate={args.rate}")
    assert n_unique >= 48, f"soak plan too small: {n_unique} unique specs"

    ok = True
    with tempfile.TemporaryDirectory(prefix="soak-") as tmp:
        t0 = time.perf_counter()
        clean, clean_failures, clean_stats = run_phase(
            specs, Path(tmp) / "clean", args.jobs, chaos=None, waves=1
        )
        clean_shared = clean_stats[0].shared
        print(f"fault-free: {len(clean)} results in "
              f"{time.perf_counter() - t0:.1f}s, "
              f"{len(clean_failures)} failures, {clean_shared} shared")
        if not clean_shared:
            ok = False
            print("FAIL: no spec shared a simulation; the shared variants "
                  "no longer exercise shared groups")

        t1 = time.perf_counter()
        chaos_dir = Path(tmp) / "chaos"
        chaotic, chaos_failures, stats_list = run_phase(
            specs, chaos_dir, args.jobs,
            chaos=f"{args.seed}:{args.rate}", waves=args.waves,
        )
        from repro.harness.chaos import fired
        from repro.harness.quarantine import list_bundles, load_bundle

        counts = fired(args.seed)
        total_fallbacks = sum(s.engine_fallbacks for s in stats_list)
        total_rebuilds = sum(s.pool_rebuilds for s in stats_list)
        total_quarantined = sum(s.quarantined for s in stats_list)
        print(f"chaos:      {len(chaotic)} results in "
              f"{time.perf_counter() - t1:.1f}s, "
              f"{len(chaos_failures)} failures")
        print("  fired: " + (", ".join(
            f"{site}={n}" for site, n in sorted(counts.items())) or "(nothing)"))
        print(f"  absorbed: {total_fallbacks} engine fallbacks, "
              f"{total_rebuilds} pool rebuilds, "
              f"{total_quarantined} quarantined; "
              f"{sum(s.shared for s in stats_list)} shared")

        if clean_failures or chaos_failures:
            ok = False
            for f in clean_failures + chaos_failures:
                print(f"FAIL spec {f.key[:12]} [{f.kind}] {f.exc_type}: "
                      f"{f.message}")

        missing = sorted(set(clean) - set(chaotic))
        mismatched = sorted(
            k for k in set(clean) & set(chaotic) if clean[k] != chaotic[k]
        )
        if missing:
            ok = False
            print(f"FAIL: {len(missing)} specs missing under chaos: "
                  f"{[k[:12] for k in missing[:5]]}...")
        if mismatched:
            ok = False
            print(f"FAIL: {len(mismatched)} digest mismatches: "
                  f"{[k[:12] for k in mismatched[:5]]}...")
        if not missing and not mismatched:
            print(f"OK  all {len(clean)} per-spec digests bit-identical "
                  f"under chaos")

        # prewarm stores and result puts both run in the parent, so no
        # crash can interrupt a write: the shards hold entries and nothing
        # else (no stray .tmp, no per-key .lock)
        strays = [
            p for p in (*chaos_dir.glob("??/*"), *chaos_dir.glob("trace-plane/??/*"))
            if p.suffix not in (".pkl", ".trace")
        ]
        if strays:
            ok = False
            print(f"FAIL: {len(strays)} non-entry files in the store shards: "
                  f"{[p.name for p in strays[:5]]}")
        else:
            print("OK  store shards hold only .pkl/.trace entries")

        # the injected epoch fault must be visible in the ledger and leave
        # a loadable quarantine bundle
        if counts.get("epoch-fault", 0) > 0:
            if total_fallbacks < 1:
                ok = False
                print("FAIL: epoch faults fired but no engine fallback "
                      "was recorded")
            bundles = list_bundles(chaos_dir)
            if not bundles:
                ok = False
                print("FAIL: epoch faults fired but no quarantine bundle "
                      "was written")
            else:
                b = load_bundle(bundles[0])
                print(f"OK  {len(bundles)} quarantine bundles; first: "
                      f"{b['label']} ({b['exc_type']})")
        elif counts:
            print("WARN: epoch-fault never fired with this seed/rate; "
                  "pick another --seed to exercise the fallback ladder")

    print("chaos soak: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
