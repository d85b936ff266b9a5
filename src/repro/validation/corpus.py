"""Committed validation corpus: named runs with expected-stat bands.

``corpus.yaml`` (next to this module) lists small, fast simulations —
workload, system flavor, instruction budget, seed — together with
tolerance bands on their headline statistics. ``repro validate`` runs
every entry under full golden-model validation and additionally checks
each banded statistic; any disagreement is rendered as a mismatch table
and fails the gate.

The bands are *tolerance* bands, not golden values: they are wide
enough to survive innocuous scheduling-order changes but tight enough
to catch a broken refresh schedule, a dead prefetcher, or an IPC
regression of more than a few percent. Regenerate them deliberately
(run the corpus, inspect, re-band) when a change legitimately moves the
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..config import RefreshMode, SystemConfig
from .golden import ValidationSession, _skew
from .mismatch import Mismatch

__all__ = [
    "DEFAULT_CORPUS",
    "CorpusEntry",
    "known_systems",
    "system_config",
    "load_corpus",
    "config_for",
    "run_entry",
    "stat_value",
]

#: the committed corpus shipped with the package
DEFAULT_CORPUS = Path(__file__).with_name("corpus.yaml")

#: system flavors an entry may name (kept deliberately coarse — corpus
#: entries exercise configurations, they do not define new ones)
_SYSTEMS = {
    "baseline": lambda: SystemConfig.single_core(),
    "norefresh": lambda: SystemConfig.single_core().with_refresh_mode(RefreshMode.NONE),
    "elastic": lambda: SystemConfig.single_core().with_refresh_mode(RefreshMode.ELASTIC),
    "per_bank": lambda: SystemConfig.single_core().with_refresh_mode(RefreshMode.PER_BANK),
    "fgr_2x": lambda: SystemConfig.single_core().with_refresh_mode(RefreshMode.FGR_2X),
    "pausing": lambda: SystemConfig.single_core().with_refresh_mode(RefreshMode.PAUSING),
    "rop": lambda: SystemConfig.single_core().with_rop(),
    "rop_elastic": lambda: (
        SystemConfig.single_core().with_refresh_mode(RefreshMode.ELASTIC).with_rop()
    ),
    # the refresh-policy zoo (ROADMAP item 2): Chang et al.'s DARP/SARP
    # and Liu et al.'s RAIDR, plus the ROP+DARP composition row.  RAIDR
    # uses a short bin window so the decimation shows inside a corpus run
    "darp": lambda: SystemConfig.single_core().with_refresh_mode(RefreshMode.DARP),
    "sarp": lambda: SystemConfig.single_core().with_refresh_mode(RefreshMode.SARP),
    "raidr": lambda: (
        SystemConfig.single_core()
        .with_refresh_mode(RefreshMode.RAIDR)
        .with_refresh_opts(raidr_window_ticks=8)
    ),
    "rop_darp": lambda: (
        SystemConfig.single_core().with_refresh_mode(RefreshMode.DARP).with_rop()
    ),
    # the paper's 4-core systems (Figs. 10-14): Baseline, Baseline-RP
    # (rank-partitioned address map), ROP, and a per-bank-refresh variant
    "quad_baseline": lambda: SystemConfig.quad_core(rank_partitioned=False),
    "quad_baseline_rp": lambda: SystemConfig.quad_core(rank_partitioned=True),
    "quad_rop": lambda: SystemConfig.quad_core(rank_partitioned=True).with_rop(),
    "quad_per_bank": lambda: (
        SystemConfig.quad_core(rank_partitioned=True).with_refresh_mode(
            RefreshMode.PER_BANK
        )
    ),
}


def known_systems() -> list[str]:
    """The system-flavor names corpus entries and ``repro fingerprint`` take."""
    return sorted(_SYSTEMS)


def system_config(name: str) -> SystemConfig:
    """Materialize a named system flavor; raises ValueError when unknown.

    Shared vocabulary between the validation corpus and
    ``repro fingerprint --system`` — one place defines what ``"rop"`` or
    ``"elastic"`` means.
    """
    try:
        return _SYSTEMS[name]()
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; known: {', '.join(known_systems())}"
        ) from None


@dataclass(frozen=True)
class CorpusEntry:
    """One named validation run with expected-stat tolerance bands."""

    name: str
    workloads: tuple[str, ...]
    system: str = "baseline"
    instructions: int = 200_000
    seed: int = 1
    #: override for ROP training length (None = the flavor's default);
    #: corpus runs are short, so ROP entries train over few refreshes
    training_refreshes: int | None = None
    #: stat name → inclusive ``(lo, hi)`` band
    expect: dict = field(default_factory=dict)


def config_for(entry: CorpusEntry) -> SystemConfig:
    """Materialize the entry's :class:`SystemConfig`."""
    try:
        cfg = _SYSTEMS[entry.system]()
    except KeyError:
        raise ValueError(
            f"corpus entry {entry.name!r}: unknown system {entry.system!r}; "
            f"known: {sorted(_SYSTEMS)}"
        ) from None
    if entry.training_refreshes is not None:
        if not cfg.rop.enabled:
            raise ValueError(
                f"corpus entry {entry.name!r}: training_refreshes set "
                f"on non-ROP system {entry.system!r}"
            )
        cfg = cfg.with_rop(training_refreshes=entry.training_refreshes)
    return cfg


def load_corpus(path: str | Path | None = None) -> list[CorpusEntry]:
    """Parse a corpus YAML file into entries (validating the schema)."""
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - environment-dependent
        raise RuntimeError(
            "the validation corpus requires PyYAML (pip install pyyaml)"
        ) from exc
    path = Path(path) if path is not None else DEFAULT_CORPUS
    doc = yaml.safe_load(path.read_text())
    raw_entries = (doc or {}).get("entries")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ValueError(f"{path}: corpus must contain a non-empty 'entries' list")
    entries: list[CorpusEntry] = []
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict) or "name" not in raw or "workloads" not in raw:
            raise ValueError(f"{path}: entry #{i} needs at least 'name' and 'workloads'")
        expect = {}
        for stat, band in (raw.get("expect") or {}).items():
            if not (isinstance(band, list) and len(band) == 2 and band[0] <= band[1]):
                raise ValueError(
                    f"{path}: entry {raw['name']!r} stat {stat!r}: "
                    f"band must be [lo, hi], got {band!r}"
                )
            expect[str(stat)] = (float(band[0]), float(band[1]))
        entries.append(
            CorpusEntry(
                name=str(raw["name"]),
                workloads=tuple(str(w) for w in raw["workloads"]),
                system=str(raw.get("system", "baseline")),
                instructions=int(raw.get("instructions", 200_000)),
                seed=int(raw.get("seed", 1)),
                training_refreshes=(
                    int(raw["training_refreshes"])
                    if raw.get("training_refreshes") is not None
                    else None
                ),
                expect=expect,
            )
        )
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate entry names")
    return entries


def stat_value(result, name: str) -> float:
    """Extract one banded statistic from a finished run."""
    if name == "ipc":
        return float(result.ipc)
    if name == "weighted_ipc":
        return float(sum(result.ipcs))
    if name == "sram_hits":
        return float(
            result.stats.sram_hits_in_lock + result.stats.sram_hits_out_of_lock
        )
    if name == "end_cycle":
        return float(result.stats.end_cycle)
    value = getattr(result.stats, name, None)
    if value is None:
        raise ValueError(f"unknown corpus statistic {name!r}")
    return float(value)


def run_entry(entry: CorpusEntry):
    """Run one entry under full validation.

    Returns ``(result, mismatches)`` where the mismatches include both
    golden-model disagreements and ``stat-band`` violations.
    """
    from ..cpu.multicore import run_cores
    from ..workloads import profile

    config = config_for(entry)
    traces = [
        profile(w).memory_trace(entry.instructions, config.llc, seed=entry.seed)
        for w in entry.workloads
    ]
    session = ValidationSession(config)
    result = run_cores(
        traces, config, sink=session.sink, instrument=session.instrument
    )
    mismatches = list(session.finish(result))
    shift = _skew("stat-band")
    for stat, (lo, hi) in sorted(entry.expect.items()):
        lo, hi = lo + shift, hi + shift
        value = stat_value(result, stat)
        if not lo <= value <= hi:
            mismatches.append(
                Mismatch(
                    check="stat-band",
                    site=f"{entry.name}.{stat}",
                    expected=f"[{lo:g}, {hi:g}]",
                    actual=round(value, 4),
                    detail="corpus tolerance band",
                )
            )
    return result, mismatches
