"""Hypothesis strategies for adversarial traces and configurations.

The fuzz suite drives :func:`repro.validation.golden.validate_traces`
with generated inputs and asserts golden-model agreement plus a handful
of metamorphic properties. The strategies here bias generation toward
the regimes where the simulator's scheduling logic has the most corner
cases:

* **bursty** traces — dense access trains separated by long compute
  gaps, stressing queue drain and write-batch switching;
* **refresh-aligned** traces — inter-access gaps close to one tREFI of
  instructions, so demand keeps landing right as locks start;
* **bank-conflict** traces — row ping-pong inside one bank, maximizing
  precharge/activate churn against tRC and tFAW;
* **degenerate** traces — empty, single-access, all-write, single-line.

Configs sample refresh modes, rank counts and ROP knobs small enough
that a few hundred accesses still cross several refresh windows.

Import this module only from tests — it requires ``hypothesis``, which
is a test-only dependency (the validate CLI must not need it).
"""

from __future__ import annotations

import enum
from dataclasses import fields, replace

import numpy as np
from hypothesis import strategies as st

from ..config import (
    AddressMapScheme,
    CoreConfig,
    MemoryOrganization,
    RefreshConfig,
    RefreshMode,
    RopConfig,
    SystemConfig,
)
from ..workloads.trace import AccessTrace

__all__ = [
    "FUZZ_ORG",
    "uniform_traces",
    "bursty_traces",
    "refresh_aligned_traces",
    "bank_conflict_traces",
    "degenerate_traces",
    "memory_traces",
    "fuzz_configs",
    "config_and_traces",
    "ignored_field_variants",
]

#: small geometry shared by all fuzz runs: 4 banks × 256 rows × 32 lines
#: keeps runs fast while leaving room for row conflicts and rank stagger
FUZZ_ORG = MemoryOrganization(channels=1, ranks=1, banks=4, rows=256, columns=32)

#: footprint ceiling for generated line addresses (fits one fuzz rank)
_MAX_LINE = FUZZ_ORG.lines_per_rank - 1

#: instructions per memory cycle under the default core model
_INSTR_PER_CYCLE = CoreConfig().cpu_clock_mult

#: tREFI used by fuzz configs (cycles); small enough that ~200 accesses
#: cross several refresh windows, large enough that every derived mode
#: (FGR, per-bank) keeps tRFC < tREFI
_FUZZ_REFI = 1200


def _trace(gaps, lines, writes, tail: int = 0) -> AccessTrace:
    return AccessTrace(
        np.asarray(gaps, dtype=np.int64),
        np.asarray(lines, dtype=np.int64),
        np.asarray(writes, dtype=bool),
        tail_instructions=tail,
    )


@st.composite
def uniform_traces(draw, max_len: int = 150) -> AccessTrace:
    """Unstructured traffic: random gaps, lines and ~25 % writes."""
    n = draw(st.integers(1, max_len))
    gaps = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
    lines = draw(st.lists(st.integers(0, _MAX_LINE), min_size=n, max_size=n))
    writes = draw(st.lists(st.sampled_from([False, False, False, True]), min_size=n, max_size=n))
    return _trace(gaps, lines, writes, tail=draw(st.integers(0, 200)))


@st.composite
def bursty_traces(draw) -> AccessTrace:
    """Dense bursts (gap 0–2) separated by long compute phases."""
    gaps: list[int] = []
    lines: list[int] = []
    writes: list[bool] = []
    for _ in range(draw(st.integers(1, 6))):
        gap_to_burst = draw(st.integers(500, 8000))
        base = draw(st.integers(0, _MAX_LINE - 64))
        burst_len = draw(st.integers(4, 48))
        stride = draw(st.sampled_from([1, 2, FUZZ_ORG.columns]))
        is_write_burst = draw(st.booleans())
        for j in range(burst_len):
            gaps.append(gap_to_burst if j == 0 else draw(st.integers(0, 2)))
            lines.append(min(base + j * stride, _MAX_LINE))
            writes.append(is_write_burst and j % 3 == 0)
    return _trace(gaps, lines, writes)


@st.composite
def refresh_aligned_traces(draw) -> AccessTrace:
    """Gaps near one tREFI of instructions: demand collides with locks."""
    refi_instr = _FUZZ_REFI * _INSTR_PER_CYCLE
    n = draw(st.integers(4, 60))
    gaps = [
        refi_instr + draw(st.integers(-refi_instr // 8, refi_instr // 8))
        for _ in range(n)
    ]
    base = draw(st.integers(0, _MAX_LINE - 256))
    lines = [base + draw(st.integers(0, 255)) for _ in range(n)]
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return _trace(gaps, lines, writes)


@st.composite
def bank_conflict_traces(draw) -> AccessTrace:
    """Row ping-pong in one bank: every access precharges and activates."""
    n = draw(st.integers(8, 120))
    row_a = draw(st.integers(0, FUZZ_ORG.rows - 1))
    row_b = draw(st.integers(0, FUZZ_ORG.rows - 1))
    col = draw(st.integers(0, FUZZ_ORG.columns - 1))
    lines = [
        (row_a if i % 2 == 0 else row_b) * FUZZ_ORG.columns + col for i in range(n)
    ]
    gaps = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    writes = [False] * n
    return _trace(gaps, lines, writes)


@st.composite
def degenerate_traces(draw) -> AccessTrace:
    """Boundary shapes: empty, singleton, all-writes, one hot line."""
    shape = draw(st.sampled_from(["empty", "single", "all_writes", "one_line"]))
    if shape == "empty":
        return _trace([], [], [], tail=draw(st.integers(1, 500)))
    if shape == "single":
        return _trace(
            [draw(st.integers(0, 1000))],
            [draw(st.integers(0, _MAX_LINE))],
            [draw(st.booleans())],
        )
    n = draw(st.integers(2, 40))
    if shape == "all_writes":
        lines = draw(st.lists(st.integers(0, _MAX_LINE), min_size=n, max_size=n))
        return _trace([1] * n, lines, [True] * n)
    line = draw(st.integers(0, _MAX_LINE))
    return _trace([draw(st.integers(0, 16)) for _ in range(n)], [line] * n, [False] * n)


def memory_traces() -> st.SearchStrategy[AccessTrace]:
    """Any adversarial flavor, weighted toward the structured ones."""
    return st.one_of(
        uniform_traces(),
        bursty_traces(),
        refresh_aligned_traces(),
        bank_conflict_traces(),
        degenerate_traces(),
    )


#: retention-bin mixes RAIDR fuzzing samples from — always summing to 1,
#: spanning the all-weak and mostly-strong extremes
_RAIDR_BIN_MIXES = [
    (1.0, 0.0, 0.0),
    (0.5, 0.25, 0.25),
    (0.25, 0.5, 0.25),
    (0.05, 0.25, 0.70),
]


@st.composite
def fuzz_configs(draw, *, rop: bool | None = None) -> SystemConfig:
    """A small, fast system config covering the refresh-mode matrix."""
    mode = draw(
        st.sampled_from(
            [
                RefreshMode.AUTO_1X,
                RefreshMode.ELASTIC,
                RefreshMode.PER_BANK,
                RefreshMode.FGR_2X,
                RefreshMode.PAUSING,
                RefreshMode.NONE,
                RefreshMode.DARP,
                RefreshMode.SARP,
                RefreshMode.RAIDR,
            ]
        )
    )
    rop_on = draw(st.booleans()) if rop is None else rop
    timings = SystemConfig().timings.with_refresh(refi=_FUZZ_REFI, rfc=100)
    cfg = SystemConfig.single_core(organization=FUZZ_ORG, timings=timings)
    cfg = cfg.with_refresh_mode(mode)
    if mode is RefreshMode.DARP:
        cfg = cfg.with_refresh_opts(postpone_max=draw(st.sampled_from([0, 2, 8])))
    elif mode is RefreshMode.SARP:
        # must divide FUZZ_ORG.rows so subarrays tile the bank exactly
        cfg = cfg.with_refresh_opts(
            subarrays_per_bank=draw(st.sampled_from([1, 2, 4, 8]))
        )
    elif mode is RefreshMode.RAIDR:
        cfg = cfg.with_refresh_opts(
            raidr_window_ticks=draw(st.sampled_from([4, 8, 16])),
            raidr_bins=draw(st.sampled_from(_RAIDR_BIN_MIXES)),
        )
    if rop_on:
        cfg = cfg.with_rop(
            sram_lines=draw(st.sampled_from([4, 16, 64])),
            training_refreshes=draw(st.integers(1, 3)),
            probabilistic=draw(st.booleans()),
            drain_before_refresh=draw(st.booleans()),
            adaptive_depth=draw(st.booleans()),
            bus_pressure_limit=draw(st.sampled_from([0.0, 0.45, 1.0])),
        )
    return cfg


@st.composite
def config_and_traces(draw, *, rop: bool | None = None):
    """A config plus one trace per core (1, 2 or 4 cores on matching ranks)."""
    cfg = draw(fuzz_configs(rop=rop))
    n_cores = draw(st.sampled_from([1, 1, 2, 4]))
    if n_cores > 1:
        cfg = replace(
            cfg,
            organization=replace(cfg.organization, ranks=n_cores),
            address_map=AddressMapScheme.RANK_PARTITIONED,
        )
    traces = [draw(memory_traces()) for _ in range(n_cores)]
    if all(len(t) == 0 for t in traces):
        traces[0] = draw(uniform_traces(max_len=20))
    return cfg, traces


def _values_like(default) -> st.SearchStrategy:
    """Any value of ``default``'s type (for fields the simulator ignores)."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, enum.Enum):
        return st.sampled_from(type(default))
    if isinstance(default, int):
        return st.integers(0, 1 << 16)
    if isinstance(default, float):
        return st.floats(0.0, 4.0)
    if isinstance(default, tuple):
        return st.tuples(*(_values_like(v) for v in default))
    raise TypeError(f"no strategy for a field like {default!r}")


def _any_instance(draw, cls, **fixed):
    """``cls(**fixed)`` with every other field drawn at random."""
    default = cls()
    drawn = {
        f.name: draw(_values_like(getattr(default, f.name)))
        for f in fields(cls)
        if f.name not in fixed
    }
    return cls(**drawn, **fixed)


@st.composite
def ignored_field_variants(draw, cfg: SystemConfig) -> SystemConfig:
    """``cfg`` with ROP and/or refresh maybe switched off, and every field
    the simulator then ignores drawn at random.

    ROP off draws every other ``RopConfig`` field; ``RefreshMode.NONE``
    draws every other ``RefreshConfig`` field and, with ROP off too,
    ``timings.refi``/``timings.rfc``. All of these must leave the result
    unchanged: this is what
    :func:`repro.harness.runner.simulation_config` blanks.
    """
    if draw(st.booleans()):
        cfg = replace(cfg, rop=_any_instance(draw, RopConfig, enabled=False))
    if draw(st.booleans()):
        cfg = replace(cfg, refresh=_any_instance(draw, RefreshConfig, mode=RefreshMode.NONE))
    if not cfg.refresh.enabled and not cfg.rop.enabled:
        refi, rfc = draw(st.integers(1, 1 << 20)), draw(st.integers(1, 1 << 20))
        cfg = replace(cfg, timings=cfg.timings.with_refresh(refi=refi, rfc=rfc))
    return cfg
