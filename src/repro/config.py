"""Configuration dataclasses for every subsystem of the reproduction.

The top-level :class:`SystemConfig` aggregates one config object per
subsystem; all of them are frozen dataclasses so a configuration can be
hashed, compared and safely shared between runs. Defaults reproduce the
paper's Table III setup: a single-channel DDR4-1600 memory with 64-entry
read/write queues, FR-FCFS scheduling with batched writes, an 8-bank rank,
``tREFI = 7.8 us`` / ``tRFC = 350 ns`` auto-refresh, and a 64-line SRAM
prefetch buffer for ROP.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass, field, replace

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dram.timings import DramTimings


def _default_timings() -> "DramTimings":
    """DDR4-1600 default, imported lazily to avoid a config↔dram cycle."""
    from .dram.timings import DDR4_1600

    return DDR4_1600

__all__ = [
    "AddressMapScheme",
    "RefreshMode",
    "WindowBase",
    "MemoryOrganization",
    "RefreshConfig",
    "SchedulerConfig",
    "RopConfig",
    "CoreConfig",
    "LlcConfig",
    "SystemConfig",
    "CACHE_LINE_BYTES",
    "ConfigError",
]


class ConfigError(ValueError):
    """A run option (CLI flag or ``REPRO_*`` env var) is malformed.

    Raised from library code; only the CLI boundary translates it into
    an exit message.
    """


#: Cache-line (DRAM burst) size in bytes; fixed at 64 B throughout.
CACHE_LINE_BYTES: int = 64


class AddressMapScheme(enum.Enum):
    """Physical-address to DRAM-coordinate interleaving scheme."""

    #: row : rank : bank : column — conventional fine-grained interleaving;
    #: consecutive lines hop across banks every DRAM row. Kept for the
    #: mapping ablation (it destroys the bank locality ROP exploits).
    ROW_RANK_BANK_COL = "row_rank_bank_col"

    #: bank-locality layout (low row bits below the bank bits): a stream
    #: dwells ~512 KB in one bank — the organization the paper's per-bank
    #: prediction table assumes ("many applications exhibit bank locality").
    #: Default for single-core experiments.
    BANK_LOCALITY = "bank_locality"

    #: bank-locality layout with the rank index in the top address bits —
    #: the paper's *Rank-aware Mapping* (rank partitioning): each
    #: application's footprint is pinned to one rank.
    RANK_PARTITIONED = "rank_partitioned"


class RefreshMode(enum.Enum):
    """How (and whether) the refresh manager issues REF commands."""

    NONE = "none"  #: idealized no-refresh memory (upper bound)
    AUTO_1X = "auto_1x"  #: standard all-bank auto-refresh (the baseline)
    FGR_2X = "fgr_2x"  #: JEDEC fine-grained refresh, 2x mode
    FGR_4X = "fgr_4x"  #: JEDEC fine-grained refresh, 4x mode
    PER_BANK = "per_bank"  #: round-robin per-bank refresh (future-work mode)
    ELASTIC = "elastic"  #: auto-refresh with Elastic-Refresh-style postponement
    #: Refresh-Pausing-style interruptible refresh (Nair et al., HPCA'13):
    #: the lock is split into row-bundle segments and pauses between
    #: segments whenever demand is pending — an additional comparison
    #: baseline beyond the paper's two reference memories
    PAUSING = "pausing"
    #: DARP-style dynamic refresh scheduling (Chang et al., HPCA'14):
    #: per-bank REFpb commands issued out of order into *idle* banks,
    #: postponed (up to ``postpone_max`` per bank) while a bank has
    #: demand, and piggybacked onto write-drain periods
    DARP = "darp"
    #: SARP-style subarray-level parallelism (Chang et al., HPCA'14):
    #: per-bank refresh where only the subarray under refresh blocks —
    #: accesses to the bank's other subarrays keep flowing
    SARP = "sarp"
    #: RAIDR-style retention-aware binning (Liu et al., ISCA'12): rows
    #: are grouped into 64/128/256 ms retention bins and the all-bank
    #: tREFI grid only fires the ticks whose row group is due
    RAIDR = "raidr"


class WindowBase(enum.Enum):
    """Base length used for observational / examination windows."""

    TREFI = "trefi"  #: windows are multiples of the refresh interval
    TRFC = "trfc"  #: windows are multiples of the refresh lock duration


@dataclass(frozen=True)
class MemoryOrganization:
    """Geometry of the DRAM system (Table III defaults).

    ``columns`` counts *cache lines* per row: an 8 KB row holds 128 lines.
    """

    channels: int = 1
    ranks: int = 1
    banks: int = 8
    rows: int = 1 << 16
    columns: int = 128

    @property
    def lines_per_bank(self) -> int:
        """Cache lines addressable in one bank."""
        return self.rows * self.columns

    @property
    def lines_per_rank(self) -> int:
        """Cache lines addressable in one rank."""
        return self.banks * self.lines_per_bank

    @property
    def total_lines(self) -> int:
        """Cache lines addressable in the whole memory."""
        return self.channels * self.ranks * self.lines_per_rank

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.total_lines * CACHE_LINE_BYTES


@dataclass(frozen=True)
class RefreshConfig:
    """Refresh-manager behaviour.

    ``stagger`` offsets each rank's refresh schedule by
    ``tREFI / ranks`` so REF commands do not collide across ranks, which is
    what real controllers do and what ROP's shared-SRAM "ranks take turns"
    design assumes.  ``postpone_max`` bounds Elastic-Refresh postponement
    (JEDEC allows a refresh debt of up to 8).
    """

    mode: RefreshMode = RefreshMode.AUTO_1X
    stagger: bool = True
    postpone_max: int = 8
    #: segments a PAUSING-mode refresh can be split into (pause points)
    pause_segments: int = 8
    #: SARP: subarrays per bank (a power of two that divides ``rows``);
    #: only the subarray under refresh blocks, the rest keep serving
    subarrays_per_bank: int = 8
    #: RAIDR: fraction of row groups in the (64 ms, 128 ms, 256 ms)
    #: retention bins.  Liu et al. measure ~1000 rows below 256 ms in a
    #: 32 GB system; the default keeps a conservative 5 % at 64 ms.
    raidr_bins: tuple = (0.05, 0.25, 0.70)
    #: RAIDR: row groups walked per retention window (the JEDEC grid
    #: refreshes 8192 row groups per 64 ms).  Small values make the bin
    #: structure visible in short validation runs.
    raidr_window_ticks: int = 8192

    @property
    def enabled(self) -> bool:
        """Whether any refresh is performed at all."""
        return self.mode is not RefreshMode.NONE


@dataclass(frozen=True)
class SchedulerConfig:
    """Memory-controller queueing and scheduling parameters."""

    read_queue_depth: int = 64
    write_queue_depth: int = 64
    #: start draining writes when the write queue reaches this occupancy…
    write_drain_high: int = 40
    #: …and stop once it falls back to this occupancy.
    write_drain_low: int = 16


@dataclass(frozen=True)
class RopConfig:
    """Parameters of the Refresh-Oriented Prefetching engine.

    Defaults follow Section V-A: the observational window equals one
    refresh period, training covers 50 refreshes, the hit-rate threshold is
    0.6 and the SRAM buffer holds 64 cache lines.
    """

    enabled: bool = False
    sram_lines: int = 64
    sram_latency: int = 3  #: SRAM access latency in controller cycles
    window_base: WindowBase = WindowBase.TREFI
    window_mult: float = 1.0
    training_refreshes: int = 50
    hit_rate_threshold: float = 0.6
    #: number of recent armed refreshes over which the hit rate is judged
    hit_rate_window: int = 16
    #: harm guard: if the fraction of prefetched lines that are ever hit
    #: (buffer utilization) stays below this over the outcome window, fall
    #: back to Training — reads arriving inside a lock are too rare for
    #: some workloads to make the in-lock hit rate informative, yet useless
    #: prefetches still burn bandwidth every tREFI.
    min_buffer_utilization: float = 0.25
    #: each fallback doubles the next training length (cap: 8×) so a
    #: persistently unpredictable workload converges to almost-never
    #: prefetching instead of oscillating.
    training_backoff_cap: int = 8
    #: use the probabilistic λ/β throttle; if False, always prefetch when
    #: the prediction table has any pattern (ablation knob).
    probabilistic: bool = True
    #: update the prediction table on reads only. The paper says "an
    #: access" updates the table, but prefetching only ever services
    #: *reads* (writes are absorbed by the write queue), and letting
    #: write-backs into the table steals Eq.-3 budget for lines that trail
    #: the read stream by a full LLC capacity and will never be read.
    #: Ablation knob: set False for the literal reads+writes reading.
    table_reads_only: bool = True
    #: drain pending requests to the to-be-refreshed rank before the lock.
    drain_before_refresh: bool = True
    #: bandwidth guard: cap the prefetch depth at ``depth_margin`` × the
    #: EMA of reads observed per refresh lock (min 8 lines), instead of
    #: always filling the whole buffer. In bandwidth-saturated
    #: multi-programmed runs, prefetched-but-unused lines steal bus slots
    #: 1:1 from demand; the paper's lighter per-rank traffic hid this.
    #: Set False for the literal fill-to-capacity behaviour (ablation).
    adaptive_depth: bool = True
    depth_margin: float = 4.0
    #: bus-pressure guard: above this data-bus utilization the channel is
    #: throughput-bound — a refresh lock barely costs anything (other
    #: ranks keep the bus busy) while prefetch fills tax the bottleneck
    #: directly, so arming is suppressed. Below it, locks stall cores and
    #: prefetching pays. Set to 1.0 to disable (ablation).
    bus_pressure_limit: float = 0.45
    seed: int = 0xC0FFEE

    def window_cycles(self, timings: "DramTimings") -> int:
        """Observational-window length in controller cycles."""
        base = timings.refi if self.window_base is WindowBase.TREFI else timings.rfc
        return max(1, int(round(base * self.window_mult)))


@dataclass(frozen=True)
class CoreConfig:
    """Trace-driven out-of-order core model parameters.

    The core retires at most one instruction per CPU cycle, overlaps up to
    ``mlp`` outstanding memory reads (an MSHR/reorder-buffer proxy) and
    never stalls on writes (drained through the memory controller's write
    queue).
    """

    cpu_clock_mult: int = 4  #: CPU cycles per memory-controller cycle
    mlp: int = 6
    base_cpi: float = 1.0


@dataclass(frozen=True)
class LlcConfig:
    """Last-level cache geometry (set-associative, LRU, write-back)."""

    size_bytes: int = 2 * 1024 * 1024
    ways: int = 16
    line_bytes: int = CACHE_LINE_BYTES

    @property
    def sets(self) -> int:
        """Number of sets implied by size / ways / line size."""
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(
                f"LLC geometry yields non-power-of-two set count {sets} "
                f"(size={self.size_bytes}, ways={self.ways})"
            )
        return sets


@dataclass(frozen=True)
class SystemConfig:
    """Aggregate configuration for one simulation run."""

    timings: "DramTimings" = field(default_factory=_default_timings)
    organization: MemoryOrganization = field(default_factory=MemoryOrganization)
    refresh: RefreshConfig = field(default_factory=RefreshConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    rop: RopConfig = field(default_factory=RopConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    llc: LlcConfig = field(default_factory=LlcConfig)
    address_map: AddressMapScheme = AddressMapScheme.BANK_LOCALITY

    def effective_timings(self) -> "DramTimings":
        """Timings adjusted for the configured refresh mode."""
        mode = self.refresh.mode
        if mode is RefreshMode.FGR_2X:
            return self.timings.fine_grained(2)
        if mode is RefreshMode.FGR_4X:
            return self.timings.fine_grained(4)
        if mode in (RefreshMode.PER_BANK, RefreshMode.DARP, RefreshMode.SARP):
            # Per-bank refresh (and the DARP/SARP schemes built on it):
            # one bank refreshed per REFpb command; the REFpb period is
            # tREFI / banks and tRFCpb is tRFC × 16/35 — exactly the
            # JEDEC 160 ns / 350 ns ratio for an 8 Gb device, expressed
            # as a ratio so density sweeps (which scale tRFC) scale the
            # per-bank lock too.
            return self.timings.with_refresh(
                refi=max(1, self.timings.refi // self.organization.banks),
                rfc=max(1, (self.timings.rfc * 16) // 35),
            )
        return self.timings

    # -- convenience constructors -------------------------------------------------

    def with_rop(self, **rop_kwargs) -> "SystemConfig":
        """Copy with ROP enabled (and optional RopConfig overrides)."""
        return replace(self, rop=replace(self.rop, enabled=True, **rop_kwargs))

    def with_refresh_mode(self, mode: RefreshMode) -> "SystemConfig":
        """Copy with a different refresh mode."""
        return replace(self, refresh=replace(self.refresh, mode=mode))

    def with_refresh_opts(self, **refresh_kwargs) -> "SystemConfig":
        """Copy with :class:`RefreshConfig` field overrides."""
        return replace(self, refresh=replace(self.refresh, **refresh_kwargs))

    def with_density(self, gbit: int) -> "SystemConfig":
        """Copy with tRFC scaled to a device density (4–32 Gb)."""
        return replace(self, timings=self.timings.for_density(gbit))

    def with_llc_size(self, size_bytes: int) -> "SystemConfig":
        """Copy with a different LLC capacity."""
        return replace(self, llc=replace(self.llc, size_bytes=size_bytes))

    @classmethod
    def single_core(cls, **kwargs) -> "SystemConfig":
        """Paper single-core setup: 1 rank, 2 MB LLC."""
        defaults = dict(
            organization=MemoryOrganization(ranks=1),
            llc=LlcConfig(size_bytes=2 * 1024 * 1024),
        )
        defaults.update(kwargs)
        return cls(**defaults)

    @classmethod
    def quad_core(cls, *, rank_partitioned: bool = True, **kwargs) -> "SystemConfig":
        """Paper 4-core setup: 4 ranks, 4 MB LLC, rank partitioning."""
        defaults = dict(
            organization=MemoryOrganization(ranks=4),
            llc=LlcConfig(size_bytes=4 * 1024 * 1024),
            address_map=(
                AddressMapScheme.RANK_PARTITIONED
                if rank_partitioned
                else AddressMapScheme.BANK_LOCALITY
            ),
        )
        defaults.update(kwargs)
        return cls(**defaults)
