"""Independent analytical golden models for the ROP simulator.

Each model is a small, closed-form (or replay-based) reimplementation of
one checkable sub-system, deliberately written against the *specification*
(the paper's equations and the JEDEC timing rules) rather than sharing
code with the simulator:

* **λ/β** — closed-form conditionals from the profiler's frozen (B, A)
  category counts (:func:`golden_lambda_beta`);
* **Eq. 3** — SRAM budget partitioning across banks and the f1:f2:f3
  intra-bank split (:func:`golden_bank_budgets`,
  :func:`golden_intra_bank_shares`), plus event-level bounds on every
  ``PREFETCH_PLAN`` / ``PREFETCH_FILL``;
* **refresh scheduling** — every tREFI grid tick accounted for, every
  lock exactly tRFC long, at most ``postpone_max`` postponed, and no
  data burst inside a lock window;
* **DDR timing legality** — tRCD / tRP (via tRC) / tCAS / tCCD / tRRD /
  tFAW / tWTR and data-bus exclusivity, replayed online over every
  committed access plan (:class:`TimingOracle`);
* **SRAM reference model** — a fully-associative, capacity-bounded line
  set mirrored from the buffer's state-change tap (:class:`SramOracle`);
* **causality** — every completed read has a non-negative latency and
  its column command falls between its arrival and its completion.

A :class:`ValidationSession` owns one of each, attaches them to a
:class:`~repro.dram.memory_system.MemorySystem` via
:meth:`ValidationSession.instrument`, and turns a finished
:class:`~repro.cpu.multicore.MulticoreResult` plus the collected trace
events into a list of structured :class:`~repro.validation.mismatch.Mismatch`
records.

Deliberate model bugs can be seeded through ``REPRO_FAULTS`` failpoints
(``{"golden:<check>": <skew>}`` — see
:func:`repro.harness.faults.golden_skew`); the skew shifts the *golden*
side so the differential gate must flag the disagreement — the
self-test behind the ``repro validate`` acceptance criterion.
"""

from __future__ import annotations

import bisect
from collections import deque

import numpy as np

from ..config import RefreshMode, SystemConfig
from ..core.prediction_table import FILL_UP_CONFIDENCE
from ..dram.refresh import RefreshManager
from ..telemetry import Category, Kind, TraceSink
from .mismatch import Mismatch, cap_mismatches

__all__ = [
    "golden_lambda_beta",
    "golden_bank_budgets",
    "golden_intra_bank_shares",
    "TimingOracle",
    "SramOracle",
    "ValidationSession",
    "validate_traces",
]


def _skew(check: str) -> float:
    """Armed golden-model skew for ``check`` (0 when no failpoint is set)."""
    from ..harness.faults import golden_skew

    value = golden_skew(check)
    return float(value) if value is not None else 0.0


# ------------------------------------------------------------ closed forms


def golden_lambda_beta(counts: tuple[int, int, int, int]) -> tuple[float, float]:
    """λ = P{A>0 | B>0} and β = P{A=0 | B=0} from the four category counts.

    ``counts`` is ``(E1, b_pos_a_zero, b_zero_a_pos, E2)`` — the order of
    :meth:`repro.core.profiler.CategoryCounts.as_tuple`. Undefined
    conditionals default to 1.0, matching the profiler's optimistic
    convention.
    """
    e1, b_pos_a_zero, b_zero_a_pos, e2 = counts
    b_pos = e1 + b_pos_a_zero
    b_zero = b_zero_a_pos + e2
    lam = e1 / b_pos if b_pos else 1.0
    beta = e2 / b_zero if b_zero else 1.0
    return lam, beta


def golden_bank_budgets(weights: list[int], capacity: int) -> list[int]:
    """Eq. 3: bank *i* gets ``⌊weight_i / Σweights × capacity⌋`` SRAM lines."""
    total = sum(weights)
    if total == 0:
        return [0] * len(weights)
    return [(w * capacity) // total for w in weights]


def golden_intra_bank_shares(freqs: tuple[int, int, int], budget: int) -> list[int]:
    """Eq. 3 intra-bank split of ``budget`` across the f1:f2:f3 patterns.

    Weak patterns (frequency below :data:`FILL_UP_CONFIDENCE`) are capped
    at ``f × FILL_UP_CONFIDENCE`` projected lines; a confident strongest
    pattern absorbs the integer-division remainder.
    """
    w = sum(freqs)
    if w == 0 or budget <= 0:
        return [0, 0, 0]
    shares = [
        (f * budget) // w
        if f >= FILL_UP_CONFIDENCE
        else min((f * budget) // w, f * FILL_UP_CONFIDENCE)
        for f in freqs
    ]
    strongest = max(range(3), key=lambda k: freqs[k])
    remainder = budget - sum(shares)
    if remainder > 0 and freqs[strongest] >= FILL_UP_CONFIDENCE:
        shares[strongest] += remainder
    return shares


# ------------------------------------------------------------ DDR timing


class TimingOracle:
    """Online DDR timing-legality replay over committed access plans.

    Attached as :attr:`MemoryController.issue_tap`; sees every committed
    :class:`~repro.dram.bank.AccessPlan` (demand *and* prefetch fetches)
    in commit order and re-derives the JEDEC constraints from its own
    per-bank/per-rank shadow state — none of the simulator's bank or rank
    objects are consulted.
    """

    def __init__(self, config: SystemConfig) -> None:
        t = config.effective_timings()
        self.t = t
        #: read CAS latency the golden side expects (failpoint-skewable)
        self.golden_cl = t.cl + int(_skew("ddr-timing"))
        self._last_col: dict[tuple[int, int, int], int] = {}
        self._last_bank_act: dict[tuple[int, int, int], int] = {}
        self._last_rank_act: dict[tuple[int, int], int] = {}
        self._act_window: dict[tuple[int, int], deque[int]] = {}
        self._wtr_until: dict[tuple[int, int], int] = {}
        self._bus_free: dict[int, int] = {}
        #: every committed data burst ``(ch, rank, bank, start, end, row)``
        #: — replayed post-hoc against the refresh lock windows (the row
        #: locates the burst's subarray for SARP exclusion)
        self.bursts: list[tuple[int, int, int, int, int, int]] = []
        self.mismatches: list[Mismatch] = []
        self.checked = 0

    def on_issue(self, coord, plan, is_write: bool) -> None:
        """Check one committed plan against the golden timing rules."""
        t = self.t
        ch, rk, bank = coord.channel, coord.rank, coord.bank
        key = (ch, rk)
        bkey = (ch, rk, bank)
        self.checked += 1

        def bad(rule: str, expected, actual) -> None:
            self.mismatches.append(
                Mismatch(
                    check="ddr-timing",
                    site=f"ch{ch}.rank{rk}.bank{bank}",
                    expected=expected,
                    actual=actual,
                    cycle=plan.col_cycle,
                    detail=rule,
                )
            )

        cas = t.cwl if is_write else self.golden_cl
        if plan.data_start != plan.col_cycle + cas:
            bad("tCAS: data_start == col + CAS", plan.col_cycle + cas, plan.data_start)
        if plan.data_end != plan.data_start + t.burst:
            bad("burst: data_end == data_start + BL", plan.data_start + t.burst, plan.data_end)
        last_col = self._last_col.get(bkey)
        if last_col is not None and plan.col_cycle < last_col + t.ccd:
            bad("tCCD: column-command spacing", f">= {last_col + t.ccd}", plan.col_cycle)
        self._last_col[bkey] = plan.col_cycle
        if plan.act_cycle >= 0:
            act = plan.act_cycle
            if plan.col_cycle < act + t.rcd:
                bad("tRCD: ACT-to-column delay", f">= {act + t.rcd}", plan.col_cycle)
            prev_bank = self._last_bank_act.get(bkey)
            if prev_bank is not None and act < prev_bank + t.rc:
                bad("tRC: same-bank ACT-to-ACT", f">= {prev_bank + t.rc}", act)
            prev_rank = self._last_rank_act.get(key)
            if prev_rank is not None and act < prev_rank + t.rrd:
                bad("tRRD: cross-bank ACT-to-ACT", f">= {prev_rank + t.rrd}", act)
            window = self._act_window.setdefault(key, deque(maxlen=4))
            if len(window) == 4 and act < window[0] + t.faw:
                bad("tFAW: four-activate window", f">= {window[0] + t.faw}", act)
            window.append(act)
            self._last_bank_act[bkey] = act
            self._last_rank_act[key] = act
        if is_write:
            self._wtr_until[key] = max(
                self._wtr_until.get(key, 0), plan.col_cycle + t.cwl + t.burst + t.wtr
            )
        else:
            wtr = self._wtr_until.get(key, 0)
            if plan.col_cycle < wtr:
                bad("tWTR: write-to-read turnaround", f">= {wtr}", plan.col_cycle)
        bus = self._bus_free.get(ch, 0)
        if plan.data_start < bus:
            bad("bus: one burst at a time per channel", f">= {bus}", plan.data_start)
        self._bus_free[ch] = plan.data_end
        self.bursts.append((ch, rk, bank, plan.data_start, plan.data_end, coord.row))


# ------------------------------------------------------------ SRAM model


class SramOracle:
    """Fully-associative reference model of the ROP SRAM buffer.

    Mirrors every buffer state change through :attr:`SramBuffer.tap`
    (``fill`` / ``hit`` / ``invalidate`` / ``flush``) into an independent
    capacity-bounded line set, recomputing the dedup-and-truncate fill
    semantics and re-counting fills/hits/invalidations from scratch.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lines: set[int] = set()
        self.fills = 0
        self.hits = 0
        self.invalidations = 0
        self.mismatches: list[Mismatch] = []

    def on_event(self, op: str, cycle: int, *payload) -> None:
        if op == "fill":
            owner, raw, stored = payload
            golden: set[int] = set()
            for line in raw:
                if len(golden) >= self.capacity:
                    break
                golden.add(line)
            if len(golden) != stored:
                self.mismatches.append(
                    Mismatch(
                        check="sram-model",
                        site=f"ch{owner[0]}.rank{owner[1]}",
                        expected=len(golden),
                        actual=stored,
                        cycle=cycle,
                        detail=f"fill of {len(raw)} requested lines (dedup+capacity)",
                    )
                )
            self._lines = golden
            self.fills += len(golden)
        elif op == "hit":
            (line,) = payload
            if line not in self._lines:
                self.mismatches.append(
                    Mismatch(
                        check="sram-model",
                        site="buffer",
                        expected="line resident in reference model",
                        actual=f"hit on absent line {line}",
                        cycle=cycle,
                        detail="consume",
                    )
                )
            self.hits += 1
        elif op == "invalidate":
            (line,) = payload
            if line not in self._lines:
                self.mismatches.append(
                    Mismatch(
                        check="sram-model",
                        site="buffer",
                        expected="line resident in reference model",
                        actual=f"invalidate of absent line {line}",
                        cycle=cycle,
                        detail="invalidate",
                    )
                )
            self._lines.discard(line)
            self.invalidations += 1
        elif op == "flush":
            self._lines.clear()

    def finish(self, rop_summary: dict | None) -> list[Mismatch]:
        """Compare re-counted totals against the engine's summary."""
        if rop_summary is None:
            return []
        skew = int(_skew("sram-model"))
        ms: list[Mismatch] = []
        for name, golden in (
            ("buffer_fills", self.fills),
            ("buffer_hits", self.hits + skew),
            ("buffer_invalidations", self.invalidations),
        ):
            actual = rop_summary.get(name)
            if actual != golden:
                ms.append(
                    Mismatch(
                        check="sram-model",
                        site=name,
                        expected=golden,
                        actual=actual,
                        detail="reference-model recount vs engine summary",
                    )
                )
        return ms


# ------------------------------------------------------------ the session


class ValidationSession:
    """One validated run: sink + oracles + post-hoc golden checks.

    Usage::

        session = ValidationSession(config)
        result = run_cores(traces, config, sink=session.sink,
                           instrument=session.instrument)
        mismatches = session.finish(result)
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.t = config.effective_timings()
        #: all-category grow-policy sink: the golden checks must see every
        #: event, so wrap/drop overflow policies are not acceptable here
        self.sink = TraceSink(capacity=1 << 14, policy="grow")
        self.timing = TimingOracle(config)
        self.sram = SramOracle(config.rop.sram_lines) if config.rop.enabled else None
        self._memory = None

    def instrument(self, memory) -> None:
        """Attach the oracles' taps (pass as ``run_cores(instrument=...)``)."""
        self._memory = memory
        memory.controller.issue_tap = self.timing.on_issue
        if memory.rop is not None and self.sram is not None:
            memory.rop.buffer.tap = self.sram.on_event

    def finish(self, result) -> list[Mismatch]:
        """Run every post-hoc check; returns all collected mismatches."""
        snap = self.sink.snapshot()
        windows = self._refresh_windows(snap)
        out: list[Mismatch] = []
        out += cap_mismatches(self.timing.mismatches, "ddr-timing")
        out += self._check_refresh_schedule(result, windows, snap)
        out += self._check_lock_exclusion(windows)
        mode = self.config.refresh.mode
        if mode is RefreshMode.DARP:
            out += self._check_darp_schedule(result, windows, snap)
        elif mode is RefreshMode.RAIDR:
            out += self._check_raidr_bins(result, windows, snap)
        out += self._check_counters(result, snap)
        out += self._check_causality(snap)
        if self.config.rop.enabled:
            out += self._check_lambda_beta(result)
            out += self._check_eq3_events(snap)
            if self.sram is not None:
                out += cap_mismatches(list(self.sram.mismatches), "sram-model")
                out += self.sram.finish(result.rop_summary)
        return out

    # -- individual checks --------------------------------------------------

    def _refresh_manager(self) -> RefreshManager:
        """The live refresh manager, or a fresh replay twin of it."""
        if self._memory is not None:
            return self._memory.controller.refresh_mgr
        return RefreshManager(self.config.refresh, self.t, self.config.organization)

    def _last_arrivals(self, snap: dict) -> dict[tuple[int, int], int]:
        """Per-rank demand horizon: the event loop is provably live (ticking
        the refresh grid) until the last request arrival on that rank."""
        arr = (snap["cat"] == int(Category.REQUEST)) & (
            (snap["kind"] == int(Kind.READ_ARRIVAL))
            | (snap["kind"] == int(Kind.WRITE_ARRIVAL))
        )
        last: dict[tuple[int, int], int] = {}
        for ach, ark, acy in zip(
            snap["channel"][arr], snap["rank"][arr], snap["cycle"][arr]
        ):
            key = (int(ach), int(ark))
            last[key] = max(last.get(key, 0), int(acy))
        return last

    def _check_darp_schedule(self, result, windows, snap) -> list[Mismatch]:
        """DARP per-bank debt conservation against the round-robin accrual.

        The policy accrues one owed refresh per grid tick to the
        round-robin due bank (tick ``j`` → bank ``j mod nbanks``); every
        executed window repays one. So per bank: executions can never
        exceed end-of-run accruals, and can lag live accruals (ticks
        before the last demand arrival) by at most the postpone budget —
        out-of-order, piggybacked or not.
        """
        skew = int(_skew("darp-schedule"))
        nbanks = self.config.organization.banks
        budget = self.config.refresh.postpone_max
        mgr = self._refresh_manager()
        last_arrival = self._last_arrivals(snap)

        def accrued(ticks: int, bank: int) -> int:
            return max(0, (ticks - bank + nbanks - 1) // nbanks)

        ms: list[Mismatch] = []
        for (ch, rk), ws in sorted(windows.items()):
            executed = [0] * nbanks
            for _s, _e, bank in ws:
                if 0 <= bank < nbanks:
                    executed[bank] += 1
            ticks_end = mgr.grid_ticks(ch, rk, int(result.stats.end_cycle))
            horizon = last_arrival.get((ch, rk))
            ticks_live = mgr.grid_ticks(ch, rk, horizon) if horizon is not None else 0
            for bank in range(nbanks):
                upper = accrued(ticks_end, bank) + 2 - skew
                floor = accrued(ticks_live, bank) - budget - 1 + skew
                if executed[bank] > upper:
                    ms.append(
                        Mismatch(
                            check="darp-schedule",
                            site=f"ch{ch}.rank{rk}.bank{bank}",
                            expected=f"<= {upper} (round-robin accruals)",
                            actual=executed[bank],
                            detail="more per-bank refreshes than accrued debt",
                        )
                    )
                if executed[bank] < floor:
                    ms.append(
                        Mismatch(
                            check="darp-schedule",
                            site=f"ch{ch}.rank{rk}.bank{bank}",
                            expected=f">= {floor} (accruals minus postpone budget)",
                            actual=executed[bank],
                            detail="per-bank refresh starvation beyond DARP budget",
                        )
                    )
        return cap_mismatches(ms, "darp-schedule")

    def _check_raidr_bins(self, result, windows, snap) -> list[Mismatch]:
        """RAIDR bin decimation replayed closed-form from the config.

        The fire/skip decision is a pure function of the tick index
        (64 ms slots every window, 128 ms slots every other, 256 ms every
        fourth), so the executed-window count per rank must match the
        replayed count over the grid ticks the run provably processed.
        """
        skew = int(_skew("raidr-bins"))
        mgr = self._refresh_manager()
        fires = mgr.policy.fires
        last_arrival = self._last_arrivals(snap)

        def fired(ticks: int) -> int:
            return sum(1 for i in range(max(0, ticks)) if fires(i))

        ms: list[Mismatch] = []
        for (ch, rk), ws in sorted(windows.items()):
            site = f"ch{ch}.rank{rk}"
            ticks_end = mgr.grid_ticks(ch, rk, int(result.stats.end_cycle))
            upper = fired(ticks_end + 1) + 1 - skew
            if len(ws) > upper:
                ms.append(
                    Mismatch(
                        check="raidr-bins",
                        site=site,
                        expected=f"<= {upper} (binned grid replay)",
                        actual=len(ws),
                        detail="more refreshes than the retention bins allow",
                    )
                )
            horizon = last_arrival.get((ch, rk))
            if horizon is not None:
                floor = fired(mgr.grid_ticks(ch, rk, horizon)) - 1 + skew
                if len(ws) < floor:
                    ms.append(
                        Mismatch(
                            check="raidr-bins",
                            site=site,
                            expected=f">= {floor} (binned grid replay)",
                            actual=len(ws),
                            detail="retention bins under-refreshed",
                        )
                    )
        return cap_mismatches(ms, "raidr-bins")

    def _refresh_windows(
        self, snap: dict
    ) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
        sel = (snap["cat"] == int(Category.REFRESH)) & (
            snap["kind"] == int(Kind.REFRESH_WINDOW)
        )
        windows: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for ch, rk, s, e, b in zip(
            snap["channel"][sel],
            snap["rank"][sel],
            snap["cycle"][sel],
            snap["a"][sel],
            snap["b"][sel],
        ):
            windows.setdefault((int(ch), int(rk)), []).append((int(s), int(e), int(b)))
        return windows

    def _check_refresh_schedule(self, result, windows, snap) -> list[Mismatch]:
        mode = self.config.refresh.mode
        skew = int(_skew("refresh-schedule"))
        golden_rfc = self.t.rfc + skew
        ms: list[Mismatch] = []
        if mode is RefreshMode.NONE:
            n = sum(len(ws) for ws in windows.values())
            if n or result.stats.refreshes:
                ms.append(
                    Mismatch(
                        check="refresh-schedule",
                        site="all",
                        expected=0,
                        actual=max(n, result.stats.refreshes),
                        detail="refreshes in NONE mode",
                    )
                )
            return ms
        pausing = mode is RefreshMode.PAUSING
        mgr = self._refresh_manager()
        period = mgr.period
        elastic = mode is RefreshMode.ELASTIC
        # DARP postpones per bank and RAIDR decimates the grid on purpose:
        # their starvation/adjacency shapes are policy-specific and covered
        # by the dedicated darp-schedule / raidr-bins models below — only
        # the generic upper bound and lock-shape rules apply here
        skip_floor = mode in (RefreshMode.DARP, RefreshMode.RAIDR)
        count_slack = self.config.refresh.postpone_max + 2 if elastic else 2
        gap_bound = (self.config.refresh.postpone_max + 2) * period if elastic else 2 * period
        last_arrival = self._last_arrivals(snap)
        for (ch, rk), ws in sorted(windows.items()):
            site = f"ch{ch}.rank{rk}"
            # every lock is exactly tRFC long (PAUSING splits it into
            # segments, each no longer than the remaining tRFC)
            for start, end, _bank in ws:
                length = end - start
                if pausing:
                    if not 0 < length <= golden_rfc:
                        ms.append(
                            Mismatch(
                                check="refresh-schedule",
                                site=site,
                                expected=f"segment length in (0, {golden_rfc}]",
                                actual=length,
                                cycle=start,
                                detail="PAUSING segment bound",
                            )
                        )
                elif length != golden_rfc:
                    ms.append(
                        Mismatch(
                            check="refresh-schedule",
                            site=site,
                            expected=golden_rfc,
                            actual=length,
                            cycle=start,
                            detail="lock length == tRFC",
                        )
                    )
            # same-scope windows must not overlap (per-bank locks only
            # exclude within their own bank)
            by_bank: dict[int, list[tuple[int, int]]] = {}
            for start, end, bank in ws:
                by_bank.setdefault(bank, []).append((start, end))
            for bank, group in by_bank.items():
                group.sort()
                for (s1, e1), (s2, e2) in zip(group, group[1:]):
                    if s2 < e1:
                        ms.append(
                            Mismatch(
                                check="refresh-schedule",
                                site=site if bank < 0 else f"{site}.bank{bank}",
                                expected=f"next lock >= {e1}",
                                actual=f"[{s2},{e2})",
                                cycle=s2,
                                detail="overlapping refresh locks",
                            )
                        )
            if pausing:
                continue  # segments break the one-window-per-tick accounting
            # executed-refresh count vs the closed-form tREFI grid.  The
            # bound is asymmetric: ``end_cycle`` can run several periods
            # past the last processed grid tick (the event loop stops
            # housekeeping once demand drains, while a quiesce- or
            # prefetch-delayed final refresh stretches the run), so the
            # end-of-run grid is only an *upper* bound on executions.
            ticks = mgr.grid_ticks(ch, rk, int(result.stats.end_cycle))
            if len(ws) > ticks + count_slack:
                ms.append(
                    Mismatch(
                        check="refresh-schedule",
                        site=site,
                        expected=f"<= {ticks} + {count_slack} (tREFI grid)",
                        actual=len(ws),
                        detail="more executed refreshes than golden grid ticks",
                    )
                )
            # the lower bound instead uses the demand horizon: every grid
            # tick before the last arrival provably fired, and each fired
            # tick executes (or, if elastic, postpones at most
            # ``postpone_max`` times before executing back-to-back)
            horizon = last_arrival.get((ch, rk))
            if horizon is not None and not skip_floor:
                live = mgr.grid_ticks(ch, rk, horizon)
                floor = live - (self.config.refresh.postpone_max if elastic else 0) - 1
                if len(ws) < floor:
                    ms.append(
                        Mismatch(
                            check="refresh-schedule",
                            site=site,
                            expected=f">= {floor} (grid ticks before last arrival)",
                            actual=len(ws),
                            detail="refresh starvation vs golden grid",
                        )
                    )
            # no silent starvation: consecutive starts stay within the
            # JEDEC postponement allowance — unless the late start is
            # *activity-pinned*: ``start_refresh`` begins at the rank's
            # quiesce point, so a refresh that waited out queued demand
            # legitimately starts right as the last burst's row cycle
            # closes.  Idle-period skips get no such excuse, and
            # systematic starvation still trips the grid-count check.
            quiesce_lag = (
                max(
                    self.t.ras + self.t.rp - self.t.rcd - self.t.cl - self.t.burst,
                    self.t.wr + self.t.rp,
                )
                + 1
            )
            rank_burst_ends = sorted(
                de
                for bch, brk, _bank, _ds, de, _row in self.timing.bursts
                if (bch, brk) == (ch, rk)
            )

            def pinned(start: int) -> bool:
                i = bisect.bisect_right(rank_burst_ends, start) - 1
                return i >= 0 and rank_burst_ends[i] >= start - quiesce_lag

            # PER_BANK interleaves N independent per-bank REFpb grids
            # (each bank refreshed every period × banks): one bank's
            # legitimately pinned (demand-delayed) refresh leaves a hole
            # between *other* banks' on-time starts at the rank level, so
            # the adjacency check must follow each bank's own series —
            # found by trace fuzzing, like the two PR-5 over-strict rules.
            if skip_floor:
                series = []  # DARP/RAIDR gaps are checked by their own models
            elif mode in (RefreshMode.PER_BANK, RefreshMode.SARP):
                # SARP windows carry the encoded (bank*S + sub) key, so each
                # series is one subarray's own REFpb grid: period × banks × S
                by_start_bank: dict[int, list[int]] = {}
                for s, _, bank in ws:
                    by_start_bank.setdefault(bank, []).append(s)
                scope = self.config.organization.banks
                if mode is RefreshMode.SARP:
                    scope *= max(1, self.config.refresh.subarrays_per_bank)
                series = [
                    (sorted(g), gap_bound * scope)
                    for g in by_start_bank.values()
                ]
            else:
                series = [(sorted(s for s, _, _ in ws), gap_bound)]
            for starts, bound in series:
                for a, b in zip(starts, starts[1:]):
                    if b - a > bound and not pinned(b):
                        ms.append(
                            Mismatch(
                                check="refresh-schedule",
                                site=site,
                                expected=f"gap <= {bound}",
                                actual=b - a,
                                cycle=a,
                                detail="consecutive refresh starts",
                            )
                        )
        return cap_mismatches(ms, "refresh-schedule")

    def _check_lock_exclusion(self, windows) -> list[Mismatch]:
        """No committed data burst may land inside its bank's lock window.

        SARP windows lock a ``(bank, subarray)`` pair (the telemetry ``b``
        field carries ``bank*S + sub``): a burst only violates the lock
        when its *row's* subarray matches — bursts to the bank's other
        subarrays inside the window are exactly the parallelism SARP
        exists to provide, and are reported under the dedicated
        ``sarp-exclusion`` check when they go wrong.
        """
        sarp = self.config.refresh.mode is RefreshMode.SARP
        subarrays = max(1, self.config.refresh.subarrays_per_bank)
        sub_rows = max(1, self.config.organization.rows // subarrays)
        # sarp-exclusion failpoint: pretend every subarray lock freezes the
        # whole bank, so legal other-subarray bursts trip the check
        sarp_all_subs = sarp and _skew("sarp-exclusion") != 0
        rank_locks: dict[tuple[int, int], list[tuple[int, int]]] = {}
        bank_locks: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
        sub_locks: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
        for (ch, rk), ws in windows.items():
            for s, e, b in ws:
                if b < 0:
                    rank_locks.setdefault((ch, rk), []).append((s, e))
                elif sarp:
                    bank, sub = divmod(b, subarrays)
                    if sarp_all_subs:
                        bank_locks.setdefault((ch, rk, bank), []).append((s, e))
                    else:
                        sub_locks.setdefault((ch, rk, bank, sub), []).append((s, e))
                else:
                    bank_locks.setdefault((ch, rk, b), []).append((s, e))
        for table in (rank_locks, bank_locks, sub_locks):
            for intervals in table.values():
                intervals.sort()

        def overlapping(intervals, ds: int, de: int):
            if not intervals:
                return None
            idx = bisect.bisect_left(intervals, (de, de))
            if idx > 0:
                s, e = intervals[idx - 1]
                if s < de and e > ds:
                    return (s, e)
            return None

        ms: list[Mismatch] = []
        for ch, rk, bank, ds, de, row in self.timing.bursts:
            hit = overlapping(rank_locks.get((ch, rk), ()), ds, de) or overlapping(
                bank_locks.get((ch, rk, bank), ()), ds, de
            )
            check = "refresh-schedule"
            if hit is None and sarp:
                hit = overlapping(
                    sub_locks.get((ch, rk, bank, row // sub_rows), ()), ds, de
                )
                check = "sarp-exclusion"
            elif sarp:
                check = "sarp-exclusion"
            if hit:
                ms.append(
                    Mismatch(
                        check=check,
                        site=f"ch{ch}.rank{rk}.bank{bank}",
                        expected="no data burst inside a refresh lock",
                        actual=f"burst [{ds},{de}) in lock [{hit[0]},{hit[1]})",
                        cycle=ds,
                        detail="subarray lock exclusion" if sarp else "lock exclusion",
                    )
                )
        return cap_mismatches(ms, "sarp-exclusion" if sarp else "refresh-schedule")

    def _check_counters(self, result, snap: dict) -> list[Mismatch]:
        """Scalar stats must equal independent recounts of the event stream."""
        skew = int(_skew("counters"))
        stats = result.stats
        kinds = snap["kind"]

        def count(kind: Kind) -> int:
            return int(np.count_nonzero(kinds == int(kind)))

        pairs = [
            ("reads", count(Kind.READ_ARRIVAL) + skew, stats.reads),
            ("writes", count(Kind.WRITE_ARRIVAL), stats.writes),
            ("reads_completed", count(Kind.COMPLETE), stats.reads_completed),
            (
                "sram_hits",
                count(Kind.SRAM_SERVICE),
                stats.sram_hits_in_lock + stats.sram_hits_out_of_lock,
            ),
            ("reads == reads_completed", stats.reads + skew, stats.reads_completed),
        ]
        if self.config.refresh.mode is not RefreshMode.PAUSING:
            # PAUSING emits one window per segment but counts one refresh
            pairs.append(("refreshes", count(Kind.REFRESH_WINDOW), stats.refreshes))
        ms: list[Mismatch] = []
        for name, golden, actual in pairs:
            if golden != actual:
                ms.append(
                    Mismatch(
                        check="counters",
                        site=name,
                        expected=golden,
                        actual=actual,
                        detail="event-stream recount vs scalar stat",
                    )
                )
        return ms

    def _check_causality(self, snap: dict) -> list[Mismatch]:
        """No read completes before it arrives or issues outside its life.

        ``COMPLETE`` carries the read's latency, so ``complete − latency``
        is its arrival; a DRAM-served read's ``ISSUE`` (its column
        command) must lie in ``[arrival, complete]``. SRAM-served reads
        emit no ``ISSUE`` and are checked for latency alone.
        """
        skew = int(_skew("causality"))
        kinds = snap["kind"]
        iss = kinds == int(Kind.ISSUE)
        done = kinds == int(Kind.COMPLETE)
        rids, complete, latency = snap["a"][done], snap["cycle"][done], snap["b"][done]
        channels, ranks = snap["channel"][done], snap["rank"][done]
        # rid → issue cycle (-1: never issued to DRAM)
        issue_at = np.full(int(snap["a"][iss | done].max(initial=-1)) + 1, -1)
        issue_at[snap["a"][iss]] = snap["cycle"][iss]
        issue = issue_at[rids]
        arrival = complete - latency + skew
        bad = (latency < 0) | ((issue >= 0) & ((issue < arrival) | (issue > complete)))
        ms = [
            Mismatch(
                check="causality",
                site=f"ch{int(channels[i])}.rank{int(ranks[i])}",
                expected=(
                    "latency >= 0"
                    if latency[i] < 0
                    else f"issue in [{int(arrival[i])},{int(complete[i])}]"
                ),
                actual=f"latency {int(latency[i])}, issue {int(issue[i])}",
                cycle=int(complete[i]),
                detail=f"read rid {int(rids[i])}",
            )
            for i in np.flatnonzero(bad)
        ]
        return cap_mismatches(ms, "causality")

    def _check_lambda_beta(self, result) -> list[Mismatch]:
        """Frozen λ/β must equal the closed form over the frozen counts."""
        summary = result.rop_summary
        if summary is None:
            return []
        skew = _skew("lambda-beta")
        counts = summary.get("category_counts", {})
        lam_beta = summary.get("lam_beta", {})
        ms: list[Mismatch] = []
        for site, tup in sorted(counts.items()):
            pair = lam_beta.get(site)
            if (tup is None) != (pair is None):
                ms.append(
                    Mismatch(
                        check="lambda-beta",
                        site=site,
                        expected="counts and λ/β frozen together",
                        actual=f"counts={tup}, lam_beta={pair}",
                        detail="freeze consistency",
                    )
                )
                continue
            if tup is None:
                continue
            glam, gbeta = golden_lambda_beta(tuple(tup))
            glam += skew
            lam, beta = pair
            if abs(glam - lam) > 1e-9:
                ms.append(
                    Mismatch(
                        check="lambda-beta",
                        site=site,
                        expected=f"λ={glam:.6f}",
                        actual=f"λ={lam:.6f}",
                        detail=f"closed form over counts {tuple(tup)}",
                    )
                )
            if abs(gbeta - beta) > 1e-9:
                ms.append(
                    Mismatch(
                        check="lambda-beta",
                        site=site,
                        expected=f"β={gbeta:.6f}",
                        actual=f"β={beta:.6f}",
                        detail=f"closed form over counts {tuple(tup)}",
                    )
                )
        return ms

    def _check_eq3_events(self, snap: dict) -> list[Mismatch]:
        """Every prefetch plan/fill must respect the Eq. 3 SRAM budget."""
        cap = self.config.rop.sram_lines - int(_skew("eq3-budget"))
        ms: list[Mismatch] = []
        sel = snap["kind"] == int(Kind.PREFETCH_PLAN)
        for cycle, ch, rk, a in zip(
            snap["cycle"][sel], snap["channel"][sel], snap["rank"][sel], snap["a"][sel]
        ):
            if not 1 <= int(a) <= cap:
                ms.append(
                    Mismatch(
                        check="eq3-budget",
                        site=f"ch{int(ch)}.rank{int(rk)}",
                        expected=f"1..{cap} candidate lines",
                        actual=int(a),
                        cycle=int(cycle),
                        detail="PREFETCH_PLAN within SRAM budget",
                    )
                )
        sel = snap["kind"] == int(Kind.PREFETCH_FILL)
        for cycle, ch, rk, a, b in zip(
            snap["cycle"][sel],
            snap["channel"][sel],
            snap["rank"][sel],
            snap["a"][sel],
            snap["b"][sel],
        ):
            bound = min(int(b), cap)
            if not 0 <= int(a) <= bound:
                ms.append(
                    Mismatch(
                        check="eq3-budget",
                        site=f"ch{int(ch)}.rank{int(rk)}",
                        expected=f"0..{bound} stored lines",
                        actual=int(a),
                        cycle=int(cycle),
                        detail="PREFETCH_FILL within request and budget",
                    )
                )
        return cap_mismatches(ms, "eq3-budget")


def validate_traces(
    traces, config: SystemConfig, *, place: bool = True, max_cycles: int | None = None
):
    """Run ``traces`` under full golden-model validation.

    Returns ``(result, mismatches)`` — the fuzz suite's workhorse.
    """
    from ..cpu.multicore import run_cores

    session = ValidationSession(config)
    result = run_cores(
        traces,
        config,
        place=place,
        max_cycles=max_cycles,
        sink=session.sink,
        instrument=session.instrument,
    )
    return result, session.finish(result)
