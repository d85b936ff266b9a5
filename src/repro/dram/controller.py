"""Event-driven DDR4 memory controller.

The controller owns per-channel read/write queues, an FR-FCFS scheduler
with batched write draining, the refresh schedule, and — when ROP is
enabled — the hooks that let the prefetch engine observe traffic, fill the
SRAM buffer right before each refresh, and service reads while a rank is
frozen.

ROP hook protocol (duck-typed; implemented by
:class:`repro.core.rop_engine.RopEngine`):

=======================================  =====================================
hook                                     called when
=======================================  =====================================
``on_request(req, cycle)``               every demand request is submitted
``invalidate_line(line, cycle)``         a demand write is submitted
``sram_lookup(line) -> bool``            scheduler probes the SRAM buffer
``on_sram_hit(req, cycle, in_lock)``     a read is serviced from the buffer
``on_read_arrival_in_lock(ch, rk, cy)``  a read arrives at a frozen rank
``plan_prefetch(ch, rk, cycle)``         a refresh is about to start; returns
                                         the list of line addresses to fetch
``on_prefetch_fill(ch, rk, lines, cy)``  prefetched lines land in the buffer
``on_refresh_executed(ch, rk, s, e)``    a refresh lock window [s, e) begins
=======================================  =====================================
"""

from __future__ import annotations

from typing import Callable

from ..config import RefreshMode, SystemConfig
from ..events import EventQueue
from ..stats.collectors import ControllerStats
from ..telemetry import NULL_SINK, Category, Kind
from .address_mapping import AddressMapper
from .bank import AccessPlan
from .rank import Rank
from .refresh import RefreshManager
from .request import Coord, ReqKind, Request, ServiceKind

__all__ = ["MemoryController"]

#: bound on demand requests drained ahead of one refresh (keeps the
#: refresh-delay within the JEDEC postponement allowance)
_DRAIN_CAP = 16


class _Channel:
    """Per-channel hardware state: ranks plus the shared data bus."""

    __slots__ = ("ranks", "bus_free_at", "busy_cycles")

    def __init__(self, ranks: int, banks: int) -> None:
        self.ranks = [Rank(banks) for _ in range(ranks)]
        self.bus_free_at = 0
        #: cumulative data-bus occupancy (burst cycles), for pressure stats
        self.busy_cycles = 0


class MemoryController:
    """Transaction-level DDR4 controller with optional ROP support."""

    def __init__(
        self,
        config: SystemConfig,
        events: EventQueue,
        rop=None,
        sink=None,
    ) -> None:
        self.cfg = config
        self.t = config.effective_timings()
        self.events = events
        self.rop = rop
        self.sink = sink if sink is not None else NULL_SINK
        # per-category capture flags, cached so the disabled hot path pays
        # one local boolean test per potential event
        self._t_req = self.sink.wants(Category.REQUEST)
        self._t_svc = self.sink.wants(Category.SERVICE)
        self._t_ref = self.sink.wants(Category.REFRESH)
        org = config.organization
        self.mapper = AddressMapper(org, config.address_map)
        self.refresh_mgr = RefreshManager(config.refresh, self.t, org, sink=self.sink)
        self.channels = [_Channel(org.ranks, org.banks) for _ in range(org.channels)]
        mode = config.refresh.mode
        self._darp = mode is RefreshMode.DARP
        self._sarp = mode is RefreshMode.SARP
        self._subarrays = max(1, config.refresh.subarrays_per_bank)
        self._sub_rows = 0
        if self._sarp:
            self._sub_rows = max(1, org.rows // self._subarrays)
            for ch in self.channels:
                for rank in ch.ranks:
                    rank.sub_rows = self._sub_rows
        self.read_q: list[list[Request]] = [[] for _ in range(org.channels)]
        self.write_q: list[list[Request]] = [[] for _ in range(org.channels)]
        self._drain = [False] * org.channels
        self._retry_at = [-1] * org.channels
        self.stats = ControllerStats()
        self._rid = 0
        #: validation tap: ``issue_tap(coord, plan, is_write)`` observes
        #: every committed DRAM access plan (demand and prefetch) so an
        #: external timing oracle (:mod:`repro.validation`) can replay the
        #: DDR legality rules; None = off
        self.issue_tap = None
        if self.refresh_mgr.enabled:
            for ch in range(org.channels):
                for rk in range(org.ranks):
                    self.events.push(
                        self.refresh_mgr.first_tick(ch, rk),
                        self._make_refresh_tick(ch, rk),
                        housekeeping=True,
                    )

    # ------------------------------------------------------------------ submit

    def submit(
        self,
        kind: ReqKind,
        line: int,
        cycle: int,
        core_id: int = 0,
        on_complete: Callable[[int], None] | None = None,
        coord: Coord | None = None,
    ) -> Request:
        """Enqueue one demand request at ``cycle`` and return it.

        ``coord`` lets a caller that pre-decoded the line (the CPU cores
        vector-decode whole traces up front) skip the per-request
        shift/mask chain; it must equal ``self.mapper.decode(line)``.
        """
        if coord is None:
            coord = self.mapper.decode(line)
        req = Request(self._rid, kind, line, coord, cycle, core_id, on_complete)
        self._rid += 1
        ch = self.channels[coord.channel]
        rank = ch.ranks[coord.rank]
        if kind is ReqKind.READ:
            self.stats.reads += 1
            self.read_q[coord.channel].append(req)
            if rank.lock_start <= cycle < rank.locked_until:
                self.stats.reads_arriving_in_lock += 1
                if self.rop is not None:
                    self.rop.on_read_arrival_in_lock(coord.channel, coord.rank, cycle)
        else:
            self.stats.writes += 1
            self.write_q[coord.channel].append(req)
            if self.rop is not None:
                self.rop.invalidate_line(line, cycle)
        if self._t_req:
            self.sink.emit(
                Category.REQUEST,
                Kind.READ_ARRIVAL if kind is ReqKind.READ else Kind.WRITE_ARRIVAL,
                cycle,
                coord.channel,
                coord.rank,
                a=line,
            )
        if self.rop is not None:
            self.rop.on_request(req, cycle)
        self._try_issue(coord.channel, cycle)
        return req

    # ------------------------------------------------------------------ scheduling

    def _try_issue(self, ci: int, cycle: int) -> None:
        """Issue every request that can start now; schedule a retry otherwise.

        The hottest loop in the simulator: bound methods and attributes
        are localized once per call, and the SRAM sweep is skipped while
        the prefetch buffer is empty (every lookup would miss).
        """
        ch = self.channels[ci]
        rq, wq = self.read_q[ci], self.write_q[ci]
        sched = self.cfg.scheduler
        drain_high, drain_low = sched.write_drain_high, sched.write_drain_low
        drain = self._drain
        rop = self.rop
        select, issue = self._select, self._issue
        progress = True
        while progress:
            progress = False
            # SRAM service sweep: any queued read present in the prefetch
            # buffer completes from SRAM, frozen rank or not.  The sweep
            # inlines ``rop.sram_lookup``: training state cannot change
            # within a sweep and an empty buffer cannot hit, so both are
            # checked once and membership is tested against the live line
            # set directly — bit-identical, one call per hit instead of
            # one per queued read.
            if rop is not None and rq and not rop.sm.is_training:
                buffered = rop.buffer.lines
                if buffered:
                    i = 0
                    while i < len(rq):
                        r = rq[i]
                        if r.line in buffered:
                            rq.pop(i)
                            self._complete_from_sram(r, cycle)
                            progress = True
                        else:
                            i += 1
            # write-drain hysteresis
            if not drain[ci] and len(wq) >= drain_high:
                drain[ci] = True
                if self._darp:
                    # DARP write-refresh parallelization: repay refresh debt
                    # in banks with no pending reads while writes stream
                    self._darp_piggyback(ci, cycle)
            elif drain[ci] and len(wq) <= drain_low:
                drain[ci] = False
            if drain[ci]:
                queue = wq
            elif rq:
                queue = rq
            elif wq:
                queue = wq  # work-conserving: no reads pending, stream writes
            else:
                break
            idx, wake = select(ch, queue, cycle)
            if idx is None:
                if queue is rq and wq:
                    # reads all gated; opportunistically try a write
                    widx, wwake = select(ch, wq, cycle)
                    if widx is not None:
                        issue(ci, wq.pop(widx), cycle)
                        progress = True
                        continue
                    wake = min(w for w in (wake, wwake) if w is not None) if (
                        wake is not None or wwake is not None
                    ) else None
                if wake is not None:
                    self._schedule_retry(ci, wake)
                break
            issue(ci, queue.pop(idx), cycle)
            progress = True

    def _select(
        self, ch: _Channel, queue: list[Request], cycle: int
    ) -> tuple[int | None, int | None]:
        """FR-FCFS pick: oldest ready row hit, else oldest ready request.

        Returns ``(index, None)`` on success or ``(None, wake_cycle)`` when
        every queued request is gated (``wake_cycle`` is the earliest cycle
        anything ungates, or None for an empty queue).
        """
        first_ready: int | None = None
        wake: int | None = None
        ranks = ch.ranks
        sub_rows = self._sub_rows
        for i, r in enumerate(queue):
            c = r.coord
            rank = ranks[c.rank]
            # inlined Rank.is_locked (hot path)
            if rank.lock_start <= cycle < rank.locked_until:
                gate = rank.locked_until
            else:
                bank = rank.banks[c.bank]
                gate = bank.ready_at
                if sub_rows:
                    # SARP: the request's subarray may be mid-refresh
                    gate = max(gate, bank.sub_locks.get(c.row // sub_rows, 0))
                if gate <= cycle:
                    if bank.open_row == c.row:
                        return i, None  # oldest ready row hit wins outright
                    if first_ready is None:
                        first_ready = i
                    continue
            if wake is None or gate < wake:
                wake = gate
        return (first_ready, None) if first_ready is not None else (None, wake)

    def _issue(self, ci: int, req: Request, cycle: int) -> None:
        """Commit one request to DRAM and schedule its completion."""
        ch = self.channels[ci]
        c = req.coord
        rank = ch.ranks[c.rank]
        t = self.t
        stats = self.stats
        is_write = req.kind is not ReqKind.READ and req.kind is not ReqKind.PREFETCH
        plan = rank.plan(cycle, c.bank, c.row, is_write, t)
        shift = ch.bus_free_at - plan.data_start
        if shift > 0:
            plan = AccessPlan(
                plan.col_cycle + shift,
                plan.data_start + shift,
                plan.data_end + shift,
                plan.act_cycle,
                plan.category,
            )
        rank.commit(plan, c.bank, c.row, is_write, t)
        if self.issue_tap is not None:
            self.issue_tap(c, plan, is_write)
        ch.bus_free_at = plan.data_end
        ch.busy_cycles += plan.data_end - plan.data_start
        req.issue_cycle = plan.col_cycle
        req.complete_cycle = plan.data_end
        req.service = plan.category
        category = plan.category
        if category is ServiceKind.DRAM_HIT:
            stats.row_hits += 1
        elif category is ServiceKind.DRAM_CLOSED:
            stats.row_closed += 1
        else:
            stats.row_conflicts += 1
        if self._t_svc:
            self.sink.emit(
                Category.SERVICE,
                Kind.ISSUE,
                plan.col_cycle,
                c.channel,
                c.rank,
                a=req.rid,
                b=int(plan.category),
            )
        if req.kind is ReqKind.READ:
            self.events.push(plan.data_end, self._make_read_completion(req))

    def _make_read_completion(self, req: Request) -> Callable[[int], None]:
        def _complete(cycle: int) -> None:
            self._account_read(req, cycle)

        return _complete

    def _account_read(self, req: Request, cycle: int) -> None:
        lat = cycle - req.arrival
        stats = self.stats
        stats.reads_completed += 1
        stats.read_latency_sum += lat
        if lat > stats.read_latency_max:
            stats.read_latency_max = lat
        if cycle > stats.end_cycle:
            stats.end_cycle = cycle
        if self._t_svc:
            self.sink.emit(
                Category.SERVICE,
                Kind.COMPLETE,
                cycle,
                req.coord.channel,
                req.coord.rank,
                a=req.rid,
                b=lat,
            )
        if req.on_complete is not None:
            req.on_complete(cycle)

    def _complete_from_sram(self, req: Request, cycle: int) -> None:
        """Service a read from the ROP SRAM buffer."""
        done = cycle + self.cfg.rop.sram_latency
        req.issue_cycle = cycle
        req.complete_cycle = done
        req.service = ServiceKind.SRAM
        rank = self.channels[req.coord.channel].ranks[req.coord.rank]
        in_lock = rank.is_locked(cycle)
        if in_lock:
            self.stats.sram_hits_in_lock += 1
        else:
            self.stats.sram_hits_out_of_lock += 1
        if self._t_svc:
            self.sink.emit(
                Category.SERVICE,
                Kind.SRAM_SERVICE,
                cycle,
                req.coord.channel,
                req.coord.rank,
                a=req.line,
                b=int(in_lock),
            )
        self.rop.on_sram_hit(req, cycle, in_lock)
        self.events.push(done, self._make_read_completion(req))

    def _schedule_retry(self, ci: int, wake: int) -> None:
        """Schedule a future issue attempt, deduplicating per channel."""
        pending = self._retry_at[ci]
        if pending >= 0 and pending <= wake:
            return
        self._retry_at[ci] = wake

        def _retry(cycle: int) -> None:
            if self._retry_at[ci] == wake:
                self._retry_at[ci] = -1
            self._try_issue(ci, cycle)

        self.events.push(wake, _retry)

    # ------------------------------------------------------------------ refresh

    def _make_refresh_tick(self, ci: int, ri: int) -> Callable[[int], None]:
        def _tick(cycle: int) -> None:
            self._refresh_tick(ci, ri, cycle)

        return _tick

    def _pending_for_rank(self, ci: int, ri: int) -> int:
        return sum(1 for r in self.read_q[ci] if r.coord.rank == ri) + sum(
            1 for r in self.write_q[ci] if r.coord.rank == ri
        )

    def _pending_banks(self, ci: int, ri: int, *, reads_only: bool = False) -> set[int]:
        """Banks of a rank with queued demand (DARP's idle-bank test)."""
        banks = {r.coord.bank for r in self.read_q[ci] if r.coord.rank == ri}
        if not reads_only:
            banks.update(r.coord.bank for r in self.write_q[ci] if r.coord.rank == ri)
        return banks

    def _account_refresh_window(
        self, ci: int, ri: int, start: int, end: int, locked_bank: int
    ) -> None:
        """Book one executed refresh window [start, end) into stats/telemetry."""
        self.stats.refreshes += 1
        self.stats.refresh_locked_cycles += end - start
        self.stats.end_cycle = max(self.stats.end_cycle, end)
        if self._t_ref:
            # b: the one frozen bank for per-bank refresh (bank*S + sub for
            # SARP's subarray locks), -1 when the whole rank locks
            self.sink.emit(
                Category.REFRESH, Kind.REFRESH_WINDOW, start, ci, ri, a=end, b=locked_bank
            )
        if self.rop is not None:
            self.rop.on_refresh_executed(ci, ri, start, end)

    def _refresh_tick(self, ci: int, ri: int, cycle: int) -> None:
        """One tREFI grid tick for a rank: postpone, or refresh (w/ ROP arming)."""
        if self.cfg.refresh.mode is RefreshMode.PAUSING:
            self._paused_refresh(ci, ri, cycle)
            self.events.push(
                cycle + self.refresh_mgr.period,
                self._make_refresh_tick(ci, ri),
                housekeeping=True,
            )
            return
        mgr = self.refresh_mgr
        pending_banks = self._pending_banks(ci, ri) if mgr.wants_bank_pending else None
        count = mgr.decide(ci, ri, cycle, self._pending_for_rank(ci, ri), pending_banks)
        if count > 0:
            due = cycle
            if self.rop is not None:
                if self.cfg.rop.drain_before_refresh:
                    self._drain_rank(ci, ri, cycle)
                lines = self.rop.plan_prefetch(ci, ri, cycle)
                if lines:
                    due = self._fetch_prefetch_lines(ci, ri, lines, cycle)
            rank = self.channels[ci].ranks[ri]
            for _ in range(count):
                banks = mgr.banks_for(ci, ri)
                if self._sarp:
                    bank = banks[0]
                    sub = mgr.subarray_for(ci, ri, bank)
                    start, end = rank.start_subarray_refresh(
                        due, self.t, bank, sub, self._sub_rows
                    )
                    locked = bank * self._subarrays + sub
                else:
                    start, end = rank.start_refresh(due, self.t, banks=banks)
                    locked = banks[0] if banks is not None and len(banks) == 1 else -1
                self._account_refresh_window(ci, ri, start, end, locked)
                due = end
            if self.read_q[ci] or self.write_q[ci]:
                self._schedule_retry(ci, due)
        self.events.push(
            cycle + self.refresh_mgr.period,
            self._make_refresh_tick(ci, ri),
            housekeeping=True,
        )

    def _paused_refresh(self, ci: int, ri: int, due: int) -> None:
        """Refresh-Pausing-style interruptible refresh (extension baseline).

        The ``tRFC`` lock is split into ``pause_segments`` row-bundle
        segments. Between segments, pending demand to the rank defers the
        next segment; a deadline (the next tREFI tick, less the remaining
        work) forces completion so the average refresh rate is preserved —
        the correctness condition Nair et al. identify.
        """
        rank = self.channels[ci].ranks[ri]
        t = self.t
        seg = max(1, t.rfc // max(1, self.cfg.refresh.pause_segments))
        deadline = due + self.refresh_mgr.period - t.rfc
        state = {"remaining": t.rfc, "counted": False}

        def step(cycle: int) -> None:
            remaining = state["remaining"]
            if remaining <= 0:
                return
            must_force = cycle + remaining >= deadline
            if not must_force and self._pending_for_rank(ci, ri) > 0:
                # pause: demand goes first; re-check one segment later
                if self._t_ref:
                    self.sink.emit(
                        Category.REFRESH, Kind.REFRESH_PAUSE, cycle, ci, ri, a=remaining
                    )
                self.events.push(cycle + seg, step)
                self._try_issue(ci, cycle)
                return
            dur = min(seg, remaining)
            start, end = rank.start_refresh(cycle, t, duration=dur)
            state["remaining"] = remaining - dur
            self.stats.refresh_locked_cycles += end - start
            self.stats.end_cycle = max(self.stats.end_cycle, end)
            if not state["counted"]:
                self.stats.refreshes += 1
                state["counted"] = True
            if self._t_ref:
                self.sink.emit(
                    Category.REFRESH, Kind.REFRESH_WINDOW, start, ci, ri, a=end, b=-1
                )
            if state["remaining"] > 0:
                self.events.push(end, step)
            elif self.read_q[ci] or self.write_q[ci]:
                self._schedule_retry(ci, end)

        step(due)

    def _darp_piggyback(self, ci: int, cycle: int) -> None:
        """Repay DARP refresh debt under cover of a starting write drain.

        Each rank's banks that owe a refresh and have no queued reads take
        one per-bank REF now — the paper's write-refresh parallelization:
        the write burst hides the per-bank lock from the read critical path.
        """
        mgr = self.refresh_mgr
        for ri, rank in enumerate(self.channels[ci].ranks):
            read_banks = self._pending_banks(ci, ri, reads_only=True)
            for bank in mgr.piggyback_banks(ci, ri, read_banks):
                start, end = rank.start_refresh(cycle, self.t, banks=[bank])
                self._account_refresh_window(ci, ri, start, end, bank)

    def _drain_rank(self, ci: int, ri: int, cycle: int) -> None:
        """Issue queued demand requests to a rank ahead of its refresh.

        Mirrors the paper's Section IV-D: draining avoids request
        housekeeping resources being held across the whole lock. Bounded by
        ``_DRAIN_CAP`` so the refresh delay stays within the JEDEC
        postponement allowance.
        """
        drained = 0
        for queue in (self.read_q[ci], self.write_q[ci]):
            i = 0
            while i < len(queue) and drained < _DRAIN_CAP:
                r = queue[i]
                if r.coord.rank == ri:
                    queue.pop(i)
                    self._issue(ci, r, cycle)
                    drained += 1
                else:
                    i += 1

    def _fetch_prefetch_lines(self, ci: int, ri: int, lines: list[int], cycle: int) -> int:
        """Fetch prefetch lines into the SRAM buffer right before the lock.

        Lines are sorted by (bank, row, column) so fetches to the same row
        coalesce into row-buffer hits — the paper's second issue
        optimization. Returns the cycle at which all fills complete (the
        refresh is delayed until then).
        """
        ch = self.channels[ci]
        rank = ch.ranks[ri]
        done = cycle
        # one vectorized decode for the whole batch; the coords are reused
        # for both the (bank, row, col) coalescing sort and the fetches
        coords = dict(zip(lines, self.mapper.decode_coords(lines)))
        ordered = sorted(lines, key=lambda ln: coords[ln][2:])
        # lines still resident from the previous arming are free — only new
        # lines cost a DRAM fetch
        to_fetch = [ln for ln in ordered if not self.rop.sram_lookup(ln)]
        for line in to_fetch:
            c = coords[line]
            plan = rank.plan(cycle, c.bank, c.row, False, self.t)
            shift = ch.bus_free_at - plan.data_start
            if shift > 0:
                plan = AccessPlan(
                    plan.col_cycle + shift,
                    plan.data_start + shift,
                    plan.data_end + shift,
                    plan.act_cycle,
                    plan.category,
                )
            rank.commit(plan, c.bank, c.row, False, self.t)
            if self.issue_tap is not None:
                self.issue_tap(c, plan, False)
            ch.bus_free_at = plan.data_end
            ch.busy_cycles += plan.data_end - plan.data_start
            self.stats.prefetches += 1
            if plan.data_end > done:
                done = plan.data_end
        self.stats.prefetch_fetch_cycles += done - cycle
        self.stats.sram_fills += len(to_fetch)
        self.rop.on_prefetch_fill(ci, ri, ordered, done)
        return done

    # ------------------------------------------------------------------ helpers

    def pending_requests(self) -> int:
        """Demand requests still queued across all channels."""
        return sum(len(q) for q in self.read_q) + sum(len(q) for q in self.write_q)

    def decode(self, line: int) -> Coord:
        """Decode a line address with this controller's mapper."""
        return self.mapper.decode(line)

    def finish(self, cycle: int) -> None:
        """Mark the end of simulated time in the stats."""
        self.stats.end_cycle = max(self.stats.end_cycle, cycle)
