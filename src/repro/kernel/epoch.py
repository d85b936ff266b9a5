"""Epoch-stepped flat simulation kernel (the ``epoch`` engine).

The scalar engine is already event-driven — no cycle is ever stepped that
has no event — but it pays for generality on every event: a closure
allocation per push, a ``Request`` object per access, and five-plus
attribute/method hops per hot-path touch (queue → controller → rank →
bank → stats).  This kernel collapses the whole single-channel,
single-rank, single-core hot path into **one function frame**: all
mutable machine state (bank timing vectors, rank gates, core progress,
stats counters) lives in local variables, events are plain integer-tagged
tuples in a local heap, and the trace is consumed from the pre-decoded
columnar arrays (``AddressMapper.decode_array``) as flat Python lists.
Between two events the machine state is, by construction, constant — the
heap pop *is* the epoch advance, in O(1) per event rather than per cycle.

Bit-identity contract
---------------------
The kernel must be indistinguishable from the scalar engine in every
observable: result digests, telemetry event streams, validation-tap call
sequences, and RNG consumption order.  That contract dictates the design:

* **Event order** replicates the scalar heap exactly: tuples compare as
  ``(cycle, seq)`` with ``seq`` allocated in the same order the scalar
  engine pushes (refresh tick first, then the core's first op).
* **RNG order**: the throttle coin-flips (``Prefetcher.decide``) and any
  retrain/telemetry side effects are reached by *delegating* to the real
  ``RopEngine.plan_prefetch`` / ``on_prefetch_fill`` /
  ``on_refresh_executed`` at the same points the scalar controller calls
  them.  Only per-request bookkeeping (profiler window feed, prediction
  table delta matching) is inlined — and it mutates the *real* profiler /
  table objects so the delegated calls observe identical state.
* **Telemetry** is emitted per event, not batched per epoch: the sink's
  columnar buffer is order-sensitive (snapshot order feeds the validation
  recounts and the exporter), and events of different categories
  interleave within one epoch, so batching could not stay bit-identical.
* **Scalar fallback**: topologies the flat state model does not cover
  (multi-channel, multi-rank, multi-core) and audited runs (the invariant
  ``RequestLog`` wraps ``controller.submit``, which the kernel bypasses)
  fall back to the scalar engine; :func:`run_epoch_kernel` returns the
  decline reason to its caller (``run_cores`` threads it through to the
  runner's per-spec fallback records), and ``run_cores`` keeps producing
  identical results either way.

On exit the kernel writes every piece of local state back into the real
objects (banks, rank, channel, core, stats, event queue), so downstream
consumers — ``memory.finish()``, metrics, validation, reporting — see
exactly what a scalar run would have left behind.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush

import numpy as np

from ..config import RefreshMode
from ..core.state_machine import RopState
from ..dram.bank import AccessPlan
from ..dram.request import Coord, ReqKind, Request, ServiceKind

__all__ = ["ENGINES", "resolve_engine", "run_epoch_kernel"]

#: engine names accepted by ``run_cores(engine=...)`` / ``REPRO_ENGINE``
ENGINES = ("scalar", "epoch")

#: event tags, ordered roughly by expected frequency
_OP = 0  #: the core's next trace operation is due
_RCOMP = 1  #: a read completes (DRAM burst done or SRAM latency elapsed)
_RETRY = 2  #: deduplicated scheduler wake-up
_TICK = 3  #: tREFI grid tick (housekeeping: does not count as work)
_PSTEP = 4  #: one Refresh-Pausing segment step (payload: state list)

def resolve_engine(engine: str | None = None) -> str:
    """Resolve an engine choice: explicit argument > ``REPRO_ENGINE`` > scalar."""
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE", "").strip().lower() or "scalar"
    engine = engine.lower()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    return engine


def run_epoch_kernel(memory, cores, max_cycles=None, audited=False) -> str | None:
    """Run the whole simulation through the flat kernel, if supported.

    Returns ``None`` when the kernel ran (the caller must skip the scalar
    ``core.start()`` / ``memory.run()`` path entirely), or the decline
    reason as a string when the configuration needs the scalar engine.
    The reason is *returned*, never stashed in module state: the specs one
    worker runs decline independently, and each spec's reason must
    attribute to that spec alone.
    """
    org = memory.config.organization
    if audited:
        return "audit wraps controller.submit, which the kernel bypasses"
    decline = memory.controller.refresh_mgr.kernel_decline
    if decline is not None:
        return decline
    if org.channels != 1 or org.ranks != 1 or len(cores) != 1:
        # every other topology rides the generalized kernel, which keeps
        # the same bit-identity contract over per-(channel, rank) state
        from .epoch_multi import run_epoch_multi

        return run_epoch_multi(memory, cores, max_cycles)

    # ------------------------------------------------------------- localize
    events = memory.events
    controller = memory.controller
    cfg = controller.cfg
    t = controller.t
    core = cores[0]
    ch_obj = controller.channels[0]
    rank = ch_obj.ranks[0]
    banks = rank.banks
    nbanks = len(banks)
    rop = controller.rop
    rop_on = rop is not None
    refresh_mgr = controller.refresh_mgr
    sink = controller.sink
    sink_emit = sink.emit
    mapper = controller.mapper
    issue_tap = controller.issue_tap
    stats = controller.stats

    # DDR timing scalars
    RCD, RP, CL, CWL = t.rcd, t.rp, t.cl, t.cwl
    BURST, CCD, RTP, WR = t.burst, t.ccd, t.rtp, t.wr
    RAS, RRD, FAW, WTR, RFC = t.ras, t.rrd, t.faw, t.wtr, t.rfc

    # telemetry flags (cached booleans, same as the scalar hot path)
    t_req, t_svc, t_ref = controller._t_req, controller._t_svc, controller._t_ref
    t_rop = rop._t_rop if rop_on else False

    # bank state as parallel lists (index = bank id)
    b_open = [b.open_row for b in banks]
    b_ready = [b.ready_at for b in banks]
    b_preok = [b.pre_ok_at for b in banks]
    b_act = [b.act_cycle for b in banks]
    b_busy = [b.busy_until for b in banks]

    # rank / channel scalars
    locked_until = rank.locked_until
    lock_start = rank.lock_start
    last_act = rank.last_act
    act_window = rank.act_window  # deque(maxlen=4); mutated in place
    wtr_until = rank.wtr_until
    refresh_count = rank.refresh_count
    act_count = rank.act_count
    bus_free_at = ch_obj.bus_free_at
    busy_cycles = ch_obj.busy_cycles

    # stats mirrors (prefetch_skipped and the SRAM-buffer counters flow
    # through the real objects the delegated ROP calls mutate)
    s_reads = stats.reads
    s_writes = stats.writes
    s_prefetches = stats.prefetches
    s_row_hits = stats.row_hits
    s_row_closed = stats.row_closed
    s_row_conflicts = stats.row_conflicts
    s_lat_sum = stats.read_latency_sum
    s_lat_max = stats.read_latency_max
    s_completed = stats.reads_completed
    s_refreshes = stats.refreshes
    s_locked_cycles = stats.refresh_locked_cycles
    s_in_lock = stats.reads_arriving_in_lock
    s_sram_in = stats.sram_hits_in_lock
    s_sram_out = stats.sram_hits_out_of_lock
    s_sram_fills = stats.sram_fills
    s_pf_cycles = stats.prefetch_fetch_cycles
    s_end_cycle = stats.end_cycle

    # core state
    core_cfg = core.cfg
    mult = core_cfg.cpu_clock_mult
    mlp = core_cfg.mlp
    lines = core._lines
    writes_col = core._writes
    gap_cpu = core._gap_cpu
    n_ops = len(lines)
    tail_cpu = int(core.trace.tail_instructions * core_cfg.base_cpi)
    idx = 0
    outstanding = 0
    stalled = False
    cpu_time = 0
    finished = False
    finish_cycle = 0
    stall_events = 0

    # pre-decoded trace columns as flat lists (vectorized decode once)
    if n_ops:
        _, _, bank_a, row_a, col_a = mapper.decode_array(core.trace.lines)
        bank_col = bank_a.tolist()
        row_col = row_a.tolist()
        col_col = col_a.tolist()
    else:
        bank_col = row_col = col_col = []
    # prefix sum of reads by trace index: read/write totals and the ROP
    # mirror's A-counts come from here instead of per-op increments
    rd_pref = np.concatenate(
        ([0], np.cumsum(core.trace.writes == 0, dtype=np.int64))
    ).tolist()

    # scheduler state
    drain_high = cfg.scheduler.write_drain_high
    drain_low = cfg.scheduler.write_drain_low
    rq: list[tuple] = []  # (rid, line, bank, row, col, arrival)
    wq: list[tuple] = []
    drain = False
    retry_at = -1

    # refresh state
    refresh_enabled = refresh_mgr.enabled
    tick_period = refresh_mgr.period
    pausing = cfg.refresh.mode is RefreshMode.PAUSING
    per_bank = cfg.refresh.mode is RefreshMode.PER_BANK
    pause_seg = max(1, RFC // max(1, cfg.refresh.pause_segments))

    # ROP state (inlined per-request bookkeeping mutates the *real*
    # profiler/table objects; delegated calls then observe identical state)
    if rop_on:
        sm = rop.sm
        buffer = rop.buffer
        buf_lines = buffer._lines  # stable set reference (mutated in place)
        buffer_consume = buffer.consume
        buffer_invalidate = buffer.invalidate
        from ..core.profiler import _PendingRefresh
        from ..core.rop_engine import LockRecord

        prof = rop.profilers[(0, 0)]
        arrivals = prof._arrivals  # stable deque reference
        a_window = prof.a_window
        table = rop.tables[(0, 0)]
        entries = table.entries  # stable list reference (reset is in place)
        window = rop.window
        ref_first = rop._ref_first[(0, 0)]
        ref_period = rop._ref_period
        # monotonic next-refresh-grid tracker for the deferred table replay
        # (arrival cycles never decrease)
        cur_due = ref_first
        # Deferred profiler mirror.  The scalar engine maintains the arrival
        # deque, pending-refresh probes and prediction-table feed on *every*
        # request; none of that state is read until a training tick, a lock
        # close or a prefetch plan.  The kernel therefore only appends the
        # arrival cycle to ``acyc`` (index-parallel to the trace columns)
        # and recovers every window count by bisection at the read points:
        #   B-count at refresh start S  = |arrivals in [S - window, S)|
        #   A-count at probe deadline D = |reads in [start, D)| at index
        #                                 >= the probe's creation index
        # Probes live in ``mir_pending`` as [start, deadline, b_count,
        # created_idx]; expiry points replicate the scalar advance() calls
        # that are observable (training ticks + arrivals while a lock is
        # open).  The prediction-table feed replays lazily over
        # [table_upto, len(acyc)) before any table read — and is elided
        # wholesale for spans that end in a refresh reset.
        columns = rop._columns
        acyc: list[int] = []
        acyc_append = acyc.append
        addr_col = (row_a * columns + col_a).tolist() if n_ops else []
        mir_pending: list[list[int]] = []
        last_tr_adv = -1  # last training-tick advance (deque retention horizon)
        table_upto = 0
        table_all = not rop.rop.table_reads_only
        drain_before_refresh = cfg.rop.drain_before_refresh
        sram_latency = cfg.rop.sram_latency
        if any(e.tumbling for e in entries):  # ablation mode: not inlined
            return "tumbling prediction-table ablation"
        # prediction-table mirror: the hot per-request update runs against
        # flat locals; delegated readers (plan_prefetch at TICK) see the
        # real entries via flush_table(), and the refresh-time table reset
        # is mirrored back by clearing the locals
        # flat layout per bank: [d1, f1, d2, ph2, f2, d3, ph3, f3] where d1
        # is the order-1 delta itself (the matchers' ks are fixed at 1,2,3)
        if any([m.k for m in e._matchers] != [1, 2, 3] for e in entries):
            return "non-standard prediction-table matcher orders"
        tb_last = [e.last_addr for e in entries]
        tb_hist = [list(e._history) for e in entries]
        tb_m = [
            [
                e._matchers[0].pattern[0] if e._matchers[0].pattern else None,
                e._matchers[0].freq,
                e._matchers[1].pattern,
                e._matchers[1].phase,
                e._matchers[1].freq,
                e._matchers[2].pattern,
                e._matchers[2].phase,
                e._matchers[2].freq,
            ]
            for e in entries
        ]
    else:
        sm = buffer = None
        sram_latency = 0
        drain_before_refresh = False
    TRAINING = RopState.TRAINING

    SK = (ServiceKind.DRAM_HIT, ServiceKind.DRAM_CLOSED, ServiceKind.DRAM_CONFLICT)

    heap: list[tuple] = []
    # DRAM read completions, kept out of the heap: the data bus serializes
    # bursts (plan_commit shifts dstart to bus_free_at), so completion
    # times are strictly increasing in issue order — a plain FIFO of
    # (dend, seq, rid, arrival) 4-tuples.  SRAM completions (arrival +
    # sram_latency, not bus-ordered) stay on the heap; the loop head merges
    # the two by (cycle, seq) tuple comparison.
    comps: deque = deque()
    comps_append = comps.append
    comps_popleft = comps.popleft
    seq = 0
    work = 0
    now = 0
    # cached heads: heap pushes are rare (retries / ticks / SRAM fills),
    # so the (cycle, seq) of both queue heads are kept in scalars and
    # refreshed at push/pop sites — the loop top then compares plain ints
    # instead of chasing heap[0]/comps[0] subscripts every event
    INF = 1 << 62
    heap_top = INF  #: cycle of heap[0] (INF when empty)
    h0s = INF  #: seq of heap[0]
    c0c = INF  #: cycle of comps[0] (INF when empty)
    c0s = INF  #: seq of comps[0]
    mm1 = mult - 1  #: ceil-div addend: ceil(t / mult) == (t + mm1) // mult

    # ------------------------------------------------------------- closures

    def plan_commit(cycle, bank, row, col, is_write):
        """Inline Rank.plan + bus shift + Rank.commit for one access."""
        nonlocal bus_free_at, busy_cycles, last_act, wtr_until, act_count
        # rank gating
        start = cycle if cycle > locked_until else locked_until
        if is_write:
            not_before = start
        else:
            not_before = start if start > wtr_until else wtr_until
        # bank plan
        bstart = b_ready[bank]
        if cycle > bstart:
            bstart = cycle
        if not_before > bstart:
            bstart = not_before
        cas = CWL if is_write else CL
        orow = b_open[bank]
        if orow == row:
            col_c = bstart
            act = -1
            cat = 0  # DRAM_HIT
        else:
            act_gate = last_act + RRD
            if len(act_window) == 4:
                faw_gate = act_window[0] + FAW
                if faw_gate > act_gate:
                    act_gate = faw_gate
            if orow is None:
                act = bstart if bstart > act_gate else act_gate
                cat = 1  # DRAM_CLOSED
            else:
                pre = b_preok[bank]
                if bstart > pre:
                    pre = bstart
                act = pre + RP
                if act_gate > act:
                    act = act_gate
                cat = 2  # DRAM_CONFLICT
            col_c = act + RCD
        dstart = col_c + cas
        dend = dstart + BURST
        shift = bus_free_at - dstart
        if shift > 0:
            col_c += shift
            dstart += shift
            dend += shift
        # bank commit
        if act >= 0:
            b_open[bank] = row
            b_act[bank] = act
        b_ready[bank] = col_c + CCD
        if dend > b_busy[bank]:
            b_busy[bank] = dend
        recover = col_c + CWL + BURST + WR if is_write else col_c + RTP
        ras_done = b_act[bank] + RAS
        preok = b_preok[bank]
        if recover > preok:
            preok = recover
        if ras_done > preok:
            preok = ras_done
        b_preok[bank] = preok
        # rank commit
        if act >= 0:
            last_act = act
            act_window.append(act)
            act_count += 1
        if is_write:
            wu = col_c + CWL + BURST + WTR
            if wu > wtr_until:
                wtr_until = wu
        if issue_tap is not None:
            issue_tap(
                Coord(0, 0, bank, row, col),
                AccessPlan(col_c, dstart, dend, act, SK[cat]),
                is_write,
            )
        bus_free_at = dend
        busy_cycles += dend - dstart
        return col_c, dstart, dend, cat

    def issue(req, cycle, is_write):
        """Commit one queued demand request (inline Controller._issue).

        The plan/commit body is a copy of plan_commit with the stats fold
        merged in — this is the scheduler's hottest call, worth the
        duplication (plan_commit itself stays for prefetch fetches).
        """
        nonlocal s_row_hits, s_row_closed, s_row_conflicts, seq, work
        nonlocal bus_free_at, busy_cycles, last_act, wtr_until, act_count
        nonlocal c0c, c0s
        bank = req[2]
        row = req[3]
        start = cycle if cycle > locked_until else locked_until
        if is_write:
            not_before = start
        else:
            not_before = start if start > wtr_until else wtr_until
        bstart = b_ready[bank]
        if cycle > bstart:
            bstart = cycle
        if not_before > bstart:
            bstart = not_before
        orow = b_open[bank]
        if orow == row:
            col_c = bstart
            act = -1
            cat = 0
            s_row_hits += 1
        else:
            act_gate = last_act + RRD
            if len(act_window) == 4:
                faw_gate = act_window[0] + FAW
                if faw_gate > act_gate:
                    act_gate = faw_gate
            if orow is None:
                act = bstart if bstart > act_gate else act_gate
                cat = 1
                s_row_closed += 1
            else:
                pre = b_preok[bank]
                if bstart > pre:
                    pre = bstart
                act = pre + RP
                if act_gate > act:
                    act = act_gate
                cat = 2
                s_row_conflicts += 1
            col_c = act + RCD
            b_open[bank] = row
            b_act[bank] = act
            last_act = act
            act_window.append(act)
            act_count += 1
        dstart = col_c + (CWL if is_write else CL)
        dend = dstart + BURST
        shift = bus_free_at - dstart
        if shift > 0:
            col_c += shift
            dstart += shift
            dend += shift
        b_ready[bank] = col_c + CCD
        if dend > b_busy[bank]:
            b_busy[bank] = dend
        recover = col_c + CWL + BURST + WR if is_write else col_c + RTP
        ras_done = b_act[bank] + RAS
        preok = b_preok[bank]
        if recover > preok:
            preok = recover
        if ras_done > preok:
            preok = ras_done
        b_preok[bank] = preok
        if is_write:
            wu = col_c + CWL + BURST + WTR
            if wu > wtr_until:
                wtr_until = wu
        if issue_tap is not None:
            issue_tap(
                Coord(0, 0, bank, row, req[4]),
                AccessPlan(col_c, dstart, dend, act, SK[cat]),
                is_write,
            )
        bus_free_at = dend
        busy_cycles += dend - dstart
        if t_svc:
            sink_emit(1, 2, col_c, 0, 0, req[0], cat)  # SERVICE / ISSUE
        if not is_write:
            if c0c == INF:
                c0c = dend
                c0s = seq
            comps_append((dend, seq, req[0], req[5]))
            seq += 1
            work += 1

    def complete_from_sram(req, cycle):
        """Service a queued read from the SRAM buffer (inline)."""
        nonlocal s_sram_in, s_sram_out, seq, work, heap_top, h0s
        line = req[1]
        in_lock = lock_start <= cycle < locked_until
        if in_lock:
            s_sram_in += 1
        else:
            s_sram_out += 1
        if t_svc:
            sink_emit(1, 4, cycle, 0, 0, line, 1 if in_lock else 0)  # SRAM_SERVICE
        # inline RopEngine.on_sram_hit: consume + per-lock hit bookkeeping
        buffer_consume(line, cycle)
        if in_lock:
            for rec in reversed(rop._locks):
                if rec.start <= cycle < rec.end:
                    rec.hits += 1
                    break
        done = cycle + sram_latency
        if done < heap_top:
            heap_top = done
            h0s = seq
        heappush(heap, (done, seq, _RCOMP, req[0], req[5]))
        seq += 1
        work += 1

    def schedule_retry(wake):
        nonlocal retry_at, seq, work, heap_top, h0s
        if 0 <= retry_at <= wake:
            return
        retry_at = wake
        if wake < heap_top:
            heap_top = wake
            h0s = seq
        heappush(heap, (wake, seq, _RETRY, wake, 0))
        seq += 1
        work += 1

    def try_issue(cycle):
        """Issue everything that can start now (inline Controller._try_issue).

        The FR-FCFS pick (Controller._select) is inlined at both scan
        sites — it has no other callers and the closure round-trip showed
        up in profiles at queue-bound phases.
        """
        nonlocal drain
        progress = True
        while progress:
            progress = False
            # SRAM service sweep (guard order is side-effect free)
            if rop_on and rq and buf_lines and sm.state is not TRAINING:
                i = 0
                while i < len(rq):
                    if rq[i][1] in buf_lines:
                        complete_from_sram(rq.pop(i), cycle)
                        progress = True
                    else:
                        i += 1
            lw = len(wq)
            if not drain and lw >= drain_high:
                drain = True
            elif drain and lw <= drain_low:
                drain = False
            if drain:
                queue = wq
            elif rq:
                queue = rq
            elif wq:
                queue = wq
            else:
                break
            if lock_start <= cycle < locked_until:
                # whole rank gated: everything wakes at lock release
                # (the write-fallback scan would report the same wake)
                if queue:
                    schedule_retry(locked_until)
                break
            # FR-FCFS scan: oldest ready row hit, else oldest ready,
            # else the earliest bank-ready gate as the wake cycle
            pick = -1
            wake = -1
            for i, req in enumerate(queue):
                bank = req[2]
                gate = b_ready[bank]
                if gate <= cycle:
                    if b_open[bank] == req[3]:
                        pick = i
                        break
                    if pick < 0:
                        pick = i
                elif wake < 0 or gate < wake:
                    wake = gate
            if pick < 0:
                if queue is rq and wq:
                    wpick = -1
                    wwake = -1
                    for i, req in enumerate(wq):
                        bank = req[2]
                        gate = b_ready[bank]
                        if gate <= cycle:
                            if b_open[bank] == req[3]:
                                wpick = i
                                break
                            if wpick < 0:
                                wpick = i
                        elif wwake < 0 or gate < wwake:
                            wwake = gate
                    if wpick >= 0:
                        issue(wq.pop(wpick), cycle, True)
                        progress = True
                        continue
                    if wake < 0 or (0 <= wwake < wake):
                        wake = wwake
                if wake >= 0:
                    schedule_retry(wake)
                break
            issue(queue.pop(pick), cycle, queue is wq)
            if not rq and not wq:
                # the would-be next iteration in full: sweep no-op,
                # hysteresis flips drain off (0 <= drain_low), no queue
                if drain:
                    drain = False
                break
            progress = True

    def mir_expire(cycle):
        """Categorize matured pending probes (mirrors PatternProfiler.advance).

        Runs only at the points a scalar expiry is observable — training
        ticks and arrivals while a lock is open — with A-counts recovered
        by bisection over the arrival log instead of per-arrival upkeep.
        Expiries the scalar engine performed at *other* arrivals land in
        the same CategoryCounts bucket either here or at finalize, so the
        counts agree at every read point.
        """
        if not mir_pending:
            return
        counts = prof.counts  # fetched live: a retrain rebinds it
        still = []
        for rec in mir_pending:
            deadline = rec[1]
            if deadline > cycle:
                still.append(rec)
                continue
            lo = bisect_left(acyc, rec[0])
            cidx = rec[3]
            if lo < cidx:
                lo = cidx
            a = rd_pref[bisect_left(acyc, deadline)] - rd_pref[lo]
            if rec[2] > 0:
                if a > 0:
                    counts.b_pos_a_pos += 1
                else:
                    counts.b_pos_a_zero += 1
            elif a > 0:
                counts.b_zero_a_pos += 1
            else:
                counts.b_zero_a_zero += 1
        mir_pending[:] = still

    def rop_lock_upkeep(cycle):
        """Per-arrival lock close + probe expiry while any lock is open.

        Every arrival takes this path while ``rop._locks`` is non-empty,
        so lock outcomes (EMA, armed counters, state-machine feedback) are
        evaluated at exactly the scalar points.  A retrain inside
        _close_stale_locks rebinds prof.counts and clears the real pending
        list — mirrored by dropping the deferred probes.
        """
        cts = prof.counts
        rop._close_stale_locks(cycle)
        if prof.counts is not cts:
            del mir_pending[:]
            return
        mir_expire(cycle)

    def replay_table(upto):
        """Replay the deferred prediction-table feed for ops [table_upto, upto).

        Invoked only before a table *read* (prefetch planning, final
        flush); spans that end in a refresh reset never get here — the
        reset advances ``table_upto`` past them, eliding the work the
        scalar engine spent feeding a table it was about to clear.
        """
        nonlocal table_upto, cur_due
        j = table_upto
        if j >= upto:
            return
        table_upto = upto
        while j < upto:
            if table_all or not writes_col[j]:
                c = acyc[j]
                while cur_due < c:
                    cur_due += ref_period
                if cur_due - c <= window:
                    table_update(bank_col[j], addr_col[j])
            j += 1

    def sync_prof_window(cycle):
        """Materialize the arrival deque for plan_prefetch's count_in_window."""
        arrivals.clear()
        lo = bisect_left(acyc, cycle - window)
        n = len(acyc)
        while lo < n:
            arrivals.append((acyc[lo], not writes_col[lo]))
            lo += 1

    def table_update(bank, addr):
        """Inline BankEntry.update (cyclic matchers, non-tumbling).

        Runs against the flat table mirror; flush_table() publishes it.
        """
        prev = tb_last[bank]
        tb_last[bank] = addr
        if prev is None:
            return
        delta = addr - prev
        if delta == 0:
            return
        hist = tb_hist[bank]
        m = tb_m[bank]
        p2 = m[2]
        p3 = m[5]
        if (
            delta == m[0]
            and p2 is not None
            and delta == p2[m[3]]
            and p3 is not None
            and delta == p3[m[6]]
        ):
            # fully locked (streaming steady state): all three matchers
            # advance without re-anchoring — same arithmetic as below,
            # minus the dead re-anchor branches
            f1 = m[1] + 1
            f2 = m[4] + 1
            f3 = m[7] + 1
            if f1 >= 255 or f2 >= 255 or f3 >= 255:
                f1 //= 2
                f2 //= 2
                f3 //= 2
            m[1] = f1
            m[4] = f2
            m[7] = f3
            m[3] = 1 - m[3]
            ph = m[6] + 1
            m[6] = 0 if ph == 3 else ph
            hist.append(delta)
            if len(hist) > 3:
                del hist[0]
            return
        hist.append(delta)
        if len(hist) > 3:
            del hist[0]
        nh = len(hist)
        capped = False
        # order-1 matcher: phase is always 0, re-anchor always possible
        if m[0] == delta:
            f = m[1] + 1
            m[1] = f
            if f >= 255:
                capped = True
        else:
            m[0] = delta
            m[1] = 0
        # order-2 matcher
        p = m[2]
        if p is not None and delta == p[m[3]]:
            f = m[4] + 1
            m[4] = f
            if f >= 255:
                capped = True
            m[3] = 1 - m[3]
        elif nh >= 2:
            m[2] = (hist[-2], hist[-1])
            m[3] = 0
            m[4] = 0
        else:
            m[2] = None
            m[3] = 0
            m[4] = 0
        # order-3 matcher
        p = m[5]
        if p is not None and delta == p[m[6]]:
            f = m[7] + 1
            m[7] = f
            if f >= 255:
                capped = True
            ph = m[6] + 1
            m[6] = 0 if ph == 3 else ph
        elif nh == 3:
            m[5] = (hist[0], hist[1], hist[2])
            m[6] = 0
            m[7] = 0
        else:
            m[5] = None
            m[6] = 0
            m[7] = 0
        if capped:
            m[1] //= 2
            m[4] //= 2
            m[7] //= 2

    def flush_table():
        """Publish the table mirror into the real BankEntry objects."""
        for b, e in enumerate(entries):
            e.last_addr = tb_last[b]
            h = e._history
            h.clear()
            h.extend(tb_hist[b])
            m = tb_m[b]
            m1, m2, m3 = e._matchers
            m1.pattern = (m[0],) if m[0] is not None else None
            m1.phase = 0
            m1.freq = m[1]
            m2.pattern = m[2]
            m2.phase = m[3]
            m2.freq = m[4]
            m3.pattern = m[5]
            m3.phase = m[6]
            m3.freq = m[7]

    def reset_table_mirror():
        """Mirror TableEntry.reset() (refresh closed the observational window)."""
        for b in range(len(entries)):
            tb_last[b] = None
            tb_hist[b].clear()
            tb_m[b][:] = (None, 0, None, 0, 0, None, 0, 0)

    def fetch_prefetch(pf_lines, cycle):
        """Inline Controller._fetch_prefetch_lines; returns the done cycle."""
        nonlocal s_prefetches, s_pf_cycles, s_sram_fills
        done = cycle
        coords = dict(zip(pf_lines, mapper.decode_coords(pf_lines)))
        ordered = sorted(pf_lines, key=lambda ln: coords[ln][2:])
        if sm.state is TRAINING:
            to_fetch = ordered
        else:
            to_fetch = [ln for ln in ordered if ln not in buf_lines]
        for line in to_fetch:
            c = coords[line]
            _col_c, _dstart, dend, _cat = plan_commit(cycle, c.bank, c.row, c.col, False)
            s_prefetches += 1
            if dend > done:
                done = dend
        s_pf_cycles += done - cycle
        s_sram_fills += len(to_fetch)
        cts = prof.counts
        rop.on_prefetch_fill(0, 0, ordered, done)
        if prof.counts is not cts:  # a tenure close inside retrained
            del mir_pending[:]
        return done

    def paused_step(st, cycle):
        """One Refresh-Pausing segment (inline Controller._paused_refresh)."""
        nonlocal locked_until, lock_start, refresh_count
        nonlocal s_refreshes, s_locked_cycles, s_end_cycle, seq, work
        nonlocal heap_top, h0s
        remaining = st[0]
        if remaining <= 0:
            return
        if cycle + remaining < st[2] and (rq or wq):
            # pause: demand goes first; re-check one segment later
            if t_ref:
                sink_emit(2, 6, cycle, 0, 0, remaining)  # REFRESH_PAUSE
            w = cycle + pause_seg
            if w < heap_top:
                heap_top = w
                h0s = seq
            heappush(heap, (w, seq, _PSTEP, st, 0))
            seq += 1
            work += 1
            try_issue(cycle)
            return
        dur = pause_seg if pause_seg < remaining else remaining
        # Rank.start_refresh(cycle, duration=dur), all banks
        start = cycle
        for b in range(nbanks):
            q = b_ready[b]
            if b_busy[b] > q:
                q = b_busy[b]
            if b_open[b] is not None and b_preok[b] > q:
                q = b_preok[b]
            if q > start:
                start = q
        end = start + dur
        for b in range(nbanks):
            b_open[b] = None
            if end > b_ready[b]:
                b_ready[b] = end
            if end > b_preok[b]:
                b_preok[b] = end
        if end > locked_until:
            if start > locked_until:
                lock_start = start
            locked_until = end
        refresh_count += 1
        st[0] = remaining - dur
        s_locked_cycles += end - start
        if end > s_end_cycle:
            s_end_cycle = end
        if not st[1]:
            s_refreshes += 1
            st[1] = True
        if t_ref:
            sink_emit(2, 5, start, 0, 0, end, -1)  # REFRESH_WINDOW
        if st[0] > 0:
            if end < heap_top:
                heap_top = end
                h0s = seq
            heappush(heap, (end, seq, _PSTEP, st, 0))
            seq += 1
            work += 1
        elif rq or wq:
            schedule_retry(end)

    # ------------------------------------------------------------- seeding
    # replicate the scalar push order: the controller's initial refresh
    # tick (housekeeping), then the core's first op
    if refresh_enabled:
        heap_top = refresh_mgr.first_tick(0, 0)
        h0s = seq
        heappush(heap, (heap_top, seq, _TICK, 0, 0))
        seq += 1
    # the single-core trace has at most ONE pending op event at any time,
    # so it never needs the heap: a scalar (cycle, seq) pair stands in for
    # the event, merged against the FIFO/heap heads at the loop top
    op_at = -1
    op_seq = 0
    if n_ops == 0:
        finished = True
    else:
        cpu_time += gap_cpu[0]
        when = (cpu_time + mm1) // mult
        op_at = when if when > 0 else 0
        op_seq = seq
        seq += 1
        work += 1

    # ------------------------------------------------------------- main loop
    # Two phases in one loop, exactly mirroring run_cores on the scalar
    # path: memory.run(until=max_cycles), then — once the core has retired —
    # memory.run(until=last_retire) so the refresh schedule covers the
    # compute tail.  ``tail`` flips at the first phase's exit condition.
    until = max_cycles
    tail = False
    while True:
        if tail or until is not None:
            nxt = op_at if op_at >= 0 else INF
            if c0c < nxt:
                nxt = c0c
            if heap_top < nxt:
                nxt = heap_top
            if tail:
                if nxt > until:
                    break
            elif nxt > until:
                if not (finished and finish_cycle > now):
                    break
                tail = True
                until = finish_cycle
                continue
        elif not work:
            if not (finished and finish_cycle > now):
                break
            tail = True
            until = finish_cycle
            continue
        # merged pop across three sources by (cycle, seq): the scalar
        # pending-op slot, the completion FIFO, and the heap (retries /
        # ticks / SRAM completions) — all via the cached head scalars;
        # work accounting lives at the push/pop sites
        if (
            op_at >= 0
            and (op_at < c0c or (op_at == c0c and op_seq < c0s))
            and (op_at < heap_top or (op_at == heap_top and op_seq < h0s))
        ):
            cycle = op_at
            op_at = -1
            tag = _OP
            work -= 1
        elif c0c < heap_top or (c0c == heap_top and c0s < h0s):
            cycle, _s, p1, p2 = comps_popleft()
            if comps:
                nt = comps[0]
                c0c = nt[0]
                c0s = nt[1]
            else:
                c0c = INF
                c0s = INF
            tag = _RCOMP
            work -= 1
        else:
            cycle, _s, tag, p1, p2 = heappop(heap)
            if heap:
                nt = heap[0]
                heap_top = nt[0]
                h0s = nt[1]
            else:
                heap_top = INF
                h0s = INF
            if tag != _TICK:
                work -= 1
        now = cycle
        if tag == _RCOMP:
            # Controller._account_read
            lat = cycle - p2
            s_completed += 1
            s_lat_sum += lat
            if lat > s_lat_max:
                s_lat_max = lat
            if cycle > s_end_cycle:
                s_end_cycle = cycle
            if t_svc:
                sink_emit(1, 3, cycle, 0, 0, p1, lat)  # SERVICE / COMPLETE
            # Core._on_read_done
            outstanding -= 1
            ct = cycle * mult
            if ct > cpu_time:
                cpu_time = ct
            if not finished:
                if idx >= n_ops:
                    if outstanding == 0:
                        cpu_time += tail_cpu
                        finished = True
                        fc = -(-cpu_time // mult)
                        finish_cycle = fc if fc > cycle else cycle
                elif stalled:
                    stalled = False
                    cpu_time += gap_cpu[idx]
                    when = (cpu_time + mm1) // mult
                    if when < cycle:
                        when = cycle
                    if heap_top <= when or (until is not None and when > until):
                        op_at = when
                        op_seq = seq
                        seq += 1
                        work += 1
                    else:
                        # the op pops next, bar completions in (now, when]:
                        # those are pure bookkeeping while the core is not
                        # stalled (stats + outstanding + clock max — they
                        # schedule nothing), so fold them in right here and
                        # enter the op handler directly, skipping one
                        # head-dispatch round-trip per drained completion
                        while c0c <= when:
                            ccyc, _cs, crid, carr = comps_popleft()
                            if comps:
                                nt = comps[0]
                                c0c = nt[0]
                                c0s = nt[1]
                            else:
                                c0c = INF
                                c0s = INF
                            work -= 1
                            lat = ccyc - carr
                            s_completed += 1
                            s_lat_sum += lat
                            if lat > s_lat_max:
                                s_lat_max = lat
                            if ccyc > s_end_cycle:
                                s_end_cycle = ccyc
                            if t_svc:
                                sink_emit(1, 3, ccyc, 0, 0, crid, lat)
                            outstanding -= 1
                            ct = ccyc * mult
                            if ct > cpu_time:
                                cpu_time = ct
                        tag = _OP
                        cycle = when
                        now = when
        if tag == _OP:
            while True:  # chained-op fast path (see bottom of the block)
                i = idx
                line = lines[i]
                bank = bank_col[i]
                row = row_col[i]
                col = col_col[i]
                rid_v = i  # one rid per demand op, allocated in trace order
                if writes_col[i]:
                    if rop_on:
                        if line in buf_lines:
                            buffer_invalidate(line, cycle)
                        if t_req:
                            sink_emit(0, 1, cycle, 0, 0, line)  # WRITE_ARRIVAL
                        # deferred RopEngine.on_request: log the arrival;
                        # window counts and the table feed are recovered at
                        # their (rare) read points
                        if t_rop:
                            rop._now = cycle
                        acyc_append(cycle)
                        if rop._locks:
                            rop_lock_upkeep(cycle)
                    elif t_req:
                        sink_emit(0, 1, cycle, 0, 0, line)
                    # arrival fast path: empty queues, no rank lock — the
                    # scheduler outcome is fully determined by this one
                    # request, so issue (or queue + retry) in place with
                    # the same observable order as queue-append+try_issue
                    if not wq and not rq and not drain and locked_until <= cycle:
                        gate = b_ready[bank]
                        if gate <= cycle:
                            orow = b_open[bank]
                            if orow == row:
                                col_c = cycle
                                act = -1
                                cat = 0
                                s_row_hits += 1
                            else:
                                act_gate = last_act + RRD
                                if len(act_window) == 4:
                                    fg = act_window[0] + FAW
                                    if fg > act_gate:
                                        act_gate = fg
                                if orow is None:
                                    act = cycle if cycle > act_gate else act_gate
                                    cat = 1
                                    s_row_closed += 1
                                else:
                                    pre = b_preok[bank]
                                    if cycle > pre:
                                        pre = cycle
                                    act = pre + RP
                                    if act_gate > act:
                                        act = act_gate
                                    cat = 2
                                    s_row_conflicts += 1
                                col_c = act + RCD
                                b_open[bank] = row
                                b_act[bank] = act
                                last_act = act
                                act_window.append(act)
                                act_count += 1
                            dstart = col_c + CWL
                            dend = dstart + BURST
                            shift = bus_free_at - dstart
                            if shift > 0:
                                col_c += shift
                                dstart += shift
                                dend += shift
                            b_ready[bank] = col_c + CCD
                            if dend > b_busy[bank]:
                                b_busy[bank] = dend
                            recover = col_c + CWL + BURST + WR
                            ras_done = b_act[bank] + RAS
                            preok = b_preok[bank]
                            if recover > preok:
                                preok = recover
                            if ras_done > preok:
                                preok = ras_done
                            b_preok[bank] = preok
                            wu = col_c + CWL + BURST + WTR
                            if wu > wtr_until:
                                wtr_until = wu
                            if issue_tap is not None:
                                issue_tap(
                                    Coord(0, 0, bank, row, col),
                                    AccessPlan(col_c, dstart, dend, act, SK[cat]),
                                    True,
                                )
                            bus_free_at = dend
                            busy_cycles += dend - dstart
                            if t_svc:
                                sink_emit(1, 2, col_c, 0, 0, rid_v, cat)
                        elif drain_high > 1:
                            # bank busy: queue and wake when it frees —
                            # exactly the retry try_issue would schedule
                            # (drain_high <= 1 would flip drain hysteresis
                            # on this lone write, so defer to try_issue)
                            wq.append((rid_v, line, bank, row, col, cycle))
                            if not 0 <= retry_at <= gate:
                                retry_at = gate
                                if gate < heap_top:
                                    heap_top = gate
                                    h0s = seq
                                heappush(heap, (gate, seq, _RETRY, gate, 0))
                                seq += 1
                                work += 1
                        else:
                            wq.append((rid_v, line, bank, row, col, cycle))
                            try_issue(cycle)
                    elif (
                        cycle < locked_until
                        and lock_start <= cycle
                        and 0 <= retry_at <= locked_until
                        and drain_high > 1
                    ):
                        # rank locked, wake already armed: append + the
                        # drain-hysteresis check is all try_issue would do
                        wq.append((rid_v, line, bank, row, col, cycle))
                        if not drain and len(wq) >= drain_high:
                            drain = True
                    elif (
                        not rq
                        and not drain
                        and locked_until <= cycle
                        and 0 <= retry_at
                        and cycle < retry_at
                        and b_ready[bank] > cycle
                        and drain_high > 1
                    ):
                        # busy-bank append shortcut (write analog): an armed
                        # retry below every queued gate proves nothing is
                        # issuable before retry_at > cycle
                        wq.append((rid_v, line, bank, row, col, cycle))
                        if not drain and len(wq) >= drain_high:
                            drain = True
                        gate = b_ready[bank]
                        if gate < retry_at:
                            retry_at = gate
                            if gate < heap_top:
                                heap_top = gate
                                h0s = seq
                            heappush(heap, (gate, seq, _RETRY, gate, 0))
                            seq += 1
                            work += 1
                    else:
                        wq.append((rid_v, line, bank, row, col, cycle))
                        try_issue(cycle)
                else:
                    outstanding += 1
                    if cycle < locked_until and lock_start <= cycle:
                        s_in_lock += 1
                        if rop_on:
                            for rec in reversed(rop._locks):
                                if rec.start <= cycle < rec.end:
                                    rec.arrivals += 1
                                    break
                    if t_req:
                        sink_emit(0, 0, cycle, 0, 0, line)  # READ_ARRIVAL
                    if rop_on:
                        # deferred RopEngine.on_request: log the arrival;
                        # window counts and the table feed are recovered at
                        # their (rare) read points.  While a lock is open
                        # every arrival closes/expires eagerly, keeping
                        # lock outcomes exactly as current as the scalar's.
                        if t_rop:
                            rop._now = cycle
                        acyc_append(cycle)
                        if rop._locks:
                            rop_lock_upkeep(cycle)
                    # arrival fast paths (read): with empty queues the
                    # scheduler outcome is fully determined by this one
                    # request — SRAM-service it, issue it, or queue it with
                    # the wake try_issue would arm
                    if not rq and not wq and not drain:
                        if (
                            rop_on
                            and buf_lines
                            and line in buf_lines
                            and sm.state is not TRAINING
                        ):
                            complete_from_sram(
                                (rid_v, line, bank, row, col, cycle), cycle
                            )
                        elif locked_until <= cycle:
                            gate = b_ready[bank]
                            if gate <= cycle and wtr_until <= cycle:
                                orow = b_open[bank]
                                if orow == row:
                                    col_c = cycle
                                    act = -1
                                    cat = 0
                                    s_row_hits += 1
                                else:
                                    act_gate = last_act + RRD
                                    if len(act_window) == 4:
                                        fg = act_window[0] + FAW
                                        if fg > act_gate:
                                            act_gate = fg
                                    if orow is None:
                                        act = cycle if cycle > act_gate else act_gate
                                        cat = 1
                                        s_row_closed += 1
                                    else:
                                        pre = b_preok[bank]
                                        if cycle > pre:
                                            pre = cycle
                                        act = pre + RP
                                        if act_gate > act:
                                            act = act_gate
                                        cat = 2
                                        s_row_conflicts += 1
                                    col_c = act + RCD
                                    b_open[bank] = row
                                    b_act[bank] = act
                                    last_act = act
                                    act_window.append(act)
                                    act_count += 1
                                dstart = col_c + CL
                                dend = dstart + BURST
                                shift = bus_free_at - dstart
                                if shift > 0:
                                    col_c += shift
                                    dstart += shift
                                    dend += shift
                                b_ready[bank] = col_c + CCD
                                if dend > b_busy[bank]:
                                    b_busy[bank] = dend
                                recover = col_c + RTP
                                ras_done = b_act[bank] + RAS
                                preok = b_preok[bank]
                                if recover > preok:
                                    preok = recover
                                if ras_done > preok:
                                    preok = ras_done
                                b_preok[bank] = preok
                                if issue_tap is not None:
                                    issue_tap(
                                        Coord(0, 0, bank, row, col),
                                        AccessPlan(col_c, dstart, dend, act, SK[cat]),
                                        False,
                                    )
                                bus_free_at = dend
                                busy_cycles += dend - dstart
                                if t_svc:
                                    sink_emit(1, 2, col_c, 0, 0, rid_v, cat)
                                if c0c == INF:
                                    c0c = dend
                                    c0s = seq
                                comps_append((dend, seq, rid_v, cycle))
                                seq += 1
                                work += 1
                            elif gate > cycle:
                                # bank busy: queue and wake when it frees —
                                # exactly the retry try_issue would schedule
                                rq.append((rid_v, line, bank, row, col, cycle))
                                if not 0 <= retry_at <= gate:
                                    retry_at = gate
                                    if gate < heap_top:
                                        heap_top = gate
                                        h0s = seq
                                    heappush(heap, (gate, seq, _RETRY, gate, 0))
                                    seq += 1
                                    work += 1
                            else:
                                rq.append((rid_v, line, bank, row, col, cycle))
                                try_issue(cycle)
                        elif lock_start <= cycle and 0 <= retry_at <= locked_until:
                            # rank locked, wake already armed: the append is
                            # all try_issue would accomplish
                            rq.append((rid_v, line, bank, row, col, cycle))
                        else:
                            rq.append((rid_v, line, bank, row, col, cycle))
                            try_issue(cycle)
                    elif (
                        cycle < locked_until
                        and lock_start <= cycle
                        and 0 <= retry_at <= locked_until
                        and not (
                            rop_on
                            and buf_lines
                            and line in buf_lines
                            and sm.state is not TRAINING
                        )
                    ):
                        # same locked append-only shortcut with queued
                        # company — SRAM members excluded (the sweep would
                        # service them despite the lock)
                        rq.append((rid_v, line, bank, row, col, cycle))
                    elif (
                        not wq
                        and not drain
                        and locked_until <= cycle
                        and 0 <= retry_at
                        and cycle < retry_at
                        and b_ready[bank] > cycle
                        and not (rop_on and buf_lines and sm.state is not TRAINING)
                    ):
                        # busy-bank append shortcut: an armed retry below
                        # every queued gate (the dedup keeps the minimum,
                        # and gates only grow) proves nothing is issuable
                        # before retry_at > cycle, so try_issue would only
                        # append and maybe pull the wake earlier
                        rq.append((rid_v, line, bank, row, col, cycle))
                        gate = b_ready[bank]
                        if gate < retry_at:
                            retry_at = gate
                            if gate < heap_top:
                                heap_top = gate
                                h0s = seq
                            heappush(heap, (gate, seq, _RETRY, gate, 0))
                            seq += 1
                            work += 1
                    else:
                        rq.append((rid_v, line, bank, row, col, cycle))
                        try_issue(cycle)
                idx = i + 1
                if idx >= n_ops:
                    if outstanding == 0 and not finished:
                        cpu_time += tail_cpu
                        finished = True
                        fc = -(-cpu_time // mult)
                        finish_cycle = fc if fc > cycle else cycle
                    break
                if outstanding >= mlp:
                    stalled = True
                    stall_events += 1
                    break
                cpu_time += gap_cpu[idx]
                when = (cpu_time + mm1) // mult
                if when < cycle:
                    when = cycle
                # a push immediately followed by its own pop is a no-op:
                # when the next op precedes every pending heap event it
                # runs right now (same order the heap would produce) —
                # unless it would overrun the until bound.  Completions in
                # (now, when] are pure bookkeeping (the core is running,
                # not stalled) and are folded in before the op, same as
                # the drain at the unstall site above.
                if heap_top <= when or (until is not None and when > until):
                    op_at = when
                    op_seq = seq
                    seq += 1
                    work += 1
                    break
                while c0c <= when:
                    ccyc, _cs, crid, carr = comps_popleft()
                    if comps:
                        nt = comps[0]
                        c0c = nt[0]
                        c0s = nt[1]
                    else:
                        c0c = INF
                        c0s = INF
                    work -= 1
                    lat = ccyc - carr
                    s_completed += 1
                    s_lat_sum += lat
                    if lat > s_lat_max:
                        s_lat_max = lat
                    if ccyc > s_end_cycle:
                        s_end_cycle = ccyc
                    if t_svc:
                        sink_emit(1, 3, ccyc, 0, 0, crid, lat)
                    outstanding -= 1
                    ct = ccyc * mult
                    if ct > cpu_time:
                        cpu_time = ct
                cycle = when
                now = when
        elif tag == _RETRY:
            if retry_at == p1:
                retry_at = -1
            # single-request fast path: with one queued request, no rank
            # lock and no drain pressure, FR-FCFS reduces to "issue it if
            # its bank is ready, else re-arm the retry at the gate"
            if locked_until <= cycle and not drain and len(rq) + len(wq) == 1:
                if rq:
                    req = rq[0]
                    if rop_on and buf_lines and req[1] in buf_lines and (
                        sm.state is not TRAINING
                    ):
                        try_issue(cycle)
                    else:
                        gate = b_ready[req[2]]
                        if gate <= cycle:
                            del rq[0]
                            issue(req, cycle, False)
                        else:
                            schedule_retry(gate)
                elif drain_high > 1:
                    req = wq[0]
                    gate = b_ready[req[2]]
                    if gate <= cycle:
                        del wq[0]
                        issue(req, cycle, True)
                    else:
                        schedule_retry(gate)
                else:
                    try_issue(cycle)
            else:
                try_issue(cycle)
        elif tag == _TICK:
            if pausing:
                paused_step([RFC, False, cycle + tick_period - RFC], cycle)
            else:
                count = refresh_mgr.decide(0, 0, cycle, len(rq) + len(wq))
                if count > 0:
                    due = cycle
                    if rop_on:
                        if drain_before_refresh:
                            drained = 0
                            while rq and drained < 16:
                                issue(rq.pop(0), cycle, False)
                                drained += 1
                            while wq and drained < 16:
                                issue(wq.pop(0), cycle, True)
                                drained += 1
                        ch_obj.busy_cycles = busy_cycles  # for _bus_pressure
                        if t_rop:
                            # instrumented runs delegate (skip emits carry
                            # the B-count); materialize what the planner
                            # reads: the table past its training
                            # early-return, the arrival deque always
                            if not sm.is_training:
                                replay_table(len(acyc))
                                flush_table()
                            sync_prof_window(cycle)
                            cts = prof.counts
                            pf_lines = rop.plan_prefetch(0, 0, cycle)
                            if prof.counts is not cts:  # a close retrained
                                del mir_pending[:]
                            if pf_lines:
                                due = fetch_prefetch(pf_lines, cycle)
                        else:
                            # inline RopEngine.plan_prefetch, dark path: the
                            # deque read becomes a bisection and the table
                            # replay runs only when the planner actually
                            # reads the table (throttle accepted)
                            cts = prof.counts
                            rop._close_stale_locks(cycle)
                            if prof.counts is not cts:
                                del mir_pending[:]
                            if not sm.is_training:
                                # scalar count_in_window is half-open
                                # [cycle - window, cycle): an arrival at
                                # exactly ``cycle`` must not count
                                b_count = bisect_left(acyc, cycle) - bisect_left(
                                    acyc, cycle - window
                                )
                                if (
                                    rop._bus_pressure(0, cycle)
                                    > cfg.rop.bus_pressure_limit
                                ):
                                    rop.pressure_skips += 1
                                    stats.prefetch_skipped += 1
                                elif not rop.prefetcher.decide(
                                    b_count, rop.lam_beta[(0, 0)]
                                ):
                                    stats.prefetch_skipped += 1
                                else:
                                    sm.begin_prefetch()
                                    replay_table(len(acyc))
                                    flush_table()
                                    pf_lines = rop.prefetcher.candidate_lines(
                                        table, rop._mapper, 0, 0
                                    )
                                    if cfg.rop.adaptive_depth and pf_lines:
                                        depth = max(
                                            8, int(2.0 * rop._consumed_ema) + 8
                                        )
                                        pf_lines = pf_lines[:depth]
                                    if not pf_lines:
                                        sm.end_prefetch()
                                        stats.prefetch_skipped += 1
                                    else:
                                        due = fetch_prefetch(pf_lines, cycle)
                    for _ in range(count):
                        ref_banks = range(nbanks)
                        one_bank = -1
                        if per_bank:
                            ref_banks = refresh_mgr.banks_for(0, 0)
                            one_bank = ref_banks[0]
                        # Rank.start_refresh(due, banks=...)
                        start = due
                        for b in ref_banks:
                            q = b_ready[b]
                            if b_busy[b] > q:
                                q = b_busy[b]
                            if b_open[b] is not None and b_preok[b] > q:
                                q = b_preok[b]
                            if q > start:
                                start = q
                        end = start + RFC
                        for b in ref_banks:
                            b_open[b] = None
                            if end > b_ready[b]:
                                b_ready[b] = end
                            if end > b_preok[b]:
                                b_preok[b] = end
                        if not per_bank and end > locked_until:
                            if start > locked_until:
                                lock_start = start
                            locked_until = end
                        refresh_count += 1
                        s_refreshes += 1
                        s_locked_cycles += end - start
                        if end > s_end_cycle:
                            s_end_cycle = end
                        if t_ref:
                            sink_emit(2, 5, start, 0, 0, end, one_bank)
                        if rop_on:
                            # inline RopEngine.on_refresh_executed: training
                            # feed via the deferred mirror (B-count by
                            # bisection), real state machine and lock ledger,
                            # table reset by span elision
                            if t_rop:
                                rop._now = start
                            if sm.is_training:
                                mir_expire(start)
                                hi = len(acyc)
                                # [start - window, start): same half-open
                                # window as the scalar profiler
                                b = bisect_left(acyc, start) - bisect_left(
                                    acyc, start - window
                                )
                                mir_pending.append(
                                    [start, start + a_window, b, hi]
                                )
                                last_tr_adv = start
                                rop._maybe_finish_training(start)
                            rop._locks.append(
                                LockRecord(
                                    0,
                                    0,
                                    start,
                                    end,
                                    buffer.owner == (0, 0) and len(buf_lines) > 0,
                                )
                            )
                            reset_table_mirror()  # the refresh closes the window
                            table_upto = len(acyc)  # elide the span's table feed
                        due = end
                    if rq or wq:
                        schedule_retry(due)
            w = cycle + tick_period
            if w < heap_top:
                heap_top = w
                h0s = seq
            heappush(heap, (w, seq, _TICK, 0, 0))
            seq += 1
        elif tag == _PSTEP:
            paused_step(p1, cycle)

    # ------------------------------------------------------------- write-back
    core._idx = idx
    core._outstanding = outstanding
    core._stalled = stalled
    core._cpu_time = cpu_time
    core.finished = finished
    core.finish_cycle = finish_cycle
    core.reads_issued = rd_pref[idx]
    core.writes_issued = idx - rd_pref[idx]
    core.stall_events = stall_events
    for b in range(nbanks):
        bk = banks[b]
        bk.open_row = b_open[b]
        bk.ready_at = b_ready[b]
        bk.pre_ok_at = b_preok[b]
        bk.act_cycle = b_act[b]
        bk.busy_until = b_busy[b]
    rank.locked_until = locked_until
    rank.lock_start = lock_start
    rank.last_act = last_act
    rank.wtr_until = wtr_until
    rank.refresh_count = refresh_count
    rank.act_count = act_count
    ch_obj.bus_free_at = bus_free_at
    ch_obj.busy_cycles = busy_cycles
    stats.reads = s_reads + rd_pref[idx]
    stats.writes = s_writes + idx - rd_pref[idx]
    stats.prefetches = s_prefetches
    stats.row_hits = s_row_hits
    stats.row_closed = s_row_closed
    stats.row_conflicts = s_row_conflicts
    stats.read_latency_sum = s_lat_sum
    stats.read_latency_max = s_lat_max
    stats.reads_completed = s_completed
    stats.refreshes = s_refreshes
    stats.refresh_locked_cycles = s_locked_cycles
    stats.reads_arriving_in_lock = s_in_lock
    stats.sram_hits_in_lock = s_sram_in
    stats.sram_hits_out_of_lock = s_sram_out
    stats.sram_fills = s_sram_fills
    stats.prefetch_fetch_cycles = s_pf_cycles
    stats.end_cycle = s_end_cycle
    if rop_on:
        stats.sram_invalidations = buffer.invalidations
        replay_table(len(acyc))
        flush_table()
        # materialize the deferred profiler mirror back into the real
        # PatternProfiler: the arrival deque as the scalar's last advance()
        # would have left it, and the still-open probes with their
        # A-counts-so-far — finalize()/summary() then see scalar state
        la = last_tr_adv
        if acyc and acyc[-1] > la:
            la = acyc[-1]
        arrivals.clear()
        if acyc:
            j = bisect_left(acyc, la - window)
            n = len(acyc)
            while j < n:
                arrivals.append((acyc[j], not writes_col[j]))
                j += 1
        pend = []
        for rec in mir_pending:
            p = _PendingRefresh(rec[0], rec[1], rec[2])
            lo = bisect_left(acyc, rec[0])
            cidx = rec[3]
            if lo < cidx:
                lo = cidx
            p.a_count = rd_pref[bisect_left(acyc, rec[1])] - rd_pref[lo]
            pend.append(p)
        prof._pending = pend
    controller._rid = idx
    controller._retry_at[0] = -1
    controller._drain[0] = drain
    # leftover queue contents (only reachable when max_cycles cut the run
    # short: run_cores raises and reports pending_requests)
    if rq or wq:
        controller.read_q[0] = [
            Request(r[0], ReqKind.READ, r[1], Coord(0, 0, r[2], r[3], r[4]), r[5])
            for r in rq
        ]
        controller.write_q[0] = [
            Request(r[0], ReqKind.WRITE, r[1], Coord(0, 0, r[2], r[3], r[4]), r[5])
            for r in wq
        ]
    events.now = now
    events._heap.clear()
    events._work = 0
    events._seq = seq
    return None
