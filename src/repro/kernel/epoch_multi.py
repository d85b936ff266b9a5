"""Multi-topology epoch kernel: the flat engine for every other shape.

:mod:`repro.kernel.epoch` collapses the 1-core x 1-channel x 1-rank hot
path into scalar locals.  This module generalizes the same event-epoch
design to arbitrary topologies — N cores, C channels, R ranks, every
refresh mode — so the paper's headline sweeps (Figs. 10-14: 4-core mixes
over Baseline / rank-partitioned / ROP quad-rank systems) ride the fast
path instead of falling back to the scalar engine.

State layout: everything indexed flat.  Per-(channel, rank) state lives in
parallel lists keyed by ``kk = ci * R + ri``; bank timing vectors are
flattened once more to ``gb = kk * nbanks + bank``.  Per-core replay state
(trace cursor, MLP window, CPU clock) is one list per field, and each
core's trace columns are pre-decoded to flat lists including the channel
and rank columns the single-topology kernel ignores.

Events live in ONE heap of ``(cycle, seq, tag, a, b)`` tuples with a
global ``seq`` allocated at every push in the exact order the scalar
engine pushes — that, plus a global submission-order request id, is what
keeps cross-core FR-FCFS arbitration, bus serialization and the RNG
consumption order bit-identical to the scalar engine (the PR 6 contract).

The deferred ROP bookkeeping (arrival log + bisection instead of
per-request deque upkeep, lazily replayed prediction-table feed with
refresh-reset span elision) is carried over from the flat kernel, made
per-(channel, rank): each rank key owns its own arrival log, probe
mirror, table mirror and refresh grid (rank-staggered ``first_tick``).
Probe expiry ("advance") points are the observable ones — training ticks
and arrivals while a lock is open — and expiring *all* keys' matured
probes there is safe: a probe's category is fixed once its A-window
deadline has passed, counts are only read at training ticks (after a
full expiry sweep at the same cutoff) and a retrain resets counts and
pending in both engines.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush

import numpy as np

from ..config import RefreshMode
from ..core.state_machine import RopState
from ..dram.bank import AccessPlan
from ..dram.request import Coord, ReqKind, Request, ServiceKind

__all__ = ["run_epoch_multi"]

#: event tags (same dispatch set as the flat kernel)
_OP = 0  #: a core's next trace operation is due (a = core index)
_RCOMP = 1  #: a read completes (a = queue-entry tuple, b = channel)
_RETRY = 2  #: deduplicated scheduler wake-up (a = channel, b = wake)
_TICK = 3  #: tREFI grid tick (a = channel, b = rank; housekeeping)
_PSTEP = 4  #: one Refresh-Pausing segment step (a = state list)


def run_epoch_multi(memory, cores, max_cycles=None) -> str | None:
    """Run any-topology simulations through the flat kernel.

    Returns ``None`` when the kernel ran, or the decline reason for the
    configurations that still need the scalar engine (prediction-table
    ablation modes whose per-request feed is not inlined here).
    """
    org = memory.config.organization
    events = memory.events
    controller = memory.controller
    decline = controller.refresh_mgr.kernel_decline
    if decline is not None:
        # defensive: run_epoch_kernel already screened this, but direct
        # callers of the multi kernel get the same structured reason
        return decline
    cfg = controller.cfg
    t = controller.t
    rop = controller.rop
    rop_on = rop is not None
    refresh_mgr = controller.refresh_mgr
    sink = controller.sink
    sink_emit = sink.emit
    mapper = controller.mapper
    issue_tap = controller.issue_tap
    stats = controller.stats

    C = org.channels
    R = org.ranks
    nbanks = org.banks
    nkeys = C * R
    keys = [(ci, ri) for ci in range(C) for ri in range(R)]

    # DDR timing scalars
    RCD, RP, CL, CWL = t.rcd, t.rp, t.cl, t.cwl
    BURST, CCD, RTP, WR = t.burst, t.ccd, t.rtp, t.wr
    RAS, RRD, FAW, WTR, RFC = t.ras, t.rrd, t.faw, t.wtr, t.rfc

    t_req, t_svc, t_ref = controller._t_req, controller._t_svc, controller._t_ref
    t_rop = rop._t_rop if rop_on else False

    # ------------------------------------------------------- hardware state
    # banks flattened over (channel, rank, bank): gb = (ci*R + ri)*nbanks + b
    chans = controller.channels
    b_open: list = []
    b_ready: list[int] = []
    b_preok: list[int] = []
    b_act: list[int] = []
    b_busy: list[int] = []
    r_locked: list[int] = []
    r_lockstart: list[int] = []
    r_lastact: list[int] = []
    r_actwin: list = []  # deque(maxlen=4) per rank key, mutated in place
    r_wtr: list[int] = []
    r_refcount: list[int] = []
    r_actcount: list[int] = []
    for ci in range(C):
        for rk_obj in chans[ci].ranks:
            for b in rk_obj.banks:
                b_open.append(b.open_row)
                b_ready.append(b.ready_at)
                b_preok.append(b.pre_ok_at)
                b_act.append(b.act_cycle)
                b_busy.append(b.busy_until)
            r_locked.append(rk_obj.locked_until)
            r_lockstart.append(rk_obj.lock_start)
            r_lastact.append(rk_obj.last_act)
            r_actwin.append(rk_obj.act_window)
            r_wtr.append(rk_obj.wtr_until)
            r_refcount.append(rk_obj.refresh_count)
            r_actcount.append(rk_obj.act_count)
    bus_free = [ch.bus_free_at for ch in chans]
    busy_cyc = [ch.busy_cycles for ch in chans]

    # stats mirrors
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

    # ------------------------------------------------------- per-core state
    ncores = len(cores)
    core_cfg = cores[0].cfg if ncores else cfg.core
    mult = core_cfg.cpu_clock_mult
    mlp = core_cfg.mlp
    mm1 = mult - 1  #: ceil-div addend: ceil(t / mult) == (t + mm1) // mult
    # per-core op stream pre-zipped to one tuple per op — the dispatch
    # loop does a single index + unpack instead of seven column lookups
    c_ops: list[list[tuple]] = []
    c_gaps: list[list[int]] = []
    c_rdpref: list[list[int]] = []
    c_n: list[int] = []
    c_tail: list[int] = []
    idx_ = [0] * ncores
    out_ = [0] * ncores
    stalled_ = [False] * ncores
    cput_ = [0] * ncores
    fin_ = [False] * ncores
    finc_ = [0] * ncores
    stallev_ = [0] * ncores
    for core in cores:
        lines = core._lines
        n = len(lines)
        c_gaps.append(core._gap_cpu)
        c_n.append(n)
        c_tail.append(int(core.trace.tail_instructions * core.cfg.base_cpi))
        if n:
            ch_a, rk_a, bank_a, row_a, col_a = mapper.decode_array(core.trace.lines)
            kk_a = ch_a * R + rk_a
            c_ops.append(
                list(
                    zip(
                        lines,
                        core._writes,
                        ch_a.tolist(),
                        rk_a.tolist(),
                        bank_a.tolist(),
                        row_a.tolist(),
                        col_a.tolist(),
                        kk_a.tolist(),
                        (kk_a * nbanks + bank_a).tolist(),
                        (row_a * org.columns + col_a).tolist(),
                    )
                )
            )
        else:
            c_ops.append([])
        c_rdpref.append(
            np.concatenate(
                ([0], np.cumsum(core.trace.writes == 0, dtype=np.int64))
            ).tolist()
        )

    # ------------------------------------------------------ scheduler state
    drain_high = cfg.scheduler.write_drain_high
    drain_low = cfg.scheduler.write_drain_low
    # queue entry: (rid, line, rank, bank, row, col, arrival, core, kk, gb)
    # — kk/gb are the flat rank/bank indices, precomputed once per request
    # so the FR-FCFS scan does no index arithmetic.
    read_q: list[list[tuple]] = [[] for _ in range(C)]
    write_q: list[list[tuple]] = [[] for _ in range(C)]
    drain = [False] * C
    retry_at = [-1] * C
    # Arrival fast path: after a failing scan at cycle X, every queued
    # request on the channel is gate-blocked until at least gated[ci]
    # (> X).  Gates only move forward outside try_issue, so while
    # now < gated[ci] an arrival needs to check only ITSELF — the full
    # rescan is provably a no-op for the rest of the queue.  Any event
    # that could unblock old requests some other way (refresh drains,
    # prefetch fills into the SRAM buffer, training-state flips) resets
    # gated[ci] to -1, forcing the next arrival through the full scan.
    gated = [-1] * C
    # Stored retry pick: a failing scan knows which request the retry it
    # schedules will select (the ready set at `wake` is exactly the
    # requests whose gate equals the minimum, and bank state cannot move
    # before the retry or the store is invalidated).  The retry then
    # issues it directly instead of rescanning to rediscover it.
    sp_wake = [-1] * C
    sp_i = [0] * C
    sp_w = [False] * C
    # max refresh-lock end per channel: when cycle >= lockend[ci] no rank
    # of the channel is (or will be) frozen, so scans skip the per-request
    # lock-window test entirely — the common case between refreshes.
    lockend = [0] * C
    for kk in range(nkeys):
        ci = kk // R
        if r_locked[kk] > lockend[ci]:
            lockend[ci] = r_locked[kk]

    # -------------------------------------------------------- refresh state
    refresh_enabled = refresh_mgr.enabled
    tick_period = refresh_mgr.period
    pausing = cfg.refresh.mode is RefreshMode.PAUSING
    per_bank = cfg.refresh.mode is RefreshMode.PER_BANK
    pause_seg = max(1, RFC // max(1, cfg.refresh.pause_segments))

    # ------------------------------------------------------------ ROP state
    TRAINING = RopState.TRAINING
    if rop_on:
        sm = rop.sm
        buffer = rop.buffer
        buf_lines = buffer._lines  # stable set reference (mutated in place)
        buffer_consume = buffer.consume
        buffer_invalidate = buffer.invalidate
        from ..core.profiler import _PendingRefresh
        from ..core.rop_engine import LockRecord

        profs = [rop.profilers[key] for key in keys]
        tables = [rop.tables[key] for key in keys]
        prof0 = profs[0]  # retrain canary: a retrain rebinds every counts
        window = rop.window
        a_window = prof0.a_window
        ref_period = rop._ref_period
        columns = rop._columns
        table_all = not rop.rop.table_reads_only
        drain_before_refresh = cfg.rop.drain_before_refresh
        sram_latency = cfg.rop.sram_latency
        adaptive_depth = cfg.rop.adaptive_depth
        bus_pressure_limit = cfg.rop.bus_pressure_limit
        # deferred per-key mirrors (see repro.kernel.epoch for the scheme;
        # here every structure is one list per (channel, rank) key)
        k_cyc: list[list[int]] = [[] for _ in range(nkeys)]
        k_wr: list[list[int]] = [[] for _ in range(nkeys)]
        k_rdp: list[list[int]] = [[0] for _ in range(nkeys)]
        k_bank: list[list[int]] = [[] for _ in range(nkeys)]
        k_addr: list[list[int]] = [[] for _ in range(nkeys)]
        mir_pending: list[list[list[int]]] = [[] for _ in range(nkeys)]
        # per-key left edge of the scalar arrival deque: a training tick
        # advances *every* profiler to its start, which can lie past a
        # later tick's B-window on another rank
        k_pruned = [0] * nkeys
        last_tr_adv = -1  # last training-tick advance (global: all profilers)
        # per-key prediction-table mirrors; flat per-bank layout
        # [d1, f1, d2, ph2, f2, d3, ph3, f3] (matcher ks fixed at 1, 2, 3)
        table_upto = [0] * nkeys
        cur_due = [rop._ref_first[key] for key in keys]
        tb_last: list[list] = []
        tb_hist: list[list] = []
        tb_m: list[list] = []
        for tb in tables:
            entries = tb.entries
            if any(e.tumbling for e in entries):
                return "tumbling prediction-table ablation"
            if any([m.k for m in e._matchers] != [1, 2, 3] for e in entries):
                return "non-standard prediction-table matcher orders"
            tb_last.append([e.last_addr for e in entries])
            tb_hist.append([list(e._history) for e in entries])
            tb_m.append(
                [
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
            )
    else:
        sm = buffer = None
        sram_latency = 0
        drain_before_refresh = False

    SK = (ServiceKind.DRAM_HIT, ServiceKind.DRAM_CLOSED, ServiceKind.DRAM_CONFLICT)

    heap: list[tuple] = []
    seq = 0
    work = 0
    now = 0
    rid = 0  # global submission-order request id (scalar Controller._rid)
    todo = 0  # cores not yet finished
    INF = 1 << 62

    # ------------------------------------------------------------- closures

    def plan_commit(cycle, ci, ri, bank, row, col, is_write):
        """Inline Rank.plan + bus shift + Rank.commit for one access."""
        kk = ci * R + ri
        gb = kk * nbanks + bank
        lu = r_locked[kk]
        start = cycle if cycle > lu else lu
        if is_write:
            not_before = start
        else:
            w = r_wtr[kk]
            not_before = start if start > w else w
        bstart = b_ready[gb]
        if cycle > bstart:
            bstart = cycle
        if not_before > bstart:
            bstart = not_before
        cas = CWL if is_write else CL
        orow = b_open[gb]
        if orow == row:
            col_c = bstart
            act = -1
            cat = 0
        else:
            aw = r_actwin[kk]
            act_gate = r_lastact[kk] + RRD
            if len(aw) == 4:
                faw_gate = aw[0] + FAW
                if faw_gate > act_gate:
                    act_gate = faw_gate
            if orow is None:
                act = bstart if bstart > act_gate else act_gate
                cat = 1
            else:
                pre = b_preok[gb]
                if bstart > pre:
                    pre = bstart
                act = pre + RP
                if act_gate > act:
                    act = act_gate
                cat = 2
            col_c = act + RCD
        dstart = col_c + cas
        dend = dstart + BURST
        shift = bus_free[ci] - dstart
        if shift > 0:
            col_c += shift
            dstart += shift
            dend += shift
        if act >= 0:
            b_open[gb] = row
            b_act[gb] = act
            r_lastact[kk] = act
            r_actwin[kk].append(act)
            r_actcount[kk] += 1
        b_ready[gb] = col_c + CCD
        if dend > b_busy[gb]:
            b_busy[gb] = dend
        recover = col_c + CWL + BURST + WR if is_write else col_c + RTP
        ras_done = b_act[gb] + RAS
        preok = b_preok[gb]
        if recover > preok:
            preok = recover
        if ras_done > preok:
            preok = ras_done
        b_preok[gb] = preok
        if is_write:
            wu = col_c + CWL + BURST + WTR
            if wu > r_wtr[kk]:
                r_wtr[kk] = wu
        if issue_tap is not None:
            issue_tap(
                Coord(ci, ri, bank, row, col),
                AccessPlan(col_c, dstart, dend, act, SK[cat]),
                is_write,
            )
        bus_free[ci] = dend
        busy_cyc[ci] += dend - dstart
        return dend

    def issue(ci, r, cycle, is_write):
        """Commit one queued demand request (inline Controller._issue)."""
        nonlocal s_row_hits, s_row_closed, s_row_conflicts, seq, work
        row = r[4]
        kk = r[8]
        gb = r[9]
        lu = r_locked[kk]
        start = cycle if cycle > lu else lu
        if is_write:
            not_before = start
        else:
            w = r_wtr[kk]
            not_before = start if start > w else w
        bstart = b_ready[gb]
        if cycle > bstart:
            bstart = cycle
        if not_before > bstart:
            bstart = not_before
        orow = b_open[gb]
        if orow == row:
            col_c = bstart
            act = -1
            cat = 0
            s_row_hits += 1
        else:
            aw = r_actwin[kk]
            act_gate = r_lastact[kk] + RRD
            if len(aw) == 4:
                faw_gate = aw[0] + FAW
                if faw_gate > act_gate:
                    act_gate = faw_gate
            if orow is None:
                act = bstart if bstart > act_gate else act_gate
                cat = 1
                s_row_closed += 1
            else:
                pre = b_preok[gb]
                if bstart > pre:
                    pre = bstart
                act = pre + RP
                if act_gate > act:
                    act = act_gate
                cat = 2
                s_row_conflicts += 1
            col_c = act + RCD
            b_open[gb] = row
            b_act[gb] = act
            r_lastact[kk] = act
            aw.append(act)
            r_actcount[kk] += 1
        dstart = col_c + (CWL if is_write else CL)
        dend = dstart + BURST
        shift = bus_free[ci] - dstart
        if shift > 0:
            col_c += shift
            dstart += shift
            dend += shift
        b_ready[gb] = col_c + CCD
        if dend > b_busy[gb]:
            b_busy[gb] = dend
        recover = col_c + CWL + BURST + WR if is_write else col_c + RTP
        ras_done = b_act[gb] + RAS
        preok = b_preok[gb]
        if recover > preok:
            preok = recover
        if ras_done > preok:
            preok = ras_done
        b_preok[gb] = preok
        if is_write:
            wu = col_c + CWL + BURST + WTR
            if wu > r_wtr[kk]:
                r_wtr[kk] = wu
        if issue_tap is not None:
            issue_tap(
                Coord(ci, r[2], r[3], row, r[5]),
                AccessPlan(col_c, dstart, dend, act, SK[cat]),
                is_write,
            )
        bus_free[ci] = dend
        busy_cyc[ci] += dend - dstart
        if t_svc:
            sink_emit(1, 2, col_c, ci, r[2], r[0], cat)  # SERVICE / ISSUE
        if not is_write:
            heappush(heap, (dend, seq, _RCOMP, r, ci))
            seq += 1
            work += 1

    def complete_from_sram(ci, r, cycle):
        """Service a queued read from the SRAM buffer (inline)."""
        nonlocal s_sram_in, s_sram_out, seq, work
        ri = r[2]
        kk = r[8]
        line = r[1]
        in_lock = r_lockstart[kk] <= cycle < r_locked[kk]
        if in_lock:
            s_sram_in += 1
        else:
            s_sram_out += 1
        if t_svc:
            sink_emit(1, 4, cycle, ci, ri, line, 1 if in_lock else 0)  # SRAM_SERVICE
        # inline RopEngine.on_sram_hit: consume + per-lock hit bookkeeping
        buffer_consume(line, cycle)
        if in_lock:
            for rec in reversed(rop._locks):
                if (
                    rec.channel == ci
                    and rec.rank == ri
                    and rec.start <= cycle < rec.end
                ):
                    rec.hits += 1
                    break
        heappush(heap, (cycle + sram_latency, seq, _RCOMP, r, ci))
        seq += 1
        work += 1

    def schedule_retry(ci, wake):
        nonlocal seq, work
        pending = retry_at[ci]
        if 0 <= pending <= wake:
            return
        retry_at[ci] = wake
        heappush(heap, (wake, seq, _RETRY, ci, wake))
        seq += 1
        work += 1

    def try_issue(ci, cycle):
        """Issue everything that can start now (inline Controller._try_issue).

        The FR-FCFS pick (Controller._select) is inlined at both scan
        sites with the per-request rank-lock gate: a request to a frozen
        rank contributes ``locked_until`` to the wake scan while requests
        to live ranks keep issuing — the cross-rank overlap the paper's
        staggered refresh depends on.
        """
        nonlocal seq, work
        rq = read_q[ci]
        wq = write_q[ci]
        gated[ci] = -1
        sp_wake[ci] = -1
        rls = r_lockstart
        rlk = r_locked
        brdy = b_ready
        bopn = b_open
        # lock state never changes inside one try_issue call
        locks_live = cycle < lockend[ci]
        progress = True
        while progress:
            progress = False
            # SRAM service sweep (any rank; guard order is side-effect free)
            if rop_on and rq and buf_lines and sm.state is not TRAINING:
                i = 0
                while i < len(rq):
                    if rq[i][1] in buf_lines:
                        complete_from_sram(ci, rq.pop(i), cycle)
                        progress = True
                    else:
                        i += 1
            lw = len(wq)
            if not drain[ci] and lw >= drain_high:
                drain[ci] = True
            elif drain[ci] and lw <= drain_low:
                drain[ci] = False
            if drain[ci]:
                queue = wq
            elif rq:
                queue = rq
            elif wq:
                queue = wq
            else:
                break
            # FR-FCFS scan: oldest ready row hit, else oldest ready,
            # else the earliest ungate cycle (bank ready or lock release).
            # fr/fh track the first ready / first row-hit request AT the
            # candidate wake, feeding the stored retry pick: a request
            # gated by its bank is ready the cycle the bank opens; one
            # gated by a rank lock is ready at lock end only if its bank
            # is too.
            pick = -1
            wake = -1
            fr = fh = -1
            for i, r in enumerate(queue):
                gb = r[9]
                if locks_live and rls[(kk := r[8])] <= cycle < rlk[kk]:
                    gate = rlk[kk]
                    if wake < 0 or gate < wake:
                        wake = gate
                        if brdy[gb] <= gate:
                            fr = i
                            fh = i if bopn[gb] == r[4] else -1
                        else:
                            fr = fh = -1
                    elif gate == wake and brdy[gb] <= gate:
                        if fr < 0:
                            fr = i
                        if fh < 0 and bopn[gb] == r[4]:
                            fh = i
                else:
                    gate = brdy[gb]
                    if gate <= cycle:
                        if bopn[gb] == r[4]:
                            pick = i
                            break
                        if pick < 0:
                            pick = i
                        continue
                    if wake < 0 or gate < wake:
                        wake = gate
                        fr = i
                        fh = i if bopn[gb] == r[4] else -1
                    elif gate == wake:
                        if fr < 0:
                            fr = i
                        if fh < 0 and bopn[gb] == r[4]:
                            fh = i
            if pick < 0:
                use_w = queue is wq
                if not use_w and wq:
                    # reads all gated; opportunistically try a write
                    wpick = -1
                    wwake = -1
                    ofr = ofh = -1
                    for i, r in enumerate(wq):
                        gb = r[9]
                        if locks_live and rls[(kk := r[8])] <= cycle < rlk[kk]:
                            gate = rlk[kk]
                            if wwake < 0 or gate < wwake:
                                wwake = gate
                                if brdy[gb] <= gate:
                                    ofr = i
                                    ofh = i if bopn[gb] == r[4] else -1
                                else:
                                    ofr = ofh = -1
                            elif gate == wwake and brdy[gb] <= gate:
                                if ofr < 0:
                                    ofr = i
                                if ofh < 0 and bopn[gb] == r[4]:
                                    ofh = i
                        else:
                            gate = brdy[gb]
                            if gate <= cycle:
                                if bopn[gb] == r[4]:
                                    wpick = i
                                    break
                                if wpick < 0:
                                    wpick = i
                                continue
                            if wwake < 0 or gate < wwake:
                                wwake = gate
                                ofr = i
                                ofh = i if bopn[gb] == r[4] else -1
                            elif gate == wwake:
                                if ofr < 0:
                                    ofr = i
                                if ofh < 0 and bopn[gb] == r[4]:
                                    ofh = i
                    if wpick >= 0:
                        issue(ci, wq.pop(wpick), cycle, True)
                        progress = True
                        continue
                    if wake < 0 or 0 <= wwake < wake:
                        wake = wwake
                        fr, fh, use_w = ofr, ofh, True
                    elif wwake == wake and fr < 0:
                        # the retry's read scan finds nothing ready and
                        # falls through to the opportunistic write
                        fr, fh, use_w = ofr, ofh, True
                if wake >= 0:
                    gated[ci] = wake
                    if fr >= 0:
                        sp_wake[ci] = wake
                        sp_i[ci] = fh if fh >= 0 else fr
                        sp_w[ci] = use_w
                    # inline schedule_retry(ci, wake)
                    pending = retry_at[ci]
                    if pending < 0 or pending > wake:
                        retry_at[ci] = wake
                        heappush(heap, (wake, seq, _RETRY, ci, wake))
                        seq += 1
                        work += 1
                break
            issue(ci, queue.pop(pick), cycle, queue is wq)
            progress = True

    # ------------------------------------------------------ ROP closures

    def mir_expire_all(cycle):
        """Categorize matured pending probes of every key (see module doc)."""
        for kk in range(nkeys):
            pend = mir_pending[kk]
            if not pend:
                continue
            counts = profs[kk].counts  # fetched live: a retrain rebinds it
            kc = k_cyc[kk]
            rdp = k_rdp[kk]
            still = []
            for rec in pend:
                deadline = rec[1]
                if deadline > cycle:
                    still.append(rec)
                    continue
                lo = bisect_left(kc, rec[0])
                cidx = rec[3]
                if lo < cidx:
                    lo = cidx
                a = rdp[bisect_left(kc, deadline)] - rdp[lo]
                if rec[2] > 0:
                    if a > 0:
                        counts.b_pos_a_pos += 1
                    else:
                        counts.b_pos_a_zero += 1
                elif a > 0:
                    counts.b_zero_a_pos += 1
                else:
                    counts.b_zero_a_zero += 1
            pend[:] = still

    def clear_all_pending():
        for kk in range(nkeys):
            del mir_pending[kk][:]

    def rop_lock_upkeep(cycle):
        """Per-arrival lock close + probe expiry while any lock is open."""
        cts = prof0.counts
        rop._close_stale_locks(cycle)
        if prof0.counts is not cts:  # a lock outcome retrained
            clear_all_pending()
            return
        mir_expire_all(cycle)

    def table_update(tl, th, tm, bank, addr):
        """Inline BankEntry.update (cyclic matchers, non-tumbling)."""
        prev = tl[bank]
        tl[bank] = addr
        if prev is None:
            return
        delta = addr - prev
        if delta == 0:
            return
        hist = th[bank]
        m = tm[bank]
        p2 = m[2]
        p3 = m[5]
        if (
            delta == m[0]
            and p2 is not None
            and delta == p2[m[3]]
            and p3 is not None
            and delta == p3[m[6]]
        ):
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
        if m[0] == delta:
            f = m[1] + 1
            m[1] = f
            if f >= 255:
                capped = True
        else:
            m[0] = delta
            m[1] = 0
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

    def replay_table(kk):
        """Replay a key's deferred prediction-table feed up to its log head.

        Invoked only before a table *read*; spans that end in a refresh
        reset never get here — the reset advances ``table_upto`` past
        them, eliding feed work for tables about to be cleared.
        """
        kc = k_cyc[kk]
        upto = len(kc)
        j = table_upto[kk]
        if j >= upto:
            return
        table_upto[kk] = upto
        cd = cur_due[kk]
        kwr = k_wr[kk]
        kb = k_bank[kk]
        ka = k_addr[kk]
        tl = tb_last[kk]
        th = tb_hist[kk]
        tm = tb_m[kk]
        while j < upto:
            if table_all or not kwr[j]:
                c = kc[j]
                while cd < c:
                    cd += ref_period
                if cd - c <= window:
                    table_update(tl, th, tm, kb[j], ka[j])
            j += 1
        cur_due[kk] = cd

    def flush_table(kk):
        """Publish a key's table mirror into the real BankEntry objects."""
        tl = tb_last[kk]
        th = tb_hist[kk]
        tm = tb_m[kk]
        for b, e in enumerate(tables[kk].entries):
            e.last_addr = tl[b]
            h = e._history
            h.clear()
            h.extend(th[b])
            m = tm[b]
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

    def reset_table_mirror(kk):
        """Mirror TableEntry.reset() (refresh closed the window)."""
        tl = tb_last[kk]
        th = tb_hist[kk]
        tm = tb_m[kk]
        for b in range(nbanks):
            tl[b] = None
            th[b].clear()
            tm[b][:] = (None, 0, None, 0, 0, None, 0, 0)

    def sync_prof_window(kk, cycle):
        """Materialize a key's arrival deque for count_in_window."""
        arr = profs[kk]._arrivals
        arr.clear()
        kc = k_cyc[kk]
        kwr = k_wr[kk]
        lo = max(bisect_left(kc, cycle - window), k_pruned[kk])
        n = len(kc)
        while lo < n:
            arr.append((kc[lo], not kwr[lo]))
            lo += 1

    def fetch_prefetch(ci, ri, pf_lines, cycle):
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
            dend = plan_commit(cycle, ci, ri, c.bank, c.row, c.col, False)
            s_prefetches += 1
            if dend > done:
                done = dend
        s_pf_cycles += done - cycle
        s_sram_fills += len(to_fetch)
        cts = prof0.counts
        rop.on_prefetch_fill(ci, ri, ordered, done)
        if prof0.counts is not cts:  # a tenure close inside retrained
            clear_all_pending()
        return done

    def paused_step(st, cycle):
        """One Refresh-Pausing segment (inline Controller._paused_refresh).

        ``st`` is ``[remaining, counted, deadline, ci, ri]``; the pending
        check is rank-filtered, exactly ``_pending_for_rank``.
        """
        nonlocal s_refreshes, s_locked_cycles, s_end_cycle, seq, work
        remaining = st[0]
        if remaining <= 0:
            return
        ci = st[3]
        ri = st[4]
        rq = read_q[ci]
        wq = write_q[ci]
        if cycle + remaining < st[2]:
            pending = 0
            for r in rq:
                if r[2] == ri:
                    pending += 1
            for r in wq:
                if r[2] == ri:
                    pending += 1
            if pending > 0:
                # pause: demand goes first; re-check one segment later
                if t_ref:
                    sink_emit(2, 6, cycle, ci, ri, remaining)  # REFRESH_PAUSE
                heappush(heap, (cycle + pause_seg, seq, _PSTEP, st, 0))
                seq += 1
                work += 1
                try_issue(ci, cycle)
                return
        dur = pause_seg if pause_seg < remaining else remaining
        kk = ci * R + ri
        base_gb = kk * nbanks
        # Rank.start_refresh(cycle, duration=dur), all banks
        start = cycle
        for b in range(nbanks):
            gb = base_gb + b
            q = b_ready[gb]
            if b_busy[gb] > q:
                q = b_busy[gb]
            if b_open[gb] is not None and b_preok[gb] > q:
                q = b_preok[gb]
            if q > start:
                start = q
        end = start + dur
        for b in range(nbanks):
            gb = base_gb + b
            b_open[gb] = None
            if end > b_ready[gb]:
                b_ready[gb] = end
            if end > b_preok[gb]:
                b_preok[gb] = end
        # raising b_ready / closing rows breaks stored-pick readiness
        sp_wake[ci] = -1
        if end > r_locked[kk]:
            if start > r_locked[kk]:
                r_lockstart[kk] = start
            r_locked[kk] = end
            if end > lockend[ci]:
                lockend[ci] = end
        r_refcount[kk] += 1
        st[0] = remaining - dur
        s_locked_cycles += end - start
        if end > s_end_cycle:
            s_end_cycle = end
        if not st[1]:
            s_refreshes += 1
            st[1] = True
        if t_ref:
            sink_emit(2, 5, start, ci, ri, end, -1)  # REFRESH_WINDOW
        if st[0] > 0:
            heappush(heap, (end, seq, _PSTEP, st, 0))
            seq += 1
            work += 1
        elif rq or wq:
            schedule_retry(ci, end)

    # ------------------------------------------------------------- seeding
    # replicate the scalar push order: the controller's initial refresh
    # ticks per (channel, rank) in nested order, then each core's first op
    if refresh_enabled:
        for ci in range(C):
            for ri in range(R):
                heappush(heap, (refresh_mgr.first_tick(ci, ri), seq, _TICK, ci, ri))
                seq += 1
    for k in range(ncores):
        if c_n[k] == 0:
            fin_[k] = True
        else:
            todo += 1
            cput_[k] += c_gaps[k][0]
            when = (cput_[k] + mm1) // mult
            if when < 0:
                when = 0
            heappush(heap, (when, seq, _OP, k, 0))
            seq += 1
            work += 1

    # ------------------------------------------------------------- main loop
    # Two phases mirroring run_cores on the scalar path:
    # memory.run(until=max_cycles), then — once every core has retired —
    # memory.run(until=last_retire) for the compute tail.
    until = max_cycles
    tail = False
    while True:
        if tail or until is not None:
            nxt = heap[0][0] if heap else INF
            if tail:
                if nxt > until:
                    break
            elif nxt > until:
                if todo:
                    break
                last_retire = max(finc_) if finc_ else 0
                if last_retire <= now:
                    break
                tail = True
                until = last_retire
                continue
        elif not work:
            if todo:
                break
            last_retire = max(finc_) if finc_ else 0
            if last_retire <= now:
                break
            tail = True
            until = last_retire
            continue
        cycle, _s, tag, p1, p2 = heappop(heap)
        if tag != _TICK:
            work -= 1
        now = cycle
        if tag == _RCOMP:
            r = p1
            ci = p2
            # Controller._account_read
            lat = cycle - r[6]
            s_completed += 1
            s_lat_sum += lat
            if lat > s_lat_max:
                s_lat_max = lat
            if cycle > s_end_cycle:
                s_end_cycle = cycle
            if t_svc:
                sink_emit(1, 3, cycle, ci, r[2], r[0], lat)  # SERVICE / COMPLETE
            # Core._on_read_done
            k = r[7]
            out_[k] -= 1
            ct = cycle * mult
            if ct > cput_[k]:
                cput_[k] = ct
            if not fin_[k]:
                if idx_[k] >= c_n[k]:
                    if out_[k] == 0:
                        cput_[k] += c_tail[k]
                        fin_[k] = True
                        todo -= 1
                        fc = -(-cput_[k] // mult)
                        finc_[k] = fc if fc > cycle else cycle
                elif stalled_[k]:
                    stalled_[k] = False
                    cput_[k] += c_gaps[k][idx_[k]]
                    when = (cput_[k] + mm1) // mult
                    if when < cycle:
                        when = cycle
                    heappush(heap, (when, seq, _OP, k, 0))
                    seq += 1
                    work += 1
        elif tag == _OP:
            k = p1
            while True:
                i = idx_[k]
                line, is_wr, ci, ri, bank, row, col, kk, gb, addr = c_ops[k][i]
                r = (rid, line, ri, bank, row, col, cycle, k, kk, gb)
                rid += 1
                if is_wr:
                    # Controller.submit(WRITE)
                    write_q[ci].append(r)
                    if rop_on:
                        if line in buf_lines:
                            buffer_invalidate(line, cycle)
                        if t_req:
                            sink_emit(0, 1, cycle, ci, ri, line)  # WRITE_ARRIVAL
                        # deferred RopEngine.on_request: log the arrival
                        if t_rop:
                            rop._now = cycle
                        k_cyc[kk].append(cycle)
                        k_wr[kk].append(1)
                        rdp = k_rdp[kk]
                        rdp.append(rdp[-1])
                        k_bank[kk].append(bank)
                        k_addr[kk].append(addr)
                        if rop._locks:
                            rop_lock_upkeep(cycle)
                    elif t_req:
                        sink_emit(0, 1, cycle, ci, ri, line)
                    g = gated[ci]
                    if g > cycle:
                        # fast arrival: everything older stays gate-blocked, so
                        # the full scan reduces to checking this write alone
                        # (same drain hysteresis, same retry pushes)
                        wq = write_q[ci]
                        if not drain[ci] and len(wq) >= drain_high:
                            # entering drain changes the retry's queue choice
                            drain[ci] = True
                            sp_wake[ci] = -1
                        if r_lockstart[kk] <= cycle < r_locked[kk]:
                            gate = r_locked[kk]
                        else:
                            gate = b_ready[gb]
                        if gate <= cycle:
                            wq.pop()
                            sp_wake[ci] = -1  # issue moves bank state
                            issue(ci, r, cycle, True)
                            if drain[ci] and len(wq) <= drain_low:
                                # leaving drain mode may unblock queued reads
                                drain[ci] = False
                                try_issue(ci, cycle)
                        else:
                            if gate < g:
                                gated[ci] = gate
                            if gate <= sp_wake[ci]:
                                # this write may join (or outrank) the stored
                                # pick's ready set at the wake cycle
                                sp_wake[ci] = -1
                            pending = retry_at[ci]
                            if pending < 0 or gate < pending:
                                retry_at[ci] = gate
                                heappush(heap, (gate, seq, _RETRY, ci, gate))
                                seq += 1
                                work += 1
                    else:
                        try_issue(ci, cycle)
                else:
                    out_[k] += 1
                    # Controller.submit(READ)
                    read_q[ci].append(r)
                    if r_lockstart[kk] <= cycle < r_locked[kk]:
                        s_in_lock += 1
                        if rop_on:
                            for rec in reversed(rop._locks):
                                if (
                                    rec.channel == ci
                                    and rec.rank == ri
                                    and rec.start <= cycle < rec.end
                                ):
                                    rec.arrivals += 1
                                    break
                    if t_req:
                        sink_emit(0, 0, cycle, ci, ri, line)  # READ_ARRIVAL
                    if rop_on:
                        if t_rop:
                            rop._now = cycle
                        k_cyc[kk].append(cycle)
                        k_wr[kk].append(0)
                        rdp = k_rdp[kk]
                        rdp.append(rdp[-1] + 1)
                        k_bank[kk].append(bank)
                        k_addr[kk].append(addr)
                        if rop._locks:
                            rop_lock_upkeep(cycle)
                    g = gated[ci]
                    if g > cycle:
                        # fast arrival, read flavor: SRAM sweep first (original
                        # scan order), drain mode blocks reads without a retry
                        # push, otherwise gate-check this request alone
                        if (
                            rop_on
                            and buf_lines
                            and line in buf_lines
                            and sm.state is not TRAINING
                        ):
                            read_q[ci].pop()
                            complete_from_sram(ci, r, cycle)
                        elif not drain[ci]:
                            if r_lockstart[kk] <= cycle < r_locked[kk]:
                                gate = r_locked[kk]
                            else:
                                gate = b_ready[gb]
                            if gate <= cycle:
                                read_q[ci].pop()
                                sp_wake[ci] = -1  # issue moves bank state
                                issue(ci, r, cycle, False)
                            else:
                                if gate < g:
                                    gated[ci] = gate
                                if gate <= sp_wake[ci]:
                                    sp_wake[ci] = -1
                                pending = retry_at[ci]
                                if pending < 0 or gate < pending:
                                    retry_at[ci] = gate
                                    heappush(heap, (gate, seq, _RETRY, ci, gate))
                                    seq += 1
                                    work += 1
                    else:
                        try_issue(ci, cycle)
                # Core._do_op tail: advance / stall / finish
                i += 1
                idx_[k] = i
                if i >= c_n[k]:
                    if out_[k] == 0 and not fin_[k]:
                        cput_[k] += c_tail[k]
                        fin_[k] = True
                        todo -= 1
                        fc = -(-cput_[k] // mult)
                        finc_[k] = fc if fc > cycle else cycle
                    break
                if out_[k] >= mlp:
                    stalled_[k] = True
                    stallev_[k] += 1
                    break
                cput_[k] += c_gaps[k][i]
                when = (cput_[k] + mm1) // mult
                if when < cycle:
                    when = cycle
                # chained op: when this core's next access fires strictly
                # before everything queued (and inside the current run
                # phase), process it inline — the heap round-trip would
                # pop it right back.  Identical event order by
                # construction; seq values shift uniformly, preserving
                # every tie-break.
                if (not heap or when < heap[0][0]) and (
                    until is None or when <= until
                ):
                    cycle = when
                    now = when
                    continue
                heappush(heap, (when, seq, _OP, k, 0))
                seq += 1
                work += 1
                break
        elif tag == _RETRY:
            ci = p1
            if retry_at[ci] == p2:
                retry_at[ci] = -1
            if gated[ci] > cycle and retry_at[ci] >= 0:
                # superseded wake-up: every queued request is still
                # gate-blocked (gated is a maintained lower bound, and
                # no fill or state flip happened since it was set), and
                # an earlier retry is pending, so the rescan would fail
                # and its retry push would dedup — a provable no-op
                pass
            else:
                if sp_wake[ci] == cycle:
                    # stored retry pick: the failing scan already
                    # identified the request this wake-up selects, and
                    # every state change since would have invalidated
                    # the store — issue it directly and let try_issue
                    # continue from there
                    sp_wake[ci] = -1
                    q = write_q[ci] if sp_w[ci] else read_q[ci]
                    issue(ci, q.pop(sp_i[ci]), cycle, sp_w[ci])
                try_issue(ci, cycle)
        elif tag == _TICK:
            ci = p1
            ri = p2
            if pausing:
                paused_step([RFC, False, cycle + tick_period - RFC, ci, ri], cycle)
            else:
                rq = read_q[ci]
                wq = write_q[ci]
                pending = 0
                for r in rq:
                    if r[2] == ri:
                        pending += 1
                for r in wq:
                    if r[2] == ri:
                        pending += 1
                count = refresh_mgr.decide(ci, ri, cycle, pending)
                if count > 0:
                    # drains, prefetch fills and training-state flips can
                    # all unblock queued requests: force the next arrival
                    # through the full scan
                    gated[ci] = -1
                    sp_wake[ci] = -1
                    due = cycle
                    kk = ci * R + ri
                    if rop_on:
                        if drain_before_refresh:
                            # Controller._drain_rank: rank-filtered, cap 16
                            drained = 0
                            i = 0
                            while i < len(rq) and drained < 16:
                                if rq[i][2] == ri:
                                    issue(ci, rq.pop(i), cycle, False)
                                    drained += 1
                                else:
                                    i += 1
                            i = 0
                            while i < len(wq) and drained < 16:
                                if wq[i][2] == ri:
                                    issue(ci, wq.pop(i), cycle, True)
                                    drained += 1
                                else:
                                    i += 1
                        chans[ci].busy_cycles = busy_cyc[ci]  # for _bus_pressure
                        if t_rop:
                            # instrumented runs delegate (skip emits carry
                            # the B-count); materialize what the planner
                            # reads for this key
                            if not sm.is_training:
                                replay_table(kk)
                                flush_table(kk)
                            sync_prof_window(kk, cycle)
                            cts = prof0.counts
                            pf_lines = rop.plan_prefetch(ci, ri, cycle)
                            if prof0.counts is not cts:  # a close retrained
                                clear_all_pending()
                            if pf_lines:
                                due = fetch_prefetch(ci, ri, pf_lines, cycle)
                        else:
                            # inline RopEngine.plan_prefetch, dark path
                            cts = prof0.counts
                            rop._close_stale_locks(cycle)
                            if prof0.counts is not cts:
                                clear_all_pending()
                            if not sm.is_training:
                                kc = k_cyc[kk]
                                # half-open [cycle - window, cycle)
                                b_count = max(
                                    0,
                                    bisect_left(kc, cycle)
                                    - max(bisect_left(kc, cycle - window), k_pruned[kk]),
                                )
                                if rop._bus_pressure(ci, cycle) > bus_pressure_limit:
                                    rop.pressure_skips += 1
                                    stats.prefetch_skipped += 1
                                elif not rop.prefetcher.decide(
                                    b_count, rop.lam_beta[(ci, ri)]
                                ):
                                    stats.prefetch_skipped += 1
                                else:
                                    sm.begin_prefetch()
                                    replay_table(kk)
                                    flush_table(kk)
                                    pf_lines = rop.prefetcher.candidate_lines(
                                        tables[kk], rop._mapper, ci, ri
                                    )
                                    if adaptive_depth and pf_lines:
                                        depth = max(
                                            8, int(2.0 * rop._consumed_ema) + 8
                                        )
                                        pf_lines = pf_lines[:depth]
                                    if not pf_lines:
                                        sm.end_prefetch()
                                        stats.prefetch_skipped += 1
                                    else:
                                        due = fetch_prefetch(ci, ri, pf_lines, cycle)
                    base_gb = kk * nbanks
                    for _ in range(count):
                        ref_banks = range(nbanks)
                        one_bank = -1
                        if per_bank:
                            ref_banks = refresh_mgr.banks_for(ci, ri)
                            one_bank = ref_banks[0]
                        # Rank.start_refresh(due, banks=...)
                        start = due
                        for b in ref_banks:
                            gb = base_gb + b
                            q = b_ready[gb]
                            if b_busy[gb] > q:
                                q = b_busy[gb]
                            if b_open[gb] is not None and b_preok[gb] > q:
                                q = b_preok[gb]
                            if q > start:
                                start = q
                        end = start + RFC
                        for b in ref_banks:
                            gb = base_gb + b
                            b_open[gb] = None
                            if end > b_ready[gb]:
                                b_ready[gb] = end
                            if end > b_preok[gb]:
                                b_preok[gb] = end
                        if not per_bank and end > r_locked[kk]:
                            if start > r_locked[kk]:
                                r_lockstart[kk] = start
                            r_locked[kk] = end
                            if end > lockend[ci]:
                                lockend[ci] = end
                        r_refcount[kk] += 1
                        s_refreshes += 1
                        s_locked_cycles += end - start
                        if end > s_end_cycle:
                            s_end_cycle = end
                        if t_ref:
                            sink_emit(2, 5, start, ci, ri, end, one_bank)
                        if rop_on:
                            # inline RopEngine.on_refresh_executed
                            if t_rop:
                                rop._now = start
                            if sm.is_training:
                                mir_expire_all(start)
                                # _maybe_finish_training advances every
                                # profiler to start: prune all deques
                                for k2 in range(nkeys):
                                    j = bisect_left(k_cyc[k2], start - window)
                                    if j > k_pruned[k2]:
                                        k_pruned[k2] = j
                                kc = k_cyc[kk]
                                hi = len(kc)
                                # [start - window, start): half-open, same
                                # as the scalar profiler
                                b = max(0, bisect_left(kc, start) - k_pruned[kk])
                                mir_pending[kk].append(
                                    [start, start + a_window, b, hi]
                                )
                                last_tr_adv = start
                                rop._maybe_finish_training(start)
                            rop._locks.append(
                                LockRecord(
                                    ci,
                                    ri,
                                    start,
                                    end,
                                    buffer.owner == keys[kk]
                                    and len(buf_lines) > 0,
                                )
                            )
                            reset_table_mirror(kk)  # refresh closes the window
                            table_upto[kk] = len(k_cyc[kk])  # elide the feed
                        due = end
                    if rq or wq:
                        schedule_retry(ci, due)
            heappush(heap, (cycle + tick_period, seq, _TICK, ci, ri))
            seq += 1
        else:  # _PSTEP
            paused_step(p1, cycle)

    # ------------------------------------------------------------- write-back
    total_reads = 0
    total_writes = 0
    for k, core in enumerate(cores):
        i = idx_[k]
        core._idx = i
        core._outstanding = out_[k]
        core._stalled = stalled_[k]
        core._cpu_time = cput_[k]
        core.finished = fin_[k]
        core.finish_cycle = finc_[k]
        nrd = c_rdpref[k][i]
        core.reads_issued = nrd
        core.writes_issued = i - nrd
        core.stall_events = stallev_[k]
        total_reads += nrd
        total_writes += i - nrd
    gb = 0
    kk = 0
    for ci in range(C):
        ch_obj = chans[ci]
        for rk_obj in ch_obj.ranks:
            for b in rk_obj.banks:
                b.open_row = b_open[gb]
                b.ready_at = b_ready[gb]
                b.pre_ok_at = b_preok[gb]
                b.act_cycle = b_act[gb]
                b.busy_until = b_busy[gb]
                gb += 1
            rk_obj.locked_until = r_locked[kk]
            rk_obj.lock_start = r_lockstart[kk]
            rk_obj.last_act = r_lastact[kk]
            rk_obj.wtr_until = r_wtr[kk]
            rk_obj.refresh_count = r_refcount[kk]
            rk_obj.act_count = r_actcount[kk]
            kk += 1
        ch_obj.bus_free_at = bus_free[ci]
        ch_obj.busy_cycles = busy_cyc[ci]
        controller._retry_at[ci] = -1
        controller._drain[ci] = drain[ci]
        # leftover queue contents (only reachable when max_cycles cut the
        # run short: run_cores raises and reports pending_requests)
        if read_q[ci] or write_q[ci]:
            controller.read_q[ci] = [
                Request(
                    r[0], ReqKind.READ, r[1], Coord(ci, r[2], r[3], r[4], r[5]), r[6]
                )
                for r in read_q[ci]
            ]
            controller.write_q[ci] = [
                Request(
                    r[0], ReqKind.WRITE, r[1], Coord(ci, r[2], r[3], r[4], r[5]), r[6]
                )
                for r in write_q[ci]
            ]
    stats.reads = s_reads + total_reads
    stats.writes = s_writes + total_writes
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
        # materialize the deferred per-key mirrors back into the real
        # profilers and tables — finalize()/summary() then see scalar state
        for kk in range(nkeys):
            replay_table(kk)
            flush_table(kk)
            prof = profs[kk]
            kc = k_cyc[kk]
            la = last_tr_adv
            if kc and kc[-1] > la:
                la = kc[-1]
            arr = prof._arrivals
            arr.clear()
            if kc:
                kwr = k_wr[kk]
                j = max(bisect_left(kc, la - window), k_pruned[kk])
                n = len(kc)
                while j < n:
                    arr.append((kc[j], not kwr[j]))
                    j += 1
            rdp = k_rdp[kk]
            pend = []
            for rec in mir_pending[kk]:
                p = _PendingRefresh(rec[0], rec[1], rec[2])
                lo = bisect_left(kc, rec[0])
                cidx = rec[3]
                if lo < cidx:
                    lo = cidx
                p.a_count = rdp[bisect_left(kc, rec[1])] - rdp[lo]
                pend.append(p)
            prof._pending = pend
    controller._rid = rid
    events.now = now
    events._heap.clear()
    events._work = 0
    events._seq = seq
    return None
