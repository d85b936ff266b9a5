"""Row-buffer state machine for one DRAM bank.

The bank tracks its open row and the earliest cycles at which the next
column command and the next precharge may start. The controller calls
:meth:`Bank.plan` to price an access *without* committing, then
:meth:`Bank.commit` once the scheduler selects that access; the split keeps
FR-FCFS selection side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .request import ServiceKind
from .timings import DramTimings

__all__ = ["AccessPlan", "Bank"]


@dataclass(frozen=True)
class AccessPlan:
    """Priced (not yet committed) bank access.

    ``col_cycle`` is when the column command issues, ``data_start`` /
    ``data_end`` delimit the burst on the shared data bus, ``act_cycle`` is
    the activation time (−1 for row hits) and ``category`` classifies the
    row-buffer outcome.
    """

    col_cycle: int
    data_start: int
    data_end: int
    act_cycle: int
    category: ServiceKind


class Bank:
    """One bank's timing state.

    Attributes
    ----------
    open_row:
        Currently open row, or ``None`` when precharged.
    ready_at:
        Earliest cycle the next command (to this bank) may start.
    pre_ok_at:
        Earliest cycle a precharge may start (covers tRAS, tRTP and write
        recovery).
    """

    __slots__ = (
        "open_row",
        "ready_at",
        "pre_ok_at",
        "act_cycle",
        "busy_until",
        "sub_locks",
        "sub_lock_end",
    )

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.ready_at: int = 0
        self.pre_ok_at: int = 0
        self.act_cycle: int = -(10**9)
        #: end of the latest committed data burst (read or write)
        self.busy_until: int = 0
        #: subarray → end of its latest SARP refresh lock; every subarray
        #: keeps its own, since locks are committed ahead of time and
        #: several of one bank's may still lie in the future
        self.sub_locks: dict[int, int] = {}
        #: end of the latest subarray refresh lock, any subarray (SARP only)
        self.sub_lock_end: int = 0

    def plan(
        self,
        now: int,
        row: int,
        is_write: bool,
        t: DramTimings,
        *,
        not_before: int = 0,
        act_gate: int = 0,
    ) -> AccessPlan:
        """Price an access to ``row`` starting no earlier than ``now``.

        ``not_before`` folds in rank-level column gating (e.g. write→read
        turnaround); ``act_gate`` folds in rank-level activation gating
        (tRRD / tFAW). No state is modified.
        """
        start = max(now, self.ready_at, not_before)
        cas = t.cwl if is_write else t.cl
        if self.open_row == row:
            col = start
            return AccessPlan(col, col + cas, col + cas + t.burst, -1, ServiceKind.DRAM_HIT)
        if self.open_row is None:
            act = max(start, act_gate)
            col = act + t.rcd
            return AccessPlan(col, col + cas, col + cas + t.burst, act, ServiceKind.DRAM_CLOSED)
        pre = max(start, self.pre_ok_at)
        act = max(pre + t.rp, act_gate)
        col = act + t.rcd
        return AccessPlan(col, col + cas, col + cas + t.burst, act, ServiceKind.DRAM_CONFLICT)

    def commit(self, plan: AccessPlan, row: int, is_write: bool, t: DramTimings) -> None:
        """Apply a previously priced access to the bank state."""
        if plan.act_cycle >= 0:
            self.open_row = row
            self.act_cycle = plan.act_cycle
        self.ready_at = plan.col_cycle + t.ccd
        self.busy_until = max(self.busy_until, plan.data_end)
        if is_write:
            # Precharge must wait for write recovery after the burst.
            recover = plan.col_cycle + t.cwl + t.burst + t.wr
        else:
            recover = plan.col_cycle + t.rtp
        ras_done = self.act_cycle + t.ras
        self.pre_ok_at = max(self.pre_ok_at, recover, ras_done)

    def close_for_refresh(self, locked_until: int) -> None:
        """Precharge the row and hold the bank until the refresh completes."""
        self.open_row = None
        self.ready_at = max(self.ready_at, locked_until)
        self.pre_ok_at = max(self.pre_ok_at, locked_until)

    def close_for_subarray_refresh(
        self, sub: int, sub_rows: int, locked_until: int, rp: int
    ) -> None:
        """Lock one subarray for refresh; the rest of the bank keeps serving.

        Only a row open inside the refreshing subarray is precharged; the
        subarray exclusion itself is enforced by :meth:`Rank.plan` folding
        the subarray's ``sub_locks`` entry into ``not_before``.
        Closing the row carries an implicit precharge, which cannot beat
        ``pre_ok_at`` — flooring ``ready_at`` at ``pre_ok_at + tRP`` keeps
        the next ACT (to *any* subarray) tRC-legal against the last one,
        exactly as the row-conflict path would have.
        """
        if self.open_row is not None and self.open_row // sub_rows == sub:
            self.open_row = None
            self.ready_at = max(self.ready_at, self.pre_ok_at + rp)
        self.sub_locks[sub] = locked_until
        self.sub_lock_end = locked_until

    def quiesce_at(self) -> int:
        """Earliest cycle the bank is safe to lock for refresh.

        A refresh may not interrupt an in-flight row cycle: the bank must
        be precharge-able (``pre_ok_at``), past any pending command window
        (``ready_at``), and past the last committed data burst
        (``busy_until`` — a REF cannot cut a burst short on the pins).
        """
        return max(
            self.ready_at,
            self.busy_until,
            self.pre_ok_at if self.open_row is not None else 0,
        )
