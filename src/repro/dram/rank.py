"""Rank-level timing state: bank aggregation, ACT pacing and refresh locks.

A rank enforces the cross-bank constraints — tRRD (ACT-to-ACT spacing),
tFAW (at most four ACTs in a rolling window) and the write→read turnaround
tWTR — and is the unit that auto-refresh freezes: while a REF command is in
flight (``tRFC``), every bank of the rank is unavailable. That freeze is
exactly the window ROP's SRAM buffer revives.
"""

from __future__ import annotations

from collections import deque

from .bank import AccessPlan, Bank
from .request import ServiceKind
from .timings import DramTimings

__all__ = ["Rank"]


class Rank:
    """Timing state for one rank (a set of lock-step banks)."""

    __slots__ = (
        "banks",
        "locked_until",
        "lock_start",
        "last_act",
        "act_window",
        "wtr_until",
        "refresh_count",
        "act_count",
        "sub_rows",
    )

    def __init__(self, num_banks: int) -> None:
        self.banks = [Bank() for _ in range(num_banks)]
        #: rows per subarray; 0 disables subarray (SARP) gating entirely
        self.sub_rows: int = 0
        #: rank unavailable (refreshing) until this cycle
        self.locked_until: int = 0
        #: start of the most recent refresh lock window
        self.lock_start: int = 0
        self.last_act: int = -(10**9)
        #: recent ACT cycles, for the tFAW four-activate window
        self.act_window: deque[int] = deque(maxlen=4)
        #: earliest cycle a read column command may follow a write burst
        self.wtr_until: int = 0
        self.refresh_count: int = 0
        self.act_count: int = 0

    # -- gating helpers -----------------------------------------------------------

    def act_gate(self, t: DramTimings) -> int:
        """Earliest cycle a new ACT may issue on this rank (tRRD + tFAW)."""
        gate = self.last_act + t.rrd
        if len(self.act_window) == 4:
            gate = max(gate, self.act_window[0] + t.faw)
        return gate

    def is_locked(self, cycle: int) -> bool:
        """True while the rank is frozen by an in-flight refresh.

        A refresh may be scheduled to *start* in the future (the controller
        commits the lock when the REF is issued); only cycles inside the
        physical [start, end) window count as locked — that is the paper's
        "refresh period" for the Fig. 9 hit-rate metric.
        """
        return self.lock_start <= cycle < self.locked_until

    # -- access -------------------------------------------------------------------

    def plan(self, now: int, bank_idx: int, row: int, is_write: bool, t: DramTimings) -> AccessPlan:
        """Price an access through this rank's gates (no state change)."""
        start = max(now, self.locked_until)
        not_before = start if is_write else max(start, self.wtr_until)
        bank = self.banks[bank_idx]
        if self.sub_rows:
            # SARP: wait out the target subarray's latest refresh lock
            not_before = max(not_before, bank.sub_locks.get(row // self.sub_rows, 0))
        return bank.plan(
            now, row, is_write, t, not_before=not_before, act_gate=self.act_gate(t)
        )

    def commit(self, plan: AccessPlan, bank_idx: int, row: int, is_write: bool, t: DramTimings) -> None:
        """Apply a priced access to bank and rank state."""
        self.banks[bank_idx].commit(plan, row, is_write, t)
        if plan.act_cycle >= 0:
            self.last_act = plan.act_cycle
            self.act_window.append(plan.act_cycle)
            self.act_count += 1
        if is_write:
            self.wtr_until = max(self.wtr_until, plan.col_cycle + t.cwl + t.burst + t.wtr)

    # -- refresh ------------------------------------------------------------------

    def quiesce_at(self) -> int:
        """Earliest cycle every bank is safe to freeze for refresh."""
        return max(b.quiesce_at() for b in self.banks)

    def start_refresh(
        self,
        due: int,
        t: DramTimings,
        *,
        banks: list[int] | None = None,
        duration: int | None = None,
    ) -> tuple[int, int]:
        """Freeze the rank (or a subset of banks) for one refresh.

        The refresh begins at ``max(due, quiesce point)`` — a REF cannot cut
        an in-flight row cycle short — and the affected banks are held until
        ``start + duration`` (``tRFC`` by default; Refresh-Pausing passes
        one segment at a time). Returns ``(start, end)``.

        ``banks=None`` freezes the whole rank (all-bank refresh); passing a
        subset models per-bank refresh, where unaffected banks keep serving.
        """
        lock_for = duration if duration is not None else t.rfc
        if banks is None:
            start = max(due, self.quiesce_at())
            end = start + lock_for
            for b in self.banks:
                b.close_for_refresh(end)
            if end > self.locked_until:
                if start > self.locked_until:
                    self.lock_start = start
                # back-to-back refreshes (elastic catch-up) extend one window
                self.locked_until = end
        else:
            start = max(due, *(self.banks[i].quiesce_at() for i in banks))
            end = start + lock_for
            for i in banks:
                self.banks[i].close_for_refresh(end)
        self.refresh_count += 1
        return start, end

    def start_subarray_refresh(
        self, due: int, t: DramTimings, bank_idx: int, sub: int, sub_rows: int
    ) -> tuple[int, int]:
        """Refresh one subarray of one bank (SARP); returns ``(start, end)``.

        The refresh still cannot cut an in-flight row cycle short
        (``quiesce_at``) and serializes behind the bank's previous subarray
        lock, but it freezes only the ``(bank, subarray)`` pair — demand to
        the bank's other subarrays keeps flowing through :meth:`plan`.
        """
        bank = self.banks[bank_idx]
        start = max(due, bank.quiesce_at(), bank.sub_lock_end)
        end = start + t.rfc
        bank.close_for_subarray_refresh(sub, sub_rows, end, t.rp)
        self.refresh_count += 1
        return start, end

    # -- stats --------------------------------------------------------------------

    def classify(self, plan: AccessPlan) -> ServiceKind:
        """Row-buffer outcome of a plan (hit / closed / conflict)."""
        return plan.category
