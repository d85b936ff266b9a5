"""Structured golden-model mismatches and their rendering.

Every golden-model check returns a list of :class:`Mismatch` records —
one per disagreement between the simulator and the independent
analytical model — instead of raising on the first. The harness decides
what to do with them: the ``repro validate`` CLI renders them as a table
and exits non-zero; the ``--validate`` per-spec wiring raises a
:class:`GoldenMismatchError` so the failure classifies as ``invariant``
in the runner's taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["Mismatch", "GoldenMismatchError", "render_mismatch_table"]

#: per-check cap on recorded mismatches (a systematically wrong model
#: would otherwise produce one record per event)
MAX_PER_CHECK = 25


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between the simulator and a golden model."""

    #: which golden check found it: ``lambda-beta`` | ``eq3-budget`` |
    #: ``refresh-schedule`` | ``darp-schedule`` | ``raidr-bins`` |
    #: ``sarp-exclusion`` | ``ddr-timing`` | ``sram-model`` |
    #: ``counters`` | ``causality`` | ``stat-band``
    check: str
    #: where: e.g. ``ch0.rank1`` or ``ch0.rank0.bank3`` or a stat name
    site: str
    #: what the golden model expected vs what the simulator produced
    expected: object
    actual: object
    #: cycle the disagreement is anchored to (−1 when not cycle-specific)
    cycle: int = -1
    #: free-form context (which rule, which event)
    detail: str = ""


class GoldenMismatchError(AssertionError):
    """A validated run disagreed with at least one golden model.

    The runner's failure taxonomy files it under ``invariant``: a run
    that breaks a physical constraint or contradicts a model is never
    retried and never enters the artifact cache.
    """

    def __init__(self, mismatches: Iterable[Mismatch]) -> None:
        self.mismatches = tuple(mismatches)
        checks = sorted({m.check for m in self.mismatches})
        super().__init__(
            f"{len(self.mismatches)} golden-model mismatch(es) "
            f"in check(s): {', '.join(checks)}\n"
            + render_mismatch_table(self.mismatches)
        )


def _cell(value: object, width: int = 36) -> str:
    text = str(value)
    return text if len(text) <= width else text[: width - 1] + "…"


def render_mismatch_table(mismatches: Iterable[Mismatch]) -> str:
    """Render mismatches as an aligned text table (empty string if none)."""
    rows = [
        (
            m.check,
            m.site,
            str(m.cycle) if m.cycle >= 0 else "-",
            _cell(m.expected),
            _cell(m.actual),
            _cell(m.detail, 48),
        )
        for m in mismatches
    ]
    if not rows:
        return ""
    header = ("CHECK", "SITE", "CYCLE", "EXPECTED", "ACTUAL", "DETAIL")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    def fmt(row: tuple) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()

    rule = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), rule] + [fmt(r) for r in rows])


def cap_mismatches(mismatches: list[Mismatch], check: str) -> list[Mismatch]:
    """Truncate one check's mismatch list, noting how many were dropped."""
    if len(mismatches) <= MAX_PER_CHECK:
        return mismatches
    dropped = len(mismatches) - MAX_PER_CHECK
    return mismatches[:MAX_PER_CHECK] + [
        Mismatch(
            check=check,
            site="…",
            expected="",
            actual="",
            detail=f"{dropped} further mismatch(es) suppressed",
        )
    ]
