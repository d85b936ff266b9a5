"""Trace containers exchanged between workload generators, the LLC filter
and the CPU core model.

A trace is a NumPy-backed sequence of memory accesses. ``gaps[i]`` is the
number of instructions executed between access ``i-1`` and access ``i``
(the first gap counts from program start), ``lines[i]`` is the cache-line
index, ``writes[i]`` marks stores. The same container is used at both
levels of the hierarchy:

* a **CPU-level trace** lists every load/store the core executes (the
  LLC's input);
* a **memory-level trace** lists only LLC misses and write-backs (the
  memory controller's input). Write-backs carry a zero gap — they are
  side effects of the miss that evicted them, not program progress.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["AccessTrace", "concat_traces"]


@dataclass(frozen=True)
class AccessTrace:
    """An immutable sequence of memory accesses (see module docstring)."""

    gaps: np.ndarray  #: int64, instructions since the previous access
    lines: np.ndarray  #: int64, cache-line indices
    writes: np.ndarray  #: bool, True for stores / write-backs
    #: instructions executed after the last access (program tail)
    tail_instructions: int = 0

    def __post_init__(self) -> None:
        if not (len(self.gaps) == len(self.lines) == len(self.writes)):
            raise ValueError(
                f"trace arrays disagree on length: "
                f"{len(self.gaps)}/{len(self.lines)}/{len(self.writes)}"
            )
        if len(self.gaps) and int(self.gaps.min()) < 0:
            raise ValueError("trace gaps must be non-negative")

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def total_instructions(self) -> int:
        """Instructions the program executes over the whole trace."""
        return int(self.gaps.sum()) + self.tail_instructions

    @property
    def read_count(self) -> int:
        """Number of loads (or demand fetches at memory level)."""
        return int((~self.writes).sum())

    @property
    def write_count(self) -> int:
        """Number of stores (or write-backs at memory level)."""
        return int(self.writes.sum())

    @property
    def footprint_lines(self) -> int:
        """Distinct cache lines touched."""
        return int(np.unique(self.lines).size)

    def content_digest(self) -> str:
        """sha256 over the access arrays (dtypes included) and the tail.

        Two traces with equal digests drive any simulation identically:
        the runner uses this to simulate coinciding traces once.
        """
        arrays = (self.gaps, self.lines, self.writes)
        head = ":".join([str(len(self)), str(self.tail_instructions)] + [a.dtype.str for a in arrays])
        h = hashlib.sha256(head.encode())
        for arr in arrays:
            h.update(np.ascontiguousarray(arr).data)
        return h.hexdigest()

    def slice(self, start: int, stop: int) -> "AccessTrace":
        """A view-like sub-trace of accesses [start, stop)."""
        return AccessTrace(
            self.gaps[start:stop],
            self.lines[start:stop],
            self.writes[start:stop],
            tail_instructions=self.tail_instructions if stop >= len(self) else 0,
        )

    def offset_lines(self, base_line: int) -> "AccessTrace":
        """Shift every address by ``base_line`` (rank-partition placement)."""
        return AccessTrace(
            self.gaps,
            self.lines + np.int64(base_line),
            self.writes,
            tail_instructions=self.tail_instructions,
        )

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialize to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            gaps=self.gaps,
            lines=self.lines,
            writes=self.writes,
            tail=np.int64(self.tail_instructions),
        )

    @classmethod
    def load(cls, path: str | Path) -> "AccessTrace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(path) as data:
            return cls(
                data["gaps"].astype(np.int64),
                data["lines"].astype(np.int64),
                data["writes"].astype(bool),
                tail_instructions=int(data["tail"]),
            )

    @classmethod
    def from_lists(
        cls,
        gaps,
        lines,
        writes,
        tail_instructions: int = 0,
    ) -> "AccessTrace":
        """Build a trace from Python sequences (tests, tiny examples)."""
        return cls(
            np.asarray(gaps, dtype=np.int64),
            np.asarray(lines, dtype=np.int64),
            np.asarray(writes, dtype=bool),
            tail_instructions=tail_instructions,
        )


def concat_traces(traces: list[AccessTrace]) -> AccessTrace:
    """Concatenate traces in program order.

    Each trace's ``tail_instructions`` becomes part of the gap leading into
    the next trace's first access.
    """
    if not traces:
        raise ValueError("cannot concatenate an empty list of traces")
    gaps_parts: list[np.ndarray] = []
    carry = 0
    for tr in traces:
        g = tr.gaps.copy()
        if len(g):
            g[0] += carry
            carry = tr.tail_instructions
        else:
            carry += tr.tail_instructions
        gaps_parts.append(g)
    return AccessTrace(
        np.concatenate(gaps_parts),
        np.concatenate([t.lines for t in traces]),
        np.concatenate([t.writes for t in traces]),
        tail_instructions=carry,
    )
