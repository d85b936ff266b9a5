"""Run length and seed shared by all table/figure drivers.

An *experiment* is one co-simulation of a workload against a memory
configuration; :class:`RunScale` fixes its length and seed so every driver
can be shrunk or grown uniformly (``python -m repro fig <id> --scale S``,
``python scripts/run_experiments.py out.md --scale S``):

* ``smoke`` — seconds-long runs for CI / unit use,
* ``default`` — minutes-long runs with stable statistics,
* ``paper`` — the scale used to produce EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RunScale"]

_SCALES = {
    # (instructions, ROP training refreshes): training shrinks with run
    # length so the paper's 50-refresh training (negligible over 1 B
    # instructions) stays proportionally negligible in shortened runs
    "smoke": (400_000, 5),
    "default": (3_000_000, 25),
    "paper": (8_000_000, 50),
}


@dataclass(frozen=True)
class RunScale:
    """Length, seed and training budget of one experiment run."""

    instructions: int = _SCALES["default"][0]
    seed: int = 1
    #: ROP training length the harness configures for this scale
    training_refreshes: int = _SCALES["default"][1]

    @classmethod
    def named(cls, name: str, seed: int = 1) -> "RunScale":
        """One of the predefined scales: smoke / default / paper."""
        try:
            instructions, training = _SCALES[name]
        except KeyError:
            raise KeyError(f"unknown scale {name!r}; known: {sorted(_SCALES)}") from None
        return cls(instructions=instructions, seed=seed, training_refreshes=training)
