"""One set-up of a sweep, in a fresh interpreter: the ``setup_s`` unit.

Imports ``repro``, declares the workload's plan and opens the artifact
cache and trace plane (one lookup each), then exits.  ``run.py`` times
this process from spawn to exit; the environment (cache directory,
engine) is inherited from it.  The probe samples this process's own
interpreter speed throughout, and the last stdout line lists the probe
unit times so the caller can take them off and normalize.

Usage: python3 perfbench/setup_child.py <workload> <seed> [instructions]
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from probe import Probe  # noqa: E402


def setup(workload: str, seed: int, instructions: int | None) -> None:
    import sweeps
    from repro.harness import get_cache
    from repro.harness.trace_plane import get_trace_plane
    from repro.workloads import profile

    specs = sweeps.WORKLOADS[workload].declare(sweeps.scale_for(seed, instructions))
    first = specs[0]
    get_cache().get(first.key)
    get_trace_plane().load(
        profile(first.workloads[0]).trace_key(first.instructions, first.trace_llc, seed=first.seed)
    )


if __name__ == "__main__":
    probe = Probe()
    probe.timed(
        setup, sys.argv[1], int(sys.argv[2]), int(sys.argv[3]) if len(sys.argv) > 3 else None
    )
    print(json.dumps([d for _, d in probe.samples]))
