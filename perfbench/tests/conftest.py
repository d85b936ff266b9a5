"""Put the benchmark modules and the repro sources on the import path.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


@pytest.fixture
def restore_env():
    """A run rewrites the REPRO_* environment; put it back afterwards."""
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)
