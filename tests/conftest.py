"""Shared fixtures: small, fast configurations for unit/integration tests."""

from __future__ import annotations

import os

import pytest

from repro import (
    LlcConfig,
    MemoryOrganization,
    RefreshMode,
    SystemConfig,
)
from repro.dram.timings import DDR4_1600

try:
    from hypothesis import HealthCheck, settings

    # Two pinned profiles so property tests behave identically everywhere:
    # "dev" (default) keeps example counts modest for fast local runs;
    # "ci" (HYPOTHESIS_PROFILE=ci) runs more examples, derandomized so CI
    # failures reproduce exactly. Both disable the wall-clock deadline —
    # whole-system simulation examples legitimately take tens of ms.
    settings.register_profile(
        "dev",
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "ci",
        deadline=None,
        max_examples=50,
        derandomize=True,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Point the persistent artifact cache at a per-session temp dir.

    Keeps the test suite hermetic: no reads from (or writes to) the
    user's ``~/.cache/repro-artifacts``, and no stale artifacts from a
    previous code version influencing results.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-artifacts"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Artifact cache ON in a per-test dir, result memo cleared around the test.

    CI exports ``REPRO_CACHE=off``; tests that read cache state back need
    it on.
    """
    from repro.harness.runner import clear_result_memo

    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_result_memo()
    yield
    clear_result_memo()


@pytest.fixture
def timings():
    """The paper's DDR4-1600 timing set."""
    return DDR4_1600


@pytest.fixture
def small_org():
    """A small geometry (fast decode, small footprints) for unit tests."""
    return MemoryOrganization(channels=1, ranks=2, banks=4, rows=1 << 10, columns=32)


@pytest.fixture
def single_core_config():
    """The paper's single-core system (1 rank, 2 MB LLC)."""
    return SystemConfig.single_core()


@pytest.fixture
def quad_core_config():
    """The paper's 4-core system (4 ranks, rank partitioning, 4 MB LLC)."""
    return SystemConfig.quad_core()


@pytest.fixture
def tiny_llc():
    """A 64 KB LLC so eviction paths are exercised with short traces."""
    return LlcConfig(size_bytes=64 * 1024, ways=4)


@pytest.fixture
def no_refresh_config(single_core_config):
    """Idealized memory (refresh disabled)."""
    return single_core_config.with_refresh_mode(RefreshMode.NONE)


@pytest.fixture
def rop_config(single_core_config):
    """Single-core system with ROP enabled at default parameters."""
    return single_core_config.with_rop()
