"""Resilience-layer tests (ISSUE 7).

Covers the degradation ladder (epoch fault → quarantine bundle → scalar
re-run, surfaced in ``RunnerStats.engine_fallbacks``), the quarantine
bundle format round-trip, the size-quota LRU garbage collector and its
live-plan protection, and the ``REPRO_CHAOS`` directive parser with its
once-only marker claims.
"""

import dataclasses
import os
import pickle

import pytest

from repro import RefreshMode, SystemConfig
from repro.harness import EngineFallback, RunScale, RunSpec, execute_plan
from repro.harness.cache import ArtifactCache, MISS
from repro.harness.cache_gc import collect, iter_entries, parse_quota, usage, verify
from repro.harness.chaos import (
    CHAOS_SITES,
    ChaosSpec,
    EpochEngineFault,
    chaos_spec,
    fired,
    inject_epoch_fault,
)
from repro.harness.quarantine import (
    bundle_spec,
    list_bundles,
    load_bundle,
    quarantine_dir,
    result_digest,
)
from repro.harness.runner import (
    ConfigError,
    ExecutionPolicy,
    clear_result_memo,
    last_stats,
    run_spec,
)
from repro.workloads.spec_profiles import clear_trace_cache

TINY = RunScale(instructions=60_000, seed=3, training_refreshes=3)


@pytest.fixture(autouse=True)
def cache_env(tmp_path, monkeypatch):
    """Fresh cache dir, cache ON, memos cleared (chaos markers live here)."""
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_trace_cache()
    clear_result_memo()
    yield tmp_path
    clear_trace_cache()
    clear_result_memo()


def policy(**kw) -> ExecutionPolicy:
    return dataclasses.replace(ExecutionPolicy(backoff_s=0.01), **kw)


class TestEngineFaultFallback:
    def test_epoch_fault_reruns_on_scalar_bit_identically(self, monkeypatch):
        spec = RunSpec.benchmark("gobmk", SystemConfig.single_core(), TINY)
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        reference = run_spec(spec)

        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        monkeypatch.setenv("REPRO_CHAOS", "1:1.0:epoch-fault")
        fallbacks = []
        result = run_spec(spec, fallbacks=fallbacks)
        assert result_digest(result) == result_digest(reference)

        assert len(fallbacks) == 1
        fb = fallbacks[0]
        assert isinstance(fb, EngineFallback)
        assert fb.kind == "fault"
        assert fb.key == spec.key
        assert fb.exc_type == "EpochEngineFault"
        assert fb.quarantine  # a bundle was written

    def test_quarantine_bundle_round_trips(self, monkeypatch, tmp_path):
        spec = RunSpec.benchmark("lbm", SystemConfig.single_core(), TINY)
        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        monkeypatch.setenv("REPRO_CHAOS", "1:1.0:epoch-fault")
        fallbacks = []
        result = run_spec(spec, fallbacks=fallbacks)

        bundles = list_bundles()
        assert len(bundles) == 1
        assert bundles[0].parent == quarantine_dir()
        bundle = load_bundle(bundles[0])
        assert bundle["key"] == spec.key
        assert bundle["exc_type"] == "EpochEngineFault"
        assert "EpochEngineFault" in bundle["traceback"]
        assert bundle["workloads"] == ["lbm"]
        # the quarantined spec is reconstructable for offline replay
        replayed = bundle_spec(bundle)
        assert replayed.key == spec.key
        # and the scalar re-run's digest was attached for comparison
        assert bundle["scalar_result_digest"] == result_digest(result)

    def test_fault_counted_in_plan_stats(self, monkeypatch):
        spec = RunSpec.benchmark("bzip2", SystemConfig.single_core(), TINY)
        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        monkeypatch.setenv("REPRO_CHAOS", "1:1.0:epoch-fault")
        results = execute_plan([spec], jobs=1, policy=policy())
        assert results.ok(spec)
        assert last_stats().engine_fallbacks == 1
        assert last_stats().quarantined >= 1
        assert len(results.engine_fallbacks) == 1
        assert results.engine_fallbacks[0].kind == "fault"

    def test_multicore_mix_rides_the_kernel(self, monkeypatch):
        # multiprogrammed mixes used to decline on topology; the
        # generalized kernel now covers them — zero fallback records
        spec = RunSpec.mix("WL1", SystemConfig(), TINY)
        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        results = execute_plan([spec], jobs=1, policy=policy())
        assert results.ok(spec)
        assert last_stats().engine_fallbacks == 0
        assert last_stats().quarantined == 0
        assert len(results.engine_fallbacks) == 0

    def test_declined_darp_recorded_not_counted(self, monkeypatch):
        # DARP's out-of-order schedule needs live queue state the kernels
        # do not model: a routine decline, recorded for observability but
        # never counted as a fault or quarantined
        cfg = SystemConfig.single_core().with_refresh_mode(RefreshMode.DARP)
        spec = RunSpec.benchmark("lbm", cfg, TINY)
        monkeypatch.setenv("REPRO_ENGINE", "epoch")
        results = execute_plan([spec], jobs=1, policy=policy())
        assert results.ok(spec)
        assert last_stats().engine_fallbacks == 0
        assert last_stats().quarantined == 0
        assert len(results.engine_fallbacks) == 1
        fb = results.engine_fallbacks[0]
        assert fb.kind == "declined"
        assert "darp" in fb.reason
        assert fb.quarantine == ""


class TestChaosDirective:
    def test_parse_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "7:0.25")
        spec = chaos_spec()
        assert spec == ChaosSpec(seed=7, rate=0.25, sites=frozenset(CHAOS_SITES))

    def test_parse_site_subset(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "7:1.0:epoch-fault,slow-spec")
        assert chaos_spec().sites == frozenset({"epoch-fault", "slow-spec"})

    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos_spec() is None

    @pytest.mark.parametrize("raw", ["nope", "7", "7:2.0", "x:0.5", "7:0.5:bogus-site"])
    def test_malformed_raises_config_error(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CHAOS", raw)
        with pytest.raises(ConfigError):
            chaos_spec()

    def test_each_site_key_fires_at_most_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "9:1.0:epoch-fault")
        with pytest.raises(EpochEngineFault):
            inject_epoch_fault("somekey")
        # the marker claim makes the retry run clean
        inject_epoch_fault("somekey")
        assert fired(9) == {"epoch-fault": 1}

    def test_deterministic_at_rate_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "9:0.0")
        inject_epoch_fault("anykey")  # never fires
        assert fired(9) == {}


class TestQuotaParsing:
    @pytest.mark.parametrize("raw,expect", [
        ("1024", 1024),
        ("1K", 1 << 10),
        ("500M", 500 << 20),
        ("2G", 2 << 30),
        ("1.5K", 1536),
        ("512kb", 512 << 10),
        (4096, 4096),
    ])
    def test_accepted_forms(self, raw, expect):
        assert parse_quota(raw) == expect

    @pytest.mark.parametrize("raw", ["", "lots", "-5", "0", "1Q"])
    def test_rejected_forms(self, raw):
        with pytest.raises(ConfigError):
            parse_quota(raw)


def _seed_entries(root, n, *, base_mtime=1_000_000_000):
    """``n`` result pickles with strictly increasing mtimes; returns keys."""
    cache = ArtifactCache(root)
    keys = []
    for i in range(n):
        key = f"{i:02x}" + "e" * 38
        cache.put(key, list(range(100)))
        mtime = base_mtime + i * 100
        os.utime(cache.path(key), (mtime, mtime))
        keys.append(key)
    return keys


class TestGarbageCollection:
    def test_lru_evicts_oldest_first(self, tmp_path):
        keys = _seed_entries(tmp_path, 4)
        sizes = {e.key: e.bytes for e in iter_entries(tmp_path)}
        quota = sizes[keys[2]] + sizes[keys[3]]  # room for the newest two
        res = collect(quota, root=tmp_path)
        assert res.evicted_keys == [keys[0], keys[1]]
        assert res.bytes_after <= quota
        cache = ArtifactCache(tmp_path)
        assert cache.get(keys[0], MISS) is MISS
        assert cache.get(keys[3], MISS) is not MISS

    def test_read_hit_touches_lru_rank(self, tmp_path):
        keys = _seed_entries(tmp_path, 2)
        cache = ArtifactCache(tmp_path)
        assert cache.get(keys[0]) is not None  # promote the older entry
        one = next(e.bytes for e in iter_entries(tmp_path) if e.key == keys[0])
        res = collect(one, root=tmp_path)
        # the un-touched (now coldest) entry went first
        assert keys[1] in res.evicted_keys
        assert keys[0] not in res.evicted_keys

    def test_protected_keys_survive_even_over_quota(self, tmp_path):
        keys = _seed_entries(tmp_path, 3)
        res = collect(1, root=tmp_path, protect={keys[1]})
        assert keys[1] not in res.evicted_keys
        assert res.protected == 1
        assert ArtifactCache(tmp_path).get(keys[1], MISS) is not MISS

    def test_dry_run_deletes_nothing(self, tmp_path):
        keys = _seed_entries(tmp_path, 3)
        res = collect(1, root=tmp_path, dry_run=True)
        assert res.dry_run and res.evicted == 3
        assert len(iter_entries(tmp_path)) == 3
        assert ArtifactCache(tmp_path).get(keys[0], MISS) is not MISS

    def test_quarantine_kept_and_stale_locks_collected(self, tmp_path):
        _seed_entries(tmp_path, 1)
        (tmp_path / "quarantine").mkdir()
        (tmp_path / "quarantine" / "evidence.quar").write_bytes(b"x" * 4096)
        lock = tmp_path / "00" / "stale.lock"
        lock.write_bytes(b"")
        collect(1, root=tmp_path)
        assert (tmp_path / "quarantine" / "evidence.quar").exists()
        assert not lock.exists()

    def test_legacy_leftovers_are_not_evictions(self, tmp_path):
        keys = _seed_entries(tmp_path, 2)
        locks = [tmp_path / k[:2] / f"{k}.lock" for k in keys]
        locks.append(tmp_path / "trace-plane" / "ab" / ("ab" + "0" * 38 + ".lock"))
        for lock in locks:
            lock.parent.mkdir(parents=True, exist_ok=True)
            lock.write_bytes(b"")
        res = collect(1 << 40, root=tmp_path)
        assert res.legacy_removed == len(locks)
        assert (res.evicted, res.freed_bytes, res.evicted_keys) == (0, 0, [])
        assert res.kept == 2
        assert not any(lock.exists() for lock in locks)

    def test_usage_and_verify_heal_corruption(self, tmp_path):
        keys = _seed_entries(tmp_path, 2)
        cache = ArtifactCache(tmp_path)
        cache.path(keys[0]).write_bytes(pickle.dumps([1])[:4])  # torn
        u = usage(tmp_path)
        assert u["entries"] == 2
        rep = verify(tmp_path)
        assert rep["checked"] == 2
        assert rep["corrupt"] == 1
        assert rep["bad"] == [f"result:{keys[0]}"]
        # the torn entry was quarantined by the read path, not left behind
        assert not cache.path(keys[0]).exists()
        assert usage(tmp_path)["quarantined"] == 1

    def test_end_of_plan_auto_gc_protects_live_plan(self, tmp_path, monkeypatch):
        cold = _seed_entries(tmp_path, 3)
        monkeypatch.setenv("REPRO_CACHE_QUOTA", "1")
        spec = RunSpec.benchmark("gobmk", SystemConfig.single_core(), TINY)
        results = execute_plan([spec], jobs=1, policy=policy())
        assert results.ok(spec)
        assert last_stats().cache_evictions == 3
        cache = ArtifactCache(tmp_path)
        for key in cold:
            assert cache.get(key, MISS) is MISS
        # the plan's own result and trace artifacts survived the 1-byte quota
        assert cache.get(spec.key, MISS) is not MISS
        kinds = {e.kind for e in iter_entries(tmp_path)}
        assert kinds == {"result", "trace"}
