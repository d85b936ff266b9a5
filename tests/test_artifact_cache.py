"""Tests for the content-keyed artifact cache (harness/cache.py)."""

import os
import pickle

import pytest

from repro import LlcConfig, RefreshMode, SystemConfig
from repro.harness import RunScale, RunSpec, cached_result, execute_plan, spec_fingerprint
from repro.harness.cache import (
    MISS,
    ArtifactCache,
    NullCache,
    cache_enabled,
    default_cache_dir,
    fingerprint,
    get_cache,
)
from repro.harness.cache_gc import usage
from repro.harness.quarantine import result_digest


class TestFingerprint:
    def test_stable_across_calls(self):
        cfg = SystemConfig.single_core()
        assert fingerprint("x", cfg) == fingerprint("x", cfg)

    def test_equal_configs_share_fingerprint(self):
        # independently constructed but identical configs → same key
        assert fingerprint(SystemConfig.single_core()) == fingerprint(
            SystemConfig.single_core()
        )

    def test_any_config_field_changes_key(self):
        cfg = SystemConfig.single_core()
        variants = [
            cfg.with_refresh_mode(RefreshMode.NONE),
            cfg.with_rop(),
            cfg.with_rop(sram_lines=32),
            cfg.with_llc_size(1 << 20),
            SystemConfig.quad_core(),
        ]
        keys = {fingerprint(v) for v in variants} | {fingerprint(cfg)}
        assert len(keys) == len(variants) + 1

    def test_scalars_and_tuples(self):
        assert fingerprint("a", 1, (2, 3)) != fingerprint("a", 1, (2, 4))
        assert fingerprint(1) != fingerprint(1.5)

    def test_rejects_unfingerprintable(self):
        with pytest.raises(TypeError):
            fingerprint(object())


class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("ab" + "0" * 38, {"x": 1})
        assert cache.get("ab" + "0" * 38) == {"x": 1}
        assert cache.hits == 1

    def test_miss_returns_default(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("cd" + "0" * 38, MISS) is MISS
        assert cache.misses == 1

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "ef" + "0" * 38
        cache.put(key, [1, 2, 3])
        path = cache.path(key)
        path.write_bytes(b"\x80garbage-not-a-pickle")
        # corrupted entry: treated as a miss, file removed, no crash
        assert cache.get(key, MISS) is MISS
        assert cache.corrupt == 1
        assert not path.exists()
        cache.put(key, [1, 2, 3])
        assert cache.get(key) == [1, 2, 3]

    def test_truncated_entry_recovers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "0f" + "1" * 38
        cache.put(key, list(range(100)))
        path = cache.path(key)
        path.write_bytes(pickle.dumps(list(range(100)))[:10])
        assert cache.get(key, MISS) is MISS
        assert cache.corrupt == 1

    def test_torn_pickle_moves_to_quarantine(self, tmp_path):
        """Corrupt entries are evidence: moved for triage, never deleted."""
        cache = ArtifactCache(tmp_path)
        key = "ab" + "2" * 38
        cache.put(key, list(range(50)))
        torn_bytes = pickle.dumps(list(range(50)))[:7]
        cache.path(key).write_bytes(torn_bytes)
        assert cache.get(key, MISS) is MISS
        assert cache.quarantined == 1
        qdir = tmp_path / "quarantine"
        moved = list(qdir.iterdir())
        assert len(moved) == 1
        assert moved[0].name.endswith(".quar")
        assert moved[0].read_bytes() == torn_bytes
        # the renamed file never rejoins the store: a fresh put works and
        # clear() only sees the live entry
        cache.put(key, [1, 2])
        assert cache.get(key) == [1, 2]
        assert cache.clear() == 1

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(5):
            cache.put(f"{i:02d}" + "0" * 38, i)
        assert cache.clear() == 5
        assert cache.get("00" + "0" * 38, MISS) is MISS


def _racing_put(root, key, barrier, q):
    """Child-process body: put one value into the shared cache dir."""
    cache = ArtifactCache(root)
    barrier.wait()  # maximize writer overlap
    cache.put(key, list(range(5000)))
    q.put(cache.bytes_written)


class TestCommit:
    def test_concurrent_puts_publish_once(self, tmp_path):
        """Two processes racing on one key: one entry is published, and
        only the winner counts its bytes."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        key = "cc" + "7" * 38
        barrier = ctx.Barrier(2)
        q = ctx.Queue()
        procs = [
            ctx.Process(target=_racing_put, args=(tmp_path, key, barrier, q))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        written = [q.get(timeout=30) for _ in procs]
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        shard = tmp_path / key[:2]
        assert [p.name for p in shard.iterdir()] == [f"{key}.pkl"]  # no .tmp/.lock
        assert sum(written) == (shard / f"{key}.pkl").stat().st_size
        assert ArtifactCache(tmp_path).get(key) == list(range(5000))

    def test_without_hard_links_both_stores_still_publish(self, tmp_path, monkeypatch):
        from repro.harness.trace_plane import TracePlane
        from repro.workloads.trace import AccessTrace

        def no_link(src, dst):
            raise PermissionError("hard links not supported")

        monkeypatch.setattr(os, "link", no_link)
        key = "ab" + "1" * 38
        cache = ArtifactCache(tmp_path)
        cache.put(key, {"a": 1})
        assert cache.write_errors == 0
        assert ArtifactCache(tmp_path).get(key) == {"a": 1}
        plane = TracePlane(tmp_path / "trace-plane")
        trace = AccessTrace.from_lists([1, 2], [10, 20], [False, True], 5)
        assert plane.store(key, trace) is not None
        assert plane.stores == 1
        assert TracePlane(plane.root).load(key).lines.tolist() == [10, 20]
        assert not list(tmp_path.glob("**/*.tmp"))


class TestGlobalCache:
    def test_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")  # CI exports REPRO_CACHE=off
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path
        assert get_cache().root == tmp_path

    def test_disable_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache_enabled()
        assert isinstance(get_cache(), NullCache)

    def test_disable_via_override(self, tmp_path, monkeypatch, capsys):
        """``--no-cache`` overrides ``REPRO_CACHE=on`` for one command only."""
        from repro.cli import main
        from repro.harness.runner import clear_result_memo

        monkeypatch.setenv("REPRO_CACHE", "on")  # CI exports REPRO_CACHE=off
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_result_memo()
        assert main(["fig", "1", "gobmk", "--instructions", "60000", "--no-cache"]) == 0
        assert "simulated 2" in capsys.readouterr().out
        assert usage(tmp_path)["entries"] == 0  # nothing persisted
        assert get_cache().enabled

    def test_null_cache_is_inert(self):
        null = NullCache()
        null.put("k", 1)
        assert null.get("k", MISS) is MISS

    def test_trace_persisted_through_cache(self, tmp_path, monkeypatch):
        from repro.workloads import profile
        from repro.workloads.spec_profiles import clear_trace_cache

        monkeypatch.setenv("REPRO_CACHE", "on")  # CI exports REPRO_CACHE=off
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        llc = LlcConfig(size_bytes=256 * 1024, ways=4)
        clear_trace_cache()
        t1 = profile("gobmk").memory_trace(50_000, llc, seed=9)
        # traces persist through the trace plane (one raw .trace file per
        # entry), not the pickle cache — workers mmap them instead
        plane = tmp_path / "trace-plane"
        assert any(plane.glob("*/*.trace")), "trace not written to trace plane"
        clear_trace_cache()  # force the disk path
        t2 = profile("gobmk").memory_trace(50_000, llc, seed=9)
        assert (t1.gaps == t2.gaps).all()
        assert (t1.lines == t2.lines).all()
        assert (t1.writes == t2.writes).all()
        assert t1.tail_instructions == t2.tail_instructions
        clear_trace_cache()


@pytest.mark.usefixtures("fresh_cache")
class TestFingerprintApi:
    def test_spec_fingerprint_is_the_cache_address(self):
        spec = RunSpec.benchmark(
            "lbm", SystemConfig.single_core(), RunScale(instructions=60_000, seed=2)
        )
        assert spec_fingerprint(spec) == spec.key
        assert cached_result(spec.key) is None
        results = execute_plan([spec], jobs=1)
        assert cached_result(spec.key) is not None
        assert result_digest(cached_result(spec.key)) == result_digest(
            results[spec]
        )


@pytest.mark.usefixtures("fresh_cache")
class TestCacheStatsExtensions:
    def test_usage_reports_quarantine_and_chaos(self):
        root = get_cache().root
        (root / "quarantine").mkdir(parents=True)
        (root / "quarantine" / "case.json").write_text("{}" * 40)
        (root / "chaos" / "seed-7").mkdir(parents=True)
        (root / "chaos" / "seed-7" / "marker").write_text("x")
        stats = usage(root)
        assert stats["quarantined"] == 1
        assert stats["quarantine_bytes"] == 80
        assert stats["chaos_seeds"] == ["seed-7"]
        assert stats["chaos_markers"] == 1
        assert stats["chaos_bytes"] == 1

    def test_usage_zero_when_dirs_absent(self):
        stats = usage(get_cache().root)
        assert stats["quarantined"] == 0
        assert stats["chaos_seeds"] == []
