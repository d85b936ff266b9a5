"""Trace-plane lifecycle tests (ISSUE 4).

The plane persists LLC-filtered memory traces as one raw ``.trace`` file
per entry that any number of processes memory-map.  These tests cover the full
lifecycle: materialize once / reuse across specs, survival of worker
crashes, invalidation when the content key changes, and corruption
recovery (torn entries are misses, never crashes).
"""

import dataclasses
import json
import struct

import numpy as np
import pytest

from repro import SystemConfig
from repro.config import LlcConfig
from repro.harness import RunScale, RunSpec, execute_plan
from repro.harness.runner import ExecutionPolicy, clear_result_memo
from repro.harness.trace_plane import (
    NullTracePlane,
    TracePlane,
    get_trace_plane,
    trace_plane_dir,
)
from repro.workloads import profile
from repro.workloads.spec_profiles import clear_trace_cache
from repro.workloads.trace import AccessTrace

TINY = RunScale(instructions=120_000, seed=3, training_refreshes=3)
LLC = LlcConfig(size_bytes=256 * 1024, ways=4)


@pytest.fixture(autouse=True)
def plane_env(tmp_path, monkeypatch):
    """Point the cache (and so the plane) at a fresh directory, cache ON."""
    from repro.harness import set_cache_enabled

    set_cache_enabled(None)  # drop any leaked process-wide override
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_trace_cache()
    clear_result_memo()
    yield tmp_path
    clear_trace_cache()
    clear_result_memo()


def policy(**kw) -> ExecutionPolicy:
    return dataclasses.replace(ExecutionPolicy(backoff_s=0.01), **kw)


class TestStoreLoad:
    def test_roundtrip_returns_mmap_views(self):
        plane = get_trace_plane()
        assert isinstance(plane, TracePlane)
        first = profile("gobmk").memory_trace(50_000, LLC, seed=9)
        assert plane.stores == 1
        # the handed-out trace is already the mmap readback
        assert isinstance(first.gaps, np.memmap)

        clear_trace_cache()  # force the disk path
        second = profile("gobmk").memory_trace(50_000, LLC, seed=9)
        assert plane.hits >= 1
        assert isinstance(second.lines, np.memmap)
        assert (first.gaps == second.gaps).all()
        assert (first.lines == second.lines).all()
        assert (first.writes == second.writes).all()
        assert first.tail_instructions == second.tail_instructions

    def test_artifacts_on_disk_under_plane_dir(self):
        profile("gobmk").memory_trace(50_000, LLC, seed=9)
        root = trace_plane_dir()
        files = list(root.glob("*/*"))
        assert [p.suffix for p in files] == [".trace"]

    def test_meta_commit_marker_written_last_semantics(self, tmp_path):
        """An uncommitted write (a ``.tmp`` never renamed) is a plain miss."""
        plane = TracePlane(tmp_path / "plane")
        key = "ab" + "0" * 38
        trace = AccessTrace.from_lists([1, 2], [10, 20], [False, True], 5)
        assert plane.store(key, trace) is not None
        # a writer killed before the commit leaves only its temp file
        path = plane.path(key)
        path.rename(path.with_name("tmpab12.tmp"))
        assert plane.load(key) is None
        assert plane.corrupt == 0  # uncommitted != corrupt

    def test_disabled_cache_uses_null_plane(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert isinstance(get_trace_plane(), NullTracePlane)
        clear_trace_cache()
        trace = profile("gobmk").memory_trace(50_000, LLC, seed=9)
        assert not isinstance(trace.gaps, np.memmap)  # plain in-memory trace


class TestReadOnly:
    """Plane-backed arrays are shared pages: writes must be impossible.

    Every ``SpecProfile.memory_trace`` consumer was audited to only
    *read* the arrays (``tolist`` copies, arithmetic allocates, the
    epoch kernel's columnar decode allocates); these tests pin the
    contract so a future consumer that scribbles into the shared mmap
    fails loudly instead of corrupting every other process's trace.
    """

    def test_plane_arrays_are_not_writeable(self):
        trace = profile("gobmk").memory_trace(50_000, LLC, seed=9)
        for name in ("gaps", "lines", "writes"):
            arr = getattr(trace, name)
            assert isinstance(arr, np.memmap)
            assert not arr.flags.writeable
            with pytest.raises((ValueError, OSError)):
                arr[0] = arr[0]

    def test_disk_readback_is_not_writeable(self):
        profile("gobmk").memory_trace(50_000, LLC, seed=9)
        clear_trace_cache()  # force the plane.load path
        trace = profile("gobmk").memory_trace(50_000, LLC, seed=9)
        assert not trace.gaps.flags.writeable
        assert not trace.lines.flags.writeable
        assert not trace.writes.flags.writeable

    def test_slice_views_inherit_read_only(self):
        trace = profile("gobmk").memory_trace(50_000, LLC, seed=9)
        sub = trace.slice(0, min(8, len(trace)))
        assert not sub.lines.flags.writeable

    def test_simulation_leaves_plane_arrays_intact(self):
        """A full run over a plane-backed trace must not mutate it."""
        cfg = SystemConfig.single_core().with_rop(training_refreshes=2)
        trace = profile("gobmk").memory_trace(50_000, cfg.llc, seed=9)
        snapshot = (
            np.array(trace.gaps), np.array(trace.lines), np.array(trace.writes)
        )
        from repro.cpu.multicore import run_cores

        for engine in ("scalar", "epoch"):
            run_cores([trace], cfg, engine=engine)
        assert (trace.gaps == snapshot[0]).all()
        assert (trace.lines == snapshot[1]).all()
        assert (trace.writes == snapshot[2]).all()


class TestCorruption:
    def test_torn_array_is_dropped_and_recomputed(self):
        plane = get_trace_plane()
        # snapshot to the heap: the corruption below clobbers live mmaps
        original = np.array(profile("gobmk").memory_trace(50_000, LLC, seed=9).lines)
        key = profile("gobmk").trace_key(50_000, LLC, seed=9)
        # cut the file inside the lines array: a torn write or foreign bytes
        path = plane.path(key)
        path.write_bytes(path.read_bytes()[: 64 + 8 * len(original) + 16])
        clear_trace_cache()
        recomputed = profile("gobmk").memory_trace(50_000, LLC, seed=9)
        assert plane.corrupt >= 1
        assert (recomputed.lines == original).all()

    def test_garbage_meta_is_dropped(self):
        plane = get_trace_plane()
        profile("gobmk").memory_trace(50_000, LLC, seed=9)
        key = profile("gobmk").trace_key(50_000, LLC, seed=9)
        path = plane.path(key)
        path.write_bytes(b"{not json".ljust(64) + path.read_bytes()[64:])
        assert plane.load(key) is None
        assert plane.corrupt >= 1
        # the file with the bad header left the store
        assert not path.exists()

    def test_stale_schema_invalidates(self):
        plane = get_trace_plane()
        profile("gobmk").memory_trace(50_000, LLC, seed=9)
        key = profile("gobmk").trace_key(50_000, LLC, seed=9)
        path = plane.path(key)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 8, 1)  # the schema field
        path.write_bytes(bytes(raw))
        assert plane.load(key) is None

    def test_corrupt_entry_is_quarantined_for_triage(self):
        """A torn entry's surviving files move to quarantine, not the void."""
        plane = get_trace_plane()
        profile("gobmk").memory_trace(50_000, LLC, seed=9)
        key = profile("gobmk").trace_key(50_000, LLC, seed=9)
        path = plane.path(key)
        torn_bytes = path.read_bytes()[:16]
        path.write_bytes(torn_bytes)
        assert plane.load(key) is None
        assert plane.quarantined == 1
        assert not path.exists()
        qdir = plane.root.parent / "quarantine"
        moved = list(qdir.iterdir())
        assert [p.name for p in moved] == [path.name + ".quar"]
        # the torn bytes survive verbatim for offline triage
        assert moved[0].read_bytes() == torn_bytes


class TestLegacyEntries:
    """Schema-1 groups (three ``.npy`` files + ``.meta.json``) are dead
    weight: no reader loads them, and both clear() and the GC delete them."""

    KEY = "ab" + "1" * 38

    def _seed(self, plane):
        shard = plane.root / self.KEY[:2]
        shard.mkdir(parents=True, exist_ok=True)
        for name in ("gaps", "lines", "writes"):
            np.save(shard / f"{self.KEY}.{name}.npy", np.zeros(8, dtype=np.int64))
        (shard / f"{self.KEY}.meta.json").write_text(
            json.dumps({"schema": 1, "length": 8, "tail_instructions": 0})
        )
        return sorted(shard.glob(f"{self.KEY}.*"))

    def test_legacy_group_reads_as_plain_miss(self):
        plane = get_trace_plane()
        self._seed(plane)
        assert plane.load(self.KEY) is None
        assert plane.corrupt == 0

    def test_gc_removes_legacy_files_under_any_quota(self, plane_env):
        from repro.harness.cache_gc import collect, iter_entries

        plane = get_trace_plane()
        legacy = self._seed(plane)
        live = "cd" + "2" * 38
        plane.store(live, AccessTrace.from_lists([1], [2], [False], 0))
        kinds = {e.key: e.kind for e in iter_entries(plane_env)}
        assert kinds == {self.KEY: "legacy", live: "trace"}
        res = collect(1 << 40, root=plane_env)
        assert res.legacy_removed == 1
        assert res.evicted_keys == []
        assert not any(p.exists() for p in legacy)
        assert plane.path(live).exists()

    def test_clear_removes_legacy_and_current_files(self):
        plane = get_trace_plane()
        legacy = self._seed(plane)
        live = "cd" + "2" * 38
        plane.store(live, AccessTrace.from_lists([1], [2], [False], 0))
        assert plane.clear() == len(legacy) + 1
        assert not any(p.exists() for p in legacy)
        assert not plane.path(live).exists()


class TestPlanLifecycle:
    def test_trace_materialized_once_and_shared_across_specs(self):
        """Baseline and ROP specs of one benchmark share one artifact."""
        cfg = SystemConfig.single_core()
        rop = cfg.with_rop(training_refreshes=TINY.training_refreshes)
        specs = [
            RunSpec.benchmark("gobmk", cfg, TINY),
            RunSpec.benchmark("gobmk", rop, TINY),
        ]
        plane = get_trace_plane()
        results = execute_plan(specs, jobs=1)
        assert results.ok(*specs)
        assert plane.stores == 1  # one trace, two consumers

        # a later plan (fresh memo, same cache dir) mmaps instead of storing
        clear_trace_cache()
        clear_result_memo()
        plane2 = get_trace_plane()
        hits_before = plane2.hits
        profile("gobmk").memory_trace(TINY.instructions, cfg.llc, seed=TINY.seed)
        assert plane2.hits == hits_before + 1
        assert plane2.stores == 1

    def test_artifacts_survive_worker_crash(self, tmp_path, monkeypatch):
        """A crashed worker must not tear the shared trace artifacts."""
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"lbm": {"mode": "crash"}}))
        monkeypatch.setenv("REPRO_FAULTS", str(faults))
        cfg = SystemConfig.single_core()
        specs = [RunSpec.benchmark(n, cfg, TINY) for n in ("gobmk", "lbm", "bzip2")]
        results = execute_plan(specs, jobs=2, policy=policy(keep_going=True))
        assert len(results) == 2  # innocents completed
        plane = get_trace_plane()
        # the parent prewarmed every trace, including the crasher's, and
        # all of them are still loadable afterwards
        for name in ("gobmk", "lbm", "bzip2"):
            key = profile(name).trace_key(TINY.instructions, cfg.llc, seed=TINY.seed)
            assert plane._read(key) is not None, name

    def test_content_key_invalidation(self):
        """Changing the seed or the LLC geometry addresses a new artifact."""
        plane = get_trace_plane()
        p = profile("gobmk")
        base_key = p.trace_key(50_000, LLC, seed=9)
        assert p.trace_key(50_000, LLC, seed=10) != base_key
        assert p.trace_key(50_000, LlcConfig(size_bytes=1 << 20), seed=9) != base_key
        assert p.trace_key(60_000, LLC, seed=9) != base_key
        assert p.trace_key(50_000, LLC, seed=9) == base_key

        p.memory_trace(50_000, LLC, seed=9)
        p.memory_trace(50_000, LLC, seed=10)
        p.memory_trace(50_000, LlcConfig(size_bytes=1 << 20), seed=9)
        assert plane.stores == 3  # three distinct artifacts, no aliasing


def _racing_store(root, key, barrier, q):
    """Child-process body: store one trace into the shared plane dir."""
    plane = TracePlane(root)
    n = 2000
    trace = AccessTrace.from_lists(
        [1] * n, list(range(n)), [False] * n, 5
    )
    barrier.wait()  # maximize writer overlap
    out = plane.store(key, trace)
    q.put((plane.stores, out is not None))


class TestConcurrency:
    def test_concurrent_prewarms_store_once(self):
        """Two processes racing on one key: the first ``os.link`` publishes
        the entry; the loser reads the winner's committed entry back."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        plane = get_trace_plane()
        key = "cc" + "7" * 38
        barrier = ctx.Barrier(2)
        q = ctx.Queue()
        procs = [
            ctx.Process(target=_racing_store, args=(plane.root, key, barrier, q))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        outcomes = [q.get(timeout=30) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        assert sum(stores for stores, _ in outcomes) == 1
        assert all(ok for _, ok in outcomes)
        assert plane._read(key) is not None

    def test_store_over_published_key_reads_winner_back(self, tmp_path):
        key = "cd" + "1" * 38
        winner = TracePlane(tmp_path / "plane")
        winner.store(key, AccessTrace.from_lists([1, 2], [10, 20], [False, True], 5))
        loser = TracePlane(tmp_path / "plane")
        out = loser.store(key, AccessTrace.from_lists([7], [70], [True], 1))
        assert out is not None and out.lines.tolist() == [10, 20]  # the winner's
        assert loser.stores == 0
        assert loser.bytes_written == 0
        assert [p.name for p in (tmp_path / "plane" / "cd").iterdir()] == [f"{key}.trace"]
