"""Integration tests for the multi-core co-simulation."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import SystemConfig
from repro.config import LlcConfig
from repro.cpu.multicore import place_traces, run_cores
from repro.harness.quarantine import result_digest
from repro.workloads import profile
from repro.workloads.trace import AccessTrace


def stream_trace(n=800, gap=4, start=0):
    return AccessTrace.from_lists(
        [gap] * n, list(range(start, start + n)), [False] * n
    )


def test_single_core_result_fields():
    r = run_cores([stream_trace()], SystemConfig.single_core())
    assert len(r.cores) == 1
    assert r.ipc > 0
    assert r.cores[0].instructions == stream_trace().total_instructions
    assert r.rop_summary is None


def test_four_cores_all_finish():
    traces = [stream_trace(start=i * 10_000) for i in range(4)]
    r = run_cores(traces, SystemConfig.quad_core())
    assert len(r.cores) == 4
    assert all(c.ipc > 0 for c in r.cores)


def test_rank_partitioning_places_cores_in_own_ranks():
    cfg = SystemConfig.quad_core(rank_partitioned=True)
    traces = [stream_trace(n=10) for _ in range(4)]
    placed = place_traces(traces, cfg)
    from repro.dram.address_mapping import AddressMapper

    mapper = AddressMapper(cfg.organization, cfg.address_map)
    for i, tr in enumerate(placed):
        ranks = {mapper.decode(int(l)).rank for l in tr.lines}
        assert ranks == {i}


def test_unpartitioned_placement_disjoint():
    cfg = SystemConfig.quad_core(rank_partitioned=False)
    traces = [stream_trace(n=50) for _ in range(4)]
    placed = place_traces(traces, cfg)
    all_lines = [set(t.lines.tolist()) for t in placed]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (all_lines[i] & all_lines[j])


def test_partitioning_reduces_interference():
    # four streams: partitioned ranks isolate them, shared mapping collides
    traces = [stream_trace(n=3000, gap=2) for _ in range(4)]
    shared = run_cores(traces, SystemConfig.quad_core(rank_partitioned=False))
    part = run_cores(traces, SystemConfig.quad_core(rank_partitioned=True))
    assert sum(part.ipcs) > sum(shared.ipcs)


def test_interference_slows_cores_vs_alone():
    tr = stream_trace(n=3000, gap=2)
    alone = run_cores([tr], SystemConfig.quad_core(rank_partitioned=False))
    together = run_cores(
        [tr] * 4, SystemConfig.quad_core(rank_partitioned=False)
    )
    assert max(together.ipcs) <= alone.ipc + 1e-9


def test_record_events_exposed():
    r = run_cores([stream_trace()], SystemConfig.single_core(), record_events=True)
    assert r.events is not None
    assert (0, 0) in r.events


def test_end_cycle_covers_compute_tail():
    tr = AccessTrace.from_lists([0], [0], [False], tail_instructions=400_000)
    r = run_cores([tr], SystemConfig.single_core())
    # 400 k instructions ≈ 100 k memory cycles: refreshes kept running
    assert r.stats.end_cycle >= 90_000
    assert r.stats.refreshes >= 14


def test_deterministic_multicore():
    def once():
        traces = [stream_trace(n=1500, start=i * 5_000) for i in range(4)]
        r = run_cores(traces, SystemConfig.quad_core())
        return (tuple(r.ipcs), r.stats.end_cycle, r.stats.row_hits)

    assert once() == once()


# -- the LLC only shapes the traces -------------------------------------------

#: the runner shares one simulation between specs whose traces and
#: ``SystemConfig``-without-``llc`` coincide; that is sound only while the
#: simulator never reads ``config.llc``
_SHAPES = {
    "single-rop": (("lbm",), SystemConfig.single_core().with_rop(training_refreshes=3)),
    "quad-rank-partitioned": (
        ("lbm", "gobmk", "libquantum", "bzip2"),
        SystemConfig.quad_core(rank_partitioned=True).with_rop(training_refreshes=3),
    ),
}
_REFERENCE: dict[tuple[str, str], str] = {}


def _shape_traces(shape):
    names, _ = _SHAPES[shape]
    return [profile(n).memory_trace(30_000, LlcConfig(), seed=5) for n in names]


@pytest.mark.parametrize("engine", ["scalar", "epoch"])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
@settings(max_examples=3)
@given(
    llc=st.builds(
        LlcConfig,
        size_bytes=st.sampled_from([64 << 10, 512 << 10, 1 << 20, 4 << 20, 16 << 20]),
        ways=st.sampled_from([4, 8, 16]),
    )
)
def test_result_does_not_depend_on_config_llc(shape, engine, llc):
    traces = _shape_traces(shape)
    cfg = _SHAPES[shape][1]
    if (shape, engine) not in _REFERENCE:
        _REFERENCE[shape, engine] = result_digest(run_cores(traces, cfg, engine=engine))
    got = result_digest(run_cores(traces, replace(cfg, llc=llc), engine=engine))
    assert got == _REFERENCE[shape, engine]
