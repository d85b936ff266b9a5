"""Tests for the telemetry subsystem: sink, exporters, metrics, wiring.

Covers the contract the rest of the repository relies on:

* the ring buffer's wraparound / drop / grow semantics and per-category
  accounting;
* telemetry-on vs telemetry-off runs are **bit-identical** (the sink only
  observes);
* the exported Chrome trace-event JSON is structurally valid for
  Perfetto;
* metrics merge deterministically, so ``jobs=1`` and ``jobs=N`` plans
  produce identical merged metrics;
* :func:`~repro.stats.refresh_analysis.rank_events` rebuilds the
  pre-telemetry per-rank event lists (Figs. 2–4 inputs) exactly from a
  sink snapshot.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import SystemConfig
from repro.cpu import run_cores
from repro.harness import RunScale
from repro.harness.runner import (
    PlanResults,
    RunSpec,
    RunnerStats,
    clear_result_memo,
    execute_plan,
)
from repro.harness.cache import NullCache
from repro.stats.refresh_analysis import analyze_rank, blocked_per_refresh, rank_events
from repro.telemetry import (
    Category,
    Kind,
    MetricsRegistry,
    NULL_SINK,
    PhaseCode,
    TraceSink,
    chrome_trace,
    kind_name,
    write_chrome_trace,
    write_csv,
    write_jsonl,
)
from repro.workloads import profile

TINY = RunScale(instructions=120_000, seed=3, training_refreshes=3)


def tiny_run(sink=None, *, rop=True, instructions=120_000):
    cfg = SystemConfig.single_core()
    if rop:
        cfg = cfg.with_rop(training_refreshes=3)
    mt = profile("lbm").memory_trace(instructions, cfg.llc, seed=3)
    return run_cores([mt], cfg, sink=sink), cfg


# --------------------------------------------------------------- ring buffer


class TestTraceSink:
    def test_emit_and_snapshot_order(self):
        sink = TraceSink(capacity=8)
        for i in range(5):
            sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, i * 10, 0, 0, a=i)
        snap = sink.snapshot()
        assert snap["cycle"].tolist() == [0, 10, 20, 30, 40]
        assert snap["a"].tolist() == [0, 1, 2, 3, 4]
        assert len(sink) == 5 and sink.emitted == 5 and sink.dropped == 0

    def test_wrap_overwrites_oldest_and_charges_its_category(self):
        sink = TraceSink(capacity=4, policy="wrap")
        sink.emit(Category.REFRESH, Kind.REFRESH_WINDOW, 0, a=10)
        for i in range(1, 6):
            sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, i)
        snap = sink.snapshot()
        # capacity 4: cycles 2..5 survive, the REFRESH event and cycle-1
        # arrival were overwritten
        assert snap["cycle"].tolist() == [2, 3, 4, 5]
        assert sink.dropped == 2
        assert sink.dropped_by_category[Category.REFRESH] == 1
        assert sink.dropped_by_category[Category.REQUEST] == 1
        assert sink.emitted == 6  # drops don't un-count emissions

    def test_drop_policy_rejects_incoming(self):
        sink = TraceSink(capacity=2, policy="drop")
        for i in range(5):
            sink.emit(Category.SRAM, Kind.SRAM_HIT, i)
        assert sink.snapshot()["cycle"].tolist() == [0, 1]
        assert sink.dropped == 3
        assert sink.dropped_by_category[Category.SRAM] == 3

    def test_grow_policy_keeps_everything(self):
        sink = TraceSink(capacity=2, policy="grow")
        for i in range(9):
            sink.emit(Category.ROP, Kind.PHASE, i, a=i % 3)
        assert sink.snapshot()["cycle"].tolist() == list(range(9))
        assert sink.dropped == 0
        assert sink.capacity >= 9

    def test_wraparound_snapshot_is_chronological(self):
        sink = TraceSink(capacity=3, policy="wrap")
        for i in range(7):  # head wraps twice and lands mid-array
            sink.emit(Category.SERVICE, Kind.ISSUE, i)
        assert sink.snapshot()["cycle"].tolist() == [4, 5, 6]

    def test_category_mask(self):
        sink = TraceSink(capacity=8, categories={Category.REFRESH})
        assert sink.wants(Category.REFRESH)
        assert not sink.wants(Category.REQUEST)
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 1)
        sink.emit(Category.REFRESH, Kind.REFRESH_WINDOW, 2, a=5)
        assert len(sink) == 1 and sink.masked == 1
        sink.enable(Category.REQUEST)
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 3)
        assert len(sink) == 2

    def test_select_filters(self):
        sink = TraceSink(capacity=16)
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 1, 0, 0)
        sink.emit(Category.REQUEST, Kind.WRITE_ARRIVAL, 2, 0, 1)
        sink.emit(Category.REFRESH, Kind.REFRESH_WINDOW, 3, 0, 1, a=9)
        reads = sink.select(kind=Kind.READ_ARRIVAL)
        assert reads["cycle"].tolist() == [1]
        rank1 = sink.select(rank=1)
        assert rank1["cycle"].tolist() == [2, 3]
        ref = sink.select(category=Category.REFRESH, rank=1)
        assert ref["a"].tolist() == [9]

    def test_summary_and_counts(self):
        sink = TraceSink(capacity=4)
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 1)
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 2)
        s = sink.summary()
        assert s["stored"] == 2 and s["policy"] == "wrap"
        assert s["by_category"]["request"]["emitted"] == 2
        assert sink.counts_by_kind() == {"read_arrival": 2}

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            TraceSink(capacity=0)
        with pytest.raises(ValueError):
            TraceSink(policy="bogus")

    def test_null_sink_is_inert(self):
        assert not NULL_SINK.enabled
        assert not NULL_SINK.wants(Category.REQUEST)
        NULL_SINK.emit(Category.REQUEST, Kind.READ_ARRIVAL, 1)
        assert len(NULL_SINK) == 0
        assert len(NULL_SINK.snapshot()["cycle"]) == 0

    def test_kind_name(self):
        assert kind_name(int(Kind.REFRESH_WINDOW)) == "refresh_window"
        assert kind_name(9999) == "kind9999"


# ------------------------------------------------------------ invariance


class TestTelemetryInvariance:
    def test_run_bit_identical_with_and_without_sink(self):
        off, _ = tiny_run(sink=None)
        sink = TraceSink()
        on, _ = tiny_run(sink=sink)
        assert sink.emitted > 0  # telemetry actually collected
        assert on.cores == off.cores
        assert vars(on.stats) == vars(off.stats)
        assert on.end_cycle == off.end_cycle
        assert on.rop_summary == off.rop_summary
        assert on.metrics == off.metrics  # metrics derive from scalars only

    def test_spec_key_excludes_telemetry(self):
        spec = RunSpec.benchmark("lbm", SystemConfig.single_core(), TINY)
        assert dataclasses.replace(spec, telemetry=True).key == spec.key

    def test_telemetry_spec_bypasses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        spec = RunSpec.benchmark("gobmk", SystemConfig.single_core(), TINY)
        execute_plan([spec], jobs=1, cache=NullCache())
        live = dataclasses.replace(spec, telemetry=True)
        res = execute_plan([live], jobs=1, cache=NullCache())
        assert res.stats.memo_hits == 0  # memo hit would leave no trace
        assert res.stats.executed == 1
        traces = list(tmp_path.glob("*.trace.json"))
        assert len(traces) == 1
        json.loads(traces[0].read_text())  # valid JSON


# --------------------------------------------------------------- exporters


class TestExporters:
    def test_chrome_trace_schema(self):
        sink = TraceSink()
        result, cfg = tiny_run(sink=sink)
        doc = chrome_trace(sink, cfg.effective_timings().tck_ns, label="t")
        events = doc["traceEvents"]
        assert events, "no events exported"
        for e in events:
            assert {"ph", "pid", "tid"} <= set(e)
            if e["ph"] in ("X", "i", "C"):
                assert "ts" in e and "name" in e
            if e["ph"] == "X":
                assert e["dur"] >= 0
        names = {e.get("name") for e in events}
        assert "refresh freeze" in names  # per-rank duration spans
        assert "read" in names  # request instants
        phases = {e["name"] for e in events if e.get("cat") == "rop-phase"}
        assert "training" in phases and "observing" in phases
        # per-channel/rank tracks announced via metadata events
        meta = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in meta}

    def test_refresh_spans_match_lock_cycles(self):
        sink = TraceSink()
        result, cfg = tiny_run(sink=sink)
        ref = sink.select(kind=Kind.REFRESH_WINDOW)
        locked = int((ref["a"] - ref["cycle"]).sum())
        assert locked == result.stats.refresh_locked_cycles

    def test_write_chrome_trace_jsonl_csv(self, tmp_path):
        sink = TraceSink(capacity=16)
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 5, 0, 0, a=42)
        sink.emit(Category.REFRESH, Kind.REFRESH_WINDOW, 10, 0, 0, a=20)
        p = write_chrome_trace(sink, 1.25, tmp_path / "t.trace.json")
        doc = json.loads(p.read_text())
        assert doc["otherData"]["clock_period_ns"] == 1.25
        p = write_jsonl(sink, tmp_path / "t.jsonl")
        lines = [json.loads(ln) for ln in p.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["kind_name"] == "read_arrival"
        assert lines[1]["category"] == "refresh"
        write_csv(sink, tmp_path / "t.csv")
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert rows[0].startswith("cycle,") and len(rows) == 3

    def test_phase_codes_cover_machine_states(self):
        assert {p.name for p in PhaseCode} == {"TRAINING", "OBSERVING", "PREFETCHING"}


# ----------------------------------------------------------------- metrics


class TestMetricsRegistry:
    def test_counters_sum_and_gauges_average(self):
        a = MetricsRegistry()
        a.count("x", 2)
        a.gauge("ipc", 1.0)
        a.gauge("lat.max", 50)
        b = MetricsRegistry()
        b.count("x", 3)
        b.gauge("ipc", 3.0)
        b.gauge("lat.max", 40)
        m = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        assert m["counters"]["x"] == 5
        assert MetricsRegistry.gauge_value(m, "ipc") == pytest.approx(2.0)
        assert MetricsRegistry.gauge_value(m, "lat.max") == 50

    def test_merge_is_order_independent(self):
        snaps = []
        for i in range(4):
            r = MetricsRegistry()
            r.count("n", i)
            r.gauge("g", float(i), weight=i + 1)
            r.gauge("g.min", float(i))
            r.observe("h", 10.0 * i, bounds=(5, 25))
            snaps.append(r.snapshot())
        fwd = MetricsRegistry.merge(snaps)
        rev = MetricsRegistry.merge(list(reversed(snaps)))
        assert json.dumps(fwd, sort_keys=True) == json.dumps(rev, sort_keys=True)

    def test_histogram_buckets_and_overflow(self):
        r = MetricsRegistry()
        for v in (1, 6, 30, 1000):
            r.observe("lat", v, bounds=(5, 25))
        h = r.snapshot()["histograms"]["lat"]
        assert h["counts"] == [1, 1, 2]
        assert h["sum"] == 1037.0

    def test_histogram_bounds_mismatch_raises(self):
        a = MetricsRegistry()
        a.observe("h", 1, bounds=(5,))
        b = MetricsRegistry()
        b.observe("h", 1, bounds=(9,))
        with pytest.raises(ValueError):
            MetricsRegistry.merge([a.snapshot(), b.snapshot()])

    def test_from_run_attached_to_result(self):
        result, _ = tiny_run()
        m = result.metrics
        assert m["counters"]["dram.reads"] == result.stats.reads
        assert m["counters"]["cpu.instructions"] == result.cores[0].instructions
        assert MetricsRegistry.gauge_value(m, "cpu.ipc") == pytest.approx(result.ipc)
        assert m["counters"]["rop.buffer_fills"] == result.rop_summary["buffer_fills"]

    def test_jobs_equivalence_of_merged_metrics(self):
        cfg = SystemConfig.single_core()
        specs = [
            RunSpec.benchmark("gobmk", cfg, TINY),
            RunSpec.benchmark("lbm", cfg, TINY),
            RunSpec.benchmark("gobmk", cfg.with_rop(training_refreshes=3), TINY),
        ]
        seq = execute_plan(specs, jobs=1, cache=NullCache())
        clear_result_memo()
        par = execute_plan(specs, jobs=2, cache=NullCache())
        m_seq, m_par = seq.merged_metrics(), par.merged_metrics()
        assert m_seq["counters"]  # non-trivial merge
        assert json.dumps(m_seq, sort_keys=True) == json.dumps(m_par, sort_keys=True)

    def test_render_metrics(self):
        from repro.harness import reporting

        result, _ = tiny_run()
        out = reporting.render_metrics(result.metrics)
        assert "dram.reads" in out and "counter" in out
        only_rop = reporting.render_metrics(result.metrics, prefix="rop.")
        assert "rop.buffer_fills" in only_rop and "dram.reads" not in only_rop
        assert reporting.render_metrics({}) == "(no metrics recorded)"


# ------------------------------------------- per-rank views from the sink


def request_refresh_sink() -> TraceSink:
    return TraceSink(
        capacity=1 << 12, categories={Category.REQUEST, Category.REFRESH}, policy="grow"
    )


class TestRecorderShim:
    """``rank_events`` serves the per-rank lists the recorder shim used to."""

    def test_direct_api_round_trip(self):
        sink = request_refresh_sink()
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 5, 0, 0)
        sink.emit(Category.REQUEST, Kind.WRITE_ARRIVAL, 7, 0, 0)
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 9, 0, 1)
        sink.emit(Category.REFRESH, Kind.REFRESH_WINDOW, 100, 0, 0, a=260, b=-1)
        snap = sink.snapshot()
        ev = rank_events(snap, 0, 0)
        assert ev.read_arrivals == [5]
        assert ev.write_arrivals == [7]
        assert ev.refresh_starts == [100] and ev.refresh_ends == [260]
        assert rank_events(snap, 0, 1).read_arrivals == [9]

    def test_materialized_lists_are_plain_ints(self):
        sink = request_refresh_sink()
        sink.emit(Category.REQUEST, Kind.READ_ARRIVAL, 3, 0, 0)
        ev = rank_events(sink.snapshot(), 0, 0)
        assert type(ev.read_arrivals[0]) is int  # np.int64 would change pickles

    def test_refresh_analysis_unchanged_by_shim(self):
        """Figs. 2–4 / Table I inputs read straight from the sink."""
        from repro.dram.memory_system import MemorySystem

        cfg = SystemConfig.single_core()
        ms = MemorySystem(cfg, record_events=True)
        rng = np.random.default_rng(7)
        for i, cyc in enumerate(np.sort(rng.integers(0, 40_000, size=300))):
            if i % 5 == 0:
                ms.submit_write(int(i), int(cyc))
            else:
                ms.schedule_read(int(i), int(cyc))
        ms.run(until=50_000)
        ms.finish()
        snap = ms.sink.snapshot()
        ev = rank_events(snap, 0, 0)
        # reference lists rebuilt by hand from the sink columns
        mine = (snap["channel"] == 0) & (snap["rank"] == 0)
        reads = snap["cycle"][mine & (snap["kind"] == int(Kind.READ_ARRIVAL))]
        assert ev.read_arrivals == reads.tolist()
        windows = snap["kind"] == int(Kind.REFRESH_WINDOW)
        assert ev.refresh_starts == snap["cycle"][mine & windows].tolist()
        assert ev.refresh_ends == snap["a"][mine & windows].tolist()
        wa = analyze_rank(ev, ms.controller.t.refi)
        assert wa.refreshes == len(ev.refresh_starts) > 0
        assert len(blocked_per_refresh(ev)) == wa.refreshes  # Fig. 3 path


# ------------------------------------------------------- harness & CLI


class TestHarnessWiring:
    def test_runner_stats_surface_cache_write_errors(self):
        from repro.harness import reporting

        stats = RunnerStats(requested=1, unique=1, cache_write_errors=2)
        assert "2 cache write errors" in reporting.render_runner_stats(stats)
        clean = RunnerStats(requested=1, unique=1)
        assert "cache write errors" not in reporting.render_runner_stats(clean)

    def test_cache_write_errors_counted(self, tmp_path):
        from repro.harness.cache import ArtifactCache

        class FailingCache(ArtifactCache):
            def put(self, key, value):
                self.write_errors += 1

        cache = FailingCache(tmp_path)
        spec = RunSpec.benchmark("gobmk", SystemConfig.single_core(), TINY)
        clear_result_memo()
        res = execute_plan([spec], jobs=1, cache=cache)
        assert res.stats.cache_write_errors == 1

    def test_merged_metrics_empty_plan(self):
        res = PlanResults({}, RunnerStats())
        assert res.merged_metrics() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_info_shows_version(self, capsys):
        from repro import __version__
        from repro.cli import main

        assert main(["info"]) == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "lbm.trace.json"
        code = main(
            ["trace", "lbm", "--instructions", "120000", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "refresh freeze" in names
        printed = capsys.readouterr().out
        assert "events stored" in printed and "perfetto" in printed.lower()

    def test_trace_subcommand_csv(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "t.csv"
        assert main(
            ["trace", "gobmk", "--instructions", "120000", "--format", "csv",
             "--out", str(out), "--baseline"]
        ) == 0
        assert out.read_text().startswith("cycle,")

    def test_telemetry_flag_writes_worker_traces(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        # register teardown restores: main() sets these via os.environ
        monkeypatch.setenv("REPRO_TELEMETRY", "")
        monkeypatch.setenv("REPRO_TRACE_DIR", "")
        from repro.harness import set_cache_enabled

        try:
            code = main(
                ["analyze", "gobmk", "--instructions", "120000", "--telemetry",
                 "--trace-dir", str(tmp_path), "--no-cache"]
            )
        finally:
            set_cache_enabled(None)  # --no-cache sets a process-wide override
        assert code == 0
        assert list(tmp_path.glob("*.trace.json"))
        assert "telemetry:" in capsys.readouterr().out
