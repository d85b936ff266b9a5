"""The benchmark's own checks, at a tiny run length."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import gate
import probe
import run
import spans
import sweeps

TINY = 20_000
BENCH_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace=False, seed=3):
    code = run.run_one(workload, seed, 60.0, trace, instructions=TINY, cycles=1)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


# ------------------------------------------------------------ printed metrics


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(restore_env, capsys, workload):
    code, report, result = _run(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCH_JSON["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert result["metrics"][name]["value"] > 0
        line = next(ln for ln in report if f" {name} = " in ln)
        assert line.split(" = ")[1].split()[1] == unit
    for timed in ("setup_s", "sweep_s", "rerender_s"):
        line = next(ln for ln in report if f" {timed} = " in ln)
        assert "raw" in line and "probe" in line
    assert report[0].startswith("host: nproc=") and "probe_ref_s=" in report[0]


def test_every_per_layer_metric_printed_with_unit(restore_env, capsys):
    code, report, result = _run(capsys, "zoo_sweep", trace=True)
    assert code == 0 and result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCH_JSON["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name in declared:
        assert any(f" {name} = " in ln for ln in report)
    m = {n: v["value"] for n, v in result["metrics"].items()}
    # the zoo's DARP/SARP/rop_darp points decline to the scalar engine
    assert m["kernel.declined"] == 3 * len(sweeps.ZOO_BENCHMARKS) * 4
    assert m["dram.scalar_run_s"] > 0 and m["kernel.epoch_multi_s"] == 0
    assert m["bench.layer_coverage_frac"] > 0.9


# -------------------------------------------------------------- normalization


def test_normalize_arithmetic():
    assert probe.normalize(2.0, 0.001, ref_s=0.0005) == pytest.approx(1.0)
    assert probe.normalize(3.0, probe.PROBE_REF_S) == pytest.approx(3.0)
    # twice as slow a host, twice the raw seconds: same normalized value
    assert probe.normalize(4.0, 0.002, 0.001) == probe.normalize(2.0, 0.001, 0.001)


def test_probe_time_is_taken_off_the_call():
    p = probe.Probe(interval_s=0.002)
    result, raw, probe_s = p.timed(lambda: sum(i * i for i in range(300_000)))
    assert result > 0
    start, end = p.window
    inside = [d for t, d in p.samples if start <= t < end]
    assert len(inside) >= 3
    assert raw == pytest.approx((end - start) - sum(inside))
    assert probe_s == pytest.approx(sum(inside) / len(inside))


def test_short_call_still_gets_probe_units():
    p = probe.Probe(interval_s=1.0)
    _, raw, probe_s = p.timed(lambda: None)
    assert len(p.samples) == probe.MIN_UNITS and probe_s > 0 and raw >= 0


# ------------------------------------------------------------------ self time


def test_self_time_on_hand_built_tree():
    tree = [
        spans.Span(0, "root", 0.0, 10.0, None),
        spans.Span(1, "a", 1.0, 4.0, 0),
        spans.Span(2, "b", 3.0, 6.0, 0),  # overlaps a: covered once
        spans.Span(3, "c", 8.0, 12.0, 0),  # runs past the parent: clipped
        spans.Span(4, "a.child", 2.0, 3.0, 1),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    # a probe unit that interrupted the root is not the root's own time
    assert spans.self_times(tree, [(6.5, 0.5)])[0] == pytest.approx(2.5)
    assert spans.coverage(tree, 0.0, 10.0) == pytest.approx(1.0)
    assert spans.coverage(tree[1:], 0.0, 10.0, [(6.5, 0.5)]) == pytest.approx(7.0 / 9.5)


def test_layer_metrics_use_self_time_and_counts():
    tree = [
        spans.Span(0, "kernel.epoch", 0.0, 4.0, None, counts={"cycles": 800.0}),
        spans.Span(1, "dram.decode", 0.0, 1.0, 0, counts={"lines": 10.0}),
        spans.Span(2, "cache.get", 4.0, 5.0, None, counts={"hits": 1.0}),
        spans.Span(3, "cache.get", 5.0, 6.0, None, counts={"hits": 0.0}),
    ]
    m = spans.layer_metrics(tree, scale=0.5)
    assert m["kernel.epoch_s"] == pytest.approx(1.5)
    assert m["dram.decode_s"] == pytest.approx(0.5)
    assert m["kernel.sim_cycles_per_s"] == pytest.approx(800.0 / 2.0)
    assert m["cache.hit_ratio"] == pytest.approx(0.5)
    assert m["dram.decoded_lines"] == 10.0


# ------------------------------------------------------------------- wrappers


def _bindings():
    """(owner id, attr) -> bound object, for everything the tracer may patch."""
    out = {}
    for path in spans.LAYER_SPANS.values():
        owner, attr = spans._target(path)
        original = getattr(owner, attr)
        out[(id(owner), attr)] = original
        if isinstance(owner, type):
            continue
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for binding, value in vars(mod).items():
                    if value is original:
                        out[(id(mod), binding)] = value
    return out


def test_wrappers_removed_after_traced_run(restore_env, capsys):
    from repro.harness import runner, zoo
    from repro.workloads.spec_profiles import SpecProfile

    before = _bindings()
    originals = (zoo.execute_plan, runner.run_spec, SpecProfile.cpu_trace)
    with spans.Tracer():
        assert zoo.execute_plan is not originals[0]
        assert runner.run_spec is not originals[1]
        assert SpecProfile.cpu_trace is not originals[2]
    assert (zoo.execute_plan, runner.run_spec, SpecProfile.cpu_trace) == originals
    assert _bindings() == before
    # a whole traced run restores them too, and its rows match the untraced run
    code, _, result = _run(capsys, "llc_sweep", trace=True)
    assert code == 0 and result["correct"]
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


# -------------------------------------------------------------- correctness gate


def test_perturbed_result_trips_the_gate(restore_env, capsys, monkeypatch):
    honest = gate.run_scalar

    def perturbed(spec):
        result = honest(spec)
        return dataclasses.replace(result, end_cycle=result.end_cycle + 1)

    monkeypatch.setattr(gate, "run_scalar", perturbed)
    code, report, result = _run(capsys, "llc_sweep")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert any(ln.startswith("MISMATCH scalar==epoch") for ln in report)


def test_epoch_fault_trips_the_gate(restore_env, capsys, monkeypatch):
    import repro.kernel

    def crash(*args, **kwargs):
        raise RuntimeError("injected epoch fault")

    # the runner quarantines the spec and re-runs it on the scalar engine
    monkeypatch.setattr(repro.kernel, "run_epoch_kernel", crash)
    code, report, result = _run(capsys, "llc_sweep")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any(ln.startswith("MISMATCH epoch fault") for ln in report)


def test_rows_check_compares_digests():
    rows = [{"ipc": 1.25, "benchmark": "lbm"}]
    same = sweeps.rows_digest([{"benchmark": "lbm", "ipc": 1.25}])
    assert gate.rows_check("warm", sweeps.rows_digest(rows), same).ok
    off = sweeps.rows_digest([{"benchmark": "lbm", "ipc": 1.25 + 1e-15}])
    assert not gate.rows_check("warm", sweeps.rows_digest(rows), off).ok


def test_sample_covers_flat_and_multicore_specs():
    specs = sweeps.WORKLOADS["mix_sweep"].declare(sweeps.scale_for(1, TINY))
    picked = gate.sample_specs(specs, set(), seed=1)
    assert sorted(len(s.workloads) for s in picked) == [1, 4]
    assert gate.sample_specs(specs, set(), seed=1) == picked


# --------------------------------------------------------------- no program


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "llc_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_past_its_cap_fails_without_a_result(restore_env, capsys):
    # the set-up alone outlasts a 4 ms cap, so cycle 0 never starts
    assert run.run_one("llc_sweep", 3, 0.001, False, instructions=TINY, cycles=1) == 3
    assert capsys.readouterr().out == ""


def test_layer_map_matches_the_declared_metrics():
    layers = json.loads((run.HERE / "layers.json").read_text())
    mapped = [m for layer in layers.values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH_JSON["per_layer"])
    named = {s for layer in layers.values() for s in layer["spans"]}
    assert named == set(spans.LAYER_SPANS) | {"harness.driver"}
