"""The differential validation subsystem itself: golden closed forms,
whole-run golden checks, failpoint coverage, the corpus loader, and the
`repro validate` CLI gate.

The failpoint tests are the suite's teeth: for every golden check, a
deliberately skewed model (``REPRO_FAULTS={"golden:<check>": k}``) must
produce a mismatch *naming that check* — proving the check actually
compares something, rather than vacuously passing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import MemoryOrganization, SystemConfig
from repro.core.prediction_table import FILL_UP_CONFIDENCE
from repro.harness.runner import RunSpec, classify_failure, run_spec, validation_enabled
from repro.validation import (
    CorpusEntry,
    GoldenMismatchError,
    Mismatch,
    config_for,
    golden_bank_budgets,
    golden_intra_bank_shares,
    golden_lambda_beta,
    load_corpus,
    render_mismatch_table,
    run_entry,
    stat_value,
    validate_traces,
)
from repro.workloads.trace import AccessTrace


def _arm(monkeypatch, tmp_path, mapping: dict) -> None:
    """Point REPRO_FAULTS at a fault file arming the given golden skews."""
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(mapping))
    monkeypatch.setenv("REPRO_FAULTS", str(path))


# ------------------------------------------------------------- closed forms


def test_lambda_beta_known_counts():
    # (E1, B>0∧A=0, B=0∧A>0, E2) — λ = 3/(3+1), β = 6/(2+6)
    lam, beta = golden_lambda_beta((3, 1, 2, 6))
    assert lam == pytest.approx(0.75)
    assert beta == pytest.approx(0.75)


def test_lambda_beta_undefined_conditionals_default_to_one():
    assert golden_lambda_beta((0, 0, 5, 5)) == (1.0, 0.5)
    assert golden_lambda_beta((5, 5, 0, 0)) == (0.5, 1.0)
    assert golden_lambda_beta((0, 0, 0, 0)) == (1.0, 1.0)


def test_bank_budgets_proportional_floor():
    assert golden_bank_budgets([1, 1, 2], 8) == [2, 2, 4]
    assert golden_bank_budgets([0, 0, 0], 8) == [0, 0, 0]
    # floors never oversubscribe the capacity
    for weights in ([3, 5, 7, 11], [1, 0, 0, 99], [2, 2, 2, 2]):
        assert sum(golden_bank_budgets(weights, 17)) <= 17


def test_intra_bank_shares_confident_strongest_absorbs_remainder():
    # w=14: floors are [5, 2, 1]; remainder 2 goes to confident f1
    assert golden_intra_bank_shares((8, 4, 2), 10) == [7, 2, 1]


def test_intra_bank_shares_weak_pattern_capped():
    # a lone weak pattern (f < FILL_UP_CONFIDENCE) is capped at
    # f × FILL_UP_CONFIDENCE projected lines and cannot take the remainder
    f = FILL_UP_CONFIDENCE - 1
    assert golden_intra_bank_shares((f, 0, 0), 100) == [f * FILL_UP_CONFIDENCE, 0, 0]


def test_intra_bank_shares_degenerate():
    assert golden_intra_bank_shares((0, 0, 0), 10) == [0, 0, 0]
    assert golden_intra_bank_shares((8, 4, 2), 0) == [0, 0, 0]
    for budget in (1, 5, 9, 16):
        assert sum(golden_intra_bank_shares((9, 5, 3), budget)) <= budget


# -------------------------------------------------- whole-run golden checks

_ORG = MemoryOrganization(channels=1, ranks=1, banks=4, rows=256, columns=32)


def _validation_config(rop: bool = True) -> SystemConfig:
    timings = SystemConfig().timings.with_refresh(refi=1200, rfc=100)
    cfg = SystemConfig.single_core(organization=_ORG, timings=timings)
    if rop:
        cfg = cfg.with_rop(training_refreshes=2, sram_lines=16)
    return cfg


def _stream_trace(n: int = 2000, gap: int = 40) -> AccessTrace:
    """Unit-stride reads: trains the prediction table into real prefetches."""
    return AccessTrace(
        gaps=np.full(n, gap, dtype=np.int64),
        lines=np.arange(n, dtype=np.int64) % _ORG.total_lines,
        writes=np.zeros(n, dtype=bool),
        tail_instructions=50,
    )


def test_clean_run_has_no_mismatches_rop():
    result, mismatches = validate_traces([_stream_trace()], _validation_config())
    assert mismatches == []
    assert result.stats.sram_hits > 0  # the run actually exercised ROP


def test_clean_run_has_no_mismatches_baseline():
    _, mismatches = validate_traces([_stream_trace()], _validation_config(rop=False))
    assert mismatches == []


# Every golden check, with a skew that must trip it.  The eq3-budget
# failpoint shrinks the modelled SRAM capacity below the real plan sizes,
# so it needs a workload that actually emits PREFETCH_PLAN events — the
# unit-stride stream above is exactly that.
_FAILPOINTS = {
    "ddr-timing": 2,
    "lambda-beta": 0.25,
    "refresh-schedule": 7,
    "sram-model": 3,
    "counters": 2,
    "eq3-budget": 15,
    "causality": 7,
}


@pytest.mark.parametrize("check", sorted(_FAILPOINTS))
def test_failpoint_trips_its_named_check(check, monkeypatch, tmp_path):
    _arm(monkeypatch, tmp_path, {f"golden:{check}": _FAILPOINTS[check]})
    _, mismatches = validate_traces([_stream_trace()], _validation_config())
    assert mismatches, f"skewed {check} golden model produced no mismatch"
    assert {m.check for m in mismatches} == {check}


def test_mismatch_table_renders_every_row():
    mismatches = [
        Mismatch("ddr-timing", "ch0.rank0.bank1", 10, 12, cycle=77, detail="tRCD"),
        Mismatch("stat-band", "entry.ipc", "[0.8, 0.9]", 0.5),
    ]
    table = render_mismatch_table(mismatches)
    assert "ddr-timing" in table and "stat-band" in table
    assert "tRCD" in table and "ch0.rank0.bank1" in table


# ------------------------------------------------------------------ corpus


def test_committed_corpus_loads_and_materializes():
    entries = load_corpus()
    assert len(entries) >= 8
    assert len({e.name for e in entries}) == len(entries)
    for entry in entries:
        cfg = config_for(entry)  # every referenced system must exist
        assert cfg.organization.channels >= 1
        assert entry.expect, f"{entry.name}: corpus entries must band something"


def test_corpus_schema_rejections(tmp_path):
    cases = {
        "empty.yaml": "entries: []",
        "noname.yaml": "entries:\n  - workloads: [lbm]",
        "badband.yaml": (
            "entries:\n  - name: x\n    workloads: [lbm]\n"
            "    expect: {ipc: [0.9, 0.1]}"
        ),
        "dupes.yaml": (
            "entries:\n"
            "  - {name: x, workloads: [lbm]}\n"
            "  - {name: x, workloads: [gcc]}"
        ),
    }
    for fname, text in cases.items():
        p = tmp_path / fname
        p.write_text(text)
        with pytest.raises(ValueError):
            load_corpus(p)


def test_config_for_rejects_bad_entries():
    with pytest.raises(ValueError, match="unknown system"):
        config_for(CorpusEntry(name="x", workloads=("lbm",), system="warp-drive"))
    with pytest.raises(ValueError, match="non-ROP"):
        config_for(
            CorpusEntry(
                name="x", workloads=("lbm",), system="baseline", training_refreshes=3
            )
        )


def test_run_entry_stat_band(monkeypatch, tmp_path):
    entry = CorpusEntry(
        name="tiny",
        workloads=("lbm",),
        system="baseline",
        instructions=50_000,
        expect={"ipc": (0.0, 10.0), "refreshes": (0.0, 1e6)},
    )
    result, mismatches = run_entry(entry)
    assert mismatches == []
    assert 0.0 < stat_value(result, "ipc") < 10.0
    # a skewed band must flag every banded stat as out of range
    _arm(monkeypatch, tmp_path, {"golden:stat-band": 1e7})
    _, mismatches = run_entry(entry)
    assert {m.check for m in mismatches} == {"stat-band"}
    assert {m.site for m in mismatches} == {"tiny.ipc", "tiny.refreshes"}


def test_stat_value_accessors():
    entry = CorpusEntry(
        name="tiny", workloads=("lbm",), instructions=50_000, expect={"ipc": (0, 10)}
    )
    result, _ = run_entry(entry)
    assert stat_value(result, "reads") == float(result.stats.reads)
    assert stat_value(result, "end_cycle") == float(result.stats.end_cycle)
    assert stat_value(result, "sram_hits") == 0.0  # baseline has no SRAM
    with pytest.raises(ValueError, match="unknown corpus statistic"):
        stat_value(result, "bogons")


# ------------------------------------------------------- runner integration


def _tiny_spec() -> RunSpec:
    cfg = SystemConfig.single_core()
    return RunSpec(
        workloads=("lbm",), config=cfg, trace_llc=cfg.llc, instructions=50_000, seed=1
    )


def test_runspec_validate_excluded_from_cache_key(monkeypatch):
    key = _tiny_spec().key
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    assert _tiny_spec().key == key


def test_validation_enabled_by_env(monkeypatch):
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    assert not validation_enabled()
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    assert validation_enabled()


def test_run_spec_validated_clean(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    result = run_spec(_tiny_spec())
    assert result.ipc > 0


def test_run_spec_validated_raises_on_mismatch(monkeypatch, tmp_path):
    _arm(monkeypatch, tmp_path, {"golden:counters": 2})
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    with pytest.raises(GoldenMismatchError) as info:
        run_spec(_tiny_spec())
    exc = info.value
    assert classify_failure(exc) == "invariant"
    assert any(m.check == "counters" for m in exc.mismatches)
    assert "counters" in str(exc)


# --------------------------------------------------------------------- CLI


def test_cli_validate_list(capsys):
    from repro.cli import main

    assert main(["validate", "--list"]) == 0
    out = capsys.readouterr().out
    assert "lbm-baseline" in out


def test_cli_validate_green_entry(capsys):
    from repro.cli import main

    assert main(["validate", "--only", "lbm-baseline"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "green" in out


def test_cli_validate_unknown_entry():
    from repro.cli import main

    assert main(["validate", "--only", "no-such-entry"]) == 2


def test_cli_validate_failpoint_exits_nonzero(capsys, monkeypatch, tmp_path):
    from repro.cli import main

    _arm(monkeypatch, tmp_path, {"golden:refresh-schedule": 7})
    assert main(["validate", "--only", "lbm-baseline"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    # the stderr table names the broken check
    assert "refresh-schedule" in captured.err
