"""The paper-claims gate (``repro.validation.claims``).

Every claim is evaluated on real smoke-scale rows and must hold; on a
small literal row set that passes, each check is pushed past its bound
through the one value it reads and must then fail, so no predicate can
hold vacuously (a loop over an empty selection, a misspelt key).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.harness import SRAM_SIZES, RunScale
from repro.validation.claims import CLAIMS, collect, evaluate, render_verdicts

#: the four representative profiles and two mixes the smoke gate runs
SMOKE_BENCHMARKS = ("lbm", "libquantum", "bzip2", "gobmk")
SMOKE_MIXES = ("WL1", "WL6")

CHECKS = {c.id for c in CLAIMS if c.checks}
PAPER_ONLY = {c.id for c in CLAIMS if c.paper_only}


def _status(rows: dict) -> dict[str, str]:
    return {v.claim.id: v.status for v in evaluate(rows)}


# ------------------------------------------------------------ smoke scale


@pytest.fixture(scope="module")
def smoke_verdicts():
    rows = collect(RunScale.named("smoke"), SMOKE_BENCHMARKS, SMOKE_MIXES)
    return evaluate(rows)


def test_every_claim_holds_at_smoke_scale(smoke_verdicts):
    assert [v.claim.id for v in smoke_verdicts] == [c.id for c in CLAIMS]
    failed = [v for v in smoke_verdicts if v.status == "fails"]
    assert not failed, "\n" + render_verdicts(failed)
    status = {v.claim.id: v.status for v in smoke_verdicts}
    assert {i for i, s in status.items() if s == "holds"} == CHECKS - PAPER_ONLY
    assert {i for i, s in status.items() if s == "paper-only"} == PAPER_ONLY


def test_report_entries_are_measured(smoke_verdicts):
    reports = [v for v in smoke_verdicts if v.status == "report"]
    assert {v.claim.id for v in reports} == {
        "fig14.hit-rate",
        "abl.no-drain",
        "abl.fixed-depth",
    }
    assert all(math.isfinite(v.measured) for v in reports)


def test_claim_ids_are_unique():
    assert len({c.id for c in CLAIMS}) == len(CLAIMS)


# ------------------------------------------------------- literal row set


def _window(nb: float, lam: float = math.nan, beta: float = math.nan):
    return SimpleNamespace(
        non_blocking_fraction=nb, dominant_fraction=0.9, refreshes=40, lam=lam, beta=beta
    )


def _analysis(name: str, nb: float, lam: float, beta: float):
    return SimpleNamespace(
        benchmark=name,
        avg_blocked=5.0,
        windows={1.0: _window(nb, lam, beta), 4.0: _window(nb, lam, beta)},
    )


def _single_core(name: str) -> dict:
    return {
        "benchmark": name,
        "norm_ipc_norefresh": 1.04,
        "norm_energy_norefresh": 0.86,
        "rop": {
            s: {"norm_ipc": 1.01, "norm_energy": 0.99, "armed_hit_rate": 0.8}
            for s in SRAM_SIZES
        },
    }


def _mix(name: str, ws: float, energy: float) -> dict:
    return {
        "mix": name,
        "norm_ws": {"Baseline": 1.0, "Baseline-RP": ws, "ROP": ws},
        "norm_energy": {"Baseline": 1.0, "Baseline-RP": energy, "ROP": energy},
    }


def _llc_point(ws: float, energy: float) -> dict:
    return {"norm_ws": {"ROP": ws}, "norm_energy": {"ROP": energy}, "rop_armed_hit_rate": 0.5}


def _llc_mix(name: str, small: tuple, large: tuple) -> dict:
    """A mix's (ws, energy) at 1 MB and 8 MB of LLC."""
    return {"mix": name, "llc": {1 << 20: _llc_point(*small), 8 << 20: _llc_point(*large)}}


_ZOO_IPC = {"auto_1x": 1.0, "darp": 1.02, "rop": 1.01, "rop_darp": 1.03, "none": 1.04}


def passing_rows() -> dict:
    """A paper-scale row set on which every check holds."""
    point = {"ipc": 0.9, "armed_hit_rate": 0.87}
    return {
        "paper": True,
        "fig1": [
            {"benchmark": "lbm", "perf_degradation_pct": 4.0, "energy_overhead_pct": 15.0}
        ],
        "fig2_4": [
            _analysis("gobmk", nb=0.9, lam=0.28, beta=0.91),
            _analysis("lbm", nb=0.0, lam=1.0, beta=math.nan),
        ],
        "fig7_9": [_single_core("lbm"), _single_core("gobmk")],
        "fig10_11": [_mix("WL1", 1.3, 0.7), _mix("WL6", 1.05, 0.9)],
        "fig12_14": [
            _llc_mix("WL1", (1.3, 0.8), (1.2, 0.9)),
            _llc_mix("WL6", (1.05, 0.9), (1.0, 1.0)),
        ],
        "zoo": [
            {
                "benchmark": "lbm",
                "policy": policy,
                "density_gbit": gbit,
                "ipc": ipc,
                "energy_nj": 1.0,
                "refresh_fraction": {8: 0.15, 32: 0.28}[gbit],
            }
            for gbit in (8, 32)
            for policy, ipc in _ZOO_IPC.items()
        ],
        "ablations": {
            "default": dict(point),
            "always-prefetch": dict(point),
            "no-drain": dict(point),
            "fixed-depth": dict(point),
            "window-0.25x": dict(point),
            "interleaved-map": {"ipc": 0.92, "armed_hit_rate": 0.0},
        },
        "sensitivity": {
            "default": {"ipc": 0.9, "armed_hit_rate": 0.8},
            "training=25": {"ipc": 0.905, "armed_hit_rate": 0.9},
            "threshold=0.8": {"ipc": 0.9, "armed_hit_rate": 0.8},
            "window=4x tRFC": {"ipc": 0.898, "armed_hit_rate": 0.8},
        },
    }


def _win(rows, name, mult=1.0):
    return next(r for r in rows["fig2_4"] if r.benchmark == name).windows[mult]


def _rop(rows, name, size):
    return next(r for r in rows["fig7_9"] if r["benchmark"] == name)["rop"][size]


def _mixrow(rows, name):
    return next(r for r in rows["fig10_11"] if r["mix"] == name)


def _llc(rows, mix, mb):
    return next(r for r in rows["fig12_14"] if r["mix"] == mix)["llc"][mb << 20]


def _zoo(rows, policy, gbit):
    return next(
        z for z in rows["zoo"] if z["policy"] == policy and z["density_gbit"] == gbit
    )


#: check id → a mutation pushing the one value it reads past its bound
PERTURB = {
    "fig1.ideal-not-slower": lambda r: r["fig1"][0].update(perf_degradation_pct=-0.6),
    "fig1.refresh-costs-energy": lambda r: r["fig1"][0].update(energy_overhead_pct=0.0),
    "fig2.gobmk-non-blocking": lambda r: setattr(
        _win(r, "gobmk"), "non_blocking_fraction", 0.5
    ),
    "fig2.lbm-blocking": lambda r: setattr(_win(r, "lbm"), "non_blocking_fraction", 0.2),
    "fig2.wider-window-fewer": lambda r: setattr(
        _win(r, "lbm", 4.0), "non_blocking_fraction", 0.01
    ),
    "fig3.few-blocked": lambda r: setattr(r["fig2_4"][0], "avg_blocked", 16.0),
    "fig4.e1-e2-dominate": lambda r: setattr(_win(r, "gobmk"), "dominant_fraction", 0.5),
    "tab1.lambda-near-paper": lambda r: setattr(_win(r, "gobmk"), "lam", 0.6),
    "tab1.beta-near-paper": lambda r: setattr(_win(r, "gobmk"), "beta", 0.5),
    "fig7.rop-not-below-baseline": lambda r: _rop(r, "lbm", 128).update(norm_ipc=0.985),
    "fig7.rop-near-ideal": lambda r: _rop(r, "lbm", 64).update(norm_ipc=1.1),
    "fig8.ideal-saves-energy": lambda r: r["fig7_9"][1].update(norm_energy_norefresh=1.0),
    "fig8.rop-energy": lambda r: _rop(r, "lbm", 16).update(norm_energy=1.04),
    "fig9.predictable-hit-rate": lambda r: _rop(r, "lbm", 128).update(armed_hit_rate=0.55),
    "fig10.rp-not-below-baseline": lambda r: _mixrow(r, "WL6")["norm_ws"].update(
        {"Baseline-RP": 0.99}
    ),
    "fig10.rop-not-below-baseline": lambda r: _mixrow(r, "WL6")["norm_ws"].update(ROP=0.99),
    "fig10.rop-vs-rp": lambda r: _mixrow(r, "WL1")["norm_ws"].update(ROP=1.25),
    "fig10.intensity-order": lambda r: _mixrow(r, "WL6")["norm_ws"].update(ROP=1.35),
    "fig11.rop-energy": lambda r: _mixrow(r, "WL6")["norm_energy"].update(ROP=1.02),
    "fig11.rp-energy": lambda r: _mixrow(r, "WL6")["norm_energy"].update(
        {"Baseline-RP": 1.02}
    ),
    "fig11.intensity-order": lambda r: _mixrow(r, "WL1")["norm_energy"].update(ROP=0.93),
    "fig12.rop-not-below-baseline": lambda r: _llc(r, "WL6", 1)["norm_ws"].update(ROP=0.97),
    "fig12.gain-shrinks": lambda r: _llc(r, "WL1", 8)["norm_ws"].update(ROP=1.43),
    "fig13.rop-energy": lambda r: _llc(r, "WL6", 8)["norm_energy"].update(ROP=1.03),
    "abl.throttle-vs-always-prefetch": lambda r: r["ablations"]["always-prefetch"].update(
        ipc=0.93
    ),
    "abl.interleaved-map-hit-rate": lambda r: r["ablations"]["interleaved-map"].update(
        armed_hit_rate=0.87
    ),
    "abl.short-window": lambda r: r["ablations"]["window-0.25x"].update(ipc=0.87),
    "sens.ipc-spread": lambda r: r["sensitivity"]["threshold=0.8"].update(ipc=0.85),
    "sens.defaults-near-best": lambda r: r["sensitivity"]["default"].update(ipc=0.893),
    "ext.none-bounds-auto": lambda r: _zoo(r, "none", 8).update(ipc=0.998),
    "ext.rop-not-below-auto": lambda r: _zoo(r, "rop", 8).update(ipc=0.98),
    "zoo.rop-not-below-auto": lambda r: _zoo(r, "rop", 32).update(ipc=0.99),
    "zoo.rop-darp-vs-darp": lambda r: _zoo(r, "rop_darp", 32).update(ipc=1.0),
    "zoo.refresh-share-grows": lambda r: _zoo(r, "auto_1x", 32).update(refresh_fraction=0.15),
}


def test_literal_rows_pass_every_check():
    status = _status(passing_rows())
    assert {i for i, s in status.items() if s != "report"} == CHECKS
    assert all(status[i] == "holds" for i in CHECKS)


def test_every_check_has_a_perturbation():
    assert set(PERTURB) == CHECKS


@pytest.mark.parametrize("claim_id", sorted(PERTURB))
def test_claim_fails_past_its_bound(claim_id):
    rows = passing_rows()
    PERTURB[claim_id](rows)
    assert _status(rows)[claim_id] == "fails"


def test_below_paper_scale_reads_rop64_and_skips_paper_only():
    rows = passing_rows()
    rows["paper"] = False
    for claim_id in PAPER_ONLY:
        PERTURB[claim_id](rows)
    _rop(rows, "lbm", 128).update(norm_ipc=0.9, armed_hit_rate=0.0)
    status = _status(rows)
    assert {i for i, s in status.items() if s == "paper-only"} == PAPER_ONLY
    assert status["fig7.rop-not-below-baseline"] == "holds"
    assert status["fig9.predictable-hit-rate"] == "holds"


def test_missing_rows_fail_every_check():
    status = _status({"paper": True})
    assert {i for i, s in status.items() if s == "fails"} == CHECKS
