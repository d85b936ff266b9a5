"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "DDR4-1600" in out
    assert "tREFI=6240" in out
    assert "WL1" in out


def test_compare_smoke(capsys):
    assert main(["compare", "gobmk", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "gobmk" in out and "IPC" in out


def test_analyze_smoke(capsys):
    assert main(["analyze", "gobmk", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "λ@1x" in out or "non-blocking" in out


def test_fig1_smoke(capsys):
    assert main(["fig", "1", "gobmk", "--scale", "smoke"]) == 0
    assert "AVERAGE" in capsys.readouterr().out


def test_fig_unknown(capsys):
    assert main(["fig", "99", "gobmk", "--scale", "smoke"]) == 2


def test_instructions_override(capsys):
    assert main(["compare", "gobmk", "--instructions", "200000"]) == 0
    assert "requests" in capsys.readouterr().out


def test_schemes_smoke(capsys):
    assert main(["schemes", "gobmk", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "pausing" in out and "rop" in out


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["fig", "7", "lbm", "--scale", "smoke", "--seed", "9"])
    assert args.figure == "7"
    assert args.benchmarks == ["lbm"]
    assert args.seed == 9
    assert args.jobs is None and args.no_cache is False


def test_parser_runner_flags():
    args = build_parser().parse_args(
        ["fig", "1", "gobmk", "--scale", "smoke", "--jobs", "4", "--no-cache"]
    )
    assert args.jobs == 4
    assert args.no_cache is True


def test_fig_reports_runner_stats(capsys):
    from repro.harness import set_cache_enabled

    try:
        assert main(["fig", "1", "gobmk", "--scale", "smoke",
                     "--jobs", "1", "--no-cache"]) == 0
    finally:
        set_cache_enabled(None)  # --no-cache sets a process-wide override
    out = capsys.readouterr().out
    assert "AVERAGE" in out
    assert "runner:" in out and "jobs=1" in out


def test_parser_fault_tolerance_flags():
    args = build_parser().parse_args(
        ["fig", "1", "gobmk", "--spec-timeout", "30", "--retries", "5",
         "--keep-going", "--audit"]
    )
    assert args.spec_timeout == 30.0
    assert args.retries == 5
    assert args.keep_going is True and args.fail_fast is False
    with pytest.raises(SystemExit):  # --keep-going and --fail-fast conflict
        build_parser().parse_args(["fig", "1", "x", "--keep-going", "--fail-fast"])


def test_flags_install_execution_policy():
    from argparse import Namespace

    from repro.cli import _runner_opts
    from repro.harness import current_policy, set_execution_policy

    try:
        jobs = _runner_opts(Namespace(no_cache=False, jobs=3, spec_timeout=90.0,
                                      retries=4, keep_going=True, fail_fast=False,
                                      audit=True))
        assert jobs == 3
        policy = current_policy()
        assert policy.spec_timeout_s == 90.0
        assert policy.max_attempts == 4
        assert policy.keep_going and policy.audit
    finally:
        set_execution_policy(None)


def test_bad_repro_jobs_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "banana")
    assert main(["fig", "1", "gobmk", "--instructions", "120000", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_JOBS" in err
    from repro.harness import set_cache_enabled

    set_cache_enabled(None)


def test_fail_fast_exits_1_with_report(tmp_path, monkeypatch, capsys):
    import json

    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({"gobmk": {"mode": "error", "message": "kaboom"}}))
    monkeypatch.setenv("REPRO_FAULTS", str(faults))
    monkeypatch.setenv("REPRO_CACHE", "off")
    from repro.harness.runner import clear_result_memo

    clear_result_memo()
    assert main(["fig", "1", "gobmk", "--instructions", "120000"]) == 1
    err = capsys.readouterr().err
    assert "gobmk" in err and "kaboom" in err


def test_keep_going_renders_survivors_and_failures(tmp_path, monkeypatch, capsys):
    import json

    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({"gobmk": {"mode": "error"}}))
    monkeypatch.setenv("REPRO_FAULTS", str(faults))
    monkeypatch.setenv("REPRO_CACHE", "off")
    from repro.harness.runner import clear_result_memo

    clear_result_memo()
    assert main(["fig", "1", "gobmk", "lbm", "--instructions", "120000",
                 "--keep-going"]) == 0
    captured = capsys.readouterr()
    assert "lbm" in captured.out          # the surviving benchmark rendered
    assert "spec(s) failed" in captured.err  # and the failure was listed


def test_fingerprint_absent_then_cached_after_fig7(fresh_cache, capsys):
    from repro.harness.runner import clear_result_memo

    argv = ["fingerprint", "lbm", "--system", "rop", "--scale", "smoke"]
    assert main(argv) == 0
    key, state, label = capsys.readouterr().out.split()
    assert len(key) == 40 and state == "absent" and label == "lbm/rop"
    assert main(["fig", "7", "lbm", "--scale", "smoke"]) == 0
    capsys.readouterr()
    clear_result_memo()  # the address must resolve from disk, not the memo
    assert main(argv) == 0
    assert capsys.readouterr().out.split() == [key, "cached", "lbm/rop"]


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["lbm", "--system", "warp"], "unknown system 'warp'"),
        (["nope"], "unknown benchmark 'nope'"),
    ],
)
def test_fingerprint_rejects_unknown_names(argv, needle, capsys):
    assert main(["fingerprint", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro fingerprint: ") and needle in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["fingerprint", "lbm", "--system", "rop", "--no-cache"],
        ["characterize", "lbm", "--jobs", "2"],
    ],
)
def test_scale_only_commands_reject_runner_flags(argv, capsys):
    """fingerprint and characterize run no plan: a runner flag they would
    ignore is an argparse error, not a silent no-op."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fingerprint_scale_flags_change_the_key(capsys):
    keys = []
    for flags in ([], ["--instructions", "100000"], ["--seed", "7"], ["--scale", "smoke"]):
        assert main(["fingerprint", "lbm", "--system", "rop", *flags]) == 0
        keys.append(capsys.readouterr().out.split()[0])
    assert len(set(keys)) == len(keys)
