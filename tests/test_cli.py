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
    assert capsys.readouterr().err.startswith("repro fig: unknown figure '99'")


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
    assert main(["fig", "1", "gobmk", "--scale", "smoke", "--jobs", "1", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "AVERAGE" in out
    assert "runner:" in out and "jobs=1" in out


def test_parser_fault_tolerance_flags():
    args = build_parser().parse_args(
        ["fig", "1", "gobmk", "--spec-timeout", "30", "--retries", "5",
         "--keep-going", "--validate"]
    )
    assert args.spec_timeout == 30.0
    assert args.retries == 5
    assert args.keep_going is True and args.fail_fast is False
    assert args.validate is True
    with pytest.raises(SystemExit):  # --keep-going and --fail-fast conflict
        build_parser().parse_args(["fig", "1", "x", "--keep-going", "--fail-fast"])


def test_flags_install_execution_policy(monkeypatch):
    """The runner flags reach the policy as ``REPRO_*`` variables."""
    from repro.cli import _env_overlay
    from repro.harness import ExecutionPolicy

    args = build_parser().parse_args(
        ["fig", "1", "gobmk", "--spec-timeout", "90", "--retries", "4", "--keep-going",
         "--no-cache", "--engine", "epoch", "--validate"]
    )
    overlay = _env_overlay(args)
    assert overlay == {
        "REPRO_ENGINE": "epoch", "REPRO_VALIDATE": "1", "REPRO_CACHE": "off",
        "REPRO_SPEC_TIMEOUT": "90.0", "REPRO_RETRIES": "4", "REPRO_KEEP_GOING": "1",
    }
    for name, value in overlay.items():
        monkeypatch.setenv(name, value)
    policy = ExecutionPolicy.from_env()
    assert policy.spec_timeout_s == 90.0
    assert policy.max_attempts == 4
    assert policy.keep_going
    # --fail-fast overrides REPRO_KEEP_GOING=1 from the environment
    fail_fast = _env_overlay(build_parser().parse_args(["fig", "1", "--fail-fast"]))
    assert fail_fast == {"REPRO_KEEP_GOING": "0"}


def test_bad_repro_jobs_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "banana")
    assert main(["fig", "1", "gobmk", "--instructions", "120000", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_JOBS" in err


@pytest.mark.parametrize(
    "name, value",
    [
        ("REPRO_ENGINE", "bogus"),
        ("REPRO_CHAOS", "garbage"),
        ("REPRO_FAULTS", "missing.json"),
        ("REPRO_CACHE_QUOTA", "banana"),
    ],
)
def test_malformed_knob_exits_2_before_any_run(name, value, fresh_cache, tmp_path,
                                              monkeypatch, capsys):
    """A malformed ``REPRO_*`` value fails the command at once: one stderr
    line naming it, no simulation, nothing written to the cache dir."""
    from repro.harness import runner

    calls = []
    monkeypatch.setattr(runner, "run_spec", lambda *a, **k: calls.append(a))
    monkeypatch.setenv(name, str(tmp_path / value) if name == "REPRO_FAULTS" else value)
    assert main(["fig", "1", "gobmk", "--instructions", "120000"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro fig: ") and name in lines[0]
    assert calls == []
    cache_dir = tmp_path / "cache"
    assert not cache_dir.exists() or not any(cache_dir.iterdir())


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (["validate", "--only", "lbm-baseline"], "REPRO_ENGINE", "bogus"),
        (["trace", "lbm", "--instructions", "100000"], "REPRO_ENGINE", "bogus"),
        (["profile", "lbm", "--instructions", "100000"], "REPRO_ENGINE", "bogus"),
        # an unreadable fault file would disarm the skews and run the gate green
        (["validate", "--only", "lbm-baseline"], "REPRO_FAULTS", "missing.json"),
    ],
)
def test_single_run_commands_reject_malformed_knobs(argv, name, value, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and name in lines[0]
    assert list(tmp_path.iterdir()) == []  # trace wrote no output file


def test_main_restores_the_environment(skewed_golden, fresh_cache, capsys):
    """Flags apply to one command: afterwards every ``REPRO_*`` entry and
    the cache switch are as before, so the next call is unaffected."""
    import os

    from repro.harness.cache import cache_enabled

    before = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    argv = ["compare", "lbm", "--instructions", "100000"]
    assert main([*argv, "--no-cache", "--validate", "--engine", "epoch"]) == 1
    assert {k: v for k, v in os.environ.items() if k.startswith("REPRO_")} == before
    assert cache_enabled()
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["fig", "99", "--validate", "--no-cache"]) == 2  # so does an error exit
    assert {k: v for k, v in os.environ.items() if k.startswith("REPRO_")} == before


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
        ["trace", "lbm", "--validate"],
        ["trace", "lbm", "--jobs", "4"],
        ["profile", "lbm", "--jobs", "2"],
        ["profile", "lbm", "--keep-going"],
    ],
)
def test_scale_only_commands_reject_runner_flags(argv, capsys):
    """Commands that run no plan (fingerprint, characterize, and the
    single-run trace and profile) reject a plan flag they would ignore:
    an argparse error, not a silent no-op."""
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


@pytest.fixture
def skewed_golden(tmp_path, monkeypatch):
    """Arm a golden-model skew that refutes every validated spec."""
    import json

    from repro.harness.runner import clear_result_memo

    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({"golden:ddr-timing": 7}))
    monkeypatch.setenv("REPRO_FAULTS", str(faults))
    monkeypatch.setenv("REPRO_CACHE", "off")
    clear_result_memo()


@pytest.mark.parametrize("command", ["compare", "schemes"])
def test_plan_commands_honour_runner_flags(command, skewed_golden, capsys):
    argv = [command, "lbm", "--instructions", "100000", "--validate"]
    assert main(argv) == 1  # fail-fast: the first refuted spec ends the run
    assert "invariant" in capsys.readouterr().err
    assert main([*argv, "--keep-going", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "runner:" in captured.out and "jobs=2" in captured.out
    assert "spec(s) failed" in captured.err and "GoldenMismatchError" in captured.err


def test_profile_honours_validate_and_engine(skewed_golden, capsys):
    argv = ["profile", "lbm", "--instructions", "100000", "--top", "1"]
    assert main([*argv, "--engine", "epoch"]) == 0
    assert "[epoch engine]" in capsys.readouterr().out
    assert main([*argv, "--validate"]) == 1
    assert "ddr-timing" in capsys.readouterr().err


def test_trace_engine_flag_is_bit_identical(tmp_path, capsys):
    firsts = []
    for engine in ("scalar", "epoch"):
        out = tmp_path / f"{engine}.csv"
        assert main(["trace", "lbm", "--instructions", "100000", "--format", "csv",
                     "--out", str(out), "--engine", engine]) == 0
        firsts.append(capsys.readouterr().out.splitlines()[0])
    assert firsts[0] == firsts[1] and "IPC" in firsts[0]
    assert (tmp_path / "scalar.csv").read_bytes() == (tmp_path / "epoch.csv").read_bytes()


def test_schemes_raidr_uses_the_zoo_bin_window(capsys):
    assert main(["schemes", "lbm", "--scale", "smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(ln for ln in lines if ln.startswith("benchmark")).split()
    cells = dict(zip(header, next(ln for ln in lines if ln.startswith("lbm")).split()))
    # the default 8192-tick window never wraps in a run this short, which
    # would make RAIDR read exactly like auto-refresh
    assert cells["auto_1x"] == "1.0000" and cells["raidr"] != "1.0000"


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["fig", "10", "lbm"], "unknown mix 'lbm'"),
        (["fig", "7", "nosuch"], "unknown benchmark 'nosuch'"),
        (["analyze", "nosuch"], "unknown benchmark 'nosuch'"),
        (["sweep", "lbm", "nosuch"], "unknown benchmark 'nosuch'"),
        (["compare", "nosuch"], "unknown benchmark 'nosuch'"),
        (["schemes", "nosuch"], "unknown benchmark 'nosuch'"),
        (["characterize", "nosuch"], "unknown benchmark 'nosuch'"),
        (["trace", "nosuch"], "unknown benchmark 'nosuch'"),
        (["profile", "nosuch"], "unknown benchmark 'nosuch'"),
        (["profile", "--mix", "WL9"], "unknown mix 'WL9'"),
    ],
)
def test_unknown_names_exit_2_with_one_line(argv, needle, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"repro {argv[0]}: ") and needle in lines[0]
    assert "known: " in lines[0]
