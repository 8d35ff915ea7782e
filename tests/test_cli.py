"""The ``simulate`` command-line front end."""

import json

import pytest

import mmwsim.cli
from mmwsim import EngineError, ResultsTable, preset, save_scenario
from mmwsim.cli import _int_list, main


def run_cli(*argv):
    return main(list(argv))


TINY = ("--preset", "small", "--set", "n_site_rings=0",
        "--set", "ues_per_sector=2", "--set", "n_tti=3")


def test_seed_list_parser():
    assert _int_list("1..5") == [1, 2, 3, 4, 5]
    assert _int_list("2,4,8") == [2, 4, 8]
    assert _int_list("7") == [7]


def test_single_run_prints_kpis(capsys):
    assert run_cli(*TINY) == 0
    out = capsys.readouterr().out
    assert "scheduler=RR polarization=LPOL" in out
    assert "avg_ue_throughput_mbps=" in out
    assert "spectral_efficiency_bps_hz=" in out
    assert "fairness_index=" in out


def test_single_run_writes_csv_when_asked(tmp_path, capsys):
    out = tmp_path / "single.csv"
    assert run_cli(*TINY, "--out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    meta = json.loads((tmp_path / "single.meta.json").read_text())
    assert meta["n_points"] == 1


def test_set_overrides_reach_the_run(capsys):
    assert run_cli(*TINY, "--set", "ue_velocity=60",
                   "--set", "scheduler=pf") == 0
    out = capsys.readouterr().out
    assert "scheduler=PF" in out
    assert "velocity_kmph=60" in out


def test_config_file_source(tmp_path, capsys):
    path = tmp_path / "scn.cfg"
    save_scenario(preset("small").replace(n_site_rings=0, ues_per_sector=2,
                                          n_tti=2, ue_velocity=30.0), path)
    assert run_cli("--config", str(path)) == 0
    assert "velocity_kmph=30" in capsys.readouterr().out


@pytest.mark.parametrize("argv,fragment", [
    (TINY + ("--set", "n_tti=0"), "n_tti"),
    (TINY + ("--set", "nonsense=1"), "nonsense"),
    (TINY + ("--set", "badform"), "KEY=VALUE"),
    (("--config", "/nonexistent/file.cfg"), "No such file"),
    (TINY + ("--sweep", "--trace-dir", "tr"), "single runs only"),
    (TINY + ("--parallel", "-2"), "--parallel"),
    # argparse's own usage errors, which it would exit 2 on
    (TINY + ("--seeds", "abc"), "--seeds"),
    (TINY + ("--parallel", "x"), "--parallel"),
    (TINY + ("--bogus",), "--bogus"),
])
def test_usage_errors_exit_one(argv, fragment, capsys):
    assert run_cli(*argv) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("level", ["verbose", "10", "warn ing"])
def test_an_unknown_log_level_exits_one(level, monkeypatch, capsys):
    monkeypatch.setenv("MMWSIM_LOG", level)
    assert run_cli(*TINY) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("simulate: MMWSIM_LOG: unknown level")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_axis_flags_imply_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(*TINY, "--sweep-velocities", "0,120",
                   "--polarizations", "lpol", "--schedulers", "rr",
                   "--seeds", "1", "--out", str(out))
    assert code == 0
    captured = capsys.readouterr()
    assert "sweep: 2 points ok, 0 failed" in captured.out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("scheduler,rx_polarization,velocity_kmph")
    assert len(lines) == 3
    velocities = [line.split(",")[2] for line in lines[1:]]
    assert velocities == ["0", "120"]


@pytest.mark.parametrize("axis_flags,fragment", [
    (("--seeds", "5..1"), "seed: sweep axis is empty"),
    (("--seeds", "1,1"), "seed: sweep axis repeats 1"),
    (("--sweep-velocities", "0,120,0"), "ue_velocity: sweep axis repeats"),
])
def test_empty_or_repeated_sweep_axes_exit_one(axis_flags, fragment,
                                               tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run_cli(*TINY, *axis_flags, "--out", str(out)) == 1
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_sweep_failures_exit_two(monkeypatch, tmp_path, capsys):
    def fake_sweep(cfg, velocities=None, polarizations=None, schedulers=None,
                   seeds=None, parallelism=1):
        return ResultsTable(records=[], metadata={}), ["seed=1: boom"]

    monkeypatch.setattr(mmwsim.cli, "run_sweep", fake_sweep)
    assert run_cli(*TINY, "--seeds", "1",
                   "--out", str(tmp_path / "r.csv")) == 2
    captured = capsys.readouterr()
    assert "1 failed" in captured.out
    assert "failed: seed=1: boom" in captured.err


def test_trace_dir_for_single_runs(tmp_path, capsys):
    trace = tmp_path / "traces"
    assert run_cli(*TINY, "--trace-dir", str(trace)) == 0
    names = {p.name for p in trace.iterdir()}
    assert names == {"sites.csv", "cells.csv", "ues.csv", "allocation.csv",
                     "channel.csv"}


def _refuse_to_run(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("ran before its output paths were checked")

    monkeypatch.setattr(mmwsim.cli, "run_sweep", fail)
    monkeypatch.setattr(mmwsim.cli, "run_simulation", fail)


@pytest.mark.parametrize("mode", [(), ("--seeds", "1")])
def test_an_unwritable_out_path_exits_one_before_running(mode, monkeypatch,
                                                         tmp_path, capsys):
    _refuse_to_run(monkeypatch)
    missing = tmp_path / "missing" / "r.csv"
    assert run_cli(*TINY, *mode, "--out", str(missing)) == 1
    err = capsys.readouterr().err
    assert err.startswith("simulate: ") and str(missing) in err
    # the sidecar is checked too: here its name is taken by a directory
    (tmp_path / "r.meta.json").mkdir()
    assert run_cli(*TINY, *mode, "--out", str(tmp_path / "r.csv")) == 1
    assert "r.meta.json" in capsys.readouterr().err
    # and the check leaves no file behind
    assert [p.name for p in tmp_path.iterdir()] == ["r.meta.json"]


def test_an_uncreatable_trace_dir_exits_one_before_running(monkeypatch,
                                                           tmp_path, capsys):
    _refuse_to_run(monkeypatch)
    (tmp_path / "file").write_text("")
    assert run_cli(*TINY, "--trace-dir", str(tmp_path / "file" / "tr")) == 1
    assert capsys.readouterr().err.startswith("simulate: ")


def test_an_existing_out_file_survives_a_failed_run(monkeypatch, tmp_path):
    out = tmp_path / "r.csv"
    out.write_text("kept\n")

    def fail(*args, **kwargs):
        raise EngineError("boom")

    monkeypatch.setattr(mmwsim.cli, "run_simulation", fail)
    assert run_cli(*TINY, "--out", str(out)) == 1
    assert out.read_text() == "kept\n"


def test_help_mentions_the_study_axes(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("--help")
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--sweep-velocities", "--polarizations", "--schedulers",
                 "--seeds", "--parallel", "--trace-dir", "--preset"):
        assert flag in text


def test_parallel_zero_counts_the_cpus_this_process_may_use(monkeypatch,
                                                            tmp_path):
    # under taskset or a cpuset the affinity count is below os.cpu_count()
    monkeypatch.setattr(mmwsim.cli, "_cpu_count", lambda: 3)
    seen = []

    def fake_sweep(cfg, velocities=None, polarizations=None, schedulers=None,
                   seeds=None, parallelism=1):
        seen.append(parallelism)
        return ResultsTable(records=[], metadata={}), []

    monkeypatch.setattr(mmwsim.cli, "run_sweep", fake_sweep)
    assert run_cli(*TINY, "--seeds", "1", "--parallel", "0",
                   "--out", str(tmp_path / "r.csv")) == 0
    assert seen == [3]
