"""End-to-end runs, sweeps, trace output and the results table."""

import csv
import faulthandler
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import mmwsim.channel
import mmwsim.engine
import mmwsim.link
import mmwsim.sweep
from mmwsim import (EngineError, KpiRecord, ResultsTable, emit_csv,
                    expand_sweep, preset, run_simulation, run_sweep,
                    RESULT_COLUMNS)
from mmwsim.scheduler import SchedulerError


def tiny_config(**changes):
    """One site, six UEs: the smallest closed system with interference."""
    base = dict(n_site_rings=0, ues_per_sector=2, n_tti=5)
    base.update(changes)
    return preset("small").replace(**base)


def test_smoke_run_single_tti_one_ring():
    cfg = preset("small").replace(n_site_rings=1, ues_per_sector=1, n_tti=1)
    rec = run_simulation(cfg)
    assert rec.avg_ue_throughput_bps > 0
    assert 0.0 < rec.fairness_index <= 1.0
    assert rec.n_ues >= 1
    assert rec.scheduler == "RR" and rec.polarization == "LPOL"


def test_identical_config_and_seed_reproduce_the_record_bitwise():
    cfg = tiny_config(scheduler="PF", ue_velocity=60.0)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a == b          # dataclass equality: every float bit-identical
    c = run_simulation(cfg.replace(seed=cfg.seed + 1))
    assert c != a


def test_record_metrics_satisfy_the_consistency_identity():
    rec = run_simulation(tiny_config())
    lhs = rec.spectral_efficiency_bps_hz * rec.bandwidth_hz
    rhs = rec.n_ues * rec.avg_ue_throughput_bps
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_collect_all_sectors_widens_the_kpi_population():
    cfg = preset("small").replace(ues_per_sector=2, n_tti=2)
    center_only = run_simulation(cfg)
    everyone = run_simulation(cfg.replace(collect_all_sectors=True))
    assert everyone.n_ues == 21 * 2          # 7 sites x 3 sectors x 2 UEs
    assert center_only.n_ues < everyone.n_ues


def test_trace_files_schema_and_rb_conservation(tmp_path):
    cfg = tiny_config(ues_per_sector=3, n_tti=3)
    rec_traced = run_simulation(cfg, trace_dir=str(tmp_path))
    assert run_simulation(cfg) == rec_traced   # tracing never perturbs KPIs

    for name in ("sites.csv", "cells.csv", "ues.csv", "allocation.csv",
                 "channel.csv"):
        assert (tmp_path / name).exists(), name

    with open(tmp_path / "allocation.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"tti", "cell_id", "rb", "ue_id", "granted_bits"}
    per_cell_tti = defaultdict(int)
    rb_share = defaultdict(int)
    for row in rows:
        per_cell_tti[(row["tti"], row["cell_id"])] += 1
        rb_share[(row["cell_id"], row["ue_id"])] += 1
    # every scheduled cell grants exactly n_rb RBs each TTI
    assert set(per_cell_tti.values()) == {cfg.n_rb}
    # round robin: cumulative per-UE shares within a cell differ by <= 1
    by_cell = defaultdict(list)
    for (cell, _), count in rb_share.items():
        by_cell[cell].append(count)
    for counts in by_cell.values():
        assert max(counts) - min(counts) <= 1

    with open(tmp_path / "channel.csv", encoding="utf-8") as fh:
        chan = list(csv.DictReader(fh))
    assert set(chan[0]) == {"tti", "ue_id", "serving_cell", "mean_gain_db"}
    assert len(chan) == cfg.n_tti * rec_traced.n_ues

    # both traces name the serving cell the run attached each UE to
    with open(tmp_path / "ues.csv", encoding="utf-8") as fh:
        serving = {row["ue_id"]: row["serving_cell"]
                   for row in csv.DictReader(fh)}
    assert len(serving) == 3 * 3
    for row in chan:
        assert row["serving_cell"] == serving[row["ue_id"]]


def test_engine_errors_carry_tti_and_cell_context(monkeypatch):
    cfg = tiny_config(n_tti=2, scheduler="PF")
    original = mmwsim.engine.schedule_pf
    calls = []

    def failing(ues, rates, avg):
        calls.append(1)
        if len(calls) > 3:       # let TTI 0's cells through, fail on TTI 1
            raise SchedulerError("ue 4: no positive average throughput")
        return original(ues, rates, avg)

    monkeypatch.setattr(mmwsim.engine, "schedule_pf", failing)
    with pytest.raises(EngineError, match=r"tti 1 cell \d+: ue 4"):
        run_simulation(cfg)


def test_bootstrap_errors_are_labelled(monkeypatch):
    cfg = tiny_config(n_tti=1)

    def boom(self, *args):
        raise FloatingPointError("overflow in covariance computation")

    monkeypatch.setattr(mmwsim.link._LinkLayer, "interference", boom)
    with pytest.raises(EngineError, match="tti 0 .csi bootstrap."):
        run_simulation(cfg)


def test_a_group_books_every_stage_of_a_run(monkeypatch):
    # one lane at 120 kmph that updates its precoders after TTIs 0 and 1
    cfg = preset("small").replace(ue_velocity=120.0, n_tti=3,
                                  csi_period_tti=1)
    seconds = []
    log_stages = mmwsim.engine._log_stages

    def keep_seconds(cfg, group):
        seconds.append(dict(group.clock.seconds))
        log_stages(cfg, group)

    monkeypatch.setattr(mmwsim.engine, "_log_stages", keep_seconds)
    run_simulation(cfg)
    (stages,) = seconds
    assert set(stages) == {
        "setup", "bank build", "channel", "interference", "rates",
        "select screen", "select exact", "advance", "schedule", "account"}
    assert all(s > 0.0 for s in stages.values()), stages


def test_the_stage_log_counts_the_phasors_libm_built(caplog):
    cfg = tiny_config(ue_velocity=120.0, n_tti=1)
    with caplog.at_level(logging.DEBUG, logger="mmwsim"):
        run_simulation(cfg)
    (line,) = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("group ")]
    libm, share = re.search(r"bank: (\d+) libm phasors \((\S+)%\)",
                            line).groups()
    assert 0 < int(libm) and 0 < float(share) < 1


def test_run_sweep_grid_and_metadata():
    cfg = tiny_config(n_tti=2)
    table, failures = run_sweep(cfg, velocities=[0.0, 120.0],
                                schedulers=["RR"], polarizations=["LPOL"],
                                seeds=[1])
    assert failures == []
    assert len(table.records) == 2
    meta = table.metadata
    assert meta["n_points"] == 2
    assert meta["columns"] == list(RESULT_COLUMNS)
    assert meta["velocities_kmph"] == [0.0, 120.0]
    assert meta["schedulers"] == ["RR"]
    assert len(meta["base_config_sha256"]) == 64


@pytest.mark.parametrize("parallelism", [0, -3, 2.5, 2.0, True, "2", None])
def test_run_sweep_rejects_a_parallelism_that_is_no_int_of_one_or_more(
        parallelism, monkeypatch):
    ran = []
    monkeypatch.setattr(mmwsim.sweep, "_run_group", ran.append)
    with pytest.raises(ValueError, match=re.escape(repr(parallelism))):
        run_sweep(tiny_config(n_tti=1), velocities=[0.0, 60.0, 120.0, 30.0],
                  schedulers=["RR"], polarizations=["LPOL"], seeds=[1],
                  parallelism=parallelism)
    assert ran == []


def test_run_sweep_takes_a_numpy_int_parallelism():
    table, failures = run_sweep(tiny_config(n_tti=1), velocities=[0.0],
                                schedulers=["RR"], polarizations=["LPOL"],
                                seeds=[1], parallelism=np.int64(1))
    assert failures == [] and len(table.records) == 1


def test_run_sweep_isolates_failed_points(monkeypatch):
    cfg = tiny_config(n_tti=2)
    real = mmwsim.engine._run_lanes

    def sometimes(cfgs, trace_dir=None):
        if any(c.ue_velocity > 100.0 for c in cfgs):
            raise EngineError("tti 3: boom")
        return real(cfgs, trace_dir)

    monkeypatch.setattr(mmwsim.engine, "_run_lanes", sometimes)
    table, failures = run_sweep(cfg, velocities=[0.0, 120.0],
                                schedulers=["RR"], polarizations=["LPOL"],
                                seeds=[1])
    assert len(table.records) == 1
    assert len(failures) == 1
    assert "velocity=120" in failures[0]
    assert "EngineError" in failures[0] and "boom" in failures[0]


def test_sweep_failures_reach_the_metadata_sidecar(monkeypatch, tmp_path):
    cfg = tiny_config(n_tti=2)
    kwargs = dict(schedulers=["RR"], polarizations=["LPOL"], seeds=[1])
    clean, _ = run_sweep(cfg, velocities=[0.0], **kwargs)
    assert clean.metadata["failures"] == []
    emit_csv(clean, tmp_path / "clean.csv")
    real = mmwsim.engine._run_lanes

    def sometimes(cfgs, trace_dir=None):
        if any(c.ue_velocity > 100.0 for c in cfgs):
            raise EngineError("tti 3: boom")
        return real(cfgs, trace_dir)

    monkeypatch.setattr(mmwsim.engine, "_run_lanes", sometimes)
    table, failures = run_sweep(cfg, velocities=[0.0, 120.0], **kwargs)
    emit_csv(table, tmp_path / "r.csv")
    meta = json.loads((tmp_path / "r.meta.json").read_text(encoding="utf-8"))
    assert meta["failures"] == failures
    assert "velocity=120" in meta["failures"][0]
    # the CSV holds the surviving point exactly as a sweep of it alone does
    assert (tmp_path / "r.csv").read_bytes() \
        == (tmp_path / "clean.csv").read_bytes()


def test_a_failing_lane_fails_only_its_own_point(monkeypatch):
    cfg = tiny_config(n_tti=3)
    kwargs = dict(velocities=[60.0], schedulers=["RR", "PF"],
                  polarizations=["LPOL", "XPOL"], seeds=[1])
    real = mmwsim.engine._Lane.schedule

    def pf_xpol_fails(lane, t, group):
        if t == 1 and (lane.cfg.scheduler, lane.pol) == ("PF", "XPOL"):
            raise EngineError(f"tti {t} cell 0: boom")
        return real(lane, t, group)

    # one group of four lanes, failing in lockstep at TTI 1
    monkeypatch.setattr(mmwsim.engine._Lane, "schedule", pf_xpol_fails)
    table, failures = run_sweep(cfg, **kwargs)
    assert failures == ["scheduler=PF polarization=XPOL velocity=60 "
                        "seed=1: EngineError: tti 1 cell 0: boom"]
    survivors = [p for p in expand_sweep(cfg, **kwargs)
                 if (p.scheduler, p.ue_polarization) != ("PF", "XPOL")]
    assert table.records == [run_simulation(p) for p in survivors]


def test_parallel_sweep_matches_serial(tmp_path, alarm):
    alarm(120)
    cfg = tiny_config(n_tti=3)
    kwargs = dict(velocities=[0.0, 120.0], schedulers=["RR", "PF"],
                  polarizations=["LPOL", "XPOL"], seeds=[2])
    serial, f1 = run_sweep(cfg, parallelism=1, **kwargs)
    emit_csv(serial, tmp_path / "serial.csv")
    # two groups of four lanes; three workers split one of them
    for workers in (2, 3):
        parallel, f2 = run_sweep(cfg, parallelism=workers, **kwargs)
        assert f1 == f2 == []
        assert parallel.records == serial.records   # same records, point order
        emit_csv(parallel, tmp_path / "parallel.csv")
        assert (tmp_path / "serial.csv").read_bytes() \
            == (tmp_path / "parallel.csv").read_bytes()


@pytest.fixture
def alarm():
    """``alarm(seconds)`` fails the test, instead of hanging it, once
    ``seconds`` have passed."""
    def expire(signum, frame):
        # end the pool's workers first: leaving the pool waits for them,
        # and a hung worker would never finish
        for child in multiprocessing.active_children():
            child.terminate()
        raise TimeoutError("the sweep hung")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class _OnGroupDone(logging.Handler):
    """Sets ``event`` when this process logs that a sweep group is done."""

    def __init__(self, event):
        super().__init__()
        self.event, self.pid = event, os.getpid()

    def emit(self, record):
        if os.getpid() == self.pid and "groups done" in record.getMessage():
            self.event.set()


def test_a_dead_worker_fails_its_points_and_keeps_the_finished_groups(
        monkeypatch, alarm):
    cfg = tiny_config(n_tti=2)
    kwargs = dict(velocities=[0.0], schedulers=["RR"], polarizations=["LPOL"])
    real = mmwsim.engine._run_lanes
    reported = multiprocessing.get_context("fork").Event()

    def crash_on_seed_2(cfgs, trace_dir=None):
        if any(c.seed == 2 for c in cfgs):
            # the worker dies without reporting back, once the sweep holds
            # the other group's records
            reported.wait(60)
            os._exit(3)
        return real(cfgs, trace_dir)

    # forked workers inherit the patched engine
    monkeypatch.setattr(mmwsim.engine, "_run_lanes", crash_on_seed_2)
    logger = logging.getLogger("mmwsim")
    monkeypatch.setattr(logger, "handlers", [_OnGroupDone(reported)])
    monkeypatch.setattr(logger, "propagate", False)
    level = logger.level
    logger.setLevel(logging.INFO)
    alarm(120)
    try:
        table, failures = run_sweep(cfg, seeds=[1, 2], parallelism=2,
                                    **kwargs)
    finally:
        logger.setLevel(level)
    assert reported.is_set()
    assert failures == ["scheduler=RR polarization=LPOL velocity=0 seed=2: "
                        "worker process died"]
    assert table.metadata["failures"] == failures
    assert table.records == [run_simulation(p)
                             for p in expand_sweep(cfg, seeds=[1], **kwargs)]


def test_an_interrupted_sweep_ends_its_own_workers(monkeypatch):
    cfg = tiny_config(n_tti=2)
    real = mmwsim.engine._run_lanes

    def hang_on_seed_2(cfgs, trace_dir=None):
        if any(c.seed == 2 for c in cfgs):
            time.sleep(3600)   # the worker never reports back
        return real(cfgs, trace_dir)

    def interrupt(signum, frame):
        # ends nothing itself: the sweep has to end its workers
        raise TimeoutError("sweep interrupted")

    monkeypatch.setattr(mmwsim.engine, "_run_lanes", hang_on_seed_2)
    previous = signal.signal(signal.SIGALRM, interrupt)
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        start = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        with pytest.raises(TimeoutError, match="sweep interrupted"):
            run_sweep(cfg, velocities=[0.0], schedulers=["RR"],
                      polarizations=["LPOL"], seeds=[1, 2], parallelism=2)
        assert time.monotonic() - start < 30.0
        assert multiprocessing.active_children() == []
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)


def test_forked_sweep_after_a_threaded_bank_finishes(monkeypatch, alarm):
    # the run builds its channel bank on two threads; the sweep then forks
    # workers from the same process, which must neither inherit a running
    # thread nor a lock held by one
    monkeypatch.setattr(mmwsim.channel, "_cpu_count", lambda: 2)
    cfg = tiny_config(ues_per_sector=6, n_tti=3, ue_velocity=120.0)
    group = mmwsim.engine._Group(cfg)
    assert len(mmwsim.channel._link_parts(group.links.n_links)) == 2
    alarm(120)
    run_simulation(cfg)
    kwargs = dict(velocities=[0.0, 120.0], schedulers=["RR"],
                  polarizations=["LPOL", "XPOL"], seeds=[1])
    parallel, failures = run_sweep(cfg, parallelism=2, **kwargs)
    serial, _ = run_sweep(cfg, parallelism=1, **kwargs)
    assert failures == []
    assert parallel.records == serial.records


def _record(sched, pol, vel, seed, tp=1e6):
    return KpiRecord(scheduler=sched, polarization=pol, velocity_kmph=vel,
                     seed=seed, avg_ue_throughput_bps=tp,
                     spectral_efficiency_bps_hz=tp * 15 / 10e6,
                     fairness_index=0.875, n_ues=15, bandwidth_hz=10e6)


def test_results_table_sorts_and_formats_rows():
    table = ResultsTable(records=[
        _record("RR", "LPOL", 120.0, 2),
        _record("PF", "XPOL", 0.0, 1),
        _record("RR", "LPOL", 0.0, 1, tp=1234567.0),
    ])
    rows = list(table.rows())
    assert [r[:4] for r in rows] == [
        ("PF", "XPOL", "0", "1"),
        ("RR", "LPOL", "0", "1"),
        ("RR", "LPOL", "120", "2"),
    ]
    # six significant digits
    assert rows[1][4] == "1.23457"
    assert rows[1][6] == "0.875"


def test_emit_csv_contract(tmp_path):
    table = ResultsTable(records=[_record("RR", "LPOL", 0.0, 1)],
                         metadata={"n_points": 1})
    out = tmp_path / "results.csv"
    emit_csv(table, out)
    data = out.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("RR,LPOL,0,1,")

    meta_path = tmp_path / "results.meta.json"
    assert json.loads(meta_path.read_text(encoding="utf-8")) \
        == {"n_points": 1}

    # re-emitting the same table is byte-identical
    again = tmp_path / "again.csv"
    emit_csv(table, again)
    assert again.read_bytes() == data
    assert (tmp_path / "again.meta.json").read_bytes() \
        == meta_path.read_bytes()


def test_emit_csv_empty_table_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv(ResultsTable(records=[]), out)
    assert out.read_text(encoding="utf-8") \
        == ",".join(RESULT_COLUMNS) + "\n"


def test_importing_mmwsim_loads_no_pool_and_no_numpy_random():
    # multiprocessing, concurrent.futures and numpy.random load on first
    # use, so they stay out of every run's set-up time
    src = Path(mmwsim.engine.__file__).parent.parent
    code = ("import sys, mmwsim; print(sorted(m for m in sys.modules if "
            "m.startswith(('multiprocessing', 'concurrent', "
            "'numpy.random'))))")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"
