"""End-to-end runs, sweeps, trace output and the results table."""

import csv
import json
import os
import signal
from collections import defaultdict

import numpy as np
import pytest

import mmwsim.engine
from mmwsim import (EngineError, KpiRecord, ResultsTable, emit_csv, preset,
                    run_simulation, run_sweep, RESULT_COLUMNS)
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


def test_engine_errors_carry_tti_and_cell_context(monkeypatch):
    cfg = tiny_config(n_tti=2)
    original = mmwsim.engine._schedule_cell
    calls = []

    def failing(cfg_, ues_c, grid, state, csi_rates):
        calls.append(1)
        if len(calls) > 3:       # let TTI 0's cells through, fail on TTI 1
            raise SchedulerError("ue 4: no positive average throughput")
        return original(cfg_, ues_c, grid, state, csi_rates)

    monkeypatch.setattr(mmwsim.engine, "_schedule_cell", failing)
    with pytest.raises(EngineError, match=r"tti 1 cell \d+: ue 4"):
        run_simulation(cfg)


def test_bootstrap_errors_are_labelled(monkeypatch):
    cfg = tiny_config(n_tti=1)

    def boom(self, h, r_int, p_own):
        raise FloatingPointError("overflow in rate computation")

    monkeypatch.setattr(mmwsim.engine._LinkAdapter, "rates", boom)
    with pytest.raises(EngineError, match="tti 0 .csi bootstrap."):
        run_simulation(cfg)


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


def test_run_sweep_isolates_failed_points(monkeypatch):
    cfg = tiny_config(n_tti=2)
    real = mmwsim.engine.run_simulation

    def sometimes(cfg_, trace_dir=None):
        if cfg_.ue_velocity > 100.0:
            raise EngineError("tti 3: boom")
        return real(cfg_, trace_dir)

    monkeypatch.setattr(mmwsim.engine, "run_simulation", sometimes)
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
    real = mmwsim.engine.run_simulation

    def sometimes(cfg_, trace_dir=None):
        if cfg_.ue_velocity > 100.0:
            raise EngineError("tti 3: boom")
        return real(cfg_, trace_dir)

    monkeypatch.setattr(mmwsim.engine, "run_simulation", sometimes)
    table, failures = run_sweep(cfg, velocities=[0.0, 120.0], **kwargs)
    emit_csv(table, tmp_path / "r.csv")
    meta = json.loads((tmp_path / "r.meta.json").read_text(encoding="utf-8"))
    assert meta["failures"] == failures
    assert "velocity=120" in meta["failures"][0]
    # the CSV holds the surviving point exactly as a sweep of it alone does
    assert (tmp_path / "r.csv").read_bytes() \
        == (tmp_path / "clean.csv").read_bytes()


def test_parallel_sweep_matches_serial(tmp_path):
    cfg = tiny_config(n_tti=3)
    kwargs = dict(velocities=[0.0, 120.0], schedulers=["RR"],
                  polarizations=["XPOL"], seeds=[2])
    serial, f1 = run_sweep(cfg, parallelism=1, **kwargs)
    parallel, f2 = run_sweep(cfg, parallelism=2, **kwargs)
    assert f1 == f2 == []
    assert parallel.records == serial.records   # same records, point order
    emit_csv(serial, tmp_path / "serial.csv")
    emit_csv(parallel, tmp_path / "parallel.csv")
    assert (tmp_path / "serial.csv").read_bytes() \
        == (tmp_path / "parallel.csv").read_bytes()


@pytest.fixture
def alarm():
    """``alarm(seconds)`` fails the test, instead of hanging it, once
    ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError("the sweep hung")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_crashed_worker_stops_the_sweep(monkeypatch, alarm):
    cfg = tiny_config(n_tti=2)
    real = mmwsim.engine.run_simulation

    def crash_on_seed_2(cfg_, trace_dir=None):
        if cfg_.seed == 2:
            os._exit(3)   # the worker dies without reporting back
        return real(cfg_, trace_dir)

    # forked workers inherit the patched engine
    monkeypatch.setattr(mmwsim.engine, "run_simulation", crash_on_seed_2)
    alarm(60)
    with pytest.raises(EngineError, match="BrokenProcessPool"):
        run_sweep(cfg, velocities=[0.0], schedulers=["RR"],
                  polarizations=["LPOL"], seeds=[1, 2], parallelism=2)


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
    emit_csv(table, again, metadata_path=tmp_path / "m.json")
    assert again.read_bytes() == data
    assert (tmp_path / "m.json").exists()


def test_emit_csv_empty_table_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv(ResultsTable(records=[]), out)
    assert out.read_text(encoding="utf-8") \
        == ",".join(RESULT_COLUMNS) + "\n"
