"""Tests of the benchmark itself: tracing, self-time arithmetic, KPI checks.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import use_checkout_sources  # noqa: E402

assert use_checkout_sources()

import mmwsim  # noqa: E402
from mmwsim import KpiRecord  # noqa: E402
from perfbench import kpicheck, run, spans  # noqa: E402
from perfbench.hostinfo import nproc  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

# 3 cells, 6 UEs, 3 TTIs: every layer runs, in well under a second a point
TINY = dict(preset="small", why="", schedulers=("RR", "PF"),
            polarizations=("XPOL",), velocities=(120.0,),
            overrides=(("n_site_rings", 0), ("ues_per_sector", 2),
                       ("n_tti", 3)))


def _originals():
    out = {}
    for _, owner_path, attr in spans.TARGETS:
        owner = spans._resolve(owner_path)
        out[owner_path, attr] = (owner.__dict__[attr]
                                 if isinstance(owner, type)
                                 else getattr(owner, attr))
    return out


def test_traced_run_is_bit_identical_and_unpatches(tmp_path):
    work = Workload(name="tiny", **TINY)
    before = _originals()
    plain, plain_failures = work.run(1)
    tracer = spans.Tracer(tmp_path)
    traced, traced_failures = tracer.traced_pass(lambda: work.run(1))

    assert plain_failures == traced_failures == []
    assert traced.sorted_records() == plain.sorted_records()
    assert _originals() == before
    assert tracer.missing == []
    metrics = tracer.layer_metrics()
    for name in spans._target_names():
        assert metrics[f"{name}.calls"] > 0, name
    assert metrics["engine.run_simulation.calls"] == 2
    assert metrics["link.mmse_sinr_from_covariance.matrices"] > 0
    assert 0.0 <= metrics["trace.unattributed_frac"] < 0.05
    # position_update is off, so mobility steps never move a UE
    assert metrics["deployment.step_mobility.useful_frac"] == 0.0


@pytest.mark.skipif(nproc() < 2, reason="needs two CPUs for a pool")
def test_pool_workers_report_their_spans(tmp_path):
    work = Workload(name="tiny_par", parallel=True,
                    **{**TINY, "velocities": (0.0, 120.0)})
    serial = Workload(name="tiny", **{**TINY, "velocities": (0.0, 120.0)})
    tracer = spans.Tracer(tmp_path)
    traced, failures = tracer.traced_pass(lambda: work.run(1))

    assert failures == []
    assert traced.sorted_records() == serial.run(1)[0].sorted_records()
    assert list(tmp_path.iterdir()) == []
    metrics = tracer.layer_metrics()
    assert metrics["engine.run_simulation.calls"] == 4
    sweep = [s for s in tracer.spans if s[2] == "engine.run_sweep"][0]
    assert metrics["engine.run_sweep.self_s"] < 0.9 * (sweep[4] - sweep[3])


def test_self_time_of_nested_calls(tmp_path):
    now = [0.0]
    tracer = spans.Tracer(tmp_path, clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    inner = tracer.wrap("x.inner", inner)

    def outer():
        now[0] += 1.0
        inner()
        inner()
        now[0] += 3.0

    tracer.wrap("x.outer", outer)()
    selfs = spans.self_times(tracer.spans)
    by_name = {}
    for sid, parent, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append((selfs[sid], end - start))
    assert by_name["x.outer"] == [(4.0, 8.0)]
    assert by_name["x.inner"] == [(2.0, 2.0), (2.0, 2.0)]


def test_self_time_counts_overlapping_children_once():
    synthetic = [(1, None, "pool", 0.0, 10.0),
                 (2, 1, "worker", 1.0, 5.0),
                 (3, 1, "worker", 3.0, 8.0),
                 (4, 1, "worker", 9.0, 12.0)]   # ends after its parent
    selfs = spans.self_times(synthetic)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert spans.covered_length([], 0.0, 1.0) == 0.0


def _reference_records(seed=1):
    rows = kpicheck.load_reference()["small_grid"][str(seed)]
    return [KpiRecord(**row) for row in rows]


def test_kpi_check_catches_a_perturbed_reference():
    records = _reference_records()
    keys = [kpicheck.record_key(r) for r in records]
    reference = kpicheck.reference_for(kpicheck.load_reference(),
                                       "small_grid", 1)
    clean = kpicheck.check_pass(records, [], keys, reference)
    assert (clean.failed, clean.max_rel_dev, clean.problems) == (0, 0.0, [])
    assert clean.ref_points == len(records) == 8

    bumped = {k: dict(v) for k, v in reference.items()}
    bumped[keys[3]]["fairness_index"] *= 1.0 + 1e-4
    check = kpicheck.check_pass(records, [], keys, bumped)
    assert check.failed == 1
    assert check.max_rel_dev == pytest.approx(1e-4, rel=1e-3)


def test_kpi_check_catches_invariant_breaks_and_missing_points():
    records = _reference_records()
    keys = [kpicheck.record_key(r) for r in records]
    records[0] = dataclasses.replace(records[0], fairness_index=1.5)
    check = kpicheck.check_pass(records[:-1], ["boom"], keys, None)
    assert check.failed == 2
    assert check.ref_points == 0
    assert "boom" in check.problems


def test_missing_target_warns_and_is_dropped(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("engine.renamed_away", "mmwsim.engine", "renamed_away"),))
    work = Workload(name="tiny", **{**TINY, "schedulers": ("PF",)})
    tracer = spans.Tracer(tmp_path)
    with pytest.warns(UserWarning, match="renamed_away"):
        table, failures = tracer.traced_pass(lambda: work.run(1))
    assert failures == [] and len(table.records) == 1
    assert tracer.missing == ["engine.renamed_away"]
    assert tracer.layer_metrics()["engine.renamed_away.calls"] == 0
    assert not hasattr(mmwsim.engine, "renamed_away")


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        spans.metric_units()


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
