"""Sweep lanes: the points of one (velocity, seed) run in lockstep over one
shared channel bank, and every lane must equal its own single run bit for
bit."""

import pytest

import mmwsim.engine as engine
from mmwsim import expand_sweep, preset, run_simulation, run_sweep
from mmwsim.channel import _ChannelBank
from test_golden import GOLDEN, _config, _kpis

AXES = dict(schedulers=["RR", "PF"], polarizations=["LPOL", "XPOL"],
            velocities=[0.0, 120.0])


def test_sweep_lanes_equal_single_runs_over_uneven_blocks(monkeypatch):
    # one ring, 42 UEs with 9 links x 50 RBs x 4x4 ports each: four blocks
    # of ten UEs and one of two
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 10 * 9 * 50 * 16 * 8)
    base = preset("small").replace(ues_per_sector=2, n_tti=4,
                                   csi_period_tti=2)
    kwargs = dict(AXES, seeds=[1, 2])
    table, failures = run_sweep(base, **kwargs)
    assert failures == []
    assert table.records == [run_simulation(p)
                             for p in expand_sweep(base, **kwargs)]


def _golden_groups():
    groups = {}
    for row in GOLDEN:
        rings, _, _, kmph, extra = row[:5]
        key = (rings, kmph, tuple(sorted(extra.items())))
        groups.setdefault(key, []).append(row)
    return list(groups.values())


@pytest.mark.parametrize("rows", _golden_groups())
def test_golden_records_hold_as_lane_groups(rows):
    records = engine._run_lanes([_config(*row[:5]) for row in rows])
    assert [_kpis(r) for r in records] == [tuple(row[5:]) for row in rows]


def test_a_sweep_builds_one_bank_per_velocity_and_seed(monkeypatch):
    calls = []
    real = _ChannelBank.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(_ChannelBank, "__init__", counting)
    base = preset("small").replace(n_site_rings=0, ues_per_sector=2, n_tti=2)
    table, failures = run_sweep(base, seeds=[1], **AXES)
    assert failures == [] and len(table.records) == 8
    assert len(calls) == 2


def test_groups_split_by_polarization_until_every_worker_has_work():
    points = expand_sweep(preset("small"), seeds=[1], **AXES)

    def shape(n_workers):
        groups = engine._sweep_groups(points, n_workers)
        assert sorted(i for g in groups for i in g) == list(range(8))
        for g in groups:
            assert len({(points[i].ue_velocity, points[i].seed)
                        for i in g}) == 1
        return sorted([points[i].ue_polarization for i in g] for g in groups)

    lpol, xpol = ["LPOL"] * 2, ["XPOL"] * 2
    assert shape(1) == shape(2) == [lpol + xpol] * 2
    assert shape(3) == [lpol, lpol + xpol, xpol]
    assert shape(4) == [lpol, lpol, xpol, xpol]
    assert shape(9) == [["LPOL"]] * 4 + [["XPOL"]] * 4

