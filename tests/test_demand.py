"""Demand-driven link layer: a lane measures only the (UE, RB) pairs that
something reads, a static group mixes its channel once, and the lanes of
one polarization share the candidate products of precoder selection.

Every value that is read must keep the bits the dense tables give it, so
the oracles here compare raw bits, not values within a tolerance.
"""

import numpy as np
import pytest

import mmwsim.channel as channel
import mmwsim.engine as engine
from mmwsim import preset


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def _check_pairs(group, lane, t):
    """The lane's pair-path covariances and granted rates equal the dense
    tables at the same pairs, bit for bit."""
    cfg = lane.cfg
    ue, rb = lane.pairs
    read = np.zeros((len(lane.avg), cfg.n_rb), dtype=bool)
    read[ue, rb] = True
    grants = lane.rb_to_ue, np.arange(cfg.n_rb)
    assert read[grants].all()
    if engine._selects(cfg, t):
        assert read[:, group.select_rb].all()
    pair_r_int = lane.r_int.copy()
    pair_rates = group.granted_rates(lane)

    lane.pairs = None
    group.measure([lane])
    dense_rates = group.rate_table(lane)[grants]
    assert np.array_equal(_bits(lane.r_int[ue, rb]),
                          _bits(pair_r_int[ue, rb]))
    assert np.array_equal(_bits(dense_rates), _bits(pair_rates))
    lane.r_int[:] = pair_r_int
    lane.pairs = ue, rb


@pytest.mark.parametrize("velocity", [0.0, 120.0])
@pytest.mark.parametrize("n_tx", [2, 4])
@pytest.mark.parametrize("n_rx", [1, 2, 4])
def test_pair_path_matches_the_dense_tables_bit_for_bit(n_rx, n_tx, velocity,
                                                         monkeypatch):
    cfg = preset("small").replace(
        n_tx=n_tx, n_rx=n_rx, ues_per_sector=1, n_strongest_interferers=4,
        ue_velocity=velocity, seed=3, n_tti=4, csi_period_tti=2)
    ue_bytes = 5 * cfg.n_rb * n_rx * n_tx * 8
    # 21 UEs in blocks of 4: five full blocks and an uneven last one
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 4 * ue_bytes + 1)
    real_demand = engine._Lane.demand
    real_measure, real_account = engine._Group.measure, engine._Lane.account
    tti, checked = {}, []

    def demand(lane, t, group):
        tti[lane] = t
        return real_demand(lane, t, group)

    def measure(group, lanes, psched=None):
        for lane in lanes:
            if lane.pairs is not None:
                lane.r_int[:] = np.nan   # nothing may read an unmeasured pair
        real_measure(group, lanes, psched)

    def account(lane, group):
        if lane.pairs is not None:
            _check_pairs(group, lane, tti[lane])
            checked.append((lane.cfg.scheduler, tti[lane]))
        real_account(lane, group)

    cfgs = [cfg.replace(scheduler=s) for s in ("RR", "PF")]
    monkeypatch.setattr(engine._Lane, "demand", lambda *args: None)
    dense = engine._run_lanes(cfgs)
    monkeypatch.setattr(engine._Lane, "demand", demand)
    monkeypatch.setattr(engine._Group, "measure", measure)
    monkeypatch.setattr(engine._Lane, "account", account)
    assert engine._run_lanes(cfgs) == dense
    # round robin takes the pair path every TTI (with the select rows after
    # TTI 1), proportional fair on its last TTI only
    assert checked == [("RR", 0), ("RR", 1), ("RR", 2), ("RR", 3), ("PF", 3)]


def test_demand_is_dense_only_where_a_full_table_is_read(monkeypatch):
    cfg = preset("small").replace(n_site_rings=0, ues_per_sector=2, n_tti=6,
                                  csi_period_tti=2)
    seen = []
    real = engine._Lane.demand

    def demand(lane, t, group):
        pairs = real(lane, t, group)
        n = None if pairs is None else len(pairs[0])
        seen.append((lane.cfg.scheduler, t, n))
        return pairs

    monkeypatch.setattr(engine._Lane, "demand", demand)
    engine._run_lanes([cfg.replace(scheduler=s) for s in ("RR", "PF")])
    grants = 3 * cfg.n_rb           # three cells with UEs
    # select rows after TTIs 1 and 3 add the 5 sampled RBs of every UE, of
    # which each UE already holds its granted ones
    rr = {t: n for s, t, n in seen if s == "RR"}
    pf = {t: n for s, t, n in seen if s == "PF"}
    assert rr[0] == rr[2] == rr[4] == rr[5] == grants
    assert grants < rr[1] < grants + 6 * 5 and rr[3] == rr[1]
    assert pf == {0: None, 1: None, 2: None, 3: None, 4: None, 5: grants}


def test_a_static_group_mixes_each_block_once(monkeypatch):
    # 42 UEs in four blocks of ten and one of two
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 10 * 9 * 50 * 16 * 8)
    mixed = []
    real = channel.mix_taps

    def mix_taps(taps, kernel, out=None):
        mixed.append(len(taps))
        return real(taps, kernel, out)

    monkeypatch.setattr(channel, "mix_taps", mix_taps)
    cfg = preset("small").replace(ues_per_sector=2, n_tti=4, ue_velocity=0.0)
    engine._run_lanes([cfg.replace(scheduler=s, ue_polarization=p)
                       for p in ("LPOL", "XPOL") for s in ("RR", "PF")])
    # one mix per block and run, of the block's 10 or 2 UEs' 9 links each
    assert sorted(mixed) == [18] + [90] * 4


def test_a_frozen_bank_keeps_no_sinusoids_and_never_moves():
    cfg = preset("small").replace(ues_per_sector=2, ue_velocity=0.0)
    group = engine._Group(cfg, ("LPOL", "XPOL"))
    bank = group.bank
    assert bank.state is None and bank.step is None \
        and bank.rice_step is None
    h = bank.current(slice(None))
    ports = {pol: port.copy() for pol, port in bank.port.items()}
    bank.advance()
    # the same array, not a copy, whatever buffer the caller offers
    assert bank.current(slice(None)) is h
    assert bank.current(slice(0, bank.n_links),
                        bank.buffers(bank.n_links)) is h
    for pol, port in ports.items():
        assert np.array_equal(bank.port[pol], port)


def test_lanes_of_one_polarization_share_the_select_products(monkeypatch):
    calls = []
    real_candidates, real_select = engine._Group._candidates, \
        engine._Group.select

    def candidates(group, h_sel):
        calls.append("products")
        return real_candidates(group, h_sel)

    def select(group, lanes):
        calls.append(len(lanes))
        return real_select(group, lanes)

    monkeypatch.setattr(engine._Group, "_candidates", candidates)
    monkeypatch.setattr(engine._Group, "select", select)
    # 42 UEs fit one select chunk; CSI TTIs: the bootstrap, then after TTIs
    # 1 and 3 but not after the last one, 5
    cfg = preset("small").replace(ues_per_sector=2, n_tti=6, csi_period_tti=2,
                                  ue_velocity=120.0)
    engine._run_lanes([cfg.replace(scheduler=s, ue_polarization=p)
                       for p in ("LPOL", "XPOL") for s in ("RR", "PF")])
    # the bootstrap selects once per polarization, for its shared CSI; then
    # each polarization's two lanes select on one set of products
    assert calls == [1, "products"] * 2 + [2, "products"] * 4
