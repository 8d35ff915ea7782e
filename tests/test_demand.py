"""Demand-driven link layer: a lane measures only the (UE, RB) pairs that
something reads, a frozen bank never moves, and the lanes of one
polarization share the candidate products of precoder selection.

Every value that is read must keep the bits the dense tables give it, so
the oracles here compare raw bits, not values within a tolerance.
"""

import numpy as np
import pytest

import mmwsim.engine as engine
import mmwsim.link as link
from mmwsim import preset
from mmwsim.link import build_codebook


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("velocity", [0.0, 120.0])
@pytest.mark.parametrize("n_tx", [2, 4])
@pytest.mark.parametrize("n_rx", [1, 2, 4])
def test_pair_path_matches_the_dense_tables_bit_for_bit(n_rx, n_tx, velocity,
                                                         monkeypatch):
    cfg = preset("small").replace(
        n_tx=n_tx, n_rx=n_rx, ues_per_sector=1, n_strongest_interferers=4,
        ue_velocity=velocity, seed=3, n_tti=4, csi_period_tti=2)
    # a UE's channel matrices and its candidate covariances in selection
    ue_bytes = max(5 * cfg.n_rb * n_rx * n_tx * 8,
                   len(build_codebook(n_tx)) * 5 * n_rx * n_rx * 16)
    # 21 UEs in blocks of 4: five full blocks and an uneven last one
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 4 * ue_bytes + 1)
    real_demand, real_account = engine._Lane.demand, engine._Lane.account
    real_interference = link._LinkLayer.interference
    dense, tti, r_int, rates, checked = [True], {}, {}, {}, []
    measured = set()

    def demand(lane, t, group):
        """The dense run measures every pair, the bootstrap's too; both
        runs key a TTI's records by ``t``, the bootstrap's by -1."""
        tti[lane.cfg.scheduler] = t
        return None if dense[0] else real_demand(lane, t, group)

    def interference(layer, lane, h, port, block):
        """Each block's covariances at the lane's pairs equal the dense
        block's; nothing may read an unmeasured pair."""
        real_interference(layer, lane, h, port, block)
        lo, hi = block.ues.start, block.ues.stop
        key = lane.cfg.scheduler, tti[lane.cfg.scheduler], lo
        if dense[0]:
            r_int[key] = lane.r_int[:hi - lo].copy()
        elif lane.pairs is not None:
            measured.add(key[:2])
            ue, rb = lane.pairs
            read = np.zeros((hi - lo, cfg.n_rb), dtype=bool)
            inside = (ue >= lo) & (ue < hi)
            read[ue[inside] - lo, rb[inside]] = True
            assert np.array_equal(_bits(lane.r_int[:hi - lo][read]),
                                  _bits(r_int[key][read]))
            lane.r_int[:hi - lo][~read] = np.nan

    def account(lane):
        """The granted rates equal the dense table's at the grants."""
        t = tti[lane.cfg.scheduler]
        key = lane.cfg.scheduler, t
        grants = lane.rb_to_ue, np.arange(cfg.n_rb)
        if dense[0]:
            rates[key] = lane.csi_rates.copy()
        elif lane.pairs is not None:
            ue, rb = lane.pairs
            read = np.zeros((len(lane.avg), cfg.n_rb), dtype=bool)
            read[ue, rb] = True
            assert read[grants].all()
            if engine._selects(cfg, t):
                assert read[:, ::engine._SELECT_RB_STRIDE].all()
            assert np.array_equal(_bits(lane.csi_rates[grants]),
                                  _bits(rates[key][grants]))
            checked.append(key)
        real_account(lane)

    monkeypatch.setattr(engine._Lane, "demand", demand)
    monkeypatch.setattr(link._LinkLayer, "interference", interference)
    monkeypatch.setattr(engine._Lane, "account", account)
    cfgs = [cfg.replace(scheduler=s) for s in ("RR", "PF")]
    want = engine._run_lanes(cfgs)
    dense[0] = False
    assert engine._run_lanes(cfgs) == want
    # round robin takes the pair path every TTI (with the select rows after
    # TTI 1), proportional fair on its last TTI only
    assert checked == [("RR", 0), ("RR", 1), ("RR", 2), ("RR", 3), ("PF", 3)]
    # and round robin's bootstrap measures its select rows only
    assert measured == {("RR", -1)} | set(checked)


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
    # which each UE already holds its granted ones; the bootstrap (t = -1)
    # has no grants and reads the select rows only
    rr = {t: n for s, t, n in seen if s == "RR"}
    pf = {t: n for s, t, n in seen if s == "PF"}
    assert rr[-1] == 6 * 5
    assert rr[0] == rr[2] == rr[4] == rr[5] == grants
    assert grants < rr[1] < grants + 6 * 5 and rr[3] == rr[1]
    assert pf == {-1: None, 0: None, 1: None, 2: None, 3: None, 4: None,
                  5: grants}


def test_a_frozen_bank_keeps_no_sinusoids_and_never_moves():
    cfg = preset("small").replace(ues_per_sector=2, ue_velocity=0.0)
    group = engine._Group(cfg)
    bank = group.bank
    # one summed phasor per sequence, and no rotations
    assert bank.state.shape[-1] == 1
    assert bank.step is None and bank.rice_step is None
    h = bank.current(slice(None)).tobytes()
    ports = {pol: bank.coupling(pol, slice(None)).tobytes()
             for pol in ("LPOL", "XPOL")}
    bank.advance()
    assert bank.current(slice(0, bank.n_links),
                        bank.buffers(bank.n_links)).tobytes() == h
    for pol, port in ports.items():
        assert bank.coupling(pol, slice(None)).tobytes() == port


def test_lanes_of_one_polarization_share_the_select_products(monkeypatch):
    calls = []
    real_candidates, real_select = link._LinkLayer._candidates, \
        link._LinkLayer.select

    def candidates(layer, h_sel):
        calls.append("products")
        return real_candidates(layer, h_sel)

    def select(layer, lanes, block, h_serv):
        calls.append(len(lanes))
        return real_select(layer, lanes, block, h_serv)

    monkeypatch.setattr(link._LinkLayer, "_candidates", candidates)
    monkeypatch.setattr(link._LinkLayer, "select", select)
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 36 * 9 * 50 * 16 * 8)
    # 42 UEs in blocks of 36 and 6; CSI TTIs: the bootstrap, then after TTIs
    # 1 and 3 but not after the last one, 5
    cfg = preset("small").replace(ues_per_sector=2, n_tti=6, csi_period_tti=2,
                                  ue_velocity=120.0)
    engine._run_lanes([cfg.replace(scheduler=s, ue_polarization=p)
                       for p in ("LPOL", "XPOL") for s in ("RR", "PF")])
    # in each block, each polarization's two lanes select on one set of
    # products, at the bootstrap as after TTIs 1 and 3
    assert calls == [2, "products"] * 3 * 2 * 2


def test_the_bootstrap_measures_each_lane_at_its_own_demand():
    cfg = preset("small").replace(ues_per_sector=2, n_tti=3,
                                  ue_velocity=120.0)
    group = engine._Group(cfg)
    rr, pf = lanes = [engine._Lane(cfg.replace(scheduler=s), group)
                      for s in ("RR", "PF")]
    group.bootstrap(lanes)
    # round robin's first schedule reads no rate: it measures the select
    # rows only and rates nothing, while proportional fair rates every pair
    n_ues, n_sel = len(group.xy), len(group.link.select_rb)
    ue, rb = rr.pairs
    assert np.array_equal(ue, np.repeat(np.arange(n_ues), n_sel))
    assert np.array_equal(rb, np.tile(group.link.select_rb, n_ues))
    assert np.isnan(rr.csi_rates).all()
    assert pf.pairs is None and np.isfinite(pf.csi_rates).all()
    # both pick the same precoders, and each lane's precoder map, isotropic
    # during the bootstrap, is silent again after it
    assert np.array_equal(_bits(rr.p_own), _bits(pf.p_own))
    for lane in lanes:
        assert not lane.psched.any()
