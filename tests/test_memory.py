"""Block-bounded working memory: the link layer's per-TTI steps allocate a
bounded multiple of the UE-block budget ``_BLOCK_BYTES`` whatever the
network size, no array outside the channel bank spans the network's
(UE, RB) pairs, the channel bank keeps only its rotating sinusoids and a
few values per link, its ``advance`` rotates them in place, and the budget
partitions the work without changing a bit."""

import tracemalloc

import numpy as np

import mmwsim.engine as engine
from mmwsim import preset

# a TTI's transients above the group's block buffers, mostly a block's
# inverses in precoder selection and its rate temporaries: 2.8 MiB
# measured at 630 UEs
_PEAK_BUDGETS = 6


def _cov_bytes(group):
    """Bytes of one UE's complex128 candidate covariances in ``select``."""
    cfg = group.cfg
    return len(group.link.cand) * len(group.link.select_rb) * cfg.n_rx \
        * cfg.n_rx * np.dtype(np.complex128).itemsize


def _traced_peak(call, *args):
    """Peak bytes that ``call(*args)`` allocates above what is live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _lanes(cfg, schedulers):
    """A group and its lanes after the CSI bootstrap and the first TTI's
    grants, one lane per scheduler."""
    group = engine._Group(cfg)
    lanes = [engine._Lane(cfg.replace(scheduler=s), group)
             for s in schedulers]
    group.bootstrap(lanes)
    group.bank.advance()
    for lane in lanes:
        lane.schedule(0, group)
    return group, lanes


def test_select_measure_and_advance_stay_within_the_block_budget():
    cfg = preset("small").replace(ues_per_sector=30, ue_velocity=120.0,
                                  scheduler="PF", n_tti=3, seed=2)
    group, (lane,) = _lanes(cfg, ["PF"])
    assert len(group.blocks) >= 4
    bound = _PEAK_BUDGETS * engine._BLOCK_BYTES

    # a proportional-fair lane before its last TTI measures full tables
    assert lane.pairs is None
    assert _traced_peak(group.measure, [lane]) < bound
    assert _traced_peak(group.measure, [lane], True) < bound
    # advance rotates the bank's own arrays in place: no array is made
    assert _traced_peak(group.bank.advance) < 1024


def test_no_group_or_lane_array_spans_the_network():
    cfg = preset("small").replace(ues_per_sector=30, ue_velocity=120.0,
                                  n_tti=3, csi_period_tti=1, seed=2)
    group, lanes = _lanes(cfg, ["RR", "PF"])

    def tti():
        group.measure(lanes, select=True)
        for lane in lanes:
            lane.account()
        group.bank.advance()
        for lane in lanes:
            lane.schedule(1, group)

    # one TTI, a precoder update included, stays within the block budget
    assert _traced_peak(tti) < _PEAK_BUDGETS * engine._BLOCK_BYTES
    # between TTIs, only the bank holds per-link arrays; every other array
    # is per UE, per cell or per block
    matrix = max(cfg.n_rx, cfg.n_tx) ** 2 * np.dtype(np.complex64).itemsize
    network = len(group.xy) * cfg.n_rb * matrix
    for owner in (group, group.link, *lanes):
        for name, value in vars(owner).items():
            values = value.values() if isinstance(value, dict) else [value]
            for a in values:
                if name != "bank" and isinstance(a, np.ndarray):
                    assert a.nbytes < network, name


def test_select_picks_the_same_precoders_whatever_the_chunk_size(
        monkeypatch):
    cfg = preset("small").replace(ue_velocity=120.0, ue_polarization="XPOL",
                                  n_tti=3, csi_period_tti=1, seed=4)
    group = engine._Group(cfg)
    ue_bytes = max(_cov_bytes(group), group.links.n_keep * cfg.n_rb
                   * cfg.n_rx * cfg.n_tx * np.dtype(np.complex64).itemsize)
    want = None
    # blocks of 36, one UE a block, uneven blocks, and the whole network in
    # one block
    for per_block in (36, 1, 4, 13, 300):
        monkeypatch.setattr(engine, "_BLOCK_BYTES", per_block * ue_bytes)
        group, lanes = _lanes(cfg, ["RR", "PF"])
        group.measure(lanes, select=True)
        got = [lane.p_own.view(np.uint8) for lane in lanes]
        if want is None:
            # 105 UEs in blocks of 36
            assert len(group.blocks) == 3
            assert not np.array_equal(got[0], got[1])
            want = got
            continue
        assert max(b.ues.stop - b.ues.start for b in group.blocks) \
            == min(per_block, len(group.xy))
        for p_own, w in zip(got, want):
            assert np.array_equal(p_own, w)


def test_a_blocks_buffers_come_to_about_four_budgets():
    # 630 UEs with the paper geometry per UE: nine links of 50 RBs and 4x4
    # ports; the channel, precoded links, their conjugates and products
    # take about a budget each, the tap sums and specular terms the rest
    group = engine._Group(preset("small").replace(ues_per_sector=30))
    work = sum(a.nbytes for buffers in (group.work, group.link.work)
               for a in buffers.values())
    assert work <= 4.5 * 2 ** 20
    assert work <= 4.5 * engine._BLOCK_BYTES


def test_blocks_of_one_ue_and_odd_sizes_match_whole_blocks(monkeypatch):
    cfgs = [
        # 7 RBs, 3 receive ports and five links a UE: a one-UE block's
        # buffers hold odd counts of complex64 values, which selection
        # views as complex128
        preset("small").replace(n_tx=2, n_rx=3, n_rb=7, ues_per_sector=1,
                                n_strongest_interferers=4, n_tti=3,
                                csi_period_tti=1, ue_velocity=120.0),
        # one antenna, one RB and one link a UE: a one-UE block's rate
        # products hold a single element
        preset("small").replace(n_tx=1, n_rx=1, n_rb=1, ues_per_sector=1,
                                n_strongest_interferers=0, scheduler="RR",
                                ue_velocity=0.0, seed=5, n_tti=3),
    ]
    want = [engine.run_simulation(cfg) for cfg in cfgs]
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 1)
    assert [engine.run_simulation(cfg) for cfg in cfgs] == want


def test_advance_rewrites_the_banks_own_arrays():
    cfg = preset("small").replace(ue_velocity=120.0, n_tti=2)
    bank = engine._Group(cfg).bank
    arrays = bank.state, bank.rice_state
    want = bank.state * bank.step, bank.rice_state * bank.rice_step
    bank.advance()
    assert all(a is b for a, b in zip(arrays, (bank.state, bank.rice_state)))
    assert np.array_equal(bank.state, want[0])
    assert np.array_equal(bank.rice_state, want[1])


def test_a_moving_bank_keeps_only_its_sinusoids_and_a_few_values_a_link():
    cfg = preset("small").replace(ue_velocity=120.0)
    bank = engine._Group(cfg).bank
    arrays = [a for a in vars(bank).values() if isinstance(a, np.ndarray)]
    # the rotating phasors, plus 88 bytes a link (the array phasors, the
    # specular phasor and its step, and the two weights) and the small
    # mixing kernel: 93 bytes a link here; no tap sums, specular terms or
    # port couplings are kept
    assert sum(a.nbytes for a in arrays) <= bank.state.nbytes \
        + bank.step.nbytes + 96 * bank.n_links


def test_a_buffered_channel_equals_a_fresh_one_bit_for_bit():
    cfg = preset("small").replace(ue_velocity=120.0, n_tti=2)
    group = engine._Group(cfg)
    work = group.work
    for block in group.blocks:
        # dirty buffers, as the last block leaves them
        for buf in work.values():
            buf[:] = np.nan
        h = group.bank.current(block.links, work)
        assert np.shares_memory(h, work["h"])
        fresh = group.bank.current(block.links)
        assert np.array_equal(np.ascontiguousarray(h).view(np.uint8),
                              np.ascontiguousarray(fresh).view(np.uint8))
