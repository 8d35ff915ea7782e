"""Block-bounded working memory: the link layer's per-TTI steps allocate a
bounded multiple of the UE-block budget ``_BLOCK_BYTES`` whatever the
network size, the channel bank keeps only its rotating sinusoids and a
few values per link, its ``advance`` allocates a bounded chunk's worth,
and the budget partitions the work without changing a bit."""

import tracemalloc

import numpy as np

import mmwsim.channel as channel
import mmwsim.engine as engine
from mmwsim import preset

# select's chunk holds its candidate covariances, their inverses and a few
# products of the same size: about five and a half budgets at most
_PEAK_BUDGETS = 6


def _cov_bytes(group):
    """Bytes of one UE's complex128 candidate covariances in ``select``."""
    cfg = group.cfg
    return len(group.cand) * len(group.select_rb) * cfg.n_rx * cfg.n_rx \
        * np.dtype(np.complex128).itemsize


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
    group = engine._Group(cfg, [cfg.ue_polarization])
    lanes = [engine._Lane(cfg.replace(scheduler=s), group)
             for s in schedulers]
    group.measure(lanes[:1], group.isotropic_psched())
    group.select(lanes[:1])
    lanes[0].csi_rates = group.rate_table(lanes[0])
    for lane in lanes[1:]:
        lane.p_own, lane.csi_rates = lanes[0].p_own, lanes[0].csi_rates
    group.bank.advance()
    for lane in lanes:
        lane.schedule(0, group)
    return group, lanes


def test_select_measure_and_advance_stay_within_the_block_budget():
    cfg = preset("small").replace(ues_per_sector=30, ue_velocity=120.0,
                                  scheduler="PF", n_tti=3, seed=2)
    group, (lane,) = _lanes(cfg, ["PF"])
    n_ues = len(group.xy)
    assert -(-n_ues // (engine._BLOCK_BYTES // _cov_bytes(group))) >= 4
    bound = _PEAK_BUDGETS * engine._BLOCK_BYTES

    # a proportional-fair lane before its last TTI measures full tables
    assert lane.pairs is None
    assert _traced_peak(group.measure, [lane]) < bound
    assert _traced_peak(group.select, [lane]) < bound
    # advance couples the ports one chunk of links at a time, into the
    # bank's own arrays: 275 bytes per chunk link measured (282 KB here,
    # where coupling all 5,670 links at once took 1.2 MB)
    assert group.links.n_links > 4 * channel._COUPLING_CHUNK
    assert _traced_peak(group.bank.advance) \
        < 300 * channel._COUPLING_CHUNK


def test_select_picks_the_same_precoders_whatever_the_chunk_size(
        monkeypatch):
    cfg = preset("small").replace(ue_velocity=120.0, ue_polarization="XPOL",
                                  n_tti=3, csi_period_tti=1, seed=4)
    group, lanes = _lanes(cfg, ["RR", "PF"])
    group.measure(lanes)
    sizes = []
    real = engine._Group._candidates

    def candidates(self, h_sel):
        sizes.append(len(h_sel))
        return real(self, h_sel)

    monkeypatch.setattr(engine._Group, "_candidates", candidates)
    group.select(lanes)
    want = [lane.p_own for lane in lanes]
    # 105 UEs of 51 a budget: three even chunks, no short tail
    assert sizes == [35, 35, 35]
    assert not np.array_equal(want[0], want[1])

    # one UE a chunk, uneven chunks, and one chunk capped only by the gemm
    for per_chunk in (1, 4, 13, 300):
        sizes.clear()
        monkeypatch.setattr(engine, "_BLOCK_BYTES",
                            per_chunk * _cov_bytes(group))
        group.select(lanes)
        assert max(sizes) <= per_chunk and sum(sizes) == len(group.xy)
        for lane, p_own in zip(lanes, want):
            assert np.array_equal(lane.p_own.view(np.uint8),
                                  p_own.view(np.uint8))


def test_advance_rewrites_the_banks_own_arrays():
    cfg = preset("small").replace(ue_velocity=120.0, n_tti=2)
    bank = engine._Group(cfg, ["LPOL", "XPOL"]).bank
    arrays = bank.state, bank.rice_state, bank.port["LPOL"], bank.port["XPOL"]
    want = bank.state * bank.step, bank.rice_state * bank.rice_step
    bank.advance()
    assert all(a is b for a, b in zip(arrays, (
        bank.state, bank.rice_state, bank.port["LPOL"], bank.port["XPOL"])))
    assert np.array_equal(bank.state, want[0])
    assert np.array_equal(bank.rice_state, want[1])


def test_a_moving_bank_keeps_only_its_sinusoids_and_a_few_values_a_link():
    cfg = preset("small").replace(ue_velocity=120.0)
    bank = engine._Group(cfg, ["LPOL", "XPOL"]).bank
    arrays = [a for a in vars(bank).values() if isinstance(a, np.ndarray)]
    arrays += bank.port.values()
    # the rotating phasors, plus about 120 bytes a link: the array
    # phasors, the specular phasor and its step, the two weights and the
    # two port couplings; no tap sums or specular terms are kept
    assert sum(a.nbytes for a in arrays) <= bank.state.nbytes \
        + bank.step.nbytes + 256 * bank.n_links


def test_a_buffered_channel_equals_a_fresh_one_bit_for_bit():
    cfg = preset("small").replace(ue_velocity=120.0, n_tti=2)
    group = engine._Group(cfg, ["LPOL"])
    work = group._work()
    for block in group.blocks:
        # dirty buffers, as the last block leaves them
        for buf in work.values():
            buf[:] = np.nan
        h = group.bank.current(block.links, work)
        assert np.shares_memory(h, work["h"])
        fresh = group.bank.current(block.links)
        assert np.array_equal(np.ascontiguousarray(h).view(np.uint8),
                              np.ascontiguousarray(fresh).view(np.uint8))
