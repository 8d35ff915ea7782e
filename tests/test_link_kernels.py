"""The engine's batched link kernels against the per-matrix forms they replace.

The oracles below are the engine's former expressions: one tensordot for
tap mixing, one 4x4 product per (link, RB) for precoding, and per-matrix
effective channels for rates and precoder selection. The batched kernels
must reproduce them bit for bit (``np.array_equal``), not within a
tolerance, because proportional-fair scheduling turns last-bit differences
into different RB grants.
"""

import numpy as np
import pytest

import mmwsim.engine as engine
import mmwsim.link as link
from mmwsim import preset
from mmwsim.channel import freq_mixing_kernel, mix_taps
from mmwsim.config import TTI_DURATION
from mmwsim.link import build_codebook, mmse_sinr_from_covariance, \
    sinr_to_rate


def mix_taps_oracle(kernel, taps):
    """Each row of the taps mixed as a gemm of two rows or more mixes it:
    the taps are stacked twice, since a one-row product would run as a
    gemv, whose bits differ."""
    kern = kernel.astype(taps.real.dtype)
    out = np.tensordot(np.concatenate([taps, taps]), kern, axes=([1], [0]))
    return np.moveaxis(out[:len(taps)], -1, 1)


def interference_oracle(links, h, psched):
    starts = np.arange(0, links.n_links, links.n_keep)
    b = h @ psched[links.cell]
    g = b @ b.conj().swapaxes(-1, -2)
    total = np.add.reduceat(g, starts, axis=0)
    return total - g[starts]


def rates_oracle(layer, h_serv, r_int, p_own, sn_scale):
    eff = h_serv @ p_own[:, None]
    own = eff @ eff.conj().swapaxes(-1, -2)
    cov = layer._with_noise(r_int + own, sn_scale)
    sinr = mmse_sinr_from_covariance(eff, cov)
    cfg = layer.cfg
    return sinr_to_rate(sinr, cfg.rb_bandwidth, TTI_DURATION,
                        cfg.shannon_efficiency,
                        cfg.spectral_efficiency_cap).sum(axis=-1)


def select_oracle(layer, h_serv, r_int, sn_scale):
    h_sel = h_serv[:, layer.select_rb]
    eff = h_sel[:, None] @ layer.cand[None, :, None]
    own = eff @ eff.conj().swapaxes(-1, -2)
    base = layer._with_noise(r_int[:, layer.select_rb], sn_scale)
    sinr = mmse_sinr_from_covariance(eff, base[:, None] + sn_scale * own)
    score = np.log2(1.0 + sinr).sum(axis=(2, 3))
    best = score.max(axis=1, keepdims=True)
    return np.argmax(score >= best - link._SELECT_MARGIN, axis=1)


@pytest.mark.parametrize("n_rb", [1, 7, 50])
@pytest.mark.parametrize("n_rx,n_tx", [(1, 1), (1, 4), (2, 2), (4, 4)])
@pytest.mark.parametrize("n_links", [1, 2, 75, 300])
def test_mix_taps_matches_tensordot(n_rb, n_rx, n_tx, n_links):
    # 75 links x 16 ports leaves a one-row tail after 109-row chunks, and
    # one link of 1 x 1 ports is a lone row
    kernel = freq_mixing_kernel(n_rb, 5)
    rng = np.random.default_rng(n_links)
    shape = (n_links, kernel.shape[0], n_rx, n_tx)
    taps = (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)).astype(np.complex64)
    assert np.array_equal(mix_taps(taps, kernel),
                          mix_taps_oracle(kernel, taps))
    taps64 = taps.astype(np.complex128)
    assert np.array_equal(mix_taps(taps64, kernel),
                          mix_taps_oracle(kernel, taps64))


def test_segment_sums_match_reduceat_bit_for_bit():
    # every branch of numpy's pairwise sum: under 4 items, blocks of 4 up
    # to 64, and split halves above; signed zeros included
    rng = np.random.default_rng(11)
    for n_keep in range(1, 131):
        shape = (5 * n_keep, 3, 2, 2)
        mag = 10.0 ** rng.uniform(-8.0, 2.0, shape)
        g = (mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))) \
            .astype(np.complex64)
        flat = g.reshape(-1)
        flat[rng.integers(0, flat.size, 20)] = complex(-0.0, -0.0)
        flat[rng.integers(0, flat.size, 20)] = 0.0
        want = np.add.reduceat(g, np.arange(0, len(g), n_keep), axis=0)
        got = link._segment_sums(g, n_keep)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
            n_keep


def _link_layer(cfg, polarizations):
    """The engine's shared group for ``cfg`` and one lane per polarization,
    built as a run builds them."""
    group = engine._Group(cfg)
    return group, [engine._Lane(cfg.replace(ue_polarization=pol), group)
                   for pol in polarizations]


@pytest.mark.parametrize("n_rx", [1, 2, 4])
@pytest.mark.parametrize("n_tx", [1, 2, 4])
def test_streamed_link_layer_matches_per_matrix_oracles(n_tx, n_rx,
                                                        monkeypatch):
    cfg = preset("small").replace(
        n_tx=n_tx, n_rx=n_rx, ues_per_sector=1, n_strongest_interferers=4,
        ue_velocity=120.0, seed=3)
    n_keep = 5
    # a UE's channel matrices and its candidate covariances in selection
    ue_bytes = max(n_keep * cfg.n_rb * n_rx * n_tx * 8,
                   len(build_codebook(n_tx)) * 5 * n_rx * n_rx * 16)
    # 21 UEs in blocks of 4: five full blocks and an uneven last one
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 4 * ue_bytes + 1)
    group, lanes = _link_layer(cfg, ("LPOL", "XPOL"))
    links, bank = group.links, group.bank
    assert links.n_keep == n_keep
    assert [b.ues.stop - b.ues.start for b in group.blocks] \
        == [4, 4, 4, 4, 4, 1]

    rng = np.random.default_rng(n_tx * 10 + n_rx)
    cand = group.link.cand
    for lane in lanes:
        lane.p_own[:] = cand[rng.integers(0, len(cand),
                                          links.serving.shape[0])]
        lane.psched = cand[rng.integers(0, len(cand), (group.n_cells,
                                                        cfg.n_rb))]
        idle = int(links.cell[1])   # an interferer silent as if it had no UEs
        lane.psched[idle] = 0.0

    # the pass rates every block of every lane: record the block's serving
    # channel, covariances and bits as it does
    seen = []
    real_rates = link._LinkLayer.rates

    def rates(layer, lane, block, h_serv):
        real_rates(layer, lane, block, h_serv)
        n = block.ues.stop - block.ues.start
        seen.append((h_serv.copy(), lane.r_int[:n].copy(),
                     lane.csi_rates[block.ues].copy()))

    monkeypatch.setattr(link._LinkLayer, "rates", rates)
    for tti in range(2):
        if tti:
            bank.advance()
        seen.clear()
        p_own = [lane.p_own.copy() for lane in lanes]
        group.measure(lanes, select=True)
        for i, lane in enumerate(lanes):
            # block by block, one lane after the other
            got = [np.concatenate(a) for a in zip(*seen[i::len(lanes)])]
            h = bank.current(slice(None)) \
                * bank.coupling(lane.pol, slice(None))[:, None, None]
            h_serv = h[::n_keep]
            r_int = interference_oracle(links, h, lane.psched)
            assert np.array_equal(got[0], h_serv)
            assert np.array_equal(got[1], r_int)
            assert np.array_equal(got[2], rates_oracle(
                group.link, h_serv, r_int, p_own[i], lane.sn_scale))
            assert np.array_equal(
                lane.p_own,
                cand[select_oracle(group.link, h_serv, r_int, lane.sn_scale)])


def test_select_in_chunks_matches_one_pass(monkeypatch):
    cfg = preset("small").replace(ues_per_sector=2, ue_velocity=60.0)
    # 42 UEs in blocks of 36 and 6
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 36 * 9 * 50 * 16 * 8)
    p_own = []
    for gemm_mnk in (engine.SERIAL_GEMM_MNK, 3 * 5 * 4 * 4 * 4):
        # three UEs per block: 5 sampled RBs x 4 rx rows, each 4 tx x rank 4
        monkeypatch.setattr(engine, "SERIAL_GEMM_MNK", gemm_mnk)
        group, lanes = _link_layer(cfg, ("LPOL",))
        group.bootstrap(lanes)
        p_own.append((len(group.blocks), lanes[0].p_own))
    (n_whole, whole), (n_small, small) = p_own
    assert (n_whole, n_small) == (2, 14)
    assert np.array_equal(whole.view(np.uint8), small.view(np.uint8))


def scores_oracle(eff, base, sn_scale):
    """Every (ue, entry) pair's exact selection score in one evaluation, as
    the engine scored every pair before it screened them: per-matrix own
    covariances, and complex128 covariances over (entry, ue, rb) memory
    order."""
    n_ues, n_cand = eff.shape[:2]
    own = eff @ np.conjugate(eff).swapaxes(-1, -2)
    cov = np.empty((n_cand, n_ues) + own.shape[2:], np.complex128) \
        .transpose(1, 0, 2, 3, 4)
    np.multiply(own, sn_scale, out=cov)
    cov += base[:, None]
    sinr = mmse_sinr_from_covariance(eff, cov)
    return np.log2(1.0 + sinr).sum(axis=(2, 3))


def _bootstrap_choice(group, lane):
    """The precoders the CSI bootstrap picks for ``lane``, by the oracles
    over the whole network."""
    bank, links = group.bank, group.links
    h = bank.current(slice(None)) \
        * bank.coupling(lane.pol, slice(None))[:, None, None]
    psched = np.broadcast_to(group.iso, (group.n_cells, group.cfg.n_rb)
                             + group.iso.shape)
    r_int = interference_oracle(links, h, psched)
    return group.link.cand[select_oracle(group.link, h[::links.n_keep],
                                         r_int, lane.sn_scale)]


def test_exact_scores_of_a_subset_equal_the_whole_evaluation():
    cfg = preset("small").replace(ue_velocity=120.0, n_tti=3, seed=6)
    group, (lane,) = _link_layer(cfg, ("XPOL",))
    group.bootstrap([lane])
    block = group.blocks[1]
    n = block.ues.stop - block.ues.start
    h = group.bank.current(block.links, group.work)
    port = group.bank.coupling(lane.pol, block.links)[:, None, None]
    n_keep = group.links.n_keep
    h_serv = np.multiply(h[::n_keep], port[::n_keep], out=group.h_serv[:n])
    layer = group.link
    layer.interference(lane, h, port, block)
    eff, _ = layer._candidates(h_serv[:, layer.select_rb])
    base = layer._with_noise(lane.r_int[:n, layer.select_rb], lane.sn_scale)
    want = scores_oracle(eff, base, lane.sn_scale)

    whole = np.full(want.shape, -np.inf)
    layer._score(whole, np.ones(want.shape, bool), eff, base, lane.sn_scale)
    assert np.array_equal(whole.view(np.uint64), want.view(np.uint64))
    rng = np.random.default_rng(0)
    for share in (0.05, 0.3):
        pairs = rng.random(want.shape) < share
        pairs[3, 7] = True
        part = np.full(want.shape, -np.inf)
        layer._score(part, pairs, eff, base, lane.sn_scale)
        assert np.array_equal(part[pairs].view(np.uint64),
                              want[pairs].view(np.uint64))
        assert np.all(part[~pairs] == -np.inf)


def test_a_band_that_keeps_every_entry_picks_the_same_precoders(
        monkeypatch):
    cfg = preset("small").replace(ue_velocity=120.0, n_tti=3, seed=2)
    p_own = []
    for band in (link._SCREEN_BAND, 1e9):
        monkeypatch.setattr(link, "_SCREEN_BAND", band)
        group, lanes = _link_layer(cfg, ("LPOL", "XPOL"))
        group.bootstrap(lanes)
        stats = group.link.select_stats
        p_own.append([lane.p_own.view(np.uint8) for lane in lanes])
    # every entry survived the wide band
    assert stats["survivors"] == stats["decisions"] * len(group.link.cand)
    assert stats["fallbacks"] == 0
    for want, got in zip(*p_own):
        assert np.array_equal(got, want)


def test_a_screen_that_misses_falls_back_to_every_entry(monkeypatch):
    cfg = preset("small").replace(ue_velocity=120.0, n_tti=3, seed=4)
    real_screen = link._LinkLayer._screen

    def screen(layer, *args):
        # the first UE of each block screens its worst entry above its best
        # by twice the band, so the entries near its best drop out
        s = real_screen(layer, *args)
        best = s[0].max()
        s[0, s[0].argmin()] = best \
            + 2 * link._SCREEN_BAND * max(abs(best), 1.0)
        return s

    monkeypatch.setattr(link._LinkLayer, "_screen", screen)
    group, (lane,) = _link_layer(cfg, ("XPOL",))
    group.bootstrap([lane])
    assert group.link.select_stats["fallbacks"] == len(group.blocks)
    assert np.array_equal(lane.p_own, _bootstrap_choice(group, lane))


def test_the_trend_sweep_selects_without_fallbacks(trend_sweep):
    # ten (velocity, seed) groups: none falls back, and the survivors'
    # screened scores stay within a hundredth of the band of their exact ones
    assert len(trend_sweep.select_stats) == 10
    for stats in trend_sweep.select_stats:
        assert stats["decisions"] > 0
        assert stats["fallbacks"] == 0
        assert stats["screen gap"] < link._SCREEN_BAND / 100
