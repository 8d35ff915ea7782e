"""Codebook structure, MMSE SINR, precoder choice and truncated Shannon."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mmwsim import (LinkAbstractionError, ScenarioConfig, build_codebook,
                    noise_power_w, sinr_to_rate)
from mmwsim.config import TTI_DURATION
from mmwsim.engine import _Group, _Linkset, _ue_blocks
from mmwsim.link import mmse_batch_last, mmse_sinr_from_covariance, \
    stack_codebook


def test_noise_power_oracle():
    # -174 dBm/Hz + 10 log10(10 MHz) + 9 dB NF = -95 dBm
    assert noise_power_w(10e6, 9.0) == pytest.approx(10.0 ** (-125.0 / 10.0))
    assert noise_power_w(180e3, 9.0) == pytest.approx(
        10.0 ** ((-174.0 + 10.0 * math.log10(180e3) + 9.0 - 30.0) / 10.0))
    with pytest.raises(LinkAbstractionError):
        noise_power_w(0.0, 9.0)


def test_codebook_sizes_and_rank_order():
    assert [p.shape for p in build_codebook(1)] == [(1, 1)]
    cb4 = build_codebook(4)
    assert len(cb4) == 32
    ranks = [p.shape[1] for p in cb4]
    assert ranks == sorted(ranks)
    assert [ranks.count(r) for r in (1, 2, 3, 4)] == [8, 8, 8, 8]
    with pytest.raises(LinkAbstractionError):
        build_codebook(3)


def test_codebook_entries_are_orthonormal():
    for n_tx in (2, 4):
        for p in build_codebook(n_tx):
            gram = p.conj().T @ p
            assert np.allclose(gram, np.eye(p.shape[1]), atol=1e-12)


@pytest.mark.parametrize("n_tx", [2, 4])
def test_codebook_closed_under_alternating_port_sign_flip(n_tx):
    # flipping the sign of every odd port (what a slant-swapped receiver
    # does to the +/- polarized port pair) maps each entry onto another
    # entry: the beam index shifts by n_tx/2, partial-rank windows slide,
    # and the full-rank matrix reorders its columns.
    cb = build_codebook(n_tx)
    flip = np.diag([(-1.0) ** n for n in range(n_tx)]).astype(complex)
    for i, entry in enumerate(cb):
        flipped = flip @ entry
        if entry.shape[1] < n_tx:
            hits = [j for j, other in enumerate(cb)
                    if other.shape == entry.shape
                    and np.allclose(flipped, other, atol=1e-12)]
            assert len(hits) == 1, f"entry {i} has no unique image"
        else:
            perm = [(k + n_tx // 2) % n_tx for k in range(n_tx)]
            assert np.allclose(flipped, entry[:, perm], atol=1e-12)


def test_stack_codebook_pads_with_inert_zero_columns():
    cb = build_codebook(4)
    padded, ranks = stack_codebook(cb, 4)
    assert padded.shape == (32, 4, 4)
    assert np.array_equal(ranks, [p.shape[1] for p in cb])
    for i, p in enumerate(cb):
        assert np.array_equal(padded[i, :, :ranks[i]], p)
        assert np.all(padded[i, :, ranks[i]:] == 0)


def test_mmse_sinr_scalar_matches_closed_form():
    # |a|^2 = 4, noise 1: u = 4/5, sinr = 4
    a = np.array([[2.0 + 0j]])
    cov = np.array([[5.0 + 0j]])
    assert mmse_sinr_from_covariance(a, cov) == pytest.approx([4.0])


def test_mmse_sinr_orthogonal_layers_do_not_interfere():
    p = 9.0
    eff = math.sqrt(p) * np.eye(2, dtype=complex)
    cov = (1.0 + p) * np.eye(2, dtype=complex)   # noise + both layers
    sinr = mmse_sinr_from_covariance(eff, cov)
    assert sinr == pytest.approx([p, p])


def test_mmse_sinr_zero_columns_score_zero():
    eff = np.zeros((2, 2), dtype=complex)
    eff[0, 0] = 1.0
    cov = np.eye(2, dtype=complex) * 2.0
    sinr = mmse_sinr_from_covariance(eff, cov)
    assert sinr[1] == 0.0


@pytest.mark.parametrize("n_rx,n_layers", [(1, 1), (2, 2), (4, 4), (4, 2)])
def test_batch_last_mmse_matches_the_per_matrix_inverse(n_rx, n_layers):
    # random Hermitian covariances with the columns' own signal included,
    # conditioned up to about 1e6; the factorisation re-associates the
    # arithmetic, so u agrees to a tolerance set by complex128 and the
    # condition number, not bit for bit
    rng = np.random.default_rng(n_rx * 10 + n_layers)
    batch = (3, 7)
    eff = rng.standard_normal((n_rx, n_layers) + batch) \
        + 1j * rng.standard_normal((n_rx, n_layers) + batch)
    eff *= 10.0 ** rng.uniform(-3.0, 3.0, batch)
    eff[:, -1, 0] = 0.0                  # a zero column scores zero
    noise = rng.standard_normal((n_rx, n_rx + 1) + batch) \
        + 1j * rng.standard_normal((n_rx, n_rx + 1) + batch)
    cov = np.einsum("ik...,jk...->ij...", eff, eff.conj()) \
        + np.einsum("ik...,jk...->ij...", noise, noise.conj())
    per_matrix = np.moveaxis(cov, (0, 1), (-2, -1))
    sinr = mmse_sinr_from_covariance(np.moveaxis(eff, (0, 1), (-2, -1)),
                                     per_matrix)
    want = np.moveaxis(sinr / (1.0 + sinr), -1, 0)
    low = np.tril(np.ones((n_rx, n_rx), bool))[:, :, None, None]
    u = mmse_batch_last(eff, np.where(low, cov, np.nan))
    assert u.shape == want.shape
    assert np.all(u[-1, 0] == 0.0)
    assert u == pytest.approx(want, rel=1e-9, abs=1e-12)


def _group(n_keep=1, **changes):
    """The link kernels of an engine group (one site, ``n_keep`` links per
    UE) and a UE block for one UE on one RB, with links to cells 0
    (serving) to ``n_keep - 1``."""
    cfg = ScenarioConfig(n_site_rings=0, ues_per_sector=1, n_rb=1,
                         n_strongest_interferers=n_keep - 1, **changes)
    links = _Linkset(cell=np.arange(n_keep), ue=np.zeros(n_keep, dtype=int),
                     n_keep=n_keep, serving=np.zeros(1, dtype=int),
                     amplitude=np.ones(n_keep),
                     los=np.zeros(n_keep, dtype=bool))
    (block,) = _ue_blocks(links, 1)
    return _Group(cfg), block


def test_compute_sinr_with_one_interferer_scalar_case():
    # 1x1, serving gain 4 and interferer gain 2 in noise units:
    # sinr = 4 / (1 + 2)
    group, block = _group(n_keep=2, n_tx=1, n_rx=1)
    unit = math.sqrt(group.noise)
    h = (np.array([2.0, 1.0]) * unit).astype(np.complex64).reshape(2, 1, 1, 1)
    psched = np.array([3.0, math.sqrt(2.0)], dtype=np.complex64) \
        .reshape(2, 1, 1, 1)            # (cell, rb, tx, layer)
    port = np.ones((2, 1, 1, 1), np.complex64)   # uncoupled receive port
    lane = SimpleNamespace(pairs=None, psched=psched, sn_scale=1.0,
                           r_int=np.empty((1, 1, 1, 1), np.complex64),
                           p_own=np.ones((1, 1, 1), np.complex64),
                           csi_rates=np.empty((1, 1)))
    group.interference(lane, h, port, block)
    # the serving cell's own transmission is left out
    assert lane.r_int.ravel() == pytest.approx([2.0 * group.noise], rel=1e-5)
    group.rates(lane, block, h[:1])
    assert lane.csi_rates.ravel() == pytest.approx(
        [sinr_to_rate(4.0 / 3.0, group.cfg.rb_bandwidth, TTI_DURATION)],
        rel=1e-5)


def _select(h):
    """Codebook index and rank the engine picks for one 4x4 channel, given
    in units where the full-power SNR of a unit entry is 1e4."""
    group, block = _group()
    p_rb = group.cfg.bs_tx_power / group.cfg.n_rb
    scale = 100.0 * math.sqrt(group.noise / p_rb)
    h_serv = (scale * np.asarray(h)).astype(np.complex64).reshape(1, 1, 4, 4)
    lane = SimpleNamespace(sn_scale=1.0,
                           r_int=np.zeros((1, 1, 4, 4), np.complex64),
                           p_own=np.empty((1, 4, 4), np.complex64))
    group.select([lane], block, h_serv)
    (p_own,) = lane.p_own
    idx = [np.array_equal(c, p_own) for c in group.cand].index(True)
    # the rank is the number of non-zero columns of the padded entry
    return idx, np.count_nonzero(p_own.any(axis=0))


def test_select_precoder_prefers_low_rank_on_rank_one_channels():
    h = np.zeros((4, 4))
    h[0, 0] = 1.0                        # rank-one, high SNR
    assert _select(h)[1] == 1


def test_select_precoder_uses_full_rank_on_clean_identity_channels():
    assert _select(np.eye(4))[1] == 4


def test_select_precoder_ties_resolve_to_first_entry():
    assert _select(np.zeros((4, 4)))[0] == 0


def test_sinr_to_rate_oracle_and_cap():
    # 1 ms * 180 kHz * 0.6 * log2(2) = 108 bits
    assert sinr_to_rate(1.0, 180e3, 1e-3) == pytest.approx(108.0)
    # cap: 1 ms * 180 kHz * 7.4 = 1332 bits
    assert sinr_to_rate(1e12, 180e3, 1e-3) == pytest.approx(1332.0)
    assert sinr_to_rate(0.0, 180e3, 1e-3) == 0.0
    rates = sinr_to_rate(np.array([0.0, 1.0]), 180e3, 1e-3)
    assert rates == pytest.approx([0.0, 108.0])
    with pytest.raises(LinkAbstractionError):
        sinr_to_rate(-0.1, 180e3, 1e-3)


def test_sinr_to_rate_monotone_below_cap():
    sinr = np.linspace(0.0, 50.0, 100)
    rates = sinr_to_rate(sinr, 180e3, 1e-3)
    assert np.all(np.diff(rates) > 0)
