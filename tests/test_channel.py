"""Pathloss, LOS probability, Doppler and the sum-of-sinusoids fading bank."""

import math

import numpy as np
import pytest

from mmwsim import (ChannelModelError, doppler_frequency, generate_fading,
                    los_probability, pathloss_uma)
from mmwsim.channel import (FadingDesign, LargeScaleState, SosProcess,
                            assemble_channel, depolarization_coherence,
                            freq_mixing_kernel)


def test_doppler_frequency_oracle():
    # (120 / 3.6) m/s * 28 GHz / 2.998e8 m/s
    assert doppler_frequency(120.0, 28e9) == pytest.approx(3113.19, abs=0.01)
    assert doppler_frequency(0.0, 28e9) == 0.0
    with pytest.raises(ChannelModelError):
        doppler_frequency(-1.0, 28e9)


def test_los_probability_values_and_shape():
    assert los_probability(10.0) == 1.0
    assert los_probability(18.0) == 1.0
    # 18/100 + exp(-100/63) * (1 - 18/100)
    assert los_probability(100.0) == pytest.approx(0.3476708, abs=1e-6)
    d = np.linspace(18.0, 2000.0, 200)
    p = los_probability(d)
    assert p.shape == d.shape
    assert np.all(np.diff(p) <= 0)          # monotone decreasing
    assert np.all((p > 0) & (p <= 1.0))


def test_pathloss_los_oracle_at_100m_slant_range():
    # d2d chosen so the 3D distance is exactly 100 m with the 23.5 m
    # height difference: 28 + 22*log10(100) + 20*log10(28) = 100.9432 dB
    d2d = math.sqrt(100.0 ** 2 - 23.5 ** 2)
    pl = pathloss_uma(d2d, 28e9, 25.0, 1.5, True)
    assert pl == pytest.approx(100.9432, abs=1e-3)


def test_pathloss_monotone_in_distance():
    d = np.linspace(10.0, 1000.0, 300)
    for los in (True, False):
        pl = pathloss_uma(d, 28e9, 25.0, 1.5, los)
        assert np.all(np.diff(pl) > 0)


def test_pathloss_continuous_at_the_breakpoint():
    # dbp = 4 (h_bs - 1)(h_ut - 1) fc / c = 4483 m at 28 GHz, 25 m / 1.5 m
    dbp = 4.0 * 24.0 * 0.5 * 28e9 / 2.998e8
    below = pathloss_uma(np.nextafter(dbp, 0.0), 28e9, 25.0, 1.5, True)
    above = pathloss_uma(np.nextafter(dbp, np.inf), 28e9, 25.0, 1.5, True)
    assert below == pytest.approx(above, abs=1e-9)


def test_pathloss_nlos_floored_by_los():
    d = np.linspace(10.0, 1000.0, 50)
    pl_los = pathloss_uma(d, 28e9, 25.0, 1.5, True)
    pl_nlos = pathloss_uma(d, 28e9, 25.0, 1.5, False)
    assert np.all(pl_nlos >= pl_los)


def test_pathloss_validity_errors():
    with pytest.raises(ChannelModelError, match="10 m"):
        pathloss_uma(5.0, 28e9, 25.0, 1.5, True)
    with pytest.raises(ChannelModelError, match="h_bs"):
        pathloss_uma(100.0, 28e9, 1.5, 25.0, True)


def test_large_scale_amplitude_is_field_quantity():
    ls = LargeScaleState(pathloss_db=100.0, shadowing_db=6.0,
                         antenna_gain_db=14.0, los=True)
    assert ls.amplitude == pytest.approx(10.0 ** (-92.0 / 20.0))


def test_freq_mixing_kernel_columns_unit_norm():
    for n_rb, cb in ((50, 5), (50, 50), (6, 2), (1, 5)):
        k = freq_mixing_kernel(n_rb, cb)
        n_taps = min(n_rb, math.ceil(n_rb / cb) + 2)
        assert k.shape == (n_taps, n_rb)
        assert np.allclose(np.linalg.norm(k, axis=0), 1.0)


def test_freq_mixing_kernel_correlation_decays_with_rb_distance():
    k = freq_mixing_kernel(50, 5)
    corr = k.T @ k        # RB-to-RB correlation, unit diagonal
    assert np.allclose(np.diag(corr), 1.0)
    assert corr[0, 3] > corr[0, 10] > corr[0, 40]


def test_sinusoid_bank_phasors_and_frozen_zero_doppler():
    design = FadingDesign(f_d=100.0, n_tti=10, tti=1e-3, n_rb=1)
    state0, step = design.draw_sinusoids(np.random.default_rng(2), 8)
    assert state0.shape == step.shape == (8, design.n_sinusoids)
    assert np.allclose(np.abs(state0), 1.0 / math.sqrt(design.n_sinusoids))
    assert np.allclose(np.abs(step), 1.0)

    frozen = FadingDesign(f_d=0.0, n_tti=10, tti=1e-3, n_rb=1)
    _, step0 = frozen.draw_sinusoids(np.random.default_rng(2), 8)
    assert np.all(step0 == 1.0)


def test_sos_process_recurrence_matches_direct_evaluation():
    design = FadingDesign(f_d=300.0, n_tti=6, tti=1e-3, n_rb=1)
    state0, step = design.draw_sinusoids(np.random.default_rng(4), 5)
    proc = SosProcess(state0.copy(), step)   # the process owns its state
    for t in range(6):
        direct = (state0 * step ** t).sum(axis=-1)
        assert np.allclose(proc.current(), direct)
        proc.advance()


def test_generate_fading_shapes_and_static_limit():
    fading = generate_fading(0.0, n_tti=8, tti=1e-3, n_rb=6, n_rx=2, n_tx=4,
                             rng=np.random.default_rng(1))
    assert fading.gains.shape == (8, 6, 2, 4)
    # f_d = 0: every TTI identical
    assert np.allclose(fading.gains, fading.gains[0])


def test_generate_fading_mean_power_near_unity():
    rng = np.random.default_rng(6)
    fading = generate_fading(1000.0, n_tti=4, tti=1e-3, n_rb=1,
                             n_rx=40, n_tx=40, rng=rng)
    power = np.mean(np.abs(fading.gains) ** 2)
    assert power == pytest.approx(1.0, abs=0.05)


def test_generate_fading_rician_specular_dominates_at_high_k():
    rng = np.random.default_rng(8)
    fading = generate_fading(100.0, n_tti=5, tti=1e-3, n_rb=10,
                             rician_k_db=60.0, n_rx=4, n_tx=4, rng=rng)
    h = fading.gains[0]
    # the specular term is flat across RBs and rank one
    assert np.allclose(h, h[0], atol=1e-2)
    s = np.linalg.svd(h[0], compute_uv=False)
    assert s[1] / s[0] < 1e-2
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.05)


def test_depolarization_coherence_limits():
    assert depolarization_coherence(0.0, 30e-6) == 1.0
    # exp(-(2 pi * 3113.19 * 30e-6)^2 / 2)
    assert depolarization_coherence(3113.19, 30e-6) \
        == pytest.approx(0.841828, abs=1e-5)
    assert depolarization_coherence(1e6, 30e-6) < 1e-10


def test_assemble_channel_applies_amplitude_and_port_coupling():
    ls = LargeScaleState(pathloss_db=80.0, shadowing_db=0.0,
                         antenna_gain_db=0.0, los=False)
    fading = generate_fading(0.0, n_tti=1, tti=1e-3, n_rb=2, n_rx=2, n_tx=4,
                             rng=np.random.default_rng(3))
    coupling = np.array([[0.5, -0.5], [0.1, 0.2]], dtype=complex)
    h = assemble_channel(ls, fading, coupling, tti=0, rb=1)
    base = fading.gains[0, 1]
    # 2x2 coupling: receiver-axis row tiled over the +/- port parity
    ports = coupling[0, [0, 1, 0, 1]]
    assert np.allclose(h, ls.amplitude * base * ports[None, :])

    vec = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    h_vec = assemble_channel(ls, fading, vec, tti=0, rb=0)
    assert np.allclose(h_vec, ls.amplitude * fading.gains[0, 0] * vec[None, :])

    with pytest.raises(ChannelModelError, match="port count"):
        assemble_channel(ls, fading, np.ones(3, dtype=complex), 0, 0)
