"""Pathloss, LOS probability, Doppler and the sum-of-sinusoids fading bank."""

import math
import sys
import threading

import numpy as np
import pytest

import mmwsim.channel as channel
from mmwsim import (ChannelModelError, ScenarioConfig, doppler_frequency,
                    los_probability, pathloss_uma, preset)
from mmwsim.channel import (N_SINUSOIDS, _PHASOR_CHUNK, _ChannelBank,
                            depolarization_coherence, freq_mixing_kernel,
                            sinusoids)
from mmwsim.engine import _build_linkset, _Linkset


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
    # every link carries the field amplitude of its wideband gain
    gain_db = np.array([[-92.0, -80.0], [-100.0, -70.0]])     # (cell, ue)
    links = _build_linkset(preset("small"), gain_db,
                           np.zeros(gain_db.shape, dtype=bool))
    want = [-92.0, -100.0, -70.0, -80.0]    # serving link first per UE
    assert links.amplitude == pytest.approx(10.0 ** (np.array(want) / 20.0))


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


def _angles(seed, n_seq):
    """Doppler angles and phases for ``n_seq`` sequences of 12 sinusoids."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * math.pi, (2, n_seq, 12))


def test_sinusoid_bank_phasors_and_frozen_zero_doppler():
    state0, step = sinusoids(100.0, *_angles(2, 8))
    assert state0.shape == step.shape == (8, N_SINUSOIDS)
    assert np.allclose(np.abs(state0), 1.0 / math.sqrt(N_SINUSOIDS))
    assert np.allclose(np.abs(step), 1.0)

    _, step0 = sinusoids(0.0, *_angles(2, 8))
    assert np.all(step0 == 1.0)


def test_sos_process_recurrence_matches_direct_evaluation():
    bank = _bank(300.0, n_links=5, n_rb=1, n_rx=1, n_tx=1)
    # the bank owns its state and rotates it in place
    state0 = bank.state.astype(complex)
    step = bank.step.astype(complex)
    for t in range(6):
        direct = (state0 * step ** t).sum(axis=-1)
        # one tap, unit kernel and weight, no specular term: h is the taps
        h = bank.current(slice(None)).reshape(5, -1)
        assert np.allclose(h, direct[:, :bank.n_scatter])
        bank.advance()


def _bank(f_d, n_links=6, los=False, amplitude=1.0, **changes):
    """The engine's channel bank over ``n_links`` links of one cell."""
    links = _Linkset(cell=np.zeros(n_links, dtype=int),
                     ue=np.arange(n_links), n_keep=1,
                     serving=np.zeros(n_links, dtype=int),
                     amplitude=np.full(n_links, amplitude),
                     los=np.full(n_links, los))
    return _ChannelBank(ScenarioConfig(**changes), links, f_d)


def _channel(bank, pol):
    """Every link's channel as a ``pol`` receiver sees it."""
    return bank.current(slice(None)) \
        * bank.coupling(pol, slice(None))[:, None, None]


def test_generate_fading_shapes_and_static_limit():
    bank = _bank(0.0, n_rb=6, n_rx=2, n_tx=4)
    h0 = {pol: _channel(bank, pol) for pol in ("LPOL", "XPOL")}
    assert h0["XPOL"].shape == (6, 6, 2, 4)
    # f_d = 0: every TTI identical, so a run need not advance the bank
    for _ in range(3):
        bank.advance()
        for pol, h in h0.items():
            assert np.array_equal(_channel(bank, pol), h)


def test_generate_fading_mean_power_near_unity():
    bank = _bank(1000.0, n_links=500, n_rb=1, n_rx=4, n_tx=4,
                 xpd_mean=math.inf)
    power = np.mean(np.abs(bank.current(slice(None))) ** 2)
    assert power == pytest.approx(1.0, abs=0.05)


def test_generate_fading_rician_specular_dominates_at_high_k():
    bank = _bank(100.0, los=True, n_rb=10, n_rx=4, n_tx=4,
                 rician_k_db=60.0, xpd_mean=math.inf)
    h = bank.current(slice(None))[0]
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
    # same draws: ten times the field amplitude gives ten times the channel
    quiet = _bank(0.0, n_rb=2, n_rx=2, n_tx=4)
    loud = _bank(0.0, amplitude=10.0, n_rb=2, n_rx=2, n_tx=4)
    for pol in ("LPOL", "XPOL"):
        assert np.allclose(_channel(loud, pol), 10.0 * _channel(quiet, pol),
                           rtol=1e-5)
        # the +/- slant port pair's coupling repeats over the tx ports
        port = quiet.coupling(pol, slice(None))
        assert np.array_equal(port[:, 2:], port[:, :2])
    # polarization only scales each port
    assert not np.allclose(quiet.coupling("XPOL", slice(None)),
                           quiet.coupling("LPOL", slice(None)))


def test_one_bank_serves_both_polarizations_bit_for_bit():
    # a sweep group reads one bank for both polarizations: each receiver
    # must see exactly the channel a bank read for it alone gives it
    both = _bank(3113.19, los=True, n_rb=4, n_rx=2, n_tx=4)
    alone = {pol: _bank(3113.19, los=True, n_rb=4, n_rx=2, n_tx=4)
             for pol in ("LPOL", "XPOL")}
    for _ in range(3):
        for pol, bank in alone.items():
            assert np.array_equal(_channel(both, pol), _channel(bank, pol))
            assert both.coherent_fraction_sq(pol) \
                == bank.coherent_fraction_sq(pol)
            bank.advance()
        both.advance()


@pytest.mark.parametrize("f_d", [0.0, 3113.19])
def test_a_slice_couples_as_the_whole_bank_does(f_d):
    bank = _bank(f_d, n_links=101, los=True, n_rb=2, n_rx=2, n_tx=4)
    for tti in range(3):
        if tti:
            bank.advance()
        for pol in ("LPOL", "XPOL"):
            whole = bank.coupling(pol, slice(None))
            assert whole.shape == (101, 4) and whole.dtype == np.complex64
            # odd slice lengths, each at an odd offset and at the end
            for n in (1, 7, 33):
                for lo in (5, 101 - n):
                    got = bank.coupling(pol, slice(lo, lo + n))
                    assert np.array_equal(got.view(np.uint32),
                                          whole[lo:lo + n].view(np.uint32)), \
                        (pol, n, lo, tti)


def test_a_static_banks_block_is_read_only():
    block = slice(4, 9)
    # a moving block is rebuilt every TTI in the caller's buffer
    moving = _bank(3113.19, n_links=12, n_rb=3, n_rx=2, n_tx=4)
    buffers = moving.buffers(5)
    h = moving.current(block, buffers)
    assert h.flags.writeable and np.shares_memory(h, buffers["h"])
    # a static block is the array every later TTI reads: a write raises
    # instead of corrupting them
    static = _bank(0.0, n_links=12, n_rb=3, n_rx=2, n_tx=4)
    h = static.current(block, buffers)
    want = h.copy()
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h *= 2
    static.advance()
    assert static.current(block, buffers) is h
    assert h.tobytes() == want.tobytes()


_BANK_ARRAYS = ("state", "step", "a_rx", "a_tx", "rice_state", "rice_step",
                "sums")


# one part only (5, 32), and up to three parts ending on a short chunk
@pytest.mark.parametrize("f_d", [0.0, 3113.19])
@pytest.mark.parametrize("n_links", [5, 32, 69, 97])
def test_bank_split_over_threads_is_bit_identical(monkeypatch, n_links, f_d):
    banks = []
    # switch threads often, so parts interleave as much as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_cpus in (1, 2, 3):
            monkeypatch.setattr(channel, "_cpu_count", lambda: n_cpus)
            n_chunks = -(-n_links // _PHASOR_CHUNK)
            assert len(channel._link_parts(n_links)) == min(n_cpus, n_chunks)
            bank = _bank(f_d, n_links=n_links, los=True, n_rb=6, n_rx=2,
                         n_tx=4)
            for _ in range(3):
                bank.advance()
            banks.append(bank)
    finally:
        sys.setswitchinterval(interval)
    one = banks[0]
    for bank in banks[1:]:
        for name in _BANK_ARRAYS:
            assert np.array_equal(getattr(bank, name), getattr(one, name)), \
                name
        for pol in ("LPOL", "XPOL"):
            assert np.array_equal(bank.coupling(pol, slice(None)),
                                  one.coupling(pol, slice(None))), pol
        assert np.array_equal(bank.current(slice(None)),
                              one.current(slice(None)))


def test_link_parts_are_whole_chunks_covering_every_link(monkeypatch):
    monkeypatch.setattr(channel, "_cpu_count", lambda: 4)
    assert channel._link_parts(0) == [slice(0, 0)]
    assert channel._link_parts(32) == [slice(0, 32)]
    assert channel._link_parts(97) == [slice(0, 32), slice(32, 64),
                                       slice(64, 96), slice(96, 97)]
    # seven chunks in four parts
    assert channel._link_parts(200) == [slice(0, 32), slice(32, 96),
                                        slice(96, 160), slice(160, 200)]


def test_bank_threads_end_with_the_call(monkeypatch):
    monkeypatch.setattr(channel, "_cpu_count", lambda: 3)
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        real_start(thread)

    real_in_parts = channel._in_parts
    parts = []

    def in_parts(work, jobs):
        first = len(started)
        real_in_parts(work, jobs)
        helpers = started[first:]
        # the first job runs on the calling thread; a helper that finished
        # its job may take another, so a call needs at most one per job left
        assert 0 < len(helpers) < len(jobs)
        assert not any(thread.is_alive() for thread in helpers)
        parts.append(len(jobs))

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    monkeypatch.setattr(channel, "_in_parts", in_parts)
    before = threading.active_count()
    bank = _bank(3113.19, n_links=97)
    assert threading.active_count() == before
    n_started = len(started)
    bank.advance()
    bank.coupling("XPOL", slice(None))
    # only the build is split, in three parts: rotating and coupling
    # start no thread
    assert len(started) == n_started
    assert parts == [3]


def test_an_error_in_a_bank_part_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(channel, "_cpu_count", lambda: 3)
    real = channel.keyed_streams

    def fail_past_the_first_part(seed, purpose, cells, ues):
        if ues[0] != 0:
            raise RuntimeError(f"part from ue {ues[0]} failed")
        return real(seed, purpose, cells, ues)

    monkeypatch.setattr(channel, "keyed_streams", fail_past_the_first_part)
    before = threading.active_count()
    # the first failing part in link order is the one reported
    with pytest.raises(RuntimeError, match="part from ue 32 failed"):
        _bank(3113.19, n_links=97)
    assert threading.active_count() == before
