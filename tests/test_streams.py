"""Batched keyed streams and the chunked channel-bank setup, bit for bit.

The engine hashes the seed words of its per-(cell, ue) streams in one
vectorized pass and turns a chunk of links' draws into phasors at once.
These tests hold that path to numpy's own ``SeedSequence`` -> ``PCG64``
seeding and to the per-link loop it replaced, with exact equality.
"""

import math
from collections import Counter

import numpy as np
import pytest

import mmwsim.channel as channel
from mmwsim import (ScenarioConfig, doppler_frequency, preset,
                    run_simulation, streams)
from mmwsim.channel import N_SINUSOIDS, _PHASOR_CHUNK, _ChannelBank, \
    freq_mixing_kernel, phasor_tables, sinusoids, unit_phasor
from mmwsim.config import TTI_DURATION
from mmwsim.engine import _Linkset
from mmwsim.streams import FADING_STREAM, keyed_streams, seed_state

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3)


def _keys(n=300, seed=0):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 100, n)
    ues = rng.integers(0, 5000, n)
    cells[:2] = 0
    ues[1:3] = 0
    return cells, ues


def _numpy_stream(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_and_states_equal_numpy(seed):
    cells, ues = _keys()
    words = seed_state(seed, 3, cells, ues)
    for k, (c, u, stream) in enumerate(zip(
            cells.tolist(), ues.tolist(), keyed_streams(seed, 3, cells, ues))):
        seq = np.random.SeedSequence((seed, 3, c, u))
        assert np.array_equal(words[k], seq.generate_state(4, np.uint64))
        assert stream.bit_generator.state == np.random.PCG64(seq).state


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_streams_draw_what_numpy_draws(seed):
    cells, ues = _keys(40, seed=1)
    for c, u, stream in zip(cells.tolist(), ues.tolist(),
                            keyed_streams(seed, 2, cells, ues)):
        ref = _numpy_stream(seed, 2, c, u)
        assert stream.uniform() == ref.uniform()
        assert stream.normal(0.0, 6.0) == ref.normal(0.0, 6.0)
        assert np.array_equal(stream.uniform(0.0, 2.0 * math.pi, 30),
                              ref.uniform(0.0, 2.0 * math.pi, 30))


def test_keyed_streams_are_independent_generators(monkeypatch):
    # every stream is taken before any is drawn from, and they are drawn in
    # reverse order, across several key blocks
    monkeypatch.setattr(streams, "_KEY_BLOCK", 16)
    cells, ues = _keys(50, seed=2)
    taken = list(zip(cells.tolist(), ues.tolist(),
                     keyed_streams(5, 3, cells, ues)))
    for c, u, stream in reversed(taken):
        assert np.array_equal(stream.random(8),
                              _numpy_stream(5, 3, c, u).random(8))


def test_seed_state_rejects_keys_outside_one_word():
    with pytest.raises(ValueError, match="cells"):
        seed_state(1, 3, [2**32], [0])
    with pytest.raises(ValueError, match="ues"):
        seed_state(1, 3, [0], [-1])


def test_uniform_angles_are_scaled_random_draws():
    a = np.random.default_rng(11).uniform(0, 2 * math.pi, 10_000)
    b = np.random.default_rng(11).random(10_000) * (2 * math.pi)
    assert np.array_equal(a, b)


def test_unit_phasor_equals_the_complex_exponential():
    x = np.random.default_rng(12).uniform(-20.0, 20.0, 100_000)
    assert np.array_equal(unit_phasor(x).view(float),
                          np.exp(1j * x).view(float))


def _old_draw_sinusoids(f_d, rng, n_seq, dtype):
    shape = (n_seq, N_SINUSOIDS)
    theta = rng.uniform(0.0, 2.0 * math.pi, shape)
    phase = rng.uniform(0.0, 2.0 * math.pi, shape)
    omega = 2.0 * math.pi * f_d * np.cos(theta)
    state0 = (np.exp(1j * phase) / math.sqrt(N_SINUSOIDS)).astype(dtype)
    step = np.exp(1j * omega * TTI_DURATION).astype(dtype)
    return state0, step


def _libm_chain(f_d, theta, phase):
    """The complex128 phasors and steps of the libm chain the bank ran
    before its tables: cos and sin of the phases, over sqrt(N_SINUSOIDS),
    and of omega = cos(theta) 2 pi f_d TTI_DURATION, whose sign of zero
    ``np.exp(1j * omega)`` would lose at f_d = 0."""
    omega = np.cos(theta) * (2.0 * math.pi * f_d) * TTI_DURATION
    out = np.empty((2,) + np.shape(theta), complex)
    out[0].real, out[0].imag = np.cos(phase), np.sin(phase)
    out[1].real, out[1].imag = np.cos(omega), np.sin(omega)
    out[0] /= math.sqrt(N_SINUSOIDS)
    return out


def _sinusoids(f_d, theta, phase):
    """``sinusoids`` into fresh complex64 arrays, and its libm count."""
    state, step = np.empty((2,) + theta.shape, np.complex64)
    work = [np.empty(theta.shape, t)
            for t in (float, float, complex, complex, float)]
    n = sinusoids(f_d, theta, phase, state, step, phasor_tables(f_d), work)
    return state, step, n


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


# the bank stores complex64 phasors, the only kind ``sinusoids`` writes
@pytest.mark.parametrize("dtype", [np.complex64])
@pytest.mark.parametrize("f_d", [0.0, 3113.19])
def test_draw_sinusoids_matches_the_complex_exponential_form(f_d, dtype):
    rng = np.random.default_rng(3)
    theta, phase = rng.uniform(0.0, 2.0 * math.pi, (2, 9, N_SINUSOIDS))
    new = _sinusoids(f_d, theta, phase)[:2]
    old = _old_draw_sinusoids(f_d, np.random.default_rng(3), 9, dtype)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


F_D_120 = 3113.19
# 500 kmph at 100 GHz: steps of up to 291 rad, beyond the tables' reach
F_D_FAR = doppler_frequency(500.0, 100e9)


def _midpoints(lo, hi, n, seed):
    """``n`` float64 midpoints between neighbouring float32s in [lo, hi]."""
    v = np.random.default_rng(seed).uniform(lo, hi, n).astype(np.float32)
    up = np.nextafter(v, np.float32(np.inf))
    return (v.astype(float) + up.astype(float)) / 2


def _scan(start, value, target, ulps=64):
    """The angles within ``ulps`` float64 ulps of each ``start`` whose
    ``value`` lies within 2 float64 ulps of that start's ``target``."""
    offsets = np.arange(-ulps, ulps + 1)
    x = start[:, None] + offsets * np.spacing(start)[:, None]
    near = abs(value(x) - target[:, None]) <= 2 * np.spacing(target)[:, None]
    return x[near]


def _adversarial_angles():
    """Doppler angles and phases whose libm phasors or 120 kmph steps lie
    within 2 float64 ulps of a float32 rounding midpoint: the arccos or
    arcsin of a midpoint, then a scan over neighbouring ulps."""
    s = math.sqrt(N_SINUSOIDS)
    m = _midpoints(-1 / s, 1 / s, 3000, 1)
    phase = np.concatenate([
        _scan(np.arccos(m * s), lambda x: _libm_chain(0, x, x)[0].real, m),
        _scan(np.arcsin(m * s) % (2 * math.pi),
              lambda x: _libm_chain(0, x, x)[0].imag, m)])
    turn = 2 * math.pi * F_D_120 * TTI_DURATION
    cos_m, sin_m = np.split(_midpoints(-1, 1, 20000, 2), 2)
    # steps of either sign, up to two turns out; a step moves by about 16
    # float64 ulps a theta ulp, so fewer of its scans hit
    cos_omega = np.concatenate([np.arccos(cos_m),
                                -np.arccos(cos_m) - 2 * math.pi])
    sin_omega = np.arcsin(sin_m) + 2 * math.pi
    theta = np.concatenate([
        _scan(np.arccos(cos_omega / turn),
              lambda x: _libm_chain(F_D_120, x, x)[1].real,
              np.tile(cos_m, 2)),
        _scan(np.arccos(sin_omega / turn),
              lambda x: _libm_chain(F_D_120, x, x)[1].imag, sin_m)])
    n = -(-max(len(phase), len(theta)) // N_SINUSOIDS) * N_SINUSOIDS
    return (np.resize(theta, (n // N_SINUSOIDS, N_SINUSOIDS)),
            np.resize(phase, (n // N_SINUSOIDS, N_SINUSOIDS)))


def test_sinusoids_equal_libm_at_float32_rounding_midpoints(monkeypatch):
    theta, phase = _adversarial_angles()
    assert theta.size > 2000
    want = [x.astype(np.complex64) for x in _libm_chain(F_D_120, theta, phase)]
    state, step, n = _sinusoids(F_D_120, theta, phase)
    assert _same_bits(state, want[0]) and _same_bits(step, want[1])
    # the guard sends these values to libm; without it some round the
    # other way
    assert n > 0
    monkeypatch.setattr(channel, "_GUARD", 0.0)
    state, step, n = _sinusoids(F_D_120, theta, phase)
    assert n == 0
    assert not _same_bits(state, want[0])
    assert not _same_bits(step, want[1])


def _special_angles(f_d):
    """Angles at and near multiples of pi/2, on and halfway between table
    knots, and Doppler angles whose steps are."""
    nudge = np.array([0.0, 2.0**-52, 1e-15, 1e-10, 1e-6])
    quarter = (np.arange(5)[:, None] * (math.pi / 2)
               + np.concatenate([nudge, -nudge[1:]])).ravel()
    knots = np.arange(0, 3217, 7) / 512
    phase = np.concatenate([quarter[quarter >= 0], knots, knots + 1 / 1024])
    turn = 2 * math.pi * f_d * TTI_DURATION
    omega = np.concatenate([quarter, knots, knots + 1 / 1024])
    omega = np.concatenate([omega, -omega])
    reach = omega[abs(omega) <= turn]
    theta = np.concatenate([phase, np.arccos(reach / turn) if turn else []])
    n = max(len(phase), len(theta)) // N_SINUSOIDS * N_SINUSOIDS
    return (np.resize(theta, (n // N_SINUSOIDS, N_SINUSOIDS)),
            np.resize(phase, (n // N_SINUSOIDS, N_SINUSOIDS)))


@pytest.mark.parametrize("f_d", [0.0, 1.0, F_D_120, F_D_FAR])
def test_sinusoids_equal_libm_near_quarter_turns_and_table_knots(f_d):
    theta, phase = _special_angles(f_d)
    want = [x.astype(np.complex64) for x in _libm_chain(f_d, theta, phase)]
    state, step, _ = _sinusoids(f_d, theta, phase)
    assert _same_bits(state, want[0]) and _same_bits(step, want[1])


def _oracle_bank(cfg, links, f_d):
    """The per-link setup loop the chunked one replaced."""
    n_taps = freq_mixing_kernel(cfg.n_rb, cfg.coherence_bandwidth_rb).shape[0]
    n_seq = n_taps * cfg.n_rx * cfg.n_tx + 2
    n = links.n_links
    out = {
        "state0": np.empty((n, n_seq, N_SINUSOIDS), np.complex64),
        "a_rx": np.empty((n, cfg.n_rx), np.complex64),
        "a_tx": np.empty((n, cfg.n_tx), np.complex64),
        "rice_state": np.empty(n, np.complex64),
        "rice_step": np.empty(n, np.complex64),
    }
    out["step"] = np.empty_like(out["state0"])
    for l in range(n):
        stream = _numpy_stream(cfg.seed, FADING_STREAM,
                               int(links.cell[l]), int(links.ue[l]))
        out["state0"][l], out["step"][l] = _old_draw_sinusoids(
            f_d, stream, n_seq, np.complex64)
        out["a_rx"][l] = np.exp(1j * stream.uniform(0, 2 * math.pi, cfg.n_rx))
        out["a_tx"][l] = np.exp(1j * stream.uniform(0, 2 * math.pi, cfg.n_tx))
        out["rice_state"][l] = np.exp(1j * stream.uniform(0, 2 * math.pi))
        out["rice_step"][l] = np.exp(
            1j * 2 * math.pi * f_d
            * math.cos(stream.uniform(0, 2 * math.pi))
            * TTI_DURATION)
    return out


def _links(n_links, seed=0):
    rng = np.random.default_rng(seed)
    cell = rng.integers(0, 57, n_links)
    ue = rng.integers(0, 1710, n_links)
    cell[0] = ue[0] = 0
    los = np.arange(n_links) % 3 == 0     # LOS and NLOS links both present
    return _Linkset(cell=cell, ue=ue, n_keep=1, serving=cell.copy(),
                    amplitude=rng.uniform(1e-6, 1e-4, n_links), los=los)


# f_d of 0 and of 120 kmph at 28 GHz
@pytest.mark.parametrize("f_d,seed", [(0.0, 5), (3113.19, 2**40 + 7)])
@pytest.mark.parametrize("n_tx", [1, 2, 4])
@pytest.mark.parametrize("n_rx", [1, 2, 4])
def test_chunked_bank_setup_matches_the_per_link_loop(n_rx, n_tx, f_d, seed):
    n_links = 2 * _PHASOR_CHUNK + 5          # a short last chunk
    cfg = ScenarioConfig(n_rx=n_rx, n_tx=n_tx, n_rb=6, seed=seed)
    links = _links(n_links)
    bank = _ChannelBank(cfg, links, f_d)
    want = _oracle_bank(cfg, links, f_d)
    got = {"state0": bank.state, "step": bank.step,
           "a_rx": bank.a_rx, "a_tx": bank.a_tx,
           "rice_state": bank.rice_state, "rice_step": bank.rice_step}
    if f_d == 0:
        # a frozen bank makes no rotations, where the loop's are exactly 1,
        # and keeps its initial phasors only summed, chunk by chunk
        assert got.pop("step") is got.pop("rice_step") is None
        assert np.all(want.pop("step") == 1)
        assert np.all(want.pop("rice_step") == 1)
        got["sums"] = got.pop("state0")[..., 0]
        want["sums"] = want.pop("state0").sum(axis=-1)
    for name, value in want.items():
        assert got[name].dtype == value.dtype, name
        assert np.array_equal(got[name], value), name


# 0 and 120 kmph at 28 GHz, and 400 and 500 kmph at 100 GHz: steps of up
# to 233 rad, within the tables' reach, and to 291 rad, beyond it
@pytest.mark.parametrize("f_d", [0.0, F_D_120,
                                 doppler_frequency(400.0, 100e9), F_D_FAR])
def test_a_paper_sized_bank_equals_the_per_link_libm_loop(f_d):
    cfg = ScenarioConfig(seed=9)
    links = _links(2 * _PHASOR_CHUNK + 5)
    bank = _ChannelBank(cfg, links, f_d)
    want = _oracle_bank(cfg, links, f_d)
    got = {"state0": bank.state, "step": bank.step, "a_rx": bank.a_rx,
           "a_tx": bank.a_tx, "rice_state": bank.rice_state,
           "rice_step": bank.rice_step}
    if f_d == 0:
        assert got.pop("step") is got.pop("rice_step") is None
        del want["step"], want["rice_step"]
        got["sums"] = got.pop("state0")[..., 0]
        want["sums"] = want.pop("state0").sum(axis=-1)
    for name, value in want.items():
        assert _same_bits(got[name], value), name
    # a fraction of a percent of the phasors took libm
    libm, built = bank.fallbacks
    assert built == want.get("state0", want.get("sums")).size \
        * (N_SINUSOIDS if f_d == 0 else 2)
    assert 0 < libm < built / 100


@pytest.mark.parametrize("f_d", [F_D_120, F_D_FAR])
def test_sinusoids_equal_libm_on_random_angles(f_d):
    rng = np.random.default_rng(7)
    theta, phase = rng.uniform(0.0, 2.0 * math.pi, (2, 20000, N_SINUSOIDS))
    want = [x.astype(np.complex64) for x in _libm_chain(f_d, theta, phase)]
    state, step, n = _sinusoids(f_d, theta, phase)
    assert _same_bits(state, want[0]) and _same_bits(step, want[1])
    assert 0 < n < state.size / 50


def test_a_run_builds_no_per_key_seed_sequences(monkeypatch):
    counts = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("SeedSequence", "default_rng"):
        monkeypatch.setattr(np.random, name,
                            counting(name, getattr(np.random, name)))
    cfg = preset("small").replace(n_site_rings=0, ues_per_sector=2, n_tti=2)
    run_simulation(cfg)
    # the drop stream is the only SeedSequence and the only default_rng;
    # the shadowing and fading streams are seeded from hashed seed words
    assert counts["SeedSequence"] <= 1
    assert counts["default_rng"] <= 1
