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

from mmwsim import ScenarioConfig, preset, run_simulation, streams
from mmwsim.channel import N_SINUSOIDS, _PHASOR_CHUNK, _ChannelBank, \
    freq_mixing_kernel, sinusoids, unit_phasor
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


@pytest.mark.parametrize("dtype", [np.complex64, complex])
@pytest.mark.parametrize("f_d", [0.0, 3113.19])
def test_draw_sinusoids_matches_the_complex_exponential_form(f_d, dtype):
    rng = np.random.default_rng(3)
    theta, phase = rng.uniform(0.0, 2.0 * math.pi, (2, 9, N_SINUSOIDS))
    new = [x.astype(dtype) for x in sinusoids(f_d, theta, phase)]
    old = _old_draw_sinusoids(f_d, np.random.default_rng(3), 9, dtype)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


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
