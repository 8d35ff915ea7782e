"""Batched keyed streams and the chunked channel-bank setup, bit for bit.

The engine seeds its per-(cell, ue) streams in one vectorized pass and turns
a chunk of links' draws into phasors at once. These tests hold that path to
numpy's own ``SeedSequence`` -> ``PCG64`` seeding and to the per-link loop
it replaced, with exact equality.
"""

import math
from collections import Counter

import numpy as np
import pytest

from mmwsim import ScenarioConfig, preset, run_simulation
from mmwsim.channel import FadingDesign, unit_phasor
from mmwsim.engine import _FADING_STREAM, _PHASOR_CHUNK, _ChannelBank, \
    _Linkset
from mmwsim.streams import keyed_streams, pcg64_states, seed_state

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
    states = pcg64_states(words)
    for k, (c, u) in enumerate(zip(cells.tolist(), ues.tolist())):
        seq = np.random.SeedSequence((seed, 3, c, u))
        assert np.array_equal(words[k], seq.generate_state(4, np.uint64))
        lcg = np.random.PCG64(seq).state["state"]
        assert states[k] == (lcg["state"], lcg["inc"])


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


def _old_draw_sinusoids(design, rng, n_seq, dtype):
    shape = (n_seq, design.n_sinusoids)
    theta = rng.uniform(0.0, 2.0 * math.pi, shape)
    phase = rng.uniform(0.0, 2.0 * math.pi, shape)
    omega = 2.0 * math.pi * design.f_d * np.cos(theta)
    state0 = (np.exp(1j * phase) / math.sqrt(design.n_sinusoids)).astype(dtype)
    step = np.exp(1j * omega * design.tti).astype(dtype)
    return state0, step


@pytest.mark.parametrize("dtype", [np.complex64, complex])
@pytest.mark.parametrize("f_d", [0.0, 3113.19])
def test_draw_sinusoids_matches_the_complex_exponential_form(f_d, dtype):
    design = FadingDesign(f_d=f_d, n_tti=5, tti=1e-3, n_rb=12)
    new = design.draw_sinusoids(np.random.default_rng(3), 9, dtype=dtype)
    old = _old_draw_sinusoids(design, np.random.default_rng(3), 9, dtype)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def _oracle_bank(cfg, links, f_d):
    """The per-link setup loop the chunked one replaced."""
    design = FadingDesign(f_d, cfg.n_tti, cfg.tti_duration, cfg.n_rb,
                          cfg.coherence_bandwidth_rb)
    n_seq = design.n_taps * cfg.n_rx * cfg.n_tx + 2
    n = links.n_links
    out = {
        "state0": np.empty((n, n_seq, design.n_sinusoids), np.complex64),
        "a_rx": np.empty((n, cfg.n_rx), np.complex64),
        "a_tx": np.empty((n, cfg.n_tx), np.complex64),
        "rice_state": np.empty(n, np.complex64),
        "rice_step": np.empty(n, np.complex64),
    }
    out["step"] = np.empty_like(out["state0"])
    for l in range(n):
        stream = _numpy_stream(cfg.seed, _FADING_STREAM,
                               int(links.cell[l]), int(links.ue[l]))
        out["state0"][l], out["step"][l] = _old_draw_sinusoids(
            design, stream, n_seq, np.complex64)
        out["a_rx"][l] = np.exp(1j * stream.uniform(0, 2 * math.pi, cfg.n_rx))
        out["a_tx"][l] = np.exp(1j * stream.uniform(0, 2 * math.pi, cfg.n_tx))
        out["rice_state"][l] = np.exp(1j * stream.uniform(0, 2 * math.pi))
        out["rice_step"][l] = np.exp(
            1j * 2 * math.pi * f_d
            * math.cos(stream.uniform(0, 2 * math.pi))
            * cfg.tti_duration)
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
    got = {"state0": bank.sos.state, "step": bank.sos.step,
           "a_rx": bank.a_rx, "a_tx": bank.a_tx,
           "rice_state": bank.rice_state, "rice_step": bank.rice_step}
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

    for name in ("SeedSequence", "PCG64", "default_rng"):
        monkeypatch.setattr(np.random, name,
                            counting(name, getattr(np.random, name)))
    cfg = preset("small").replace(n_site_rings=0, ues_per_sector=2, n_tti=2)
    run_simulation(cfg)
    # the drop stream is the only SeedSequence; the shadowing and fading
    # passes build one reused generator each
    assert counts["SeedSequence"] <= 1
    assert counts["default_rng"] + counts["PCG64"] <= 3
