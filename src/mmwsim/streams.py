"""Keyed random streams, seeded for a whole batch of keys in one pass.

A keyed stream is the generator ``default_rng(SeedSequence(key))`` for a
key (seed, purpose, cell, ue). Building one costs a ``SeedSequence`` and a
``PCG64`` object, and a paper-scale run needs over 100,000 of them. Here
numpy's ``SeedSequence`` hash runs in vectorized ``uint32`` arithmetic over
every key of a batch, the ``PCG64`` seeding step runs on Python ints, and
one reused ``Generator`` is put into each key's start state in turn. The
draws are numpy's to the last bit.
"""

import numpy as np

# numpy's SeedSequence hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# keys seeded per vectorized pass: enough to amortize the numpy calls,
# few enough that the Python ints of the PCG64 states stay small
_KEY_BLOCK = 4096


def _int_words(n):
    """A non-negative int as little-endian 32-bit words (0 is one word)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _xorshift(v):
    return v ^ (v >> np.uint32(16))


def seed_state(seed, purpose, cells, ues):
    """``SeedSequence((seed, purpose, cell, ue)).generate_state(4, uint64)``
    for every (cell, ue) pair, as an (n, 4) uint64 array."""
    cells = np.asarray(cells)
    ues = np.asarray(ues)
    for name, arr in (("cells", cells), ("ues", ues)):
        if arr.size and (arr.min() < 0 or arr.max() > _MASK32):
            raise ValueError(f"{name} must lie in [0, 2**32)")
    n = cells.shape[0]
    entropy = [np.full(n, w, dtype=np.uint32)
               for w in _int_words(seed) + _int_words(purpose)]
    entropy += [cells.astype(np.uint32), ues.astype(np.uint32)]

    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        return _xorshift(v * np.uint32(hash_const))

    def mix(x, y):
        return _xorshift(np.uint32(_MIX_MULT_L) * x
                         - np.uint32(_MIX_MULT_R) * y)

    # SeedSequence.mix_entropy: hash the words into a 4-word pool, mix
    # every pool word into every other, then mix in words beyond the pool
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    # SeedSequence.generate_state(4, uint64): 8 words cycled from the pool
    hash_const = _INIT_B
    words = np.empty((n, 8), dtype=np.uint32)
    for i in range(8):
        v = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        words[:, i] = _xorshift(v * np.uint32(hash_const))
    return words.astype("<u4").view("<u8").astype(np.uint64)


def pcg64_states(words):
    """PCG64 start states ``(state, inc)`` as 128-bit ints, one per row of
    ``words`` (the (n, 4) uint64 output of ``seed_state``).

    This is PCG64's seeding step: the seed words give the 128-bit initial
    state and increment, and the LCG is stepped twice from a zero state.
    """
    s0, s1, i0, i1 = words.astype(object).T
    inc = ((i0 << 65) | (i1 << 1) | 1) & _MASK128
    state = ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128
    return list(zip(state.tolist(), inc.tolist()))


def keyed_streams(seed, purpose, cells, ues):
    """Yield the stream of every (seed, purpose, cell, ue) key in turn.

    Each yielded generator draws exactly what
    ``default_rng(SeedSequence((seed, purpose, cell, ue)))`` draws. It is
    the same ``Generator`` object every time, re-seeded in place, so a
    stream must be consumed before the next one is taken.
    """
    cells, ues = np.asarray(cells), np.asarray(ues)
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    lcg = {}
    full = {"bit_generator": "PCG64", "state": lcg,
            "has_uint32": 0, "uinteger": 0}
    for lo in range(0, len(cells), _KEY_BLOCK):
        block = slice(lo, lo + _KEY_BLOCK)
        for state, inc in pcg64_states(
                seed_state(seed, purpose, cells[block], ues[block])):
            lcg["state"], lcg["inc"] = state, inc
            bitgen.state = full
            yield gen
