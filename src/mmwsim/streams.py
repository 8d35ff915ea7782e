"""Keyed random streams, seeded for a whole batch of keys in one pass.

A keyed stream is the generator ``default_rng(SeedSequence(key))`` for a
key (seed, purpose, cell, ue), and a paper-scale run needs over 100,000 of
them. numpy's own ``SeedSequence`` costs several times what the rest of a
stream does, so here its hash runs in vectorized ``uint32`` arithmetic over
every key of a batch. Each key's four seed words then go to a ``PCG64``
through numpy's ``ISeedSequence`` interface, and numpy seeds it. The draws
are numpy's to the last bit.
"""

import numpy as np

# purpose tags, the second word of every key (the drop stream's key is
# (seed, purpose) alone)
DROP_STREAM = 1
LARGE_SCALE_STREAM = 2
FADING_STREAM = 3

# numpy's SeedSequence hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

# keys seeded per vectorized pass: enough to amortize the numpy calls, few
# enough to bound what ``seed_state`` allocates inside the channel bank's
# worker threads, whose freed memory stays in per-thread malloc arenas
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


class _SeedWords:
    """An ``ISeedSequence`` that gives ``PCG64`` one key's ``seed_state``
    row, which ``PCG64`` reads as raw memory: a C-contiguous row."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a keyed stream holds four uint64 seed words")
        return self.words


def keyed_streams(seed, purpose, cells, ues):
    """Yield the stream of every (seed, purpose, cell, ue) key in turn.

    Each yielded generator is a new one and draws exactly what
    ``default_rng(SeedSequence((seed, purpose, cell, ue)))`` draws.
    """
    # numpy.random loads here, not on ``import mmwsim`` (numpy defers it)
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedWords)
    cells, ues = np.asarray(cells), np.asarray(ues)
    for lo in range(0, len(cells), _KEY_BLOCK):
        block = slice(lo, lo + _KEY_BLOCK)
        for words in seed_state(seed, purpose, cells[block], ues[block]):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))
