"""numpy's seeding of ``Generator(PCG64(seed))``, vectorised over seeds.

``PCG64(seed)`` hashes the seed's 32-bit words into a four-word pool
(``SeedSequence.mix_entropy``), draws four 64-bit words from the pool
(``SeedSequence.generate_state``) and seeds the 128-bit LCG from them
(``pcg64_set_seed``). The first two steps are 32-bit arithmetic whose hash
constants form a fixed sequence, so they run here as uint32 array work over
all seeds at once; the last runs per seed in Python ints. A generator put in
the p-th state of ``pcg64_states(seeds)`` draws exactly the stream of
``Generator(PCG64(seeds[p]))``.
"""

import numpy as np

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the pool's hash constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's hash constants
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init, mult, count):
    """init, init * mult, init * mult**2, ... mod 2**32: the multiplier a
    hash runs through, one step per hashed word."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value, constants):
    """Consecutive hashes along the last axis of ``value``, from the
    running multiplier ``constants[0]``: each xors its word with the
    multiplier, steps the multiplier, multiplies by it and folds the high
    half in."""
    value = (value ^ constants[:-1]) * constants[1:]
    return value ^ (value >> 16)


def _mix(x, y):
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _entropy_words(seeds):
    """(len(seeds), width) uint32 little-endian words of each seed, zero
    padded to at least the pool size. Raises numpy's TypeError for a seed
    that is no integer and its ValueError for a negative one."""
    ints = []
    for seed in seeds:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"SeedSequence expects int or sequence of ints for "
                            f"entropy not {seed}")
        seed = int(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        ints.append(seed)
    width = max(_POOL, (max(ints, default=0).bit_length() + 31) // 32)
    raw = b"".join([seed.to_bytes(4 * width, "little") for seed in ints])
    return np.frombuffer(raw, dtype="<u4").reshape(len(ints), width).astype(np.uint32)


def pcg64_words(seeds):
    """(len(seeds), 4) uint64: ``SeedSequence(seed).generate_state(4,
    np.uint64)`` of every seed, the words PCG64 is seeded from."""
    entropy = _entropy_words(seeds)
    width = entropy.shape[1]
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL * width)
    # the first words go into the pool (a short seed's zero padding is
    # hashed as numpy hashes its empty pool slots), then each pool word
    # into every other, one source word at a time
    pool = _hashmix(entropy[:, :_POOL], constants[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], constants[k:k + _POOL]))
        k += _POOL - 1
    # the words past the pool, of seeds of 2**128 and above, each into
    # every pool word: of the seeds whose top word is at or past it
    for src in range(_POOL, width):
        mixed = _mix(pool, _hashmix(entropy[:, src, None], constants[k:k + _POOL + 1]))
        pool = np.where(entropy[:, src:].any(axis=1)[:, None], mixed, pool)
        k += _POOL
    state = _hashmix(np.hstack((pool, pool)), _STATE_CONSTANTS)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def pcg64_states(seeds):
    """The ``PCG64.state`` of ``PCG64(seed)`` for each seed in turn, from
    the ``pcg64_words`` of them all: what ``pcg64_set_seed`` makes of each
    row, seed and increment from its two word pairs, then the LCG stepped
    from 0, the seed added and stepped once more."""
    for row in pcg64_words(seeds):
        seed_hi, seed_lo, inc_hi, inc_lo = row.tolist()
        inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
        state = ((inc + ((seed_hi << 64) | seed_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}
