"""Deterministic random streams.

Every source of randomness in the package draws from a counter-based
generator (Philox) keyed by a user seed plus a tuple of string/int labels.
The same (seed, labels) always reproduces the same stream, and distinct
labels give statistically independent streams, so e.g. data generation,
parameter init, and batch shuffling never share state.

substream builds one generator for one seed. substreams serves a loop over
many seeds with one shared label tuple: it derives the Philox keys of a
block of seeds at once, with numpy's SeedSequence entropy mixing and
generate_state(2, uint64) written as uint32 array ops, and re-keys one
Philox per call. A Philox stream is fixed by its key and counter, so each
generator it yields has the state, and draws the bits, of
substream(seed, *labels).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from itertools import islice

import numpy as np

from .errors import ConfigError


def _label_key(label) -> int:
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(seed: int, *labels) -> np.random.Generator:
    """Return an independent generator for (seed, labels).

    Labels may be strings or integers; they are hashed into the Philox key,
    so call sites can use readable names like substream(seed, "train",
    "shuffle", epoch).
    """
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    key = tuple(_label_key(lab) for lab in labels)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_POOL = 4  # pool words; a seed below 2**128 fills at most this many
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hash chain
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's hash chain
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
KEY_BLOCK = 2048  # seeds whose keys substreams derives at once


def _chain(start: int, mult: int, n: int) -> list[int]:
    """start, start * mult, ... mod 2**32: the n + 1 constants of n chained hashes."""
    out = [start]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hash(value, consts):
    """SeedSequence's hashmix of each value with its constant pair (xor, then multiply)."""
    xor, mult = consts
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x, y):
    result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    result ^= result >> 16
    return result


def _seed_words(seeds: list[int]) -> np.ndarray:
    """(_POOL, B) uint32 little-endian words of seeds below 2**128, zero padded."""
    lo = np.array([s & 0xFFFF_FFFF_FFFF_FFFF for s in seeds], dtype=np.uint64)
    hi = np.array([s >> 64 for s in seeds], dtype=np.uint64)
    return np.stack([lo & _MASK32, lo >> 32, hi & _MASK32, hi >> 32]).astype(np.uint32)


def _philox_keys(seeds: list[int], spawn_words: list[int]) -> np.ndarray:
    """(B, 2) uint64 Philox keys of seeds below 2**128: the keys of
    Philox(SeedSequence(seed, spawn_key=...)) whose spawn entropy is spawn_words.

    A seed fills at most the 4-word pool, and zero words hash as the padding
    SeedSequence adds, so each seed's entropy is its 4 words then spawn_words.
    """
    hashes = len(spawn_words) * _POOL
    # one hash per pool word, one per ordered pair of pool words, one per spawn word and pool word
    a = np.array(_chain(_INIT_A, _MULT_A, _POOL * _POOL + hashes), dtype=np.uint32)
    pairs = np.stack([a[:-1], a[1:]])[:, :, None]  # hash k xors a[k], multiplies by a[k + 1]
    pool = _hash(_seed_words(seeds), pairs[:, :_POOL])
    # every word mixes into every other, each hash with the next constant pair
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], pairs[:, k:k + len(dst)]))
        k += len(dst)
    # the spawn words hash to the same constants for every seed
    spawn = np.repeat(np.array(spawn_words, dtype=np.uint32), _POOL)[:, None]
    spawn_hashes = _hash(spawn, pairs[:, k:k + hashes])
    for i in range(0, hashes, _POOL):
        pool = _mix(pool, spawn_hashes[i:i + _POOL])
    b = np.array(_chain(_INIT_B, _MULT_B, _POOL), dtype=np.uint32)
    words = _hash(pool, np.stack([b[:-1], b[1:]])[:, :, None]).astype(np.uint64)
    return (words[0::2] | words[1::2] << np.uint64(32)).T


def substreams(seeds: Iterable[int], *labels) -> Iterator[np.random.Generator]:
    """Yield, for each seed in turn, the generator of substream(seed, *labels).

    Each yielded generator has the bit_generator.state of substream(seed,
    *labels) and draws its bits. It is the same Generator object every time,
    re-keyed for the next seed, so it is valid only until the next one is
    taken. Keys are derived for KEY_BLOCK seeds at a time, so memory does not
    grow with the number of seeds. A seed of 2**128 or more has more entropy
    words than the pool holds and gets its key from substream. A negative
    seed raises ConfigError before any generator of its block is yielded,
    so before anything when there are at most KEY_BLOCK seeds.
    """
    spawn_words = []
    for label in labels:
        key = _label_key(label)
        spawn_words += [key & _MASK32, key >> 32] if key >> 32 else [key]
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state  # a fresh Philox's: counter 0, empty buffer, has_uint32 0
    seeds = iter(seeds)
    while block := [int(s) for s in islice(seeds, KEY_BLOCK)]:
        if (low := min(block)) < 0:
            raise ConfigError(f"seed must be non-negative, got {low}")
        keys = iter(_philox_keys([s for s in block if s >> 128 == 0], spawn_words))
        for seed in block:
            if seed >> 128:
                yield substream(seed, *labels)
            else:
                state["state"]["key"] = next(keys)
                bit_gen.state = state
                yield gen
