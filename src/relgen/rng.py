"""Deterministic random streams.

Every source of randomness in the package draws from a counter-based
generator (Philox) keyed by a user seed plus a tuple of string/int labels.
The same (seed, labels) always reproduces the same stream, and distinct
labels give statistically independent streams, so e.g. data generation,
parameter init, and batch shuffling never share state.
"""

from __future__ import annotations

import hashlib

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
