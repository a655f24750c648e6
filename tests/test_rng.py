"""Deterministic substreams: seed validation, and the batch-keyed substreams that
equal substream seed for seed."""

import random

import numpy as np
import pytest

from relgen import rng
from relgen.errors import ConfigError
from relgen.rng import substream, substreams

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128]  # 2**128 falls back
THEORY_LABELS = [("world", "latent"), ("world", "data"), ("excess-risk",)]


def test_a_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        substream(-1, "world")
    assert issubclass(ConfigError, ValueError)  # older `except ValueError` sites still hold


def _assert_same_streams(seeds, labels):
    n = 0
    for seed, gen in zip(seeds, substreams(seeds, *labels), strict=True):
        want = substream(seed, *labels)
        assert repr(gen.bit_generator.state) == repr(want.bit_generator.state), (seed, labels)
        assert gen.random() == want.random()
        assert gen.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()
        assert gen.uniform(-1.0, 1.0, size=5).tobytes() == want.uniform(-1.0, 1.0, size=5).tobytes()
        n += 1
    assert n == len(seeds)


@pytest.mark.parametrize("labels", THEORY_LABELS + [("train", "shuffle", 3), ()])
def test_each_seed_gets_the_stream_of_substream(labels):
    draw = random.Random(22)
    seeds = EDGE_SEEDS + [draw.getrandbits(draw.choice([8, 32, 33, 64, 65, 127, 128]))
                          for _ in range(300)]
    _assert_same_streams(seeds, labels)


def test_streams_keep_their_bits_across_a_key_block(monkeypatch):
    _assert_same_streams(range(rng.KEY_BLOCK + 3), ("excess-risk",))
    monkeypatch.setattr(rng, "KEY_BLOCK", 4)
    seeds = list(range(2**32 - 5, 2**32 + 6)) + [2**128 - 1, 2**128, 7]  # 14 seeds, 4 blocks
    for labels in THEORY_LABELS:
        _assert_same_streams(seeds, labels)
    assert sum(1 for _ in substreams(iter(range(9)), "world")) == 9  # any iterable, read lazily


@pytest.mark.parametrize("key", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_label_keys_of_one_and_two_words_mix_as_seed_sequence_does(monkeypatch, key):
    # a label key of 0 or below 2**32 is one entropy word, one of 2**32 or more two
    monkeypatch.setattr(rng, "_label_key", lambda label: key)
    for seed in (0, 5, 2**40 + 3, 2**100):
        gen = next(substreams([seed], "a", "b"))
        want = np.random.SeedSequence(seed, spawn_key=(key, key)).generate_state(2, np.uint64)
        assert gen.bit_generator.state["state"]["key"].tolist() == want.tolist()


def test_substreams_reject_a_negative_seed_before_yielding():
    streams = substreams([3, 4, -2], "world")
    with pytest.raises(ConfigError, match="seed must be non-negative, got -2"):
        next(streams)
