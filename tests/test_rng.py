"""Deterministic substreams: seed validation."""

import pytest

from relgen.errors import ConfigError
from relgen.rng import substream


def test_a_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        substream(-1, "world")
    assert issubclass(ConfigError, ValueError)  # older `except ValueError` sites still hold

