"""Exception types shared across the package, and the size check that raises one."""

import numpy as np


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class DataError(ValueError):
    """A dataset file or in-memory dataset violates the expected layout."""


class MissingMetaError(DataError):
    """A domain appears in the data but has no meta-data row."""


class OverlappingSplitError(DataError):
    """A domain is assigned to more than one of train/valid/test."""


class MalformedRowError(DataError):
    """A row in a data file cannot be parsed."""


class NumericalError(RuntimeError):
    """Training or optimization produced a non-finite quantity."""


def allocate(n: int, name: str, *rest: int) -> np.ndarray:
    """An uninitialised float64 buffer of shape (n, *rest), its memory untouched.

    A size numpy cannot allocate (a MemoryError, or a ValueError for a size
    past its index range) is a ConfigError naming the parameter of n.
    """
    try:
        return np.empty((n, *rest))
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{name} = {n} cannot be allocated ({exc})") from None
