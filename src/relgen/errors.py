"""Exception types shared across the package, one per CLI exit code (2, 3, 4), and
the size check that raises one."""

import numpy as np


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class DataError(ValueError):
    """A dataset file or in-memory dataset violates the expected layout.

    One type for every such fault, such as a malformed row, a domain without
    a meta-data row or a domain in two splits; the message says which.
    """


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
