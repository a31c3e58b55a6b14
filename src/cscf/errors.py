"""Exception hierarchy for the cscf package, and its one rule for a count, for a
real and for a position."""

import math
import numbers

import numpy as np


class CscfError(Exception):
    """Base class for all package errors."""


class FixedPointSeedError(CscfError, ValueError):
    """A chaotic map was seeded on a documented fixed (or absorbing) point."""


class SeedOutOfRangeError(CscfError, ValueError):
    """A chaotic map seed lies outside the kind's admissible interval."""


class DivergedOrbitError(CscfError, ArithmeticError):
    """A chaotic iterate left the finite range it is required to stay in."""


class DimensionMismatchError(CscfError, ValueError):
    """Two vectors that must share a dimension do not."""


class SameAgentError(CscfError, ValueError):
    """The random partner of an improved-firefly move is the mover itself."""


class NonFiniteResultError(CscfError, ArithmeticError):
    """An objective or constraint evaluated to NaN/inf on in-bounds input."""


class EmptySampleError(CscfError, ValueError):
    """A statistic was requested over an empty sample."""


class ConfigError(CscfError, ValueError):
    """An optimizer or experiment configuration is invalid."""


class EmptyInputError(CscfError, ValueError):
    """A report was requested over a directory with no readable records."""


def as_count(name: str, value, least: int) -> int:
    """``value`` as a Python ``int`` of at least ``least``, or ``ConfigError``: the
    one check of every count (a config's counts, a dimension, a batch's sizes).  A
    bool or a non-integer is refused; a numpy integer comes back as an ``int``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value.__index__() < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return value.__index__()


def as_real(name: str, value) -> float:
    """``value`` as a finite ``float``, or ``ConfigError``; a bool is not a real here."""
    real = (float, int, numbers.Real)  # float and int first: the abstract class is slow
    if isinstance(value, bool) or not isinstance(value, real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def as_floats(x, n: int, name: str) -> list:
    """``x``, any array-like of ``n`` numbers, as a list of Python floats, or
    ``DimensionMismatchError`` for any other shape: the one position check, which an
    evaluator calls for all but a list of ``n`` (the engine's positions skip it)."""
    z = np.asarray(x, dtype=float)
    if z.shape != (n,):
        raise DimensionMismatchError(f"{name} takes {n} variables, got shape {z.shape}")
    return z.tolist()
