"""Exception hierarchy for the cscf package."""


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
