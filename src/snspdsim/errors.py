"""Exception types shared across the package.

Every value the package rejects raises a `SnspdSimError`, from the function
that checks it: a bad argument or value is a `ConfigError`, a stream that
breaks its invariants a `StreamValidationError`, an unparsable time-tag file
a `FormatError`. `ConfigError` and `StreamValidationError` also derive from
`ValueError`, so callers that catch `ValueError` keep working. The command
line prints `error:` and exits 2 on a `SnspdSimError` or an `OSError`.
"""


class SnspdSimError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SnspdSimError, ValueError):
    """Invalid parameter value or inconsistent parameter combination."""


class PrecisionError(SnspdSimError):
    """A sampling grid is too coarse to resolve the requested dynamics."""


class FitError(SnspdSimError):
    """Not enough usable data points for a fit."""


class SimulationError(SnspdSimError):
    """Internal inconsistency detected while generating a click stream."""


class FormatError(SnspdSimError):
    """Malformed or unrecognizable time-tag file."""


class StreamValidationError(SnspdSimError, ValueError):
    """Time-tag stream whose contents violate stream invariants."""
