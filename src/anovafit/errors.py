"""Exception types shared across the package, and the integer check that raises one.

The library raises these where it finds the fault; the CLI maps them onto
process exit codes: ConfigError -> 2, DataError -> 3, NumericalError -> 4.
ConfigError and DataError are also ValueErrors, so ``except ValueError``
still catches bad settings and bad arrays.  Any other exception that
reaches the CLI's ``main`` is a bug and shows its traceback.
"""

import operator


class AnovaFitError(Exception):
    """Base class for package-specific errors."""


class ConfigError(AnovaFitError, ValueError):
    """Invalid or mutually inconsistent configuration values."""


class DataError(AnovaFitError, ValueError):
    """Malformed or out-of-contract input data."""


class DomainError(DataError):
    """Coordinate lies outside the domain of the selected basis."""


class NumericalError(AnovaFitError):
    """Numerical failure while solving or evaluating."""


class DegenerateModelError(NumericalError):
    """Model variance is zero; sensitivity indices are undefined."""


def as_integer(value, what: str) -> int:
    """``value`` as an ``int`` through ``operator.index``: a float is rejected, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None
