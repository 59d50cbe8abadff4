"""Exception types shared across the package, and the typed readers that raise one.

The library raises these where it finds the fault; the CLI maps them onto
process exit codes: ConfigError -> 2, DataError -> 3, NumericalError -> 4.
ConfigError and DataError are also ValueErrors, so ``except ValueError``
still catches bad settings and bad arrays.  Any other exception that
reaches the CLI's ``main`` is a bug and shows its traceback.

A setting is read by :func:`as_integer` or :func:`as_real`, every array
argument of the library by :func:`as_array` and every record argument by
:func:`check_type`, so a wrong type or length is a typed error at the boundary
and never a bare Python or numpy error or a silent cast.
Each allocation sized by outside input passes :func:`check_memory` before it is made.
"""

import contextlib
import numbers
import operator
import os

import numpy as np


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


@contextlib.contextmanager
def json_reader():
    """Re-raise a JSON object reader's bare error (a missing key, a wrong type) as a DataError."""
    try:
        yield
    except AnovaFitError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(str(exc)) from exc


def physical_memory() -> int:
    """Bytes of physical memory, the limit of :func:`check_memory`."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes: int, what: str, error: type[AnovaFitError] = ConfigError) -> None:
    """Raise ``error`` if ``what``, of at least ``nbytes`` bytes, would not fit in memory."""
    memory = physical_memory()
    if nbytes > memory:
        raise error(f"{what} of {nbytes} bytes exceeds the {memory} bytes of physical memory")


def as_integer(value, what: str) -> int:
    """``value`` as an ``int`` through ``operator.index``: a float or a bool is rejected."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def check_type(value, cls: type, what: str) -> None:
    """Raise a ConfigError if ``value`` is not a ``cls``: a record argument is never converted."""
    if not isinstance(value, cls):
        raise ConfigError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")


def as_real(value, what: str) -> float:
    """``value`` as a ``float`` if a ``numbers.Real`` other than a bool within the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} exceeds the float range") from None


def as_array(value, what: str, *, real: bool = True, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a float64 array of bools, integers or floats, or complex128 if complex.

    A complex entry where ``real``, a string, an object, a ragged list and,
    if ``shape`` is given, any other shape are a :class:`DataError`.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what} must be an array of numbers: {exc}") from None
    if array.dtype.kind not in ("biuf" if real else "biufc"):
        raise DataError(f"{what} must be {'real ' if real else ''}numbers, got {array.dtype}")
    if shape is not None and array.shape != shape:
        raise DataError(f"{what} must have shape {shape}, got {array.shape}")
    if array.dtype.kind == "c":
        return np.asarray(array, dtype=np.complex128)
    return np.asarray(array, dtype=np.float64)
