"""Exception types shared across the package, and the one check of each kind
of argument: `_check_count` (an integer), `_check_real` (a real number),
`_as_list` (a sequence), `_as_array` (a numeric array) and `_check_type` (an
instance of given classes).  Each raises `QcopiesError` or the given subclass."""
from numbers import Integral, Real

import numpy as np


class QcopiesError(ValueError):
    """Base class for all domain errors raised by this package."""


class DimensionMismatchError(QcopiesError):
    """Operands have incompatible dimensions."""


class DegenerateProblemError(QcopiesError):
    """Allocation problem has no variance anywhere (all weights zero)."""


class ConfigError(QcopiesError):
    """Invalid experiment configuration."""


# the largest copy count: copies are held and drawn as 64-bit integers
MAX_COPIES = 2**63 - 1


def _check_count(value, name: str, error=QcopiesError, least: int = 1,
                 most: int | None = None) -> None:
    """Raise `error` unless value is an integer >= least, and <= most if
    given: a Python or numpy integer, not a bool or a float.  An integer is
    shown as a plain int, anything else by its repr, so that 2.5 and '2'
    stay distinct."""
    integer = isinstance(value, Integral) and not isinstance(value, bool)
    if not integer or value < least:
        shown = int(value) if integer else repr(value)
        raise error(f"{name} must be an integer >= {least}, got {shown}")
    if most is not None and value > most:
        raise error(f"{name} must be at most {most}")


def _check_real(value, name: str, error=QcopiesError) -> float:
    """value as a float: a Python or numpy real number, not a bool, that a
    float can hold.  The caller checks its range."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} is too large for a float") from None


def _as_list(values, name: str, error=QcopiesError, empty: bool = False) -> list:
    """values as a list: an iterable with at least one entry, or none if `empty`."""
    try:
        out = list(values)
    except TypeError:
        raise error(f"{name} must be a sequence, got {values!r}") from None
    if not (out or empty):
        raise error(f"{name} must not be empty")
    return out


def _as_array(values, name: str, dtype=float, copy: bool = False, error=QcopiesError):
    """values as a numpy array of `dtype`: a new one with `copy`, otherwise
    uncopied where `np.asarray` would not copy."""
    try:
        return (np.array if copy else np.asarray)(values, dtype=dtype)
    except (TypeError, ValueError):
        raise error(f"{name} must be numeric, got {values!r}") from None
    except OverflowError:
        raise error(f"{name} must fit {np.dtype(dtype)}") from None


def _check_type(value, kinds) -> None:
    """Raise `QcopiesError` unless value is an instance of `kinds`, a class
    or a tuple of classes: "expected X or Y, got Z"."""
    if not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise QcopiesError(f"expected {names}, got {type(value).__name__}")
