"""Exception types shared across the package, the one check of a count and
the one check of an argument's type."""
from numbers import Integral


class QcopiesError(ValueError):
    """Base class for all domain errors raised by this package."""


class DimensionMismatchError(QcopiesError):
    """Operands have incompatible dimensions."""


class DegenerateProblemError(QcopiesError):
    """Allocation problem has no variance anywhere (all weights zero)."""


class ConfigError(QcopiesError):
    """Invalid experiment configuration."""


def _check_count(value, name: str, error: type[QcopiesError] = QcopiesError,
                 least: int = 1) -> None:
    """Raise `error` unless value is an integer >= least: a Python or numpy
    integer, not a bool or a float.  An integer is shown as a plain int,
    anything else by its repr, so that 2.5 and '2' stay distinct."""
    integer = isinstance(value, Integral) and not isinstance(value, bool)
    if not integer or value < least:
        shown = int(value) if integer else repr(value)
        raise error(f"{name} must be an integer >= {least}, got {shown}")


def _check_type(value, kinds) -> None:
    """Raise `QcopiesError` unless value is an instance of `kinds`, a class
    or a tuple of classes: "expected X or Y, got Z"."""
    if not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise QcopiesError(f"expected {names}, got {type(value).__name__}")
