"""Exception types shared across the package, and the one check of a count."""
from numbers import Integral


class QcopiesError(ValueError):
    """Base class for all domain errors raised by this package."""


class DimensionMismatchError(QcopiesError):
    """Operands have incompatible dimensions."""


class DegenerateProblemError(QcopiesError):
    """Allocation problem has no variance anywhere (all weights zero)."""


class InfeasibleAfterRelaxationError(QcopiesError):
    """Relaxed allocation failed the original bilinear constraint."""


class ConfigError(QcopiesError):
    """Invalid experiment configuration."""


def _check_count(value, name: str, error: type[QcopiesError] = QcopiesError) -> None:
    """Raise `error` unless value is an integer >= 1: a Python or numpy
    integer, not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")
