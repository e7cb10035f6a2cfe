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


def _check_count(value, name: str, error: type[QcopiesError] = QcopiesError,
                 least: int = 1) -> None:
    """Raise `error` unless value is an integer >= least: a Python or numpy
    integer, not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
