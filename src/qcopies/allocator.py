"""Minimum-copies allocation: how many copies of a state to spend on each
measurement setting so the fidelity error stays below a budget, using as
few copies as possible.

The generic problem is

    minimize sum_j t_j   subject to   sum_j k_j / t_j <= eps,  t_j > 0,

whose optimum sits on the constraint boundary at t_j = sqrt(k_j) *
(sum_i sqrt(k_i)) / eps (Lagrange multipliers after substituting
x_j = 1/t_j).  Real-valued solutions are rounded up to integers, which keeps
the constraint satisfied.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MAX_COPIES,
    DegenerateProblemError,
    DimensionMismatchError,
    QcopiesError,
    _as_array,
    _check_count,
    _check_real,
    _check_type,
)
from .witness import SettingProbabilities

# Copy distributions of the eight-photon experiment used as comparison
# fixtures: what the lab actually spent per setting and the reported
# optimized distribution.
EIGHT_PHOTON_EXPERIMENT_COPIES = (352, 200, 107, 100, 110, 111, 106, 116, 103)
EIGHT_PHOTON_REPORTED_OPTIMUM = (415, 106, 103, 106, 103, 108, 101, 108, 103)

# Eight-photon aggregate probabilities as measured: corner mass first, then
# the even-parity masses folded to their smaller branch.
EIGHT_PHOTON_MEASURED_P = (0.8068, 0.2, 0.1869, 0.2, 0.1909, 0.2072, 0.1792, 0.2069, 0.1942)


@dataclass(frozen=True)
class CopyAllocation:
    """Integer copies per setting, each in [1, MAX_COPIES], plus the
    pre-rounding real solution."""

    t: np.ndarray
    epsilon0: float
    real_t: np.ndarray = field(repr=False)

    def __post_init__(self):
        counts = self.t
        # no signed-integer entry passes MAX_COPIES; check such arrays by their least
        if not (isinstance(counts, np.ndarray) and counts.dtype.kind == "i"
                and counts.ndim == 1 and counts.size and counts.min() >= 1):
            counts = _as_array(counts, "copies", object)
            if counts.ndim != 1 or counts.size == 0:
                raise DimensionMismatchError("t must be a nonempty vector")
            for count in counts:
                _check_count(count, "copies", most=MAX_COPIES)
        r = _as_array(self.real_t, "real copies", copy=True)
        _check_real(self.epsilon0, "epsilon0")  # NaN passes: an explicit allocation has no budget
        if counts.shape != r.shape:
            raise DimensionMismatchError("t and real_t must have the same shape")
        object.__setattr__(self, "t", counts.astype(np.int64))
        object.__setattr__(self, "real_t", r)
        self.t.flags.writeable = False
        self.real_t.flags.writeable = False

    @property
    def total(self) -> int:
        return sum(self.t.tolist())  # exact: an int64 sum wraps past 2**63 - 1


def explicit_allocation(t) -> CopyAllocation:
    """Wrap a hand-chosen copy distribution (uniform, experimental, ...);
    it targets no budget, so its epsilon0 is NaN."""
    return CopyAllocation(t=t, epsilon0=float("nan"), real_t=t)


def uniform_allocation(n_settings: int, per_setting: int) -> CopyAllocation:
    _check_count(n_settings, "settings")
    return explicit_allocation([per_setting] * n_settings)


def real_optimum(k: np.ndarray, eps: float) -> np.ndarray:
    """Unrounded minimizer t_j = sqrt(k_j) * sum_i sqrt(k_i) / eps; zero
    weights get zero copies.  Each row along the last axis of k is one
    problem."""
    roots = np.sqrt(k)
    return roots * roots.sum(axis=-1, keepdims=True) / eps


def _round_up(k: np.ndarray, eps: float, t_min: int) -> tuple[np.ndarray, np.ndarray]:
    """Real optimum and integer copies of every row of k (shape (R, m))
    under the budget sum(k/t) <= eps.

    The real optimum is rounded up, zero weights get t_min, and every
    setting at least t_min.  The tie guard puts no count more than a
    relative 2e-12 below the optimum, so sum(k/t) <= eps * (1 + 1e-9).
    A row with no positive weight gets t_min everywhere.  Rows never
    interact, so a row gets the same copies alone or stacked.
    """
    real_t = real_optimum(k, eps)
    if not real_t.max() < 2.0**62:
        raise QcopiesError("copy counts overflow: the budget is too small for these weights")
    # Guard against ties like 50.000000000000007 before rounding up.
    t = np.where(k > 0, np.ceil(real_t * (1 - 1e-12) - 1e-12), t_min).astype(np.int64)
    return real_t, np.maximum(t, t_min)


def _squared_budget(epsilon0: float) -> float:
    """eps = epsilon0**2, checked once: epsilon0 and its square must be
    positive and finite."""
    positive = _check_real(epsilon0, "epsilon0") > 0
    try:
        eps = float(epsilon0**2)  # an int's square may exceed float range
    except OverflowError:
        eps = np.inf
    if not (positive and 0 < eps < np.inf):
        raise QcopiesError(f"epsilon0 must be positive with a positive, finite square, "
                           f"got {epsilon0}")
    return eps


def _plan(k: np.ndarray, eps: float, epsilon0: float, t_min: int) -> CopyAllocation:
    """Both solvers' integer plan of weights k under the squared budget eps."""
    _check_count(t_min, "t_min", most=MAX_COPIES)
    real_t, t = _round_up(k[None], eps, t_min)
    return CopyAllocation(t=t[0], epsilon0=epsilon0, real_t=real_t[0])


def solve_budget(k, epsilon: float, t_min: int = 1) -> CopyAllocation:
    """Closed-form minimizer of total copies under sum(k_j / t_j) <= epsilon,
    for variance weights k and the squared error budget epsilon = eps0**2.

    Zero-weight settings get t_min copies so every setting is still
    observed.  Raises DegenerateProblemError if every weight is zero.
    """
    k = _as_array(k, "variance weights")
    if k.ndim != 1 or k.size == 0:
        raise DimensionMismatchError("k must be a nonempty vector")
    if not np.all(np.isfinite(k)) or np.any(k < 0):
        raise QcopiesError("variance weights must be finite and nonnegative")
    if not 0 < _check_real(epsilon, "error budget") < np.inf:
        raise QcopiesError(f"error budget must be positive and finite, got {epsilon}")
    if not (k > 0).any():
        raise DegenerateProblemError("all variance weights are zero")
    return _plan(k, epsilon, float(np.sqrt(epsilon)), t_min)


def sc_variance_weights(p: SettingProbabilities) -> np.ndarray:
    """k_1 = P1(1-P1)/4 and k_j = Pj(1-Pj)/n^2 for the rotated settings."""
    _check_type(p, SettingProbabilities)
    return _sc_weights(p.n, p.P)


def _sc_weights(n: int, P: np.ndarray) -> np.ndarray:
    """sc_variance_weights of every row of P, whose last axis holds the
    n+1 settings."""
    var = P * (1.0 - P)
    k = np.empty_like(var)
    k[..., 0] = var[..., 0] / 4.0
    k[..., 1:] = var[..., 1:] / n**2
    return k


def allocate_sc(p: SettingProbabilities, epsilon0: float, t_min: int = 1) -> CopyAllocation:
    """Minimum copies per setting so the fidelity deviation stays <= epsilon0.

    When every probability is 0 or 1 the estimate has no variance and the
    budget is met trivially; each setting then receives t_min copies.
    """
    eps = _squared_budget(epsilon0)
    return _plan(sc_variance_weights(p), eps, float(epsilon0), t_min)

