"""Distribution-free guarantees for the measured frequencies: per-setting
failure probabilities 2*exp(-2 t h^2), joint success over all settings,
the induced intervals on variance weights and copy counts, and a coverage
experiment that checks the bound empirically.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .allocator import _sc_weights, _squared_budget, real_optimum
from .core import DensityMatrix, XState
from .errors import (_MAX_SIZE, MAX_COPIES, DimensionMismatchError, QcopiesError, _as_array,
                     _as_list, _check_count, _check_real, _check_type)
from .reports import csv_text
from .simulator import RngSeed, sample_counts
from .witness import SettingProbabilities, WitnessDecomposition, setting_probabilities


def failure_probability(t: int, h: float) -> float:
    """Two-sided bound 2*exp(-2 t h^2) on |frequency - probability| >= h."""
    _check_count(t, "copies", most=MAX_COPIES)
    if not 0 < _check_real(h, "deviation") < 1:
        raise QcopiesError(f"deviation must be in (0, 1), got {h}")
    return float(min(1.0, 2.0 * np.exp(-2.0 * t * h * h)))


def joint_success(t, h) -> float:
    """Probability that every setting's frequency stays within its band."""
    tt = np.atleast_1d(_as_array(t, "copies", dtype=None))
    hh = np.atleast_1d(_as_array(h, "deviations"))
    if tt.shape != hh.shape:
        raise DimensionMismatchError(f"shape mismatch: {tt.shape} vs {hh.shape}")
    prod = 1.0
    for ti, hi in zip(_as_list(tt.ravel(), "settings"), hh.ravel()):
        prod *= max(0.0, 1.0 - failure_probability(ti, float(hi)))
    return float(prod)


def required_copies(h: float, delta: float) -> int:
    """Smallest t with 2*exp(-2 t h^2) <= delta, at most MAX_COPIES."""
    if not 0 < _check_real(h, "deviation") < 1:
        raise QcopiesError(f"deviation must be in (0, 1), got {h}")
    if not 0 < _check_real(delta, "failure probability") < 1:
        raise QcopiesError(f"failure probability must be in (0, 1), got {delta}")
    if delta >= 2.0 * np.exp(-2.0 * h * h):
        return 1
    with np.errstate(divide="ignore", over="ignore"):
        copies = np.ceil(np.log(2.0 / delta) / (2.0 * h * h))
    if copies > MAX_COPIES:
        raise QcopiesError(f"deviation {h} needs more than {MAX_COPIES} copies")
    return int(copies)


def hoeffding_radius(t: int, delta: float) -> float:
    """Half-width h with 2*exp(-2 t h^2) = delta."""
    _check_count(t, "copies", most=MAX_COPIES)
    if not 0 < _check_real(delta, "failure probability") < 1:
        raise QcopiesError(f"failure probability must be in (0, 1), got {delta}")
    return float(np.sqrt(np.log(2.0 / delta) / (2.0 * t)))


@dataclass(frozen=True)
class AllocationInterval:
    """Copy-count interval induced by frequency uncertainty +-h."""

    P_minus: np.ndarray
    P_plus: np.ndarray
    k_minus: np.ndarray
    k_plus: np.ndarray
    t_minus: np.ndarray
    t_plus: np.ndarray
    t_point: np.ndarray


def allocation_interval(p_hat: SettingProbabilities, h, epsilon0: float) -> AllocationInterval:
    """Bracket the closed-form allocation when each frequency is only known
    to within +-h (a scalar, or one bound per setting, each in [0, 1)).

    Each setting's probability ranges over [P - h, P + h] clamped to [0, 1].
    P(1-P) is concave, so the smallest variance weight sits at an end of that
    range and the largest at the point of the range nearest 1/2.  The optimum
    grows with every weight, so the allocation of any state in the range lies
    between t_minus and t_plus; t_point is the allocation of p_hat itself.
    """
    _check_type(p_hat, SettingProbabilities)
    eps = _squared_budget(epsilon0)
    hh = _as_array(h, "h")
    if hh.ndim > 1 or hh.size not in (1, p_hat.P.size) or not np.all((hh >= 0) & (hh < 1)):
        raise QcopiesError(f"h must be a scalar or {p_hat.P.size} bounds in [0, 1), got {h!r}")
    lo = np.clip(p_hat.P - hh, 0.0, 1.0)
    hi = np.clip(p_hat.P + hh, 0.0, 1.0)
    k_minus = np.minimum(_sc_weights(p_hat.n, lo), _sc_weights(p_hat.n, hi))
    k_plus = _sc_weights(p_hat.n, np.clip(0.5, lo, hi))
    return AllocationInterval(
        P_minus=lo, P_plus=hi, k_minus=k_minus, k_plus=k_plus,
        t_minus=real_optimum(k_minus, eps), t_plus=real_optimum(k_plus, eps),
        t_point=real_optimum(_sc_weights(p_hat.n, p_hat.P), eps),
    )


@dataclass(frozen=True)
class CoverageRow:
    copies: int
    lower: float
    upper: float
    estimates: tuple[float, ...]

    @cached_property
    def n_inside(self) -> int:
        e = np.asarray(self.estimates)
        return int(np.count_nonzero((self.lower <= e) & (e <= self.upper)))


@dataclass(frozen=True)
class CoverageTable:
    true_value: float
    delta: float
    rows: tuple[CoverageRow, ...]

    @property
    def all_inside(self) -> bool:
        return all(r.n_inside == len(r.estimates) for r in self.rows)

    @property
    def empirical_coverage(self) -> float:
        total = sum(len(r.estimates) for r in self.rows)
        inside = sum(r.n_inside for r in self.rows)
        return inside / total

    def to_csv(self) -> str:
        width = max(len(r.estimates) for r in self.rows)
        header = ["copies", "lower", "upper"] + [f"estimate_{i + 1}" for i in range(width)]
        return csv_text(header, [(r.copies, r.lower, r.upper, *r.estimates) for r in self.rows])


def coverage_experiment(rho: DensityMatrix | XState, wd: WitnessDecomposition, copy_counts,
                        delta: float, repeats: int, rng: RngSeed) -> CoverageTable:
    """Estimate the computational-corner mass repeatedly at several copy
    counts and record the Hoeffding band around the true value.

    Copy count i reads the stream `rng.generator(i)` and draws all its
    repeats in one call."""
    _check_type(rng, RngSeed)
    _check_count(repeats, "repeats", most=_MAX_SIZE)
    copy_counts = _as_list(copy_counts, "copy counts")
    true_value = float(setting_probabilities(rho, wd).P[0])
    rows = []
    for i, copies in enumerate(copy_counts):
        radius = hoeffding_radius(copies, delta)  # checks the count
        copies = int(copies)
        hits = sample_counts([true_value, 1.0 - true_value], copies, rng.generator(i),
                             size=repeats)[:, 0]
        rows.append(CoverageRow(
            copies=copies,
            lower=true_value - radius,
            upper=true_value + radius,
            estimates=tuple((hits / copies).tolist()),
        ))
    return CoverageTable(true_value=true_value, delta=delta, rows=tuple(rows))
