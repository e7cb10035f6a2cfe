"""Distribution-free guarantees for the measured frequencies: per-setting
failure probabilities 2*exp(-2 t h^2), joint success over all settings,
the induced intervals on variance weights and copy counts, and a coverage
experiment that checks the bound empirically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix
from .errors import DimensionMismatchError, QcopiesError
from .reports import csv_text
from .simulator import RngSeed, sample_counts
from .witness import SettingProbabilities, WitnessDecomposition, setting_probabilities


def failure_probability(t: int, h: float) -> float:
    """Two-sided bound 2*exp(-2 t h^2) on |frequency - probability| >= h."""
    if t < 1:
        raise QcopiesError(f"copies must be >= 1, got {t}")
    if not 0 < h < 1:
        raise QcopiesError(f"deviation must be in (0, 1), got {h}")
    return float(min(1.0, 2.0 * np.exp(-2.0 * t * h * h)))


def joint_success(t, h) -> float:
    """Probability that every setting's frequency stays within its band."""
    tt = np.atleast_1d(np.asarray(t))
    hh = np.atleast_1d(np.asarray(h, dtype=float))
    if tt.shape != hh.shape:
        raise DimensionMismatchError(f"shape mismatch: {tt.shape} vs {hh.shape}")
    prod = 1.0
    for ti, hi in zip(tt, hh):
        prod *= max(0.0, 1.0 - failure_probability(int(ti), float(hi)))
    return float(prod)


def required_copies(h: float, delta: float) -> int:
    """Smallest t with 2*exp(-2 t h^2) <= delta."""
    if not 0 < h < 1:
        raise QcopiesError(f"deviation must be in (0, 1), got {h}")
    if not 0 < delta < 1:
        raise QcopiesError(f"failure probability must be in (0, 1), got {delta}")
    if delta >= 2.0 * np.exp(-2.0 * h * h):
        return 1
    return int(np.ceil(np.log(2.0 / delta) / (2.0 * h * h)))


def hoeffding_radius(t: int, delta: float) -> float:
    """Half-width h with 2*exp(-2 t h^2) = delta."""
    if t < 1:
        raise QcopiesError(f"copies must be >= 1, got {t}")
    if not 0 < delta < 1:
        raise QcopiesError(f"failure probability must be in (0, 1), got {delta}")
    return float(np.sqrt(np.log(2.0 / delta) / (2.0 * t)))


@dataclass(frozen=True)
class ConfidenceSpec:
    """Per-setting deviation bounds h_j, target failure rate, copy counts."""

    h: np.ndarray
    delta: float
    t: np.ndarray | None = None

    def __post_init__(self):
        hh = np.atleast_1d(np.asarray(self.h, dtype=float))
        # h = 0 is allowed here: it degenerates the interval to a point.
        if np.any(hh < 0) or np.any(hh >= 1):
            raise QcopiesError("deviation bounds must be in [0, 1)")
        if not 0 < self.delta < 1:
            raise QcopiesError(f"failure probability must be in (0, 1), got {self.delta}")
        object.__setattr__(self, "h", hh)
        if self.t is not None:
            object.__setattr__(self, "t", np.atleast_1d(np.asarray(self.t, dtype=np.int64)))


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


def allocation_interval(p_hat: SettingProbabilities, spec: ConfidenceSpec,
                        epsilon0: float) -> AllocationInterval:
    """Bracket the closed-form allocation when each frequency is only known
    to within +-h_j.

    Setting 1 is a plain probability mass, so its endpoints are p +- h.  A
    rotated setting's frequency enters through the parity difference
    f - (1 - f), so its endpoints are 2(p +- h) - 1; everything is clamped
    to [0, 1] before the variance map.  The variance map is evaluated at
    both endpoints and the min/max taken, then the closed form gives the
    copy-count bracket.
    """
    if not epsilon0 > 0:
        raise QcopiesError(f"epsilon0 must be positive, got {epsilon0}")
    m = p_hat.P.size
    h = np.broadcast_to(spec.h, (m,)).astype(float)
    n = p_hat.n
    eps = epsilon0**2

    lo = np.empty(m)
    hi = np.empty(m)
    lo[0] = np.clip(p_hat.P[0] - h[0], 0.0, 1.0)
    hi[0] = np.clip(p_hat.P[0] + h[0], 0.0, 1.0)
    lo[1:] = np.clip(2.0 * (p_hat.P[1:] - h[1:]) - 1.0, 0.0, 1.0)
    hi[1:] = np.clip(2.0 * (p_hat.P[1:] + h[1:]) - 1.0, 0.0, 1.0)

    coef = np.full(m, 1.0 / n**2)
    coef[0] = 0.25
    var_lo = coef * lo * (1.0 - lo)
    var_hi = coef * hi * (1.0 - hi)
    k_minus = np.minimum(var_lo, var_hi)
    k_plus = np.maximum(var_lo, var_hi)

    def closed_form(k):
        roots = np.sqrt(k)
        return roots * roots.sum() / eps

    mid = np.clip(0.5 * (lo + hi), 0.0, 1.0)
    return AllocationInterval(
        P_minus=lo, P_plus=hi, k_minus=k_minus, k_plus=k_plus,
        t_minus=closed_form(k_minus), t_plus=closed_form(k_plus),
        t_point=closed_form(coef * mid * (1.0 - mid)),
    )


@dataclass(frozen=True)
class CoverageRow:
    copies: int
    lower: float
    upper: float
    estimates: tuple[float, ...]

    @property
    def n_inside(self) -> int:
        return sum(self.lower <= e <= self.upper for e in self.estimates)


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


def coverage_experiment(rho: DensityMatrix, wd: WitnessDecomposition, copy_counts,
                        delta: float, repeats: int, rng: RngSeed) -> CoverageTable:
    """Estimate the computational-corner mass repeatedly at several copy
    counts and record the Hoeffding band around the true value."""
    if repeats < 1:
        raise QcopiesError(f"repeats must be >= 1, got {repeats}")
    true_value = float(setting_probabilities(rho, wd).P[0])
    rows = []
    for i, copies in enumerate(copy_counts):
        copies = int(copies)
        radius = hoeffding_radius(copies, delta)
        estimates = []
        for rep in range(repeats):
            gen = rng.generator(i, rep)
            hits = sample_counts([true_value, 1.0 - true_value], copies, gen)[0]
            estimates.append(float(hits / copies))
        rows.append(CoverageRow(
            copies=copies,
            lower=true_value - radius,
            upper=true_value + radius,
            estimates=tuple(estimates),
        ))
    return CoverageTable(true_value=true_value, delta=delta, rows=tuple(rows))
