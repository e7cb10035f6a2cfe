"""The witness settings for certifying an n-qubit SC state, the fidelity
decomposition over those settings, and the standard deviation of the
resulting fidelity estimate.

An n-qubit SC state needs n+1 settings: the computational (H/V) basis plus
the n rotated product bases at theta = k*pi/n, k = 1..n, where the rotated
single-qubit basis is |+,theta> = (|H> + e^{i theta}|V>)/sqrt(2) and
|-,theta> = (|H> - e^{i theta}|V>)/sqrt(2).  Per setting only one aggregate
probability enters the fidelity: the mass on the two computational corners
(setting 1) or the mass of outcomes with an even number of '-' results
(rotated settings), so that <M_theta^(x)n> = 2*P_j - 1.  Only those n+1
aggregates are computed: two diagonal entries and the non-zero entries of
the anti-diagonal, never a rotated setting's 2**n outcome probabilities.

The settings are fixed by n, so `WitnessDecomposition(n)` holds n alone
and derives the angles from it; the computational basis is the one setting
with an object, `MeasurementSetting(n)`.  An argument of the wrong type
raises `QcopiesError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import DensityMatrix, XState, _check_state, check_qubit_count
from .errors import DimensionMismatchError, QcopiesError, _as_array, _check_count, _check_type


@dataclass(frozen=True)
class MeasurementSetting:
    """The computational (H/V) basis of n qubits."""

    # bench/spans.py wraps born_probabilities and reads n and kind, so the
    # computational setting keeps its object
    n: int
    kind: ClassVar[str] = "computational"

    def __post_init__(self):
        check_qubit_count(self.n)

    def born_probabilities(self, rho: DensityMatrix | XState) -> np.ndarray:
        """Probabilities of the 2**n computational outcomes."""
        probs = rho.diagonal().copy()
        np.clip(probs, 0.0, None, out=probs)
        return probs


@dataclass(frozen=True)
class WitnessDecomposition:
    """The n+1 settings certifying an n-qubit SC state, fixed by n alone:
    the computational setting, then the rotated ones at theta = k*pi/n,
    k = 1..n."""

    n: int

    def __post_init__(self):
        check_qubit_count(self.n)

    @property
    def thetas(self) -> list[float]:
        return [k * np.pi / self.n for k in range(1, self.n + 1)]


@dataclass(frozen=True)
class SettingProbabilities:
    """Aggregate probability of each setting, length n+1."""

    n: int
    P: np.ndarray

    def __post_init__(self):
        _check_count(self.n, "qubit count")
        arr = _as_array(self.P, "setting probabilities")
        if arr.shape != (self.n + 1,):
            raise DimensionMismatchError(f"expected {self.n + 1} probabilities, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise QcopiesError("setting probabilities must be finite")
        if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
            raise QcopiesError("setting probabilities must lie in [0, 1]")
        object.__setattr__(self, "P", np.clip(arr, 0.0, 1.0))
        self.P.flags.writeable = False


def build_settings(n: int) -> WitnessDecomposition:
    """Computational setting plus rotated settings at theta = k*pi/n, k = 1..n."""
    return WitnessDecomposition(n)


def setting_probabilities(rho: DensityMatrix | XState,
                          wd: WitnessDecomposition) -> SettingProbabilities:
    """Exact aggregate probabilities P_1..P_{n+1} of a state.

    P_1 is the corner mass on the diagonal.  M_theta^(x)n maps |a> to the
    complementary index a' = d-1-a, so each rotated parity expectation reads
    only the anti-diagonal: Tr(rho M_theta^(x)n) = sum_a rho[a, a'] *
    e^{i theta (n - 2|a|)}, and P_j = (1 + that) / 2.  Only the non-zero
    entries rho[a, a'] enter the sum, two or four for the noise models and
    all of them for a generic dense state.  A phase depends on a only
    through the popcount |a|, so each entry takes its row of phases from
    the n+1 distinct ones.
    """
    _check_state(rho)
    _check_type(wd, WitnessDecomposition)
    if rho.n_qubits != wd.n:
        raise DimensionMismatchError(f"state has {rho.n_qubits} qubits, witness {wd.n}")
    corners = MeasurementSetting(wd.n).born_probabilities(rho)
    anti = rho.anti_diagonal()
    nz = np.flatnonzero(anti)
    pops = ((nz[:, None] >> np.arange(wd.n)) & 1).sum(axis=1)
    rows = np.exp(1j * np.outer(wd.n - 2 * np.arange(wd.n + 1), wd.thetas))
    parity = (anti[nz] @ rows[pops]).real
    P = [corners[0] + corners[-1], *(0.5 * (1.0 + parity))]
    return SettingProbabilities(n=wd.n, P=np.array(P))


def _fidelities(n: int, P: np.ndarray) -> np.ndarray:
    """F of every row of P, whose last axis holds the n+1 aggregates.

    Each row's rotated sum is its own 1 x n by n x 1 product, the dot
    product a lone row gets, so a row's F has the same bytes stacked or not.
    """
    signs = np.array([(-1) ** (j - 1) for j in range(2, n + 2)], dtype=float)
    rotated = (P[..., None, 1:] - 0.5) @ signs[:, None]
    return P[..., 0] / 2.0 + rotated[..., 0, 0] / n


def fidelity_from_probabilities(p: SettingProbabilities) -> float:
    """Fidelity with the pure SC state from the n+1 aggregate probabilities.

    F = P_1/2 + sum_{j=2}^{n+1} (-1)^{j-1} (P_j - 1/2) / n.
    """
    _check_type(p, SettingProbabilities)
    return float(_fidelities(p.n, p.P))


def delta_f(p: SettingProbabilities, t) -> float:
    """Standard deviation of the fidelity estimate with t_j copies per setting.

    sqrt( P1(1-P1)/(4 t1) + (1/n^2) sum_{j>=2} Pj(1-Pj)/tj ).
    """
    _check_type(p, SettingProbabilities)
    counts = _as_array(getattr(t, "t", t), "copy counts")
    if counts.shape != p.P.shape:
        raise DimensionMismatchError(f"need {p.P.size} copy counts, got {counts.shape}")
    if not np.all(np.isfinite(counts) & (counts > 0)):
        raise QcopiesError("all copy counts must be finite and positive")
    return float(_spreads(p.n, p.P, counts))


def _spreads(n: int, P: np.ndarray, t: np.ndarray) -> np.ndarray:
    """delta_f of every row of P at the copies in the matching row of t;
    the last axis holds the n+1 settings.  No validation: a row's spread
    has the same bytes stacked or alone."""
    var = P * (1.0 - P)
    return np.sqrt(var[..., 0] / (4.0 * t[..., 0])
                   + np.sum(var[..., 1:] / t[..., 1:], axis=-1) / n**2)
