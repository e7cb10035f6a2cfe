"""Measurement settings for certifying an n-qubit SC state, the fidelity
decomposition over those settings, and the standard deviation of the
resulting fidelity estimate.

An n-qubit SC state needs n+1 settings: the computational (H/V) basis plus
the n rotated product bases at theta = k*pi/n, k = 1..n, where the rotated
single-qubit basis is |+,theta> = (|H> + e^{i theta}|V>)/sqrt(2) and
|-,theta> = (|H> - e^{i theta}|V>)/sqrt(2).  Per setting only one aggregate
probability enters the fidelity: the mass on the two computational corners
(setting 1) or the mass of outcomes with an even number of '-' results
(rotated settings), so that <M_theta^(x)n> = 2*P_j - 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DensityMatrix, XState, check_qubit_count
from .errors import DimensionMismatchError, QcopiesError

COMPUTATIONAL = "computational"
ROTATED = "rotated"


@lru_cache(maxsize=32)
def popcounts(n: int) -> np.ndarray:
    """Number of set bits of every outcome index of an n-qubit setting."""
    idx = np.arange(2**n, dtype=np.uint32)
    pops = np.zeros(2**n, dtype=np.int64)
    for q in range(n):
        pops += (idx >> q) & 1
    pops.flags.writeable = False
    return pops


def rotated_bras(theta: float) -> np.ndarray:
    """2x2 matrix whose rows are <+,theta| and <-,theta|."""
    e = np.exp(-1j * theta)
    return np.array([[1.0, e], [1.0, -e]], dtype=complex) / np.sqrt(2.0)


def basis_probabilities(rho: DensityMatrix | XState, bras_per_qubit) -> np.ndarray:
    """Born probabilities of all 2**n outcomes of a product basis.

    `bras_per_qubit` is a length-n sequence of 2x2 matrices whose rows are
    the measurement bras of each qubit.  The contraction is done qubit by
    qubit on the reshaped density tensor, so no 2**n x 2**n projectors are
    ever materialized; the state itself is read as a dense matrix, which
    an X-state has only up to MAX_DENSE_QUBITS qubits.
    """
    n = rho.n_qubits
    if len(bras_per_qubit) != n:
        raise DimensionMismatchError(f"need {n} single-qubit bases, got {len(bras_per_qubit)}")
    t = rho.matrix.reshape((2,) * (2 * n))
    for q, u in enumerate(bras_per_qubit):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [q])), 0, q)
        t = np.moveaxis(np.tensordot(u.conj(), t, axes=([1], [n + q])), 0, n + q)
    probs = np.einsum("ii->i", t.reshape(2**n, 2**n)).real.copy()
    np.clip(probs, 0.0, None, out=probs)
    return probs


@dataclass(frozen=True)
class MeasurementSetting:
    """One complete projective product basis: computational, or rotated by theta."""

    n: int
    kind: str
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in (COMPUTATIONAL, ROTATED):
            raise QcopiesError(f"unknown setting kind {self.kind!r}")
        if self.kind == ROTATED:
            if self.theta is None:
                raise QcopiesError("rotated setting needs an angle")
            k = self.theta * self.n / np.pi
            if not (abs(k - round(k)) < 1e-9 and 1 <= round(k) <= self.n):
                raise QcopiesError(
                    f"rotated angle must be k*pi/n with k in 1..{self.n}, got {self.theta}"
                )
        elif self.theta is not None:
            raise QcopiesError("computational setting takes no angle")

    def born_probabilities(self, rho: DensityMatrix | XState) -> np.ndarray:
        if rho.n_qubits != self.n:
            raise DimensionMismatchError(f"state has {rho.n_qubits} qubits, setting {self.n}")
        if self.kind == COMPUTATIONAL:
            probs = rho.diagonal().copy()
            np.clip(probs, 0.0, None, out=probs)
            return probs
        return basis_probabilities(rho, [rotated_bras(self.theta)] * self.n)


@dataclass(frozen=True)
class WitnessDecomposition:
    """The n+1 settings certifying an n-qubit SC state, computational first."""

    n: int
    settings: tuple[MeasurementSetting, ...]

    @property
    def thetas(self) -> list[float]:
        return [s.theta for s in self.settings[1:]]


@dataclass(frozen=True)
class SettingProbabilities:
    """Aggregate probability of each setting, length n+1."""

    n: int
    P: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.P, dtype=float)
        if arr.shape != (self.n + 1,):
            raise DimensionMismatchError(f"expected {self.n + 1} probabilities, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise QcopiesError("setting probabilities must be finite")
        if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
            raise QcopiesError("setting probabilities must lie in [0, 1]")
        object.__setattr__(self, "P", np.clip(arr, 0.0, 1.0))
        self.P.flags.writeable = False

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "P": self.P.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "SettingProbabilities":
        obj = json.loads(text)
        return cls(n=int(obj["n"]), P=np.asarray(obj["P"], dtype=float))


def build_settings(n: int) -> WitnessDecomposition:
    """Computational setting plus rotated settings at theta = k*pi/n, k = 1..n."""
    check_qubit_count(n)
    settings = [MeasurementSetting(n, COMPUTATIONAL)]
    settings += [MeasurementSetting(n, ROTATED, k * np.pi / n) for k in range(1, n + 1)]
    return WitnessDecomposition(n=n, settings=tuple(settings))


def setting_probabilities(rho: DensityMatrix | XState,
                          wd: WitnessDecomposition) -> SettingProbabilities:
    """Exact aggregate probabilities P_1..P_{n+1} of a state.

    P_1 is the corner mass on the diagonal.  M_theta^(x)n maps |a> to the
    complementary index a' = d-1-a, so each rotated parity expectation reads
    only the anti-diagonal: Tr(rho M_theta^(x)n) = sum_a rho[a, a'] *
    e^{i theta (n - 2|a|)}, and P_j = (1 + that) / 2.  A phase depends on a
    only through the popcount |a|, so the 2**n x n phase table is gathered
    from its n+1 distinct rows.
    """
    if rho.n_qubits != wd.n:
        raise DimensionMismatchError(f"state has {rho.n_qubits} qubits, witness {wd.n}")
    corners = wd.settings[0].born_probabilities(rho)
    rows = np.exp(1j * np.outer(wd.n - 2 * np.arange(wd.n + 1), wd.thetas))
    parity = (rho.anti_diagonal() @ rows[popcounts(wd.n)]).real
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
    return float(_fidelities(p.n, p.P))


def delta_f(p: SettingProbabilities, t) -> float:
    """Standard deviation of the fidelity estimate with t_j copies per setting.

    sqrt( P1(1-P1)/(4 t1) + (1/n^2) sum_{j>=2} Pj(1-Pj)/tj ).
    """
    counts = np.asarray(getattr(t, "t", t), dtype=float)
    if counts.shape != p.P.shape:
        raise DimensionMismatchError(f"need {p.P.size} copy counts, got {counts.shape}")
    if np.any(counts <= 0):
        raise QcopiesError("all copy counts must be positive")
    return float(_spreads(p.n, p.P, counts))


def _spreads(n: int, P: np.ndarray, t: np.ndarray) -> np.ndarray:
    """delta_f of every row of P at the copies in the matching row of t;
    the last axis holds the n+1 settings.  No validation: a row's spread
    has the same bytes stacked or alone."""
    var = P * (1.0 - P)
    return np.sqrt(var[..., 0] / (4.0 * t[..., 0])
                   + np.sum(var[..., 1:] / t[..., 1:], axis=-1) / n**2)
