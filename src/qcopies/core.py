"""Complex linear algebra substrate: density matrices, X-states, synthetic
noise models, the cat-state fidelity, norms and PSD/trace-one projection.

Conventions: qubit basis states are |H> = (1,0) and |V> = (0,1); a register
of n qubits lives in dimension 2**n with qubit 0 as the most significant bit
of the computational index.

The three synthetic noise models are X-states: zero off the diagonal and
the anti-diagonal.  `XState` holds just those 2 * 2**n entries, so the
models build states of up to MAX_QUBITS = 20 qubits in O(2**n) time and
memory; one writer fills in each model's flat background and at most four
spikes from its mixture weights.  A dense 2**n x 2**n matrix,
`DensityMatrix` or an X-state's `matrix` view, exists only up to
MAX_DENSE_QUBITS = 12 qubits.  The library builds no dense state of its
own: a `DensityMatrix` comes from a state file (`density_from_json`) or
from reconstruction (`psd_project`, which projects one matrix).  Functions
that take a state raise `QcopiesError` on anything else (`_check_state`).
The fidelity with the cat state reads only the two corners and one
anti-diagonal entry, so `sc_fidelity` needs no dense view at any n.
"""
from __future__ import annotations

import json
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import (ConfigError, DimensionMismatchError, QcopiesError, _as_array, _check_count,
                     _check_real, _check_type)

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
MAX_QUBITS = 20
MAX_DENSE_QUBITS = 12


def check_qubit_count(n: int) -> None:
    """Raise QcopiesError unless n is a qubit count in [1, MAX_QUBITS]: a
    Python or numpy integer, not a bool or a float."""
    if isinstance(n, Integral) and not 1 <= n <= MAX_QUBITS:
        raise QcopiesError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    _check_count(n, "qubit count")


def _check_dense(n: int) -> None:
    if n > MAX_DENSE_QUBITS:
        raise QcopiesError(f"a dense {n}-qubit matrix needs {16 * 4**n} bytes; "
                           f"dense matrices go up to {MAX_DENSE_QUBITS} qubits")


def _check_size_and_entries(d: int, *arrays: np.ndarray) -> None:
    """Raise unless the matrix size d is 2**n, n >= 1, and the arrays are finite."""
    if d < 2 or d & (d - 1):
        raise DimensionMismatchError(f"matrix size must be 2**n with n >= 1, got {d}")
    if not all(np.isfinite(a).all() for a in arrays):
        raise QcopiesError("matrix entries must be finite")


class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix of size 2**n."""

    def __init__(self, matrix: np.ndarray, validate: bool = True):
        m = _as_array(matrix, "matrix", complex, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        if validate:
            _check_size_and_entries(m.shape[0], m)
            herm_dev = float(np.max(np.abs(m - m.conj().T)))
            if herm_dev > HERMITIAN_TOL:
                raise QcopiesError(f"matrix is not Hermitian: max|rho - rho^dag| = {herm_dev:.3e}")
            tr = complex(np.trace(m))
            if abs(tr - 1.0) > TRACE_TOL:
                raise QcopiesError(f"trace = {tr!r}, expected 1")
            lo = float(np.linalg.eigvalsh(m).min())
            if lo < EIGENVALUE_FLOOR:
                raise QcopiesError(f"matrix is not PSD: min eigenvalue = {lo:.3e}")
        self.matrix = m
        self.matrix.flags.writeable = False
        self.dim = m.shape[0]

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(self.dim)))

    def diagonal(self) -> np.ndarray:
        """rho[a, a], real."""
        return self.matrix.diagonal().real

    def anti_diagonal(self) -> np.ndarray:
        """rho[a, d-1-a]."""
        return self.matrix[:, ::-1].diagonal()

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class XState:
    """Density matrix that is zero off its diagonal and anti-diagonal.

    Holds the real diagonal `diag[a] = rho[a, a]` and the anti-diagonal
    `anti[a] = rho[a, d-1-a]`, 2 * 2**n entries.  Such a matrix is a direct
    sum of the 2x2 blocks on the index pairs (a, d-1-a), so validation is
    O(2**n): finite entries, Hermitian pairing anti[a] = conj(anti[d-1-a]),
    trace one, and each block's smaller eigenvalue above the floor (which
    also makes the diagonal nonnegative).  With validate=False the arrays
    are taken as they are, unchecked and uncopied, and are frozen in place.
    """

    def __init__(self, diag: np.ndarray, anti: np.ndarray, validate: bool = True):
        diag = (_as_array(diag, "diagonal", complex) if validate else np.asarray(diag)).ravel()
        anti = _as_array(anti, "anti-diagonal", complex, copy=validate).ravel()
        if diag.shape != anti.shape:
            raise DimensionMismatchError(
                f"diagonal has {diag.size} entries, anti-diagonal {anti.size}")
        if validate:
            _check_size_and_entries(diag.size, diag, anti)
            if np.abs(diag.imag).max() > HERMITIAN_TOL:
                raise QcopiesError("diagonal is not real")
            herm_dev = float(np.abs(anti - anti[::-1].conj()).max())
            if herm_dev > HERMITIAN_TOL:
                raise QcopiesError(f"matrix is not Hermitian: max|rho - rho^dag| = {herm_dev:.3e}")
            x, y = diag.real, diag.real[::-1]
            tr = float(x.sum())
            if abs(tr - 1.0) > TRACE_TOL:
                raise QcopiesError(f"trace = {tr!r}, expected 1")
            lo = float((0.5 * (x + y - np.hypot(x - y, 2.0 * np.abs(anti)))).min())
            if lo < EIGENVALUE_FLOOR:
                raise QcopiesError(f"matrix is not PSD: min eigenvalue = {lo:.3e}")
        self._diag = (np.array if validate else np.asarray)(diag.real, dtype=float)
        self._anti = anti
        self._diag.flags.writeable = False
        self._anti.flags.writeable = False
        self.dim = diag.size

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(self.dim)))

    def diagonal(self) -> np.ndarray:
        """rho[a, a], real."""
        return self._diag

    def anti_diagonal(self) -> np.ndarray:
        """rho[a, d-1-a]."""
        return self._anti

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense read-only 2**n x 2**n view, built on first use; raises
        QcopiesError past MAX_DENSE_QUBITS."""
        _check_dense(self.n_qubits)
        m = np.zeros((self.dim, self.dim), dtype=complex)
        idx = np.arange(self.dim)
        m[idx, idx] = self._diag
        m[idx, idx[::-1]] = self._anti
        m.flags.writeable = False
        return m

    def __repr__(self):
        return f"XState(dim={self.dim})"


def _check_state(rho) -> None:
    """Raise `QcopiesError` unless rho is a `DensityMatrix` or an `XState`."""
    _check_type(rho, (DensityMatrix, XState))


def sc_fidelity(rho: DensityMatrix | XState) -> float:
    """<SC| rho |SC> for the n-qubit cat state (|H...H> + |V...V>) / sqrt(2),
    clamped to [0, 1]: half the two corners plus Re rho[0, d-1], read
    without a dense view."""
    _check_state(rho)
    diag, anti = rho.diagonal(), rho.anti_diagonal()
    val = 0.5 * (diag[0] + diag[-1]) + anti[0].real
    return float(min(1.0, max(0.0, val)))


def frobenius_distance(a: DensityMatrix | XState, b: DensityMatrix | XState) -> float:
    """sqrt(Tr[(a-b)(a-b)^dag])."""
    _check_state(a)
    _check_state(b)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim mismatch: {a.dim} vs {b.dim}")
    return float(np.linalg.norm(a.matrix - b.matrix, "fro"))


def white_noise_weight_for_fidelity(n: int, fidelity: float) -> float:
    """Invert fidelity = p + (1-p)/d for the white-noise mixture weight p."""
    check_qubit_count(n)
    d = 2**n
    if not 1.0 / d <= _check_real(fidelity, "fidelity") <= 1.0:
        raise QcopiesError(f"fidelity {fidelity} outside [{1.0 / d}, 1] for n={n}")
    return (fidelity - 1.0 / d) / (1.0 - 1.0 / d)


def _x_state(n: int, cat: float, corners: float = 0.0, noise: float = 0.0,
             flipped: float = 0.0) -> XState:
    """Unchecked X-state cat |SC><SC| + corners (|H..H><H..H| + |V..V><V..V|)/2
    + noise I/d + flipped |SC'><SC'|, SC' the cat with its last qubit flipped.

    Each entry comes out as mixing the dense components gives it: h is the
    product of two cat amplitudes, 0.5000000000000001, and a diagonal entry
    adds the cat, corner and noise terms in that order.
    """
    d = 2**n
    h = (1.0 / np.sqrt(2.0)) ** 2
    diag = np.full(d, noise / d)
    anti = np.zeros(d, dtype=complex)
    # at n = 1 the flipped cat's indices are the corners, written last
    diag[[1, -2]] = flipped * h + noise / d
    anti[[1, -2]] = flipped * h
    diag[[0, -1]] = cat * h + corners * 0.5 + noise / d
    anti[[0, -1]] = cat * h
    return XState(diag, anti, validate=False)


def depolarized_sc(n: int, fidelity: float) -> XState:
    """White-noise-mixed SC state whose fidelity with the pure SC state is exact."""
    p = white_noise_weight_for_fidelity(n, fidelity)
    return _x_state(n, cat=p, noise=1.0 - p)


def noisy_sc_state(n: int, fidelity: float, corner_mass: float | None = None) -> XState:
    """Synthetic noisy SC state with a prescribed measurement profile.

    With corner_mass=None this is the plain white-noise mixture at the given
    fidelity.  Otherwise the state is a three-component mixture

        a * |SC><SC|  +  b * (|H..H><H..H| + |V..V><V..V|)/2  +  c * I/d

    with weights solved so that the fidelity with the pure SC state equals
    `fidelity` and the population on the two computational corners equals
    `corner_mass`.  The middle component models population that sits on the
    corners without contributing coherence, which is how experimentally
    prepared cat states differ from white-noise mixtures.
    """
    check_qubit_count(n)
    if corner_mass is None:
        return depolarized_sc(n, fidelity)
    if n < 2:
        raise QcopiesError("the corner-mass model needs at least 2 qubits")
    d = 2**n
    a = 2.0 * _check_real(fidelity, "fidelity") - _check_real(corner_mass, "corner mass")
    c = (1.0 - corner_mass) / (1.0 - 2.0 / d)
    b = 1.0 - a - c
    if not min(a, b, c) >= -1e-12:  # also catches NaN weights
        raise QcopiesError(
            f"no valid state with fidelity={fidelity}, corner_mass={corner_mass} "
            f"for n={n} (weights a={a:.4f}, b={b:.4f}, c={c:.4f})"
        )
    return _x_state(n, cat=a, corners=b, noise=c)


def rank_two_sc_state(n: int, fidelity: float) -> XState:
    """Rank-two noisy SC state: the lost population sits in one orthogonal
    cat mode (last qubit flipped) instead of spreading as white noise.

    Models a coherent error channel; useful where reconstruction behavior
    depends on the state being low-rank, as experimentally prepared cat
    states are.
    """
    check_qubit_count(n)
    if n < 2:
        raise QcopiesError("rank-two model needs at least 2 qubits")
    if not 0.0 <= _check_real(fidelity, "fidelity") <= 1.0:
        raise QcopiesError(f"fidelity must be in [0, 1], got {fidelity}")
    return _x_state(n, cat=fidelity, flipped=1.0 - fidelity)


def _project_to_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto {x >= 0, sum(x) = 1}.  The
    vector must ascend, as `eigh`'s eigenvalues do."""
    u = values[::-1]
    css = u.cumsum() - 1.0
    # rho = the largest k with u_k > css_k / k
    rho = u.size - (u - css / np.arange(1, u.size + 1) > 0)[::-1].argmax()
    return np.maximum(values - css[rho - 1] / rho, 0.0)


def psd_project(m: np.ndarray) -> DensityMatrix:
    """Nearest (Frobenius) trace-one PSD matrix to a Hermitian input of size
    2**n, n >= 1, with finite entries: eigendecompose, project the
    eigenvalues onto the probability simplex and rebuild in the same
    eigenbasis."""
    m = _as_array(m, "matrix", complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    _check_size_and_entries(m.shape[0], m)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    out = (vecs * _project_to_simplex(vals)) @ vecs.conj().T
    return DensityMatrix(0.5 * (out + out.conj().T), validate=False)


def density_from_json(text: str) -> DensityMatrix:
    """Read {"n": qubits, "re": [[...]], "im": [[...]]}, revalidating all
    invariants; text that is not such a JSON object raises ConfigError."""
    try:  # a QcopiesError is a ValueError
        obj = json.loads(text)
        re, im = (_as_array(obj[key], key) for key in ("re", "im"))
        n = obj["n"]
        if re.shape != im.shape or type(n) is not int:
            raise ValueError("re and im need one shape and n an integer")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"not a density-matrix JSON object: {exc!r}") from exc
    rho = DensityMatrix(re + 1j * im)
    if rho.n_qubits != n:
        raise DimensionMismatchError(f"matrix is {rho.dim}x{rho.dim} but n={n}")
    return rho
