"""Density-matrix reconstruction from measured frequencies: minimize the
absolute data misfit sum |Tr(rho M) - f| over trace-one PSD matrices.

Two measurement families are provided.  `pauli_settings` enumerates the
3**n complete product eigenbases of X/Y/Z (2**n resolved outcomes per
basis).  `tomography_projectors` enumerates the 4**n single-projector
settings built from per-qubit H, V, D = (H+V)/sqrt2 and R = (H+iV)/sqrt2,
the waveplate-style family where one setting estimates one frequency.

The solver is projected gradient descent on a graduated sequence of
Huber-smoothed objectives (widths 1e-1 down to 1e-6, each phase ending on
a stall or its share of the iteration budget) with Nesterov momentum,
PSD/trace projection after every step and best-iterate tracking, so the
sequence of accepted objectives never increases.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .core import DensityMatrix, fidelity_pure, frobenius_distance, psd_project, sc_state
from .errors import DimensionMismatchError, QcopiesError
from .reports import csv_text
from .simulator import RngSeed, sample_counts

# Rows are the measurement bras of the +1 / -1 eigenvectors.
_PAULI_BRAS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2.0),
    "Z": np.array([[1, 0], [0, 1]], dtype=complex),
}

_PROJECTOR_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1, 1j], dtype=complex) / np.sqrt(2.0),
}

MAX_PAULI_QUBITS = 4


@dataclass(frozen=True)
class PovmElement:
    """One rank-1 measurement operator, held implicitly as a label.

    For a Pauli basis element the label is the basis string plus the
    outcome bits; for a single-projector setting the outcome is 0 and the
    basis string spells the per-qubit kets directly (e.g. 'HDR').
    """

    bases: str
    outcome: int = 0

    @property
    def n(self) -> int:
        return len(self.bases)

    @property
    def label(self) -> str:
        if set(self.bases) <= set("XYZ"):
            signs = "".join("-" if (self.outcome >> (self.n - 1 - q)) & 1 else "+"
                            for q in range(self.n))
            return f"{self.bases}:{signs}"
        return self.bases

    def ket(self) -> np.ndarray:
        v = np.array([1.0], dtype=complex)
        for q, b in enumerate(self.bases):
            if b in _PROJECTOR_KETS:
                single = _PROJECTOR_KETS[b]
            else:
                bit = (self.outcome >> (self.n - 1 - q)) & 1
                single = _PAULI_BRAS[b][bit].conj()
            v = np.kron(v, single)
        return v

    def operator(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())


@dataclass(frozen=True)
class PauliSetting:
    """A full product eigenbasis, e.g. 'XZY': 2**n resolved outcomes."""

    bases: str

    @property
    def n(self) -> int:
        return len(self.bases)

    def elements(self) -> list[PovmElement]:
        return [PovmElement(self.bases, i) for i in range(2**self.n)]

    def born_probabilities(self, rho: DensityMatrix) -> np.ndarray:
        from .witness import basis_probabilities

        return basis_probabilities(rho, [_PAULI_BRAS[b] for b in self.bases])


@dataclass(frozen=True)
class ProjectorSetting:
    """A single-projector setting: one rank-1 operator, one frequency."""

    bases: str

    @property
    def n(self) -> int:
        return len(self.bases)

    def elements(self) -> list[PovmElement]:
        return [PovmElement(self.bases)]

    def born_probabilities(self, rho: DensityMatrix) -> np.ndarray:
        el = PovmElement(self.bases)
        k = el.ket()
        return np.array([float(np.real(k.conj() @ rho.matrix @ k))])


def pauli_settings(n: int) -> list[PauliSetting]:
    """All 3**n Pauli product bases; kept to desk scale."""
    if not 1 <= n <= MAX_PAULI_QUBITS:
        raise QcopiesError(f"full Pauli enumeration supports 1..{MAX_PAULI_QUBITS} qubits")
    return [PauliSetting("".join(p)) for p in product("XYZ", repeat=n)]


def tomography_projectors(n: int) -> list[ProjectorSetting]:
    """All 4**n single-projector settings over per-qubit H, V, D, R."""
    if not 1 <= n <= MAX_PAULI_QUBITS:
        raise QcopiesError(f"full projector enumeration supports 1..{MAX_PAULI_QUBITS} qubits")
    return [ProjectorSetting("".join(p)) for p in product("HVDR", repeat=n)]


def exact_frequencies(rho: DensityMatrix, settings) -> list[np.ndarray]:
    """Noiseless frequency table: one row of Born probabilities per setting."""
    return [s.born_probabilities(rho) for s in settings]


def sampled_frequencies(rho: DensityMatrix, settings, copies_per_setting: int,
                        gen: np.random.Generator) -> list[np.ndarray]:
    """Simulated frequency table from finite counts per setting.

    A full basis draws a multinomial over its outcomes; a single-projector
    setting draws the binomial hit count of its one operator.
    """
    if copies_per_setting < 1:
        raise QcopiesError(f"copies per setting must be >= 1, got {copies_per_setting}")
    rows = []
    for s in settings:
        probs = s.born_probabilities(rho)
        if probs.size == 1:
            p = min(1.0, max(0.0, float(probs[0])))
            counts = sample_counts([p, 1.0 - p], copies_per_setting, gen)
            rows.append(np.array([counts[0] / copies_per_setting]))
        else:
            counts = sample_counts(probs, copies_per_setting, gen)
            rows.append(counts / copies_per_setting)
    return rows


# Graduated Huber widths, widest first.  A phase ends after more than
# _STALL_LIMIT steps in a row that each improve the best objective by less
# than _MIN_GAIN.
_HUBER_WIDTHS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_STALL_LIMIT = 60
_MIN_GAIN = 1e-9


@dataclass(frozen=True)
class ReconstructOptions:
    max_iter: int = 5000


@dataclass(frozen=True)
class ReconstructionResult:
    """`converged` is True when the final, narrowest smoothing phase stopped
    on a stall rather than on its iteration budget."""

    rho_hat: DensityMatrix
    objective: float
    iterations: int
    converged: bool
    objective_history: np.ndarray = field(repr=False)


def reconstruct(settings, freqs, opts: ReconstructOptions | None = None) -> ReconstructionResult:
    """Recover a density matrix from measurement settings and one row of
    frequencies per setting (one entry per element of the setting)."""
    opts = opts or ReconstructOptions()
    rows = [np.atleast_1d(np.asarray(row, dtype=float)) for row in freqs]
    if len(settings) != len(rows):
        raise DimensionMismatchError(f"{len(settings)} settings but {len(rows)} frequency rows")
    if not rows:
        raise QcopiesError("need at least one measurement setting")
    elements = []
    for setting, row in zip(settings, rows):
        els = setting.elements()
        if row.shape != (len(els),):
            raise DimensionMismatchError(
                f"setting has {len(els)} elements but {row.size} frequencies")
        elements.extend(els)
    freqs = np.concatenate(rows)
    if not np.all((freqs >= 0) & (freqs <= 1)):
        raise QcopiesError("frequencies must be finite and lie in [0, 1]")
    d = 2 ** elements[0].n

    # Row i holds vec(M_i^T) so that predictions are A @ vec(rho).
    A = np.array([el.operator().T.ravel() for el in elements])
    lipschitz_base = float(np.linalg.norm(A, 2) ** 2)

    def objective(mat):
        return float(np.abs((A @ mat.ravel()).real - freqs).sum())

    rho = np.eye(d, dtype=complex) / d
    best_obj = objective(rho)
    best_rho = rho
    history = [best_obj]
    iterations = 0
    per_phase = max(50, opts.max_iter // len(_HUBER_WIDTHS))

    for width in _HUBER_WIDTHS:
        step = width / lipschitz_base
        y = best_rho
        prev = best_rho
        momentum = 1.0
        stall = 0
        for _ in range(per_phase):
            if iterations >= opts.max_iter:
                break
            iterations += 1
            residual = (A @ y.ravel()).real - freqs
            wts = residual / np.maximum(np.abs(residual), width)
            grad = (wts @ A).reshape(d, d).T
            grad = 0.5 * (grad + grad.conj().T)
            cur = psd_project(y - step * grad).matrix
            m_next = (1.0 + np.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
            y = cur + ((momentum - 1.0) / m_next) * (cur - prev)
            prev, momentum = cur, m_next
            obj = objective(cur)
            if obj < best_obj - _MIN_GAIN:
                best_obj, best_rho = obj, cur
                stall = 0
            else:
                if obj < best_obj:
                    best_obj, best_rho = obj, cur
                stall += 1
                if stall > _STALL_LIMIT:
                    break
            history.append(best_obj)

    return ReconstructionResult(
        rho_hat=psd_project(best_rho),
        objective=float(best_obj),
        iterations=iterations,
        converged=stall > _STALL_LIMIT,  # the narrowest phase stalled
        objective_history=np.asarray(history),
    )


@dataclass(frozen=True)
class CurveRow:
    settings_used: int
    mean_fidelity: float
    std_fidelity: float
    mean_mse: float
    std_mse: float


@dataclass(frozen=True)
class ReconstructionCurve:
    rows: tuple[CurveRow, ...]

    def row(self, settings_used: int) -> CurveRow:
        for r in self.rows:
            if r.settings_used == settings_used:
                return r
        raise KeyError(settings_used)

    def to_csv(self) -> str:
        return csv_text(
            ["settings_used", "mean_fidelity", "std_fidelity", "mean_mse", "std_mse"],
            [(r.settings_used, r.mean_fidelity, r.std_fidelity, r.mean_mse, r.std_mse)
             for r in self.rows],
        )


def reconstruction_curve(rho_true: DensityMatrix, counts_per_setting: int,
                         setting_counts, repeats: int, rng: RngSeed,
                         opts: ReconstructOptions | None = None,
                         family: str = "projectors") -> ReconstructionCurve:
    """Reconstruction quality versus the number of measurement settings.

    Settings are consumed in a shuffled order fixed by the run seed (so the
    curve is reproducible), frequencies come from finite sampling of every
    setting, and fidelity to the pure SC target plus squared Frobenius
    error to the true state are averaged over repeats.  The default family
    is the single-projector one; family="pauli" subsamples whole X/Y/Z
    bases instead.
    """
    if repeats < 1:
        raise QcopiesError(f"repeats must be >= 1, got {repeats}")
    n = rho_true.n_qubits
    if family == "projectors":
        settings = tomography_projectors(n)
    elif family == "pauli":
        settings = pauli_settings(n)
    else:
        raise QcopiesError(f"unknown measurement family {family!r}")
    total = len(settings)
    if any(not 1 <= int(m) <= total for m in setting_counts):
        raise QcopiesError(f"setting counts must lie in [1, {total}]")
    order = rng.generator(0).permutation(total)
    target = sc_state(n)

    fid = np.empty((len(setting_counts), repeats))
    mse = np.empty((len(setting_counts), repeats))
    for rep in range(repeats):
        gen = rng.generator(1, rep)
        freq_rows = sampled_frequencies(rho_true, settings, counts_per_setting, gen)
        for i, m in enumerate(setting_counts):
            sel = order[: int(m)]
            result = reconstruct([settings[j] for j in sel],
                                 [freq_rows[j] for j in sel], opts)
            fid[i, rep] = fidelity_pure(result.rho_hat, target)
            mse[i, rep] = frobenius_distance(result.rho_hat, rho_true) ** 2
    rows = [
        CurveRow(
            settings_used=int(m),
            mean_fidelity=float(fid[i].mean()),
            std_fidelity=float(fid[i].std(ddof=1)) if repeats > 1 else 0.0,
            mean_mse=float(mse[i].mean()),
            std_mse=float(mse[i].std(ddof=1)) if repeats > 1 else 0.0,
        )
        for i, m in enumerate(setting_counts)
    ]
    return ReconstructionCurve(rows=tuple(rows))
