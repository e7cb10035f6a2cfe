"""Density-matrix reconstruction from measured frequencies: minimize the
absolute data misfit sum |Tr(rho M) - f| over trace-one PSD matrices.

A measurement setting is a `ProductSetting`, one letter per qubit: all
X/Y/Z names a complete product eigenbasis (2**n resolved outcomes), all
H/V/D/R a single projector over per-qubit H, V, D = (H+V)/sqrt2 and
R = (H+iV)/sqrt2, the waveplate-style family where one setting estimates
one frequency.  `pauli_settings` enumerates the 3**n bases and
`tomography_projectors` the 4**n projectors.  A setting is its operator
rows vec(M_i^T), one per outcome, and that one linear model serves
throughout: Born probabilities are rows @ vec(rho), the sampler draws from
them, and the solver fits the rows to the data.

The solver is Chambolle and Pock's primal-dual method (J. Math. Imaging
Vis. 40, 120 (2011)) on the nonsmooth objective itself: a dual vector in
[-1, 1] per operator row, a projected primal step along its adjoint, an
extrapolated primal iterate, and best-iterate tracking, so the sequence of
accepted objectives never increases.  A solve stops when a window of 100
steps lowers the best objective by at most 1e-5 relative, or on its
iteration budget.  Each problem's solve is one coroutine, `_primal_dual`,
written as that plain loop; `_solve` advances a batch of them in lockstep,
one round per step, and makes one stacked projection per round for every
live problem.  `reconstruct` passes one problem, while
`reconstruction_curve` passes every setting count and repeat of the curve
at once.  Each problem's result is bit for bit the one it gets alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import isqrt

import numpy as np

from .core import (DensityMatrix, XState, check_qubit_count, fidelity_pure,
                   frobenius_distance, psd_project, psd_project_stack, sc_state)
from .errors import DimensionMismatchError, QcopiesError, _check_count
from .reports import csv_text
from .simulator import RngSeed, sample_counts

# Rows are the measurement bras of the +1 / -1 eigenvectors.
_PAULI_BRAS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2.0),
    "Z": np.array([[1, 0], [0, 1]], dtype=complex),
}

# Columns are each letter's kets: a Pauli's two eigenvectors, or the one
# projector ket.
_KETS = {b: bras.conj().T for b, bras in _PAULI_BRAS.items()} | {
    "H": np.array([[1], [0]], dtype=complex),
    "V": np.array([[0], [1]], dtype=complex),
    "D": np.array([[1], [1]], dtype=complex) / np.sqrt(2.0),
    "R": np.array([[1], [1j]], dtype=complex) / np.sqrt(2.0),
}

MAX_PAULI_QUBITS = 4


@dataclass(frozen=True)
class ProductSetting:
    """A product measurement, one letter per qubit: all X/Y/Z is a full
    eigenbasis with 2**n outcomes (e.g. 'XZY'), all H/V/D/R one projector
    (e.g. 'HDR').  Up to MAX_PAULI_QUBITS qubits."""

    bases: str

    def __post_init__(self):
        if not (isinstance(self.bases, str) and 1 <= len(self.bases) <= MAX_PAULI_QUBITS
                and (set(self.bases) <= set("XYZ") or set(self.bases) <= set("HVDR"))):
            raise QcopiesError(f"a product setting takes 1..{MAX_PAULI_QUBITS} qubits, lettered "
                               f"all X/Y/Z or all H/V/D/R; got {self.bases!r}")

    @property
    def n(self) -> int:
        return len(self.bases)

    @cached_property
    def kets(self) -> np.ndarray:
        """One column per outcome, the Kronecker product of each qubit's
        kets; qubit 0 is the most significant bit of the outcome index."""
        k = np.ones((1, 1), dtype=complex)
        for b in self.bases:
            k = np.kron(k, _KETS[b])
        k.flags.writeable = False
        return k

    @cached_property
    def rows(self) -> np.ndarray:
        """Row i holds vec(M_i^T) for outcome i's projector M_i = |k_i><k_i|,
        so that the outcome probabilities of a state are rows @ vec(rho).

        Plain products keep each entry's signed zeros (einsum adds into a
        zeroed output and turns -0 into +0), and the rows are C-ordered so
        that the solver's products run one BLAS kernel: both keep the
        solver's iterates bit for bit."""
        k = self.kets.T.copy()
        rows = (k[:, None, :] * k[:, :, None].conj()).reshape(len(k), -1)
        rows.flags.writeable = False
        return rows

    def born_probabilities(self, rho: DensityMatrix | XState) -> np.ndarray:
        if rho.n_qubits != self.n:
            raise DimensionMismatchError(f"state has {rho.n_qubits} qubits, setting {self.n}")
        return np.clip((self.rows @ rho.matrix.ravel()).real, 0.0, None)


def _family(letters: str, n: int) -> list[ProductSetting]:
    check_qubit_count(n)  # then the first setting checks the family's own cap
    return [ProductSetting("".join(p)) for p in product(letters, repeat=n)]


def pauli_settings(n: int) -> list[ProductSetting]:
    """All 3**n Pauli product bases; kept to desk scale."""
    return _family("XYZ", n)


def tomography_projectors(n: int) -> list[ProductSetting]:
    """All 4**n single-projector settings over per-qubit H, V, D, R."""
    return _family("HVDR", n)


def exact_frequencies(rho: DensityMatrix | XState, settings) -> list[np.ndarray]:
    """Noiseless frequency table: one row of Born probabilities per setting."""
    return [s.born_probabilities(rho) for s in settings]


def sampled_frequencies(rho: DensityMatrix | XState, settings, copies_per_setting: int,
                        gen: np.random.Generator) -> list[np.ndarray]:
    """Simulated frequency table from finite counts per setting.

    A full basis draws a multinomial over its outcomes; a single-projector
    setting draws the binomial hit count of its one operator.
    """
    _check_count(copies_per_setting, "copies per setting")
    rows = []
    for s in settings:
        probs = s.born_probabilities(rho)
        outcomes = probs.size
        if outcomes == 1:  # one projector: hit or miss
            p = min(1.0, float(probs[0]))
            probs = [p, 1.0 - p]
        counts = sample_counts(probs, copies_per_setting, gen)
        rows.append(counts[:outcomes] / copies_per_setting)
    return rows


# Primal-dual steps tau = _RATIO / |A|, sigma = 1 / (_RATIO |A|).  Every
# _WINDOW steps the solve stops once the best objective has gained at most
# _TOL * (1 + best) since the last check.
_RATIO = 0.03
_WINDOW = 100
_TOL = 1e-5


@dataclass(frozen=True)
class ReconstructOptions:
    max_iter: int = 5000

    def __post_init__(self):
        _check_count(self.max_iter, "max_iter")


@dataclass(frozen=True)
class ReconstructionResult:
    """`converged` is True when the solve stopped on its stall rule (a window
    of steps that barely lowered the best objective) rather than on its
    iteration budget."""

    rho_hat: DensityMatrix
    objective: float
    iterations: int
    converged: bool
    objective_history: np.ndarray = field(repr=False)


def reconstruct(settings, freqs, opts: ReconstructOptions | None = None) -> ReconstructionResult:
    """Recover a density matrix from measurement settings and one row of
    frequencies per setting, one entry per operator row of the setting.
    The solver fits the settings' stacked rows: the same model their Born
    probabilities come from."""
    opts = opts or ReconstructOptions()
    rows = [np.atleast_1d(np.asarray(row, dtype=float)) for row in freqs]
    if len(settings) != len(rows):
        raise DimensionMismatchError(f"{len(settings)} settings but {len(rows)} frequency rows")
    if not rows:
        raise QcopiesError("need at least one measurement setting")
    if len({s.n for s in settings}) != 1:
        raise DimensionMismatchError("settings act on different numbers of qubits")
    for setting, row in zip(settings, rows):
        outcomes = len(setting.rows)
        if row.shape != (outcomes,):
            raise DimensionMismatchError(
                f"setting has {outcomes} outcomes but {row.size} frequencies")
    freqs = np.concatenate(rows)
    if not np.all((freqs >= 0) & (freqs <= 1)):
        raise QcopiesError("frequencies must be finite and lie in [0, 1]")
    A = np.concatenate([s.rows for s in settings])
    return _solve([(A, freqs)], opts.max_iter)[0]


def _primal_dual(A: np.ndarray, freqs: np.ndarray, start: np.ndarray, max_iter: int):
    """The primal-dual solve of one problem, as a coroutine: each step yields
    the primal step x - tau * A^T dual and is sent back its projection, a
    matrix it reads but never writes; it returns the ReconstructionResult.

    The dual moves by sigma times the misfit of the extrapolated iterate
    2 x - x_prev, read off the last two objective products, and is clipped
    to [-1, 1]; the primal steps along its adjoint.  The dual is real and
    each row of A is vec(M^T) of a Hermitian M, so the adjoint is Hermitian
    and equals its symmetrization bit for bit; it is not symmetrized.
    `converged` is True when the stall rule ended the solve, checked at
    every _WINDOW-th step."""
    norm = float(np.linalg.norm(A, 2))
    tau, sigma = _RATIO / norm, 1.0 / (_RATIO * norm)
    d = start.shape[-1]
    x = best = start
    fit = fit_prev = (A @ start.ravel()).real
    best_obj = checked = float(np.abs(fit - freqs).sum())
    history = [best_obj]
    dual = np.zeros_like(freqs)
    iterations, converged = 0, False
    while iterations < max_iter and not converged:
        dual = np.clip(dual + sigma * (2.0 * fit - fit_prev - freqs), -1.0, 1.0)
        x = yield x - tau * (dual @ A).reshape(d, d).T
        fit_prev, fit = fit, (A @ x.ravel()).real
        iterations += 1
        obj = float(np.abs(fit - freqs).sum())
        if obj < best_obj:
            best, best_obj = x, obj
        history.append(best_obj)
        if iterations % _WINDOW == 0:
            converged, checked = checked - best_obj <= _TOL * (1.0 + best_obj), best_obj
    return ReconstructionResult(rho_hat=psd_project(best), objective=best_obj,
                                iterations=iterations, converged=converged,
                                objective_history=np.asarray(history))


def _solve(problems, max_iter: int) -> list[ReconstructionResult]:
    """Solve every (A, freqs) problem, each by its own `_primal_dual`
    coroutine, advanced in lockstep.

    Each round stacks the live problems' primal steps and projects the
    stack with one batched eigendecomposition and simplex projection; each
    problem gets its matrix back.  The products with A stay one BLAS call
    per problem, so every problem's iterates are bit for bit those of
    solving it alone.
    """
    d = isqrt(problems[0][0].shape[1])
    start = np.eye(d, dtype=complex) / d
    solves = [_primal_dual(A, freqs, start, max_iter) for A, freqs in problems]
    live = [(i, solve, next(solve)) for i, solve in enumerate(solves)]
    results = [None] * len(solves)
    while live:
        cur = psd_project_stack(np.stack([asked for _, _, asked in live]))
        advanced = []
        for (i, solve, _), row in zip(live, cur):
            try:
                advanced.append((i, solve, solve.send(row)))
            except StopIteration as done:
                results[i] = done.value
        live = advanced
    return results


@dataclass(frozen=True)
class CurveRow:
    settings_used: int
    mean_fidelity: float
    std_fidelity: float
    mean_mse: float
    std_mse: float
    iterations: tuple[int, ...]  # one per repeat, like `converged`
    converged: tuple[bool, ...]


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


def reconstruction_curve(rho_true: DensityMatrix | XState, counts_per_setting: int,
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
    _check_count(repeats, "repeats")
    n = rho_true.n_qubits
    if family == "projectors":
        settings = tomography_projectors(n)
    elif family == "pauli":
        settings = pauli_settings(n)
    else:
        raise QcopiesError(f"unknown measurement family {family!r}")
    total = len(settings)
    if len(setting_counts) == 0:
        raise QcopiesError("need at least one setting count")
    for m in setting_counts:
        _check_count(m, "a setting count")
        if m > total:
            raise QcopiesError(f"setting counts must lie in [1, {total}]")
    if len({int(m) for m in setting_counts}) != len(setting_counts):
        raise QcopiesError("each setting count may appear only once")
    order = rng.generator(0).permutation(total)
    target = sc_state(n)
    opts = opts or ReconstructOptions()

    # Every subset is a prefix of one setting order, so each problem's
    # operator and frequencies are leading rows of these.
    blocks = [settings[j].rows for j in order]
    A = np.concatenate(blocks)
    ends = np.cumsum([len(b) for b in blocks])
    problems = []
    for rep in range(repeats):
        freq_rows = sampled_frequencies(rho_true, settings, counts_per_setting,
                                        rng.generator(1, rep))
        freqs = np.concatenate([freq_rows[j] for j in order])
        problems += [(A[:ends[int(m) - 1]], freqs[:ends[int(m) - 1]]) for m in setting_counts]
    results = _solve(problems, opts.max_iter)
    # results[rep * len(setting_counts) + i] solves setting count i of repeat rep
    by_count = [results[i::len(setting_counts)] for i in range(len(setting_counts))]

    rows = []
    for m, solves in zip(setting_counts, by_count):
        fid = np.array([fidelity_pure(r.rho_hat, target) for r in solves])
        mse = np.array([frobenius_distance(r.rho_hat, rho_true) ** 2 for r in solves])
        rows.append(CurveRow(
            settings_used=int(m),
            mean_fidelity=float(fid.mean()),
            std_fidelity=float(fid.std(ddof=1)) if repeats > 1 else 0.0,
            mean_mse=float(mse.mean()),
            std_mse=float(mse.std(ddof=1)) if repeats > 1 else 0.0,
            iterations=tuple(r.iterations for r in solves),
            converged=tuple(r.converged for r in solves),
        ))
    return ReconstructionCurve(rows=tuple(rows))
