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

The solver is a primal-dual interior-point method on the problem as a
small semidefinite program: slacks u, v >= 0 carry the misfit, the dual
keeps |y| <= 1 with -sum_i y_i M_i - z I PSD, and each Newton step is one
d^2 x d^2 system in the coordinates of rho over a Hermitian basis, however
many rows the settings have.  A solve takes 10-20 steps; it stops when a
dual bound certifies its best objective to within 1e-7 relative, or, with
its best iterate and `converged` False, on its iteration budget, on a
stalled gap or on a numerical breakdown.  `reconstruction_curve` solves
every setting count and repeat of the curve on its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import isqrt

import numpy as np

from .core import (DensityMatrix, XState, check_qubit_count, frobenius_distance,
                   psd_project, sc_fidelity)
from .errors import DimensionMismatchError, QcopiesError, _check_count
from .reports import csv_text
from .simulator import RngSeed, _check_seed, sample_counts

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
        zeroed output and turns -0 into +0), so the C-ordered rows hold the
        bytes of the outer products themselves."""
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
    return list(_built_family(letters, int(n)))


@cache
def _built_family(letters: str, n: int) -> tuple[ProductSetting, ...]:
    """Each family is built once per process: its settings cache their kets
    and rows, so later curves reuse those Kronecker products."""
    return tuple(ProductSetting("".join(p)) for p in product(letters, repeat=n))


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


# A solve stops once its best objective is within _TOL * (1 + objective) of
# its best dual bound, or as stalled once _PATIENCE steps have not halved
# that gap.  Each step goes _STEP of the way to the boundary of the cone.
_TOL = 1e-7
_PATIENCE = 5
_STEP = 0.95


@dataclass(frozen=True)
class ReconstructOptions:
    max_iter: int = 5000  # Newton iterations per solve

    def __post_init__(self):
        _check_count(self.max_iter, "max_iter")


@dataclass(frozen=True)
class ReconstructionResult:
    """`converged` is True when the solve certified its objective: a dual
    bound within _TOL * (1 + objective) of it.  A solve cut by its iteration
    budget, a stalled gap or a numerical breakdown returns its best iterate
    with `converged` False."""

    rho_hat: DensityMatrix
    objective: float
    iterations: int
    converged: bool


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


class _HermitianBasis:
    """An orthonormal basis E_k of the d x d Hermitian matrices: e_j e_j^T,
    then (e_j e_k^T + e_k e_j^T) / sqrt2 and i (e_j e_k^T - e_k e_j^T) / sqrt2
    for j < k.  Raveled, E_k = c1[k] u[P[k]] + c2[k] u[Q[k]] over the unit
    vectors u, with Q[k] the transposed position of P[k]."""

    def __init__(self, d: int):
        j, k = np.triu_indices(d, 1)
        half, diag = np.full(len(j), np.sqrt(0.5)), np.arange(d) * (d + 1)
        self.d = d
        self.P = np.concatenate([diag, j * d + k, j * d + k])
        self.Q = np.concatenate([diag, k * d + j, k * d + j])
        self.c1 = np.concatenate([np.ones(d), half, 1j * half])
        self.c2 = np.concatenate([np.zeros(d), half, -1j * half])
        self.B = self.pair(np.eye(d * d))  # column k: E_k raveled
        self.identity = self.coords(np.eye(d))

    def pair(self, m: np.ndarray) -> np.ndarray:
        """sum_ab m[..., a*d+b] (E_k)_ab for every k: the coordinates
        tr(M E_k) of M from the rows vec(M^T), or the expansion of a stack
        of matrices indexed by matrix unit."""
        return m[..., self.P] * self.c1 + m[..., self.Q] * self.c2

    def coords(self, Y: np.ndarray) -> np.ndarray:
        """Coordinates Re tr(E_k Y) of the Hermitian part of Y."""
        return self.pair(Y.T.ravel()).real

    def matrix(self, xi: np.ndarray) -> np.ndarray:
        return (self.B @ xi).reshape(self.d, self.d)


_hermitian_basis = cache(_HermitianBasis)


def _solve(problems, max_iter: int) -> list[ReconstructionResult]:
    """Solve each (A, freqs) problem on its own."""
    return [_interior_point(A, freqs, max_iter)[0] for A, freqs in problems]


def _interior_point(A, freqs, max_iter: int) -> tuple[ReconstructionResult, np.ndarray, float]:
    """Minimize sum |A vec(rho) - freqs| over trace-one PSD rho by a
    primal-dual interior-point method; return the result and the best dual
    point (y, z).

    Primal: A(X) - u + v = freqs, tr X = 1, X PSD, u, v >= 0, minimizing
    sum(u + v).  Dual: maximize freqs.y + z with |y| <= 1 and
    S = -sum_i y_i M_i - z I PSD.  S is rebuilt from (y, z) at every step,
    so the dual iterates stay exactly feasible, and raising z to
    z + lambda_min(S) makes each one a bound on the objective.  Each Newton
    step solves for dX in real coordinates over a Hermitian basis, with the
    dual-HKM linearization dS = sigma mu X^-1 - S - sym(S dX X^-1) (Helmberg
    et al., SIAM J. Optim. 6, 342 (1996)) and Mehrotra's predictor and
    corrector (SIAM J. Optim. 2, 575 (1992)).  The iterate X / tr X is a
    state at every step, and the best one is kept, so a longer budget never
    ends higher.  A gap that _PATIENCE steps have not halved, a failed
    factorization, a non-finite value or an iterate that leaves the cone
    ends the solve with its best iterate.
    """
    basis = _hermitian_basis(isqrt(A.shape[1]))
    t, mat = basis.identity, basis.matrix
    Ar = basis.pair(A).real  # rows Tr(M_i E_k)
    d, m = basis.d, len(freqs)
    nu = d + 2 * m  # the barrier parameter's weight: X, then u and v
    xi, u, v = t / d, np.ones(m), np.ones(m)  # X = I/d, with X S = I, u p = v q = 1
    y, z = np.zeros(m), -float(d)
    best_xi, best_obj, bound, dual, gaps = xi, np.inf, -np.inf, (y, 0.0), []
    iterations, converged = 0, False
    with np.errstate(all="ignore"):
        while True:
            s = -Ar.T @ y - z * t
            X, S = mat(xi), mat(s)
            try:
                (lx, ls), (qx, qs) = np.linalg.eigh(np.stack([X, S]))
            except np.linalg.LinAlgError:
                break
            if not (lx[0] > 0 and ls[0] > 0):  # also False on NaN
                break
            obj = float(np.abs(Ar @ xi / (t @ xi) - freqs).sum())
            if obj < best_obj:
                best_xi, best_obj = xi, obj
            if freqs @ y + z + ls[0] > bound:
                bound, dual = freqs @ y + z + ls[0], (y, z + ls[0])
            gaps.append(best_obj - bound)
            if gaps[-1] <= _TOL * (1.0 + best_obj):
                converged = True
                break
            if iterations == max_iter or (iterations >= _PATIENCE
                                          and gaps[-1] > 0.5 * gaps[-1 - _PATIENCE]):
                break
            try:
                xi, u, v, y, z = _newton_step(basis, Ar, freqs, xi, u, v, y, z, X, S, s,
                                              lx, qx, ls, qs, nu)
            except np.linalg.LinAlgError:
                break
            iterations += 1
    result = ReconstructionResult(rho_hat=psd_project(mat(best_xi) / (t @ best_xi)),
                                  objective=best_obj, iterations=iterations, converged=converged)
    return result, dual[0], float(dual[1])


def _newton_step(basis, Ar, freqs, xi, u, v, y, z, X, S, s, lx, qx, ls, qs, nu):
    """One predictor-corrector step from X and S positive definite (lx, qx
    and ls, qs their eigensystems; s holds S's coordinates), |y| < 1 and
    u, v > 0.  Returns the new (xi, u, v, y, z).

    Eliminating du, dv, dy and dS leaves K dxi - dz t = rhs and t.dxi =
    1 - tr X, with K = V + Ar^T D^-1 Ar and V_kl = Re tr(E_k S E_l X^-1):
    d^2 x d^2 however many rows A has.  With S = R R^H and X^-1 = G G^H, V is
    the Gram matrix of the R^H E_l G, so K = F^T F for one stacked real F.
    K is scaled to a unit diagonal and solved by LU for the predictor and
    again for the corrector: an explicit inverse, used for both, loses the
    last digits of the gap as K grows ill-conditioned.
    """
    t, mat, coords, d = basis.identity, basis.matrix, basis.coords, basis.d
    p, q = 1.0 + y, 1.0 - y  # the dual slacks of u and v
    w = np.concatenate([u, v, p, q])
    G, R, H = qx / np.sqrt(lx), qs * np.sqrt(ls), qs / np.sqrt(ls)  # S^-1 = H H^H
    Gh, Hh = G.conj().T, H.conj().T
    Xinv = G @ Gh
    mu = (np.vdot(X, S).real + u @ p + v @ q) / nu
    rp, rt = freqs - Ar @ xi + u - v, 1.0 - t @ xi
    D = u / p + v / q
    # column l of C is R^H E_l G raveled, from R^H e_j e_k^T G at [a*d+b, j*d+k]
    C = basis.pair((R.conj().T[:, None, :, None] * G.T[None, :, None, :]).reshape(d * d, -1))
    F = np.concatenate([C.real, C.imag, Ar / np.sqrt(D)[:, None]])
    K = F.T @ F
    scale = 1.0 / np.sqrt(np.diag(K))
    K *= scale[:, None] * scale

    def direction(r_s, r_u, r_v):
        """The step that zeroes the residuals r_s of S (in coordinates) and
        r_u, r_v of u p and v q, and the longest primal and dual steps along
        it (1 / 0 reads inf)."""
        g = rp + r_u / p - r_v / q
        rhs = np.column_stack([t, r_s + Ar.T @ (g / D)])
        Kt, a = (scale[:, None] * np.linalg.solve(K, scale[:, None] * rhs)).T
        dz = (rt - t @ a) / (t @ Kt)
        dxi = a + dz * Kt
        dy = (g - Ar @ dxi) / D
        du, dv = (r_u - u * dy) / p, (r_v + v * dy) / q
        dX, dS = mat(dxi), mat(-Ar.T @ dy - dz * t)
        e = np.linalg.eigvalsh(np.stack([Gh @ dX @ G, Hh @ dS @ H]))[:, 0]
        cone = 1.0 / np.maximum(-e, 0.0)
        ratio = w / np.maximum(-np.concatenate([du, dv, dy, -dy]), 0.0)
        return ((dxi, du, dv, dy, dz, dX, dS),
                min(cone[0], ratio[:2 * len(u)].min()), min(cone[1], ratio[2 * len(u):].min()))

    # predictor: aim at mu = 0
    (dxi, du, dv, dy, dz, dX, dS), a_p, a_d = direction(-s, -u * p, -v * q)
    a_p, a_d = min(1.0, a_p), min(1.0, a_d)
    mu_aff = (np.vdot(X + a_p * dX, S + a_d * dS).real + (u + a_p * du) @ (p + a_d * dy)
              + (v + a_p * dv) @ (q - a_d * dy)) / nu
    sigma_mu = (mu_aff / mu) ** 3 * mu
    # corrector: aim at sigma mu, less the predictor's second-order terms
    (dxi, du, dv, dy, dz, _, _), a_p, a_d = direction(
        sigma_mu * coords(Xinv) - s - coords(Xinv @ dX @ dS),
        sigma_mu - u * p - du * dy, sigma_mu - v * q + dv * dy)
    a_p, a_d = min(1.0, _STEP * a_p), min(1.0, _STEP * a_d)
    return xi + a_p * dxi, u + a_p * du, v + a_p * dv, y + a_d * dy, z + a_d * dz


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
    _check_seed(rng)
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
        fid = np.array([sc_fidelity(r.rho_hat) for r in solves])
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
