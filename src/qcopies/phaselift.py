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
stalled gap or on a numerical breakdown.  The solves of one call run in
lockstep: each round takes one Newton step for every solve still running,
with the eigendecompositions, the LU solves and the small matrix products
of all of them stacked into one call each, while each product or sum over
a solve's data rows stays its own call.  So a solve ends with the bits it
has alone, whatever else runs beside it.  `_lockstep` is the one solver
entry: `reconstruct` calls it with one solve, and `reconstruction_curve`
with every setting count and repeat of the curve.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import isfinite, isqrt

import numpy as np

from .core import (DensityMatrix, XState, _check_state, check_qubit_count, frobenius_distance,
                   psd_project, sc_fidelity)
from .errors import (MAX_COPIES, DimensionMismatchError, QcopiesError, _as_array, _as_list,
                     _check_count, _check_type)
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
        zeroed output and turns -0 into +0), so the C-ordered rows hold the
        bytes of the outer products themselves."""
        k = self.kets.T.copy()
        rows = (k[:, None, :] * k[:, :, None].conj()).reshape(len(k), -1)
        rows.flags.writeable = False
        return rows

    def born_probabilities(self, rho: DensityMatrix | XState) -> np.ndarray:
        _check_state(rho)
        if rho.n_qubits != self.n:
            raise DimensionMismatchError(f"state has {rho.n_qubits} qubits, setting {self.n}")
        return np.clip((self.rows @ rho.matrix.ravel()).real, 0.0, None)


def _check_settings(settings) -> list[ProductSetting]:
    settings = _as_list(settings, "measurement settings", empty=True)
    for s in settings:
        _check_type(s, ProductSetting)
    return settings


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
    return [s.born_probabilities(rho) for s in _check_settings(settings)]


def sampled_frequencies(rho: DensityMatrix | XState, settings, copies_per_setting: int,
                        gen: np.random.Generator) -> list[np.ndarray]:
    """Simulated frequency table from finite counts per setting.

    A full basis draws a multinomial over its outcomes; a single-projector
    setting draws the binomial hit count of its one operator.
    """
    _check_count(copies_per_setting, "copies per setting", most=MAX_COPIES)
    settings = _check_settings(settings)
    _check_type(gen, np.random.Generator)
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


def reconstruct(settings, freqs) -> ReconstructionResult:
    """Recover a density matrix from measurement settings and one row of
    frequencies per setting, one entry per operator row of the setting.
    The solver fits the settings' stacked rows, the same model their Born
    probabilities come from, within `ReconstructOptions().max_iter` Newton
    iterations."""
    settings = _check_settings(settings)
    rows = [np.atleast_1d(_as_array(row, "frequencies"))
            for row in _as_list(freqs, "frequency rows")]
    if len(settings) != len(rows):
        raise DimensionMismatchError(f"{len(settings)} settings but {len(rows)} frequency rows")
    if len({s.n for s in settings}) != 1:
        raise DimensionMismatchError("settings act on different numbers of qubits")
    for setting, row in zip(settings, rows):
        outcomes = len(setting.rows)
        if row.shape != (outcomes,):
            raise DimensionMismatchError(
                f"setting {setting.bases} has {outcomes} outcomes but a frequency row "
                f"of shape {row.shape}")
    freqs = np.concatenate(rows)
    if not np.all((freqs >= 0) & (freqs <= 1)):
        raise QcopiesError("frequencies must be finite and lie in [0, 1]")
    A = np.concatenate([s.rows for s in settings])
    return _lockstep([(A, freqs)], ReconstructOptions().max_iter)[0][0]


class _HermitianBasis:
    """An orthonormal basis E_k of the d x d Hermitian matrices: e_j e_j^T,
    then (e_j e_k^T + e_k e_j^T) / sqrt2 and i (e_j e_k^T - e_k e_j^T) / sqrt2
    for j < k.  Raveled, E_k = c1[k] u[P[k]] + c2[k] u[Q[k]] over the unit
    vectors u, with Q[k] the transposed position of P[k].  Coordinates and
    matrices may come in stacks along leading axes."""

    def __init__(self, d: int):
        j, k = np.triu_indices(d, 1)
        half, diag = np.full(len(j), np.sqrt(0.5)), np.arange(d) * (d + 1)
        self.d = d
        self.P = np.concatenate([diag, j * d + k, j * d + k])
        self.Q = np.concatenate([diag, k * d + j, k * d + j])
        self.c1 = np.concatenate([np.ones(d), half, 1j * half])
        self.c2 = np.concatenate([np.zeros(d), half, -1j * half])
        # the real and the imaginary part of entry p of sum_k xi_k E_k raveled
        # are xi[at[2p]] c[2p] and xi[at[2p+1]] c[2p+1]
        B = self.pair(np.eye(d * d))  # column k: E_k raveled
        B = np.stack([B.real, B.imag], axis=1).reshape(2 * d * d, -1)
        self.at = np.abs(B).argmax(1)
        self.c = B[np.arange(2 * d * d), self.at]
        self.identity = self.coords(np.eye(d))

    def pair(self, m: np.ndarray) -> np.ndarray:
        """sum_ab m[..., a*d+b] (E_k)_ab for every k: the coordinates
        tr(M E_k) of M from the rows vec(M^T), or the expansion of a stack
        of matrices indexed by matrix unit."""
        return m[..., self.P] * self.c1 + m[..., self.Q] * self.c2

    def coords(self, Y: np.ndarray) -> np.ndarray:
        """Coordinates Re tr(E_k Y) of the Hermitian part of Y."""
        return self.pair(Y.swapaxes(-1, -2).reshape(*Y.shape[:-2], -1)).real

    def matrix(self, xi: np.ndarray) -> np.ndarray:
        """sum_k xi_k E_k, entry by entry: the real and the imaginary part of
        an entry are each one coordinate times one coefficient, every other
        term of the sum being zero, so this has the bits of the sum formed as
        a matrix product; adding 0.0 turns a -0 into the +0 that product
        has."""
        X = np.multiply(xi[..., self.at], self.c, order="C")
        X += 0.0
        return X.view(complex).reshape(*xi.shape[:-1], self.d, self.d)


_hermitian_basis = cache(_HermitianBasis)


class _Rows:
    """The data rows of a stack of problems: problem b's rows Tr(M_i E_k)
    are blocks[b], and a vector over rows concatenates the problems' parts,
    problem b's in spans[b].  Elementwise work runs on the concatenation;
    each product and sum over rows runs on one problem's own part, as the
    same call a problem solved alone makes, so its bits do not depend on the
    other problems in the stack.  Each block is a strided real view, which
    numpy multiplies in its own loop, and its -A^T a contiguous copy, which
    BLAS multiplies: two summation orders, each kept where the pinned
    outputs rest on it."""

    def __init__(self, blocks: list[np.ndarray]):
        self.blocks, self.negated = blocks, [-A.T for A in blocks]
        self.counts = np.array([len(A) for A in blocks])
        self.starts = np.cumsum(self.counts) - self.counts
        self.spans = [slice(a, a + m) for a, m in zip(self.starts, self.counts)]
        self.size = int(self.counts.sum())

    def take(self, keep: np.ndarray) -> tuple[_Rows, np.ndarray]:
        """The rows of the problems that `keep` marks, and the row mask."""
        return _Rows([A for A, k in zip(self.blocks, keep) if k]), keep.repeat(self.counts)

    def fit(self, x: np.ndarray) -> np.ndarray:
        """A_b x_b for every problem b, concatenated, from x stacked."""
        out = np.empty(self.size)
        for A, x_b, span in zip(self.blocks, x, self.spans):
            np.matmul(A, x_b, out=out[span])
        return out

    def adjoint(self, w: np.ndarray, negated: bool = False) -> np.ndarray:
        """A_b^T w_b, or (-A_b^T) w_b, for every problem b, stacked, from w
        concatenated."""
        out = np.empty((len(self.blocks), self.blocks[0].shape[1]))
        for A, N, out_b, span in zip(self.blocks, self.negated, out, self.spans):
            np.matmul(N if negated else A.T, w[span], out=out_b)
        return out

    def min(self, w: np.ndarray) -> np.ndarray:
        """The minimum over each problem's part of each row of w."""
        return np.minimum.reduceat(w, self.starts, axis=-1)

    def gap_sum(self, XS, u, p, v, q) -> np.ndarray:
        """tr(X S) + u.p + v.q for each problem, X and S stacked in XS."""
        out = np.empty(len(self.blocks))
        for b, span in enumerate(self.spans):
            out[b] = np.vdot(XS[b, 0], XS[b, 1]).real + u[span] @ p[span] + v[span] @ q[span]
        return out

    def spread(self, a: np.ndarray) -> np.ndarray:
        """Each problem's entry of a on every row of that problem; for a of
        shape (problems, k), one such vector per column."""
        return a.T.repeat(self.counts, axis=-1)


def _each(solver, a: np.ndarray, *rest: np.ndarray):
    """solver(a, *rest) over stacks of per-problem arrays in one call, which
    runs LAPACK on each matrix alone.  Returns the output and the set of
    problems whose call failed: after a LinAlgError each problem is tried
    alone, and a failed one's matrix is swapped for the identity and its
    output for NaN."""
    try:
        return solver(a, *rest), set()
    except np.linalg.LinAlgError:
        pass
    failed = np.zeros(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            solver(a[i:i + 1], *(r[i:i + 1] for r in rest))
        except np.linalg.LinAlgError:
            failed[i] = True
    out = solver(np.where(failed.reshape(-1, *[1] * (a.ndim - 1)), np.eye(a.shape[-1]), a), *rest)
    for o in out if isinstance(out, tuple) else (out,):
        o[failed] = np.nan
    return out, set(np.flatnonzero(failed).tolist())


def _lockstep(problems, max_iter: int) -> list[tuple[ReconstructionResult, np.ndarray, float]]:
    """Minimize sum |A vec(rho) - freqs| over trace-one PSD rho for every
    (A, freqs) problem, all on d x d matrices, by a primal-dual interior-point
    method; return each result with its best dual point (y, z).

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
    ends higher.

    The problems run in lockstep: each round takes one stacked step for
    every problem still running, and a problem leaves the stack when it
    stops.  It stops converged, on its budget, when _PATIENCE steps have not
    halved its gap, or on a breakdown: a failed factorization, a non-finite
    value or an iterate that leaves the cone.
    """
    basis = _hermitian_basis(isqrt(problems[0][0].shape[1]))
    t, mat, d = basis.identity, basis.matrix, basis.d
    rows = _Rows([basis.pair(A).real for A, _ in problems])  # rows Tr(M_i E_k)
    f = np.concatenate([np.asarray(f, dtype=float) for _, f in problems])
    nu = d + 2.0 * rows.counts  # the barrier parameter's weight: X, then u and v
    xi = np.tile(t / d, (len(problems), 1))  # X = I/d, with X S = I, u p = v q = 1
    u, v, y, z = np.ones(len(f)), np.ones(len(f)), np.zeros(len(f)), np.full(len(xi), -float(d))
    tracks = [_Track(i, xi[i], y[span]) for i, span in enumerate(rows.spans)]
    results, iterations, broken = [None] * len(tracks), 0, set()
    with np.errstate(all="ignore"):
        while True:
            s = rows.adjoint(y, negated=True) - z[:, None] * t
            XS = mat(np.array([xi, s])).swapaxes(0, 1)
            (lam, vec), failed = _each(np.linalg.eigh, XS)
            fit, tr = rows.fit(xi), np.array([t @ x for x in xi])
            stop = []
            for i, (track, span, (lx, ls)) in enumerate(zip(tracks, rows.spans,
                                                            lam[:, :, 0].tolist())):
                obj = float(np.abs(fit[span] / tr[i] - f[span]).sum())
                lower = f[span] @ y[span] + z[i] + ls
                # a failed step or eigh, X or S off the cone, or a non-finite
                # objective or bound ends the solve; each test is False on NaN
                ok = (i not in broken and i not in failed and lx > 0 and ls > 0
                      and isfinite(obj) and isfinite(lower))
                converged = ok and track.update(xi[i], obj, y[span], z[i] + ls, lower)
                gaps = track.gaps
                stop.append(not ok or converged or iterations == max_iter
                            or (len(gaps) > _PATIENCE and gaps[-1] > 0.5 * gaps[-1 - _PATIENCE]))
                if stop[-1]:
                    rho = psd_project(mat(track.xi) / (t @ track.xi))
                    results[track.index] = (  # a failed step is not counted
                        ReconstructionResult(rho_hat=rho, objective=float(track.obj),
                                             iterations=iterations - (i in broken),
                                             converged=bool(converged)),
                        track.y, float(track.z))
            if all(stop):
                return results
            if any(stop):
                keep = ~np.array(stop)
                rows, kept = rows.take(keep)
                f, u, v, y, fit = (a[kept] for a in (f, u, v, y, fit))
                nu, xi, z, s, tr, XS, lam, vec = (a[keep] for a in (nu, xi, z, s, tr, XS, lam, vec))
                tracks = [track for track, k in zip(tracks, keep) if k]
            xi, u, v, y, z, broken = _newton_step(basis, rows, f, xi, u, v, y, z, s, fit, tr,
                                                  XS, lam, vec, nu)
            iterations += 1


class _Track:
    """One problem's best iterate and objective, its best dual bound with
    the dual point (y, z) that gives it, and its gap at each update."""

    def __init__(self, index: int, xi: np.ndarray, y: np.ndarray):
        self.index, self.xi, self.obj = index, xi, np.inf
        self.bound, self.y, self.z, self.gaps = -np.inf, y, 0.0, []

    def update(self, xi, obj, y, z, bound) -> bool:
        """Take a finite objective and bound; True when the gap is within
        _TOL * (1 + objective)."""
        if obj < self.obj:
            self.xi, self.obj = xi, obj
        if bound > self.bound:
            self.bound, self.y, self.z = bound, y, z
        self.gaps.append(self.obj - self.bound)
        return self.gaps[-1] <= _TOL * (1.0 + self.obj)


def _newton_step(basis, rows, f, xi, u, v, y, z, s, fit, tr, XS, lam, vec, nu):
    """One predictor-corrector step for every problem of the stack, from X
    and S positive definite (XS stacks them, lam and vec their eigensystems;
    s holds S's coordinates, fit the rows' A vec(X) and tr the traces of X),
    |y| < 1 and u, v > 0.  Returns the new (xi, u, v, y, z) and the problems
    whose factorization failed.

    Eliminating du, dv, dy and dS leaves K dxi - dz t = rhs and t.dxi =
    1 - tr X, with K = V + Ar^T D^-1 Ar and V_kl = Re tr(E_k S E_l X^-1):
    d^2 x d^2 however many rows A has.  With S = R R^H and X^-1 = G G^H, V is
    the Gram matrix of the R^H E_l G, so K = F^T F for one stacked real F,
    formed for each problem from its own rows.  K is scaled to a unit
    diagonal and solved by LU for the predictor and again for the corrector:
    an explicit inverse, used for both, loses the last digits of the gap as
    K grows ill-conditioned.
    """
    t, mat, coords, d = basis.identity, basis.matrix, basis.coords, basis.d
    p, q = 1.0 + y, 1.0 - y  # the dual slacks of u and v
    GH = vec / np.sqrt(lam)[..., None, :]  # X^-1 = G G^H and S^-1 = H H^H
    GHh, G, R = GH.conj().swapaxes(2, 3), GH[:, 0], vec[:, 1] * np.sqrt(lam[:, 1])[:, None]
    Xinv = G @ GHh[:, 0]
    mu = rows.gap_sum(XS, u, p, v, q) / nu
    rp, rt = f - fit + u - v, 1.0 - tr
    D = u / p + v / q
    K, root_D = np.empty((len(xi), d * d, d * d)), np.sqrt(D)[:, None]
    for K_b, Rh, Gt, A, span in zip(K, R.conj().swapaxes(1, 2), G.swapaxes(1, 2), rows.blocks,
                                    rows.spans):
        # column l of C is R^H E_l G raveled, from R^H e_j e_k^T G at [a*d+b, j*d+k]
        C = basis.pair((Rh[:, None, :, None] * Gt[None, :, None, :]).reshape(d * d, -1))
        F = np.concatenate([C.real, C.imag, A / root_D[span]])
        np.matmul(F.T, F, out=K_b)
    scale = 1.0 / np.sqrt(np.diagonal(K, axis1=1, axis2=2))
    K *= scale[:, :, None] * scale[:, None, :]
    srhs = np.empty((len(xi), d * d, 2))  # the scaled right-hand sides: t, then the residual
    w = np.array([u, v, p, q])
    srhs[:, :, 0] = scale * t
    failed = set()

    def direction(r_s, r_u, r_v):
        """The step that zeroes the residuals r_s of S (in coordinates) and
        r_u, r_v of u p and v q, and the longest primal and dual steps along
        it, one row per problem (1 / 0 reads inf)."""
        g = rp + r_u / p - r_v / q
        srhs[:, :, 1] = scale * (r_s + rows.adjoint(g / D))
        sol, singular = _each(np.linalg.solve, K, srhs)
        sol = scale[:, :, None] * sol
        Kt, a = sol[..., 0], sol[..., 1]
        dz = np.array([(r - t @ a_b) / (t @ k_b) for r, a_b, k_b in zip(rt, a, Kt)])
        dxi = a + dz[:, None] * Kt
        dy = (g - rows.fit(dxi)) / D
        du, dv = (r_u - u * dy) / p, (r_v + v * dy) / q
        ds = rows.adjoint(dy, negated=True) - dz[:, None] * t
        dXS = mat(np.array([dxi, ds])).swapaxes(0, 1)
        e, unsolved = _each(np.linalg.eigvalsh, GHh @ dXS @ GH)
        failed.update(singular | unsolved)
        ratio = rows.min(w / np.maximum(-np.array([du, dv, dy, -dy]), 0.0))  # u, v, p, q
        return (dxi, du, dv, dy, dz, dXS), np.minimum(1.0 / np.maximum(-e[..., 0], 0.0),
                                                     ratio.reshape(2, 2, -1).min(1).T)

    # predictor: aim at mu = 0
    (dxi, du, dv, dy, dz, dXS), alpha = direction(-s, -u * p, -v * q)
    alpha = np.minimum(1.0, alpha)  # the primal and the dual step
    ap, ad = rows.spread(alpha)
    mu_aff = rows.gap_sum(XS + alpha[:, :, None, None] * dXS,
                          u + ap * du, p + ad * dy, v + ap * dv, q - ad * dy) / nu
    # libm's pow on each scalar: numpy's array power runs a SIMD kernel that
    # rounds some cubes differently, and the pinned outputs rest on libm's
    sigma_mu = np.array([r ** 3 for r in mu_aff / mu]) * mu
    # corrector: aim at sigma mu, less the predictor's second-order terms
    sm = rows.spread(sigma_mu)
    c = coords(np.array([Xinv, Xinv @ dXS[:, 0] @ dXS[:, 1]]))
    (dxi, du, dv, dy, dz, _), alpha = direction(sigma_mu[:, None] * c[0] - s - c[1],
                                                sm - u * p - du * dy, sm - v * q + dv * dy)
    alpha = np.minimum(1.0, _STEP * alpha)
    ap, ad = rows.spread(alpha)
    return (xi + alpha[:, :1] * dxi, u + ap * du, v + ap * dv, y + ad * dy, z + alpha[:, 1] * dz,
            failed)


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
    _check_type(rng, RngSeed)
    _check_count(repeats, "repeats")
    _check_state(rho_true)
    opts = ReconstructOptions() if opts is None else opts
    _check_type(opts, ReconstructOptions)
    n = rho_true.n_qubits
    if family == "projectors":
        settings = tomography_projectors(n)
    elif family == "pauli":
        settings = pauli_settings(n)
    else:
        raise QcopiesError(f"unknown measurement family {family!r}")
    total = len(settings)
    setting_counts = _as_list(setting_counts, "setting counts")
    for m in setting_counts:
        _check_count(m, "a setting count")
        if m > total:
            raise QcopiesError(f"setting counts must lie in [1, {total}]")
    if len({int(m) for m in setting_counts}) != len(setting_counts):
        raise QcopiesError("each setting count may appear only once")
    order = rng.generator(0).permutation(total)

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
    results = [result for result, _, _ in _lockstep(problems, opts.max_iter)]
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
