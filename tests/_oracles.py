"""Independent oracles used only by the tests.

Everything here is written from first principles (explicit loops, explicit
projector matrices, a generic numeric minimizer) so the library code paths
are checked against computations that share nothing with them.  The
per-outcome witness references below are the exception: they are the
dense paths the library no longer takes, the noise models mixed entry by
entry from full-length component arrays, a pure-state projector, a
state file's text, a white-noise mixture, each rotated outcome's Born probability from the
Kronecker product of its kets, and the aggregates read through the full
2**n x n phase table.  `product_setting_rows` builds phaselift's operator
rows one outcome at a time, the way the library built them before a
setting held them as one array.  The feedback-protocol oracles at the end
run one run at a time; they share with the library only the sampler's
one-row path, `setting_probabilities`, the fidelity formula, the schedule
and the config and result types.
"""
import json

import numpy as np

from qcopies import (AdaptiveConfig, AdaptiveState, DensityMatrix, QcopiesError,
                     SettingProbabilities, fidelity_from_probabilities, geometric_schedule,
                     sample_counts, setting_probabilities)
from qcopies.adaptive import RoundRecord, SweepResult, SweepRow
from qcopies.core import _check_dense
from qcopies.witness import COMPUTATIONAL

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def ginibre_density(d, rng):
    """Random full-rank density matrix G G^dag / Tr."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def sc_projector(n):
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def dense_depolarized_sc(n, fidelity):
    """White-noise-mixed SC state as a dense matrix, with the floating-point
    operations the library used when its noise models were dense."""
    d = 2**n
    p = (fidelity - 1.0 / d) / (1.0 - 1.0 / d)
    return p * sc_projector(n) + (1.0 - p) * np.eye(d) / d


def dense_noisy_sc_state(n, fidelity, corner_mass):
    """Corner-mass SC state a |SC><SC| + b corners/2 + c I/d as a dense matrix."""
    d = 2**n
    a = 2.0 * fidelity - corner_mass
    c = (1.0 - corner_mass) / (1.0 - 2.0 / d)
    b = 1.0 - a - c
    corners = np.zeros((d, d), dtype=complex)
    corners[0, 0] = corners[-1, -1] = 0.5
    return a * sc_projector(n) + b * corners + c * np.eye(d) / d


def dense_rank_two_sc_state(n, fidelity):
    """F |SC><SC| + (1-F) |SC'><SC'| with SC' the last-qubit-flipped cat."""
    d = 2**n
    flipped = np.zeros(d, dtype=complex)
    flipped[1] = flipped[d - 2] = 1.0 / np.sqrt(2.0)
    return fidelity * sc_projector(n) + (1.0 - fidelity) * np.outer(flipped, flipped.conj())


def _x_parts(amps):
    """Diagonal and anti-diagonal of |amps><amps|, entry for entry as
    np.outer(amps, amps.conj()) computes them."""
    return amps * amps.conj(), amps * amps[::-1].conj()


def _x_mix(combine, *parts):
    """Diagonal and anti-diagonal each from one entrywise formula over the
    matching full-length arrays of the components."""
    return tuple(combine(*ps) for ps in zip(*parts))


def _cat_amplitudes(n, first):
    amps = np.zeros(2**n, dtype=complex)
    amps[first] = amps[2**n - 1 - first] = 1.0 / np.sqrt(2.0)
    return amps


def x_noise_model(name, n, fidelity, corner_mass=None):
    """(diagonal, anti-diagonal) of a noise model built as full component
    arrays mixed entry by entry: the cat's two parts, the corners, I/d and
    the flipped cat's two parts, with the weights the library solves for."""
    d = 2**n
    cat = _x_parts(_cat_amplitudes(n, 0))
    eye = (np.ones(d), np.zeros(d))
    if name == "depolarized":
        p = (fidelity - 1.0 / d) / (1.0 - 1.0 / d)
        return _x_mix(lambda s, e: p * s + (1.0 - p) * e / d, cat, eye)
    if name == "corner-mass":
        a = 2.0 * fidelity - corner_mass
        c = (1.0 - corner_mass) / (1.0 - 2.0 / d)
        b = 1.0 - a - c
        corner_diag = np.zeros(d, dtype=complex)
        corner_diag[0] = corner_diag[-1] = 0.5
        corners = (corner_diag, np.zeros(d, dtype=complex))
        return _x_mix(lambda s, k, e: a * s + b * k + c * e / d, cat, corners, eye)
    flipped = _x_parts(_cat_amplitudes(n, 1))
    return _x_mix(lambda s, f: fidelity * s + (1.0 - fidelity) * f, cat, flipped)


def pure_density(amps):
    """Rank-one projector |psi><psi| of the amplitude vector `amps`."""
    amps = np.asarray(amps, dtype=complex)
    _check_dense(amps.size.bit_length() - 1)
    return DensityMatrix(np.outer(amps, amps.conj()), validate=False)


def density_json(rho):
    """A state file's text, {"n": qubits, "re": [[...]], "im": [[...]]}."""
    return json.dumps({"n": rho.n_qubits, "re": rho.matrix.real.tolist(),
                       "im": rho.matrix.imag.tolist()})


def white_noise_mix(target, p):
    """p * target + (1-p) * I/d."""
    if not 0.0 <= p <= 1.0:
        raise QcopiesError(f"mixing weight must be in [0, 1], got {p}")
    d = target.dim
    return DensityMatrix(p * target.matrix + (1.0 - p) * np.eye(d) / d, validate=False)


def popcounts(n):
    """Number of set bits of every outcome index of an n-qubit setting."""
    idx = np.arange(2**n, dtype=np.uint32)
    pops = np.zeros(2**n, dtype=np.int64)
    for q in range(n):
        pops += (idx >> q) & 1
    return pops


def rotated_bras(theta):
    """2x2 matrix whose rows are <+,theta| and <-,theta|."""
    e = np.exp(-1j * theta)
    return np.array([[1.0, e], [1.0, -e]], dtype=complex) / np.sqrt(2.0)


def born_probabilities(setting, rho):
    """Probabilities of all 2**n outcomes of a witness setting; a rotated
    setting contracts the dense state with the Kronecker product of its
    kets, one column per outcome."""
    if setting.kind == COMPUTATIONAL:
        return setting.born_probabilities(rho)
    m = rho.matrix  # past the dense cap this raises before the kets are built
    kets = np.ones((1, 1), dtype=complex)
    for _ in range(setting.n):
        kets = np.kron(kets, rotated_bras(setting.theta).conj().T)
    return np.clip(((kets.conj().T @ m) * kets.T).sum(axis=1).real, 0.0, None)


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


def product_setting_rows(bases):
    """vec(M^T) of every outcome's projector M = |k><k| of a product
    setting, each ket grown qubit by qubit with np.kron: a Pauli letter
    takes the conjugated bra of the outcome's bit, a projector letter its
    one ket."""
    n = len(bases)
    outcomes = 1 if bases[0] in _PROJECTOR_KETS else 2**n
    rows = []
    for outcome in range(outcomes):
        k = np.array([1.0], dtype=complex)
        for q, b in enumerate(bases):
            if b in _PROJECTOR_KETS:
                single = _PROJECTOR_KETS[b]
            else:
                single = _PAULI_BRAS[b][(outcome >> (n - 1 - q)) & 1].conj()
            k = np.kron(k, single)
        rows.append(np.outer(k, k.conj()).T.ravel())
    return np.array(rows)


def phase_table_probabilities(rho, wd):
    """P_1..P_{n+1} read over every anti-diagonal entry, zero or not,
    through the 2**n x n phase table gathered from its n+1 distinct rows."""
    corners = np.clip(rho.diagonal(), 0.0, None)
    rows = np.exp(1j * np.outer(wd.n - 2 * np.arange(wd.n + 1), wd.thetas))
    parity = (rho.anti_diagonal() @ rows[popcounts(wd.n)]).real
    P = [corners[0] + corners[-1], *(0.5 * (1.0 + parity))]
    return SettingProbabilities(n=wd.n, P=np.array(P)).P


def fidelity_direct(rho_matrix, n):
    """Tr(rho |SC><SC|) by plain matrix contraction."""
    return float(np.trace(rho_matrix @ sc_projector(n)).real)


def rotated_projovers(n, theta):
    """Explicit rank-1 projectors of the theta product basis, outcome order
    matching the library's bit convention (qubit 0 = most significant)."""
    plus = np.array([1, np.exp(1j * theta)]) / np.sqrt(2)
    minus = np.array([1, -np.exp(1j * theta)]) / np.sqrt(2)
    projs = []
    for idx in range(2**n):
        ket = np.array([1], dtype=complex)
        for q in range(n):
            bit = (idx >> (n - 1 - q)) & 1
            ket = np.kron(ket, minus if bit else plus)
        projs.append(np.outer(ket, ket.conj()))
    return projs


def m_tensor_expectation(rho_matrix, n, theta):
    """<M_theta^(x)n> via the explicit operator."""
    m1 = np.cos(theta) * SX + np.sin(theta) * SY
    op = np.array([[1]], dtype=complex)
    for _ in range(n):
        op = np.kron(op, m1)
    return float(np.trace(rho_matrix @ op).real)


def _project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1), 0.0)


def minimize_budget_numeric(k, eps, iters=200000, tol=1e-12):
    """Numeric minimizer of sum(t) s.t. sum(k/t) <= eps, all k > 0.

    Works on the simplex substitution y_j = k_j x_j / eps (x = 1/t), where
    the constraint boundary is exactly sum(y) = 1 and the objective becomes
    f(y) = (1/eps) sum(k_j / y_j).  Projected gradient with backtracking.
    """
    k = np.asarray(k, dtype=float)
    assert np.all(k > 0)
    y = np.full(k.size, 1.0 / k.size)

    def f(yy):
        if np.any(yy <= 0):
            return np.inf
        return float(np.sum(k / yy) / eps)

    fy = f(y)
    step = 1.0
    stall = 0
    for _ in range(iters):
        grad = -k / (y * y) / eps
        step *= 4.0  # allow growth back after earlier backtracking
        for _ in range(300):
            cand = _project_simplex(y - step * grad)
            fc = f(cand)
            if fc < fy:
                break
            step *= 0.5
        else:
            break
        if fy - fc < tol * max(1.0, abs(fy)):
            stall += 1
            if stall > 20:
                y, fy = cand, fc
                break
        else:
            stall = 0
        y, fy = cand, fc
    return k / (eps * y)


def sorting_psd_project(m):
    """Nearest trace-one PSD matrix to m, its simplex step sorting the
    eigenvalues rather than reversing eigh's ascending order."""
    h = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(h)
    u = np.sort(vals)[::-1]
    css = np.cumsum(u) - 1.0
    r = int(np.max(np.nonzero(u - css / np.arange(1, u.size + 1) > 0)[0])) + 1
    out = (vecs * np.maximum(vals - css[r - 1] / r, 0.0)) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def primal_dual_reconstruct(A, freqs, max_iter, ratio=0.03, window=100, tol=1e-5):
    """The reconstruction scheme the library used before its interior-point
    solver, kept as a quality floor for it, as one plain loop: Chambolle-Pock
    steps tau = ratio / |A| and sigma = 1 / (ratio |A|), the dual clipped to
    [-1, 1] after a step along the misfit of the extrapolated iterate, the
    primal projected after a step along the adjoint of the dual,
    best-iterate tracking, and a stop once a window of steps gains at most
    tol * (1 + best).

    Returns (rho, objective, iterations, converged).
    """
    d = int(round(np.sqrt(A.shape[1])))
    norm = float(np.linalg.norm(A, 2))
    tau, sigma = ratio / norm, 1.0 / (ratio * norm)
    x = np.eye(d, dtype=complex) / d
    fit = fit_prev = (A @ x.ravel()).real
    best, best_obj = x, float(np.abs(fit - freqs).sum())
    checked = best_obj
    dual = np.zeros(len(freqs))
    iterations, converged = 0, False
    while iterations < max_iter and not converged:
        # A (2 x - x_prev), from the two fits by linearity
        dual = np.clip(dual + sigma * ((2.0 * fit - fit_prev) - freqs), -1.0, 1.0)
        grad = (dual @ A).reshape(d, d).T
        x = sorting_psd_project(x - tau * (0.5 * (grad + grad.conj().T)))
        fit_prev, fit = fit, (A @ x.ravel()).real
        iterations += 1
        obj = float(np.abs(fit - freqs).sum())
        if obj < best_obj:
            best, best_obj = x, obj
        if iterations % window == 0:
            converged = checked - best_obj <= tol * (1.0 + best_obj)
            checked = best_obj
    return sorting_psd_project(best), best_obj, iterations, converged


def graduated_reconstruct(A, freqs, max_iter, widths=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                          stall_limit=60, min_gain=1e-9):
    """An earlier reconstruction scheme, kept as a quality reference for the
    objective the library's solver reaches: one projected-gradient phase per
    Huber width, Nesterov momentum restarted from the best iterate, a phase
    ending after more than `stall_limit` steps that each gain less than
    `min_gain`, or after its share of max_iter.

    Returns (rho, objective, iterations, converged, history).
    """
    d = int(round(np.sqrt(A.shape[1])))
    lipschitz = float(np.linalg.norm(A, 2) ** 2)

    def objective(mat):
        return float(np.abs((A @ mat.ravel()).real - freqs).sum())

    best = np.eye(d, dtype=complex) / d
    best_obj = objective(best)
    history = [best_obj]
    iterations = 0
    per_phase = max(50, max_iter // len(widths))
    for width in widths:
        y = prev = best
        momentum = 1.0
        stall = 0
        for _ in range(per_phase):
            if iterations >= max_iter:
                break
            iterations += 1
            residual = (A @ y.ravel()).real - freqs
            wts = residual / np.maximum(np.abs(residual), width)
            grad = (wts @ A).reshape(d, d).T
            cur = sorting_psd_project(y - (width / lipschitz) * (0.5 * (grad + grad.conj().T)))
            m_next = (1.0 + np.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
            y = cur + ((momentum - 1.0) / m_next) * (cur - prev)
            prev, momentum = cur, m_next
            obj = objective(cur)
            stall = 0 if obj < best_obj - min_gain else stall + 1
            if obj < best_obj:
                best, best_obj = cur, obj
            if stall > stall_limit:
                break
            history.append(best_obj)
    return sorting_psd_project(best), best_obj, iterations, stall > stall_limit, np.array(history)


def round_up_one(k, eps, t_min):
    """Integer copies for one weight vector: the closed-form optimum
    rounded up, then one copy at a time where it lowers sum(k/t) most."""
    roots = np.sqrt(k)
    real_t = roots * roots.sum() / eps
    t = np.where(k > 0, np.ceil(real_t * (1 - 1e-12) - 1e-12), t_min).astype(np.int64)
    t = np.maximum(t, t_min)
    while np.sum(k / t) > eps * (1 + 1e-9):
        t[np.argmax(k / t - k / (t + 1))] += 1
    return t


def sc_weights_one(n, P):
    var = P * (1.0 - P)
    k = np.empty_like(var)
    k[0] = var[0] / 4.0
    k[1:] = var[1:] / n**2
    return k


def spread_one(n, P, t):
    """delta F of one run: sqrt(P1(1-P1)/(4 t1) + sum_j Pj(1-Pj)/tj / n^2)."""
    var = P * (1.0 - P)
    return float(np.sqrt(var[0] / (4.0 * t[0]) + np.sum(var[1:] / t[1:]) / n**2))


def _clamped_one(P, t):
    out = P.copy()
    for j, t_j in enumerate(t):
        if t_j >= 2:
            out[j] = min(max(P[j], 1.0 / t_j), 1.0 - 1.0 / t_j)
    return out


def run_adaptive_one(rho, wd, cfg, gen, passes=64):
    """The feedback protocol for one run, each setting drawn on its own."""
    n, m = wd.n, wd.n + 1
    P_true = setting_probabilities(rho, wd).P

    def measure(copies):
        return np.array([sample_counts([p, 1.0 - p], int(c), gen)[0] if c > 0 else 0
                         for p, c in zip(P_true, copies)], dtype=np.int64)

    t_init = np.asarray(cfg.t_initial, dtype=np.int64)
    if t_init.ndim == 0:
        t_init = np.full(m, int(t_init), dtype=np.int64)
    hits = measure(t_init)
    cumulative = t_init.copy()
    P_used = np.full(m, 0.5) if cfg.initial_P is None else np.asarray(cfg.initial_P, float)
    rounds = []
    for idx, eps in enumerate(cfg.epsilon_schedule, start=1):
        eps0 = float(np.sqrt(eps))
        entry_P = P_used.copy()
        round_increments = np.zeros(m, dtype=np.int64)
        met = False
        for _ in range(passes):
            k = sc_weights_one(n, _clamped_one(P_used, cumulative))
            t = (np.full(m, cfg.t_min, dtype=np.int64) if not np.any(k > 0)
                 else round_up_one(k, eps0**2, cfg.t_min))
            increments = np.maximum(t - cumulative, 0)
            if increments.sum() == 0:
                met = True
                break
            hits += measure(increments)
            cumulative = cumulative + increments
            round_increments += increments
            P_used = hits / cumulative
            if spread_one(n, _clamped_one(P_used, cumulative), cumulative) <= eps0 * (1 + 1e-9):
                met = True
                break
        rounds.append(RoundRecord(
            index=idx, epsilon=float(eps), P_used=entry_P, target_t=t,
            increments=round_increments, cumulative_t=cumulative.copy(), P_hat=P_used,
            budget_met=met))
    return AdaptiveState(
        n=n, rounds=tuple(rounds), cumulative_t=cumulative, current_P=P_used,
        fidelity=fidelity_from_probabilities(SettingProbabilities(n=n, P=P_used)),
        fidelity_std=spread_one(n, P_used, cumulative.astype(float)))


def sweep_epsilon_ratio_one(rho, wd, ratios, repeats, rng):
    """The ratio sweep as one feedback run after another."""
    m = wd.n + 1
    rows = []
    for i, ratio in enumerate(ratios):
        totals = np.empty(repeats)
        rounds = np.empty(repeats)
        for rep in range(repeats):
            setup = rng.generator(i, rep, 0)
            cfg = AdaptiveConfig(
                epsilon_schedule=geometric_schedule(0.01, float(ratio), 0.0003),
                initial_P=setup.uniform(0.25, 0.75, size=m),
                t_initial=setup.integers(4, 8, size=m),
            )
            state = run_adaptive_one(rho, wd, cfg, rng.generator(i, rep, 1))
            totals[rep] = state.total_copies
            rounds[rep] = state.round
        rows.append(SweepRow(
            ratio=float(ratio),
            mean_total=float(totals.mean()),
            std_total=float(totals.std(ddof=1)) if repeats > 1 else 0.0,
            mean_rounds=float(rounds.mean()),
        ))
    return SweepResult(rows=tuple(rows))
