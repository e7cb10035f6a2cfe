"""Independent oracles used only by the tests.

Everything here is written from first principles (explicit loops, explicit
projector matrices, a generic numeric minimizer) so the library code paths
are checked against computations that share nothing with them.
"""
import numpy as np

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


def _project_density(m):
    """Nearest trace-one PSD matrix, one matrix at a time."""
    h = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(h)
    u = np.sort(vals)[::-1]
    css = np.cumsum(u) - 1.0
    r = int(np.max(np.nonzero(u - css / np.arange(1, u.size + 1) > 0)[0])) + 1
    out = (vecs * np.maximum(vals - css[r - 1] / r, 0.0)) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def graduated_reconstruct(A, freqs, max_iter, widths=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                          stall_limit=60, min_gain=1e-9):
    """The documented reconstruction scheme for one problem, as plain nested
    loops: one projected-gradient phase per Huber width, Nesterov momentum
    restarted from the best iterate, a phase ending after more than
    `stall_limit` steps that each gain less than `min_gain`, or after its
    share of max_iter.  Uses the same floating-point operations as the
    library, so results agree bit for bit.

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
            cur = _project_density(y - (width / lipschitz) * (0.5 * (grad + grad.conj().T)))
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
    return _project_density(best), best_obj, iterations, stall > stall_limit, np.array(history)
