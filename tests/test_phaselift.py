import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcopies import (
    DensityMatrix,
    DimensionMismatchError,
    ProductSetting,
    QcopiesError,
    ReconstructOptions,
    RngSeed,
    exact_frequencies,
    frobenius_distance,
    noisy_sc_state,
    pauli_settings,
    rank_two_sc_state,
    reconstruct,
    reconstruction_curve,
    sampled_frequencies,
    sc_fidelity,
    tomography_projectors,
)
from qcopies.phaselift import _each, _lockstep

from _oracles import (ginibre_density, graduated_reconstruct, primal_dual_reconstruct,
                      product_setting_rows)


class TestPauliSettings:
    def test_counts(self):
        assert len(pauli_settings(1)) == 3
        assert len(pauli_settings(3)) == 27
        assert sum(s.kets.shape[1] for s in pauli_settings(3)) == 216

    def test_completeness(self):
        for s in pauli_settings(2):
            total = sum(np.outer(k, k.conj()) for k in s.kets.T)
            assert np.allclose(total, np.eye(4), atol=1e-10)

    def test_elements_are_eigenvectors(self):
        ops = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
               "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
               "Z": np.array([[1, 0], [0, -1]], dtype=complex)}
        for name, op in ops.items():
            plus, minus = ProductSetting(name).kets.T
            assert np.allclose(op @ plus, plus)
            assert np.allclose(op @ minus, -minus)

    def test_probabilities_match_operators(self, rng):
        # each outcome's probability against its explicit projector
        rho = DensityMatrix(ginibre_density(8, rng))
        for s in pauli_settings(3):
            direct = [np.trace(rho.matrix @ np.outer(k, k.conj())).real for k in s.kets.T]
            assert s.born_probabilities(rho) == pytest.approx(direct, abs=1e-12)

    def test_size_guard(self):
        for n in (5, 0, -1):
            for family in (pauli_settings, tomography_projectors):
                with pytest.raises(QcopiesError):
                    family(n)


class TestTomographyProjectors:
    def test_counts(self):
        assert len(tomography_projectors(2)) == 16
        assert len(tomography_projectors(3)) == 64

    def test_unit_trace_norm(self):
        for s in tomography_projectors(2)[:8]:
            k = s.kets[:, 0]
            m = np.outer(k, k.conj())
            assert np.trace(m @ m.conj().T).real == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_match_operator(self, rng):
        rho = DensityMatrix(ginibre_density(8, rng))
        for s in tomography_projectors(3)[:10]:
            k = s.kets[:, 0]
            direct = np.trace(rho.matrix @ np.outer(k, k.conj())).real
            assert s.born_probabilities(rho)[0] == pytest.approx(direct, abs=1e-12)


class TestProductSetting:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_match_outer_products(self, n):
        # bytes, not values: the rows are the outer products' own bits
        for s in pauli_settings(n) + tomography_projectors(n):
            assert s.rows.flags.c_contiguous
            assert s.rows.tobytes() == product_setting_rows(s.bases).tobytes()

    @pytest.mark.parametrize("bases", ["XY", "HV"])
    def test_rejects_other_qubit_counts(self, bases):
        for rho in (DensityMatrix(np.eye(8) / 8), noisy_sc_state(3, 0.9)):
            with pytest.raises(DimensionMismatchError):
                ProductSetting(bases).born_probabilities(rho)

    @pytest.mark.parametrize("bases", ["", "Q", "XQ", "XZH", "hv", "XXXXX", None, ["X"]])
    def test_rejects_bad_letters(self, bases):
        with pytest.raises(QcopiesError):
            ProductSetting(bases)


class TestReconstruct:
    def test_exact_recovery_random_states(self, rng):
        settings = pauli_settings(2)
        for _ in range(20):
            rho = DensityMatrix(ginibre_density(4, rng))
            res = reconstruct(settings, exact_frequencies(rho, settings))
            assert frobenius_distance(res.rho_hat, rho) <= 1e-3

    def test_maximally_mixed_recovered(self):
        rho = DensityMatrix(np.eye(8) / 8)
        settings = pauli_settings(3)
        res = reconstruct(settings, exact_frequencies(rho, settings))
        assert frobenius_distance(res.rho_hat, rho) <= 1e-3

    def test_result_satisfies_state_invariants(self, rng):
        settings = pauli_settings(2)
        rho = DensityMatrix(ginibre_density(4, rng))
        freqs = sampled_frequencies(rho, settings, 500, rng)
        res = reconstruct(settings, freqs)
        m = res.rho_hat.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(m).min() >= -1e-9
        assert res.objective >= 0

    def test_accepted_objective_nonincreasing(self, rng):
        # a longer budget continues the same steps, so it ends no higher
        settings = pauli_settings(3)
        rho = DensityMatrix(ginibre_density(8, rng))
        freqs = sampled_frequencies(rho, settings, 2000, rng)
        problem = _rows_and_freqs(settings, freqs)
        objectives = [_lockstep([problem], k)[0][0].objective
                      for k in (1, 10, 100, 1000, 5000)]
        assert np.all(np.diff(objectives) <= 0.0)

    def test_budget_cut_solve_not_converged(self):
        # 5 Newton iterations end the solve before it certifies its gap at
        # iteration 14
        settings = pauli_settings(3)
        freqs = sampled_frequencies(rank_two_sc_state(3, 0.7068), settings, 2000,
                                    np.random.default_rng(0))
        [(result, _, _)] = _lockstep([_rows_and_freqs(settings, freqs)], 5)
        assert result.iterations == 5
        assert not result.converged
        assert reconstruct(settings, freqs).iterations == 14

    def test_budget_allocates_nothing_ahead(self):
        # anything sized by the budget would take gigabytes here; the solve
        # converges at iteration 6
        settings = pauli_settings(1)
        rho = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]]))
        problem = _rows_and_freqs(settings, exact_frequencies(rho, settings))
        tracemalloc.start()
        try:
            [(result, _, _)] = _lockstep([problem], 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.iterations, result.converged) == (6, True)
        assert peak < 2**20

    def test_exact_mixed_data_converges(self):
        settings = pauli_settings(3)
        mixed = DensityMatrix(np.eye(8) / 8)
        assert reconstruct(settings, exact_frequencies(mixed, settings)).converged

    def test_rejects_bad_frequencies(self):
        settings = pauli_settings(1)
        with pytest.raises(QcopiesError):
            reconstruct(settings, [np.array([1.2, -0.2])] * 3)

    def test_rejects_nan_frequencies(self):
        with pytest.raises(QcopiesError):
            reconstruct(pauli_settings(1), [np.array([np.nan, 0.5])] * 3)

    def test_sampling_needs_copies(self):
        with pytest.raises(QcopiesError):
            sampled_frequencies(DensityMatrix(np.eye(4) / 4), pauli_settings(2), 0,
                                np.random.default_rng(0))

    def test_rejects_shape_mismatch(self):
        settings = pauli_settings(1)
        with pytest.raises(QcopiesError):
            reconstruct(settings, [np.array([0.5, 0.5])] * 2)

    def test_shape_message_gives_the_row_shape(self):
        with pytest.raises(DimensionMismatchError, match=r"shape \(2, 2\)"):
            reconstruct(pauli_settings(2)[:1], [np.full((2, 2), 0.25)])

    @pytest.mark.parametrize("call", [
        lambda: reconstruct(["XZ"], [[0.25] * 4]),
        lambda: reconstruct(None, [[0.5, 0.5]]),
        lambda: reconstruct(pauli_settings(1), [["a", "b"]] * 3),
        lambda: reconstruct(pauli_settings(1), None),
        lambda: reconstruction_curve(rank_two_sc_state(2, 0.8), 100, [4], 1, RngSeed(1), opts=5),
        lambda: reconstruction_curve(rank_two_sc_state(2, 0.8), 100, 4, 1, RngSeed(1)),
        lambda: reconstruction_curve(np.eye(4) / 4, 100, [4], 1, RngSeed(1)),
        lambda: exact_frequencies(rank_two_sc_state(2, 0.8), ["XZ"]),
        lambda: exact_frequencies(np.eye(4) / 4, pauli_settings(2)),
        lambda: sampled_frequencies(rank_two_sc_state(2, 0.8), pauli_settings(2), 10, None),
    ])
    def test_bad_input_raises_a_library_error(self, call):
        with pytest.raises(QcopiesError):
            call()

    def test_rejects_mixed_qubit_counts(self):
        with pytest.raises(DimensionMismatchError):
            reconstruct([pauli_settings(1)[0], pauli_settings(2)[0]],
                        [[0.5, 0.5], [0.25] * 4])


class TestLockstep:
    """A curve solves each of its problems as `reconstruct` solves it alone."""

    def test_curve_keeps_each_solve(self):
        rho = rank_two_sc_state(2, 0.8)
        setting_counts, repeats = [4, 9, 16], 2
        curve = reconstruction_curve(rho, counts_per_setting=1000,
                                     setting_counts=setting_counts, repeats=repeats,
                                     rng=RngSeed(3))
        settings = tomography_projectors(2)
        rng = RngSeed(3)
        order = rng.generator(0).permutation(len(settings))
        tables = [sampled_frequencies(rho, settings, 1000, rng.generator(1, rep))
                  for rep in range(repeats)]
        for m, row in zip(setting_counts, curve.rows):
            sel = order[:m]
            alone = [reconstruct([settings[j] for j in sel], [table[j] for j in sel])
                     for table in tables]
            assert row.iterations == tuple(r.iterations for r in alone)
            assert row.converged == tuple(r.converged for r in alone)
            fid = [sc_fidelity(r.rho_hat) for r in alone]
            assert row.mean_fidelity == float(np.mean(fid))
            assert row.std_fidelity == float(np.std(fid, ddof=1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.one_of(st.just(5000), st.integers(1, 12)), st.data())
    def test_stack_gives_each_problem_its_solve_alone(self, n, max_iter, data):
        """Random stacks at one n: both families, random setting prefixes
        (so row counts differ), 1 to 20000 copies, the degenerate five-copy
        problem at n = 3, and budgets that cut some solves and not others.
        Each problem gets the bits it gets alone, in any order."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        problems = []
        for _ in range(data.draw(st.integers(1, 5), label="problems")):
            pool = data.draw(st.sampled_from([pauli_settings, tomography_projectors]))(n)
            chosen = [pool[j] for j in rng.permutation(len(pool))]
            chosen = chosen[:data.draw(st.integers(1, len(pool)), label="settings")]
            rho = (rank_two_sc_state(n, rng.uniform(0.5, 1.0)) if n > 1 and rng.random() < 0.5
                   else DensityMatrix(ginibre_density(2**n, rng)))
            copies = data.draw(st.integers(1, 20000), label="copies")
            problems.append(_rows_and_freqs(chosen, sampled_frequencies(rho, chosen, copies, rng)))
        if n == 3 and data.draw(st.booleans(), label="degenerate"):
            problems.insert(data.draw(st.integers(0, len(problems))), _degenerate_problem())
        alone = [_lockstep([problem], max_iter)[0] for problem in problems]
        order = data.draw(st.permutations(range(len(problems))), label="order")
        for stack_order in (range(len(problems)), order):
            stacked = _lockstep([problems[i] for i in stack_order], max_iter)
            for i, (result, y, z) in zip(stack_order, stacked):
                ref, ref_y, ref_z = alone[i]
                assert result.rho_hat.matrix.tobytes() == ref.rho_hat.matrix.tobytes()
                assert (result.objective, result.iterations, result.converged) == (
                    ref.objective, ref.iterations, ref.converged)
                assert (y.tobytes(), z) == (ref_y.tobytes(), ref_z)

    def test_nan_frequencies_end_only_their_problem(self):
        settings, rho = tomography_projectors(2), rank_two_sc_state(2, 0.8)
        healthy = [_rows_and_freqs(settings, sampled_frequencies(rho, settings, 1000,
                                                                 np.random.default_rng(k)))
                   for k in (1, 2)]
        A, f = healthy[0]
        f = f.copy()
        f[3] = np.nan
        first, bad, last = _lockstep([healthy[0], (A, f), healthy[1]], 5000)
        assert not bad[0].converged
        for (result, _, _), (A_k, f_k) in zip((first, last), healthy):
            ref = _lockstep([(A_k, f_k)], 5000)[0][0]
            assert result.converged
            assert result.rho_hat.matrix.tobytes() == ref.rho_hat.matrix.tobytes()
            assert (result.objective, result.iterations) == (ref.objective, ref.iterations)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frequency_does_not_converge(self, bad):
        A, f = _rows_and_freqs(pauli_settings(1), [np.array([0.5, 0.5])] * 3)
        f[2] = bad
        [(result, _, _)] = _lockstep([(A, f)], 5000)
        assert not result.converged

    def test_failed_factorization_ends_only_its_problem(self):
        rng = np.random.default_rng(0)
        K = np.array([np.eye(4) + 0.1 * rng.standard_normal((4, 4)) for _ in range(3)])
        K[1] = 0.0
        b = rng.standard_normal((3, 4, 2))
        out, failed = _each(np.linalg.solve, K, b)
        assert failed == {1}
        assert np.isnan(out[1]).all()
        for i in (0, 2):
            assert out[i].tobytes() == np.linalg.solve(K[i], b[i]).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([pauli_settings, tomography_projectors]), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_dual_adjoint_is_hermitian_to_the_bit(family, n, seed, scale):
    """For a real dual in [-1, 1], the adjoint over the rows,
    (dual @ A).reshape(d, d).T = sum_i dual_i M_i, already equals its
    conjugate transpose, and symmetrizing it, 0.5 * (g + g^H), gives back its
    bytes.  (g^H itself differs in bytes only by the sign of the diagonal's
    zero imaginary parts.)"""
    A = np.concatenate([s.rows for s in family(n)])
    dual = np.clip(scale * np.random.default_rng(seed).standard_normal(len(A)), -1.0, 1.0)
    g = (dual @ A).reshape(2**n, 2**n).T
    assert np.array_equal(g, g.conj().T)
    assert (0.5 * (g + g.conj().T)).tobytes() == g.tobytes()


class TestQualityAgainstGraduated:
    """The solver ends each problem no worse than the earlier graduated Huber
    scheme, kept in the oracles: objective <= old + 1e-3 * (1 + old)."""

    @staticmethod
    def _assert_no_worse(problems):
        for (r, _, _), (A, f) in zip(_lockstep(problems, 5000), problems):
            old = graduated_reconstruct(A, f, 5000)[1]
            assert r.objective <= old + 1e-3 * (1 + old)

    @pytest.mark.parametrize("family, setting_counts", [(pauli_settings, [3, 5, 9]),
                                                        (tomography_projectors, [4, 8, 16])])
    def test_two_qubit_problems(self, rng, family, setting_counts):
        settings = family(2)
        problems = []
        for rho in (rank_two_sc_state(2, 0.8), DensityMatrix(ginibre_density(4, rng))):
            table = sampled_frequencies(rho, settings, 1000, rng)
            problems += [(np.concatenate([s.rows for s in settings[:m]]),
                          np.concatenate(table[:m])) for m in setting_counts]
        self._assert_no_worse(problems)

    def test_three_qubit_curve(self):
        # the problems of one benchmark curve: seed 1, 20000 counts, rank two
        settings = tomography_projectors(3)
        rng = RngSeed(1)
        order = rng.generator(0).permutation(len(settings))
        table = sampled_frequencies(rank_two_sc_state(3, 0.7068), settings, 20000,
                                    rng.generator(1, 0))
        A = np.concatenate([settings[j].rows for j in order])  # one row per projector
        f = np.concatenate([table[j] for j in order])
        self._assert_no_worse([(A[:m], f[:m]) for m in (8, 16, 30, 45, 50, 56, 64)])


def _rows_and_freqs(settings, table):
    return np.concatenate([s.rows for s in settings]), np.concatenate(table)


def _bench_curve_problems(seed):
    """The problems of one benchmark curve: rank two, n = 3, 20000 copies per
    setting, the settings in the seed's order, seven setting counts."""
    settings = tomography_projectors(3)
    rng = RngSeed(seed)
    order = rng.generator(0).permutation(len(settings))
    table = sampled_frequencies(rank_two_sc_state(3, 0.7068), settings, 20000,
                                rng.generator(1, 0))
    A, f = _rows_and_freqs([settings[j] for j in order], [table[j] for j in order])
    return [(A[:m], f[:m]) for m in (8, 16, 30, 45, 50, 56, 64)]  # one row per projector


def _degenerate_problem():
    """Five copies of the maximally mixed state on five Pauli bases (see
    TestRobustness.test_degenerate_counts_end_quickly)."""
    settings = [ProductSetting(b) for b in ("YZZ", "YXY", "YYX", "XZZ", "XXX")]
    hits = [[0, 2, 0, 0, 1, 2, 0, 0], [0, 1, 1, 0, 0, 0, 2, 1], [1, 0, 0, 1, 2, 0, 1, 0],
            [1, 0, 1, 0, 1, 0, 1, 1], [1, 0, 1, 1, 1, 0, 0, 1]]
    return _rows_and_freqs(settings, [np.array(h) / 5 for h in hits])


def _assert_state(result):
    m = result.rho_hat.matrix
    assert np.max(np.abs(m - m.conj().T)) <= 1e-10
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(m).min() >= -1e-9
    assert np.isfinite(result.objective) and result.objective >= 0


class TestCertificate:
    """The solver's dual point (y, z) proves its objective near the optimum:
    |y| <= 1 and sum_i y_i M_i + z I <= 0 make freqs.y + z a lower bound on
    every state's objective."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([pauli_settings, tomography_projectors]), st.integers(1, 3),
           st.booleans(), st.sampled_from([100, 2000, 20000]), st.integers(0, 2**32 - 1),
           st.data())
    def test_dual_bounds_the_objective(self, family, n, rank_two, copies, seed, data):
        rng = np.random.default_rng(seed)
        rho = (rank_two_sc_state(n, rng.uniform(0.5, 1.0)) if rank_two and n > 1
               else DensityMatrix(ginibre_density(2**n, rng)))
        pool = family(n)
        chosen = [pool[j] for j in rng.permutation(len(pool))]
        chosen = chosen[:data.draw(st.integers(1, len(pool)), label="settings")]
        A, f = _rows_and_freqs(chosen, sampled_frequencies(rho, chosen, copies, rng))
        [(result, y, z)] = _lockstep([(A, f)], 5000)
        assert np.all(np.abs(y) <= 1.0)
        # the operators from the settings' kets, not from the rows the solver read
        kets = np.concatenate([s.kets for s in chosen], axis=1)
        assert np.linalg.eigvalsh((kets * y) @ kets.conj().T)[-1] + z <= 1e-9
        assert result.objective - (f @ y + z) <= 1e-6 * (1 + result.objective)
        fit = (A @ result.rho_hat.matrix.ravel()).real
        assert np.abs(fit - f).sum() == pytest.approx(result.objective, abs=1e-9)


class TestQualityAgainstPrimalDual:
    """Each solve ends no higher than the Chambolle-Pock scheme the library
    used before, kept in the oracles: objective <= old + 1e-6 * (1 + old)."""

    @staticmethod
    def _assert_no_worse(problems):
        for (r, _, _), (A, f) in zip(_lockstep(problems, 5000), problems):
            old = primal_dual_reconstruct(A, f, 5000)[1]
            assert r.objective <= old + 1e-6 * (1 + old)

    def test_mixed_problems(self, rng):
        rank_two = rank_two_sc_state(3, 0.7068)
        pauli, proj = pauli_settings(3), tomography_projectors(3)
        ginibre = DensityMatrix(ginibre_density(8, rng))
        self._assert_no_worse([
            _rows_and_freqs(pauli, exact_frequencies(DensityMatrix(np.eye(8) / 8), pauli)),
            _rows_and_freqs(proj[:8], sampled_frequencies(rank_two, proj[:8], 2000, rng)),
            _rows_and_freqs(proj, sampled_frequencies(rank_two, proj, 20000, rng)),
            _rows_and_freqs(pauli[:5], sampled_frequencies(ginibre, pauli[:5], 500, rng)),
        ])

    def test_three_qubit_curve(self):
        self._assert_no_worse(_bench_curve_problems(1))


class TestRobustness:
    """No input raises, and every result is a state."""

    def test_bench_shaped_curves_all_converge(self):
        for seed in range(1, 41):
            for r, _, _ in _lockstep(_bench_curve_problems(seed), 5000):
                assert r.converged
                _assert_state(r)

    @pytest.mark.parametrize("family", [pauli_settings, tomography_projectors])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_setting(self, family, n, rng):
        setting = family(n)[-1]
        rho = DensityMatrix(ginibre_density(2**n, rng))
        for freqs in (exact_frequencies(rho, [setting]),
                      sampled_frequencies(rho, [setting], 50, rng)):
            r = reconstruct([setting], freqs)
            assert r.converged
            _assert_state(r)

    @pytest.mark.parametrize("family", [pauli_settings, tomography_projectors])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frequencies_of_zero_or_one(self, family, n):
        settings = family(n)
        rng = np.random.default_rng(n)
        for table in ([np.zeros(len(s.rows)) for s in settings],
                      [np.ones(len(s.rows)) for s in settings],
                      [rng.integers(0, 2, len(s.rows)).astype(float) for s in settings]):
            r = reconstruct(settings, table)
            assert r.converged
            _assert_state(r)

    @pytest.mark.parametrize("family", [pauli_settings, tomography_projectors])
    def test_one_qubit(self, family, rng):
        settings = family(1)
        for copies in (1, 10, 10**6):
            rho = DensityMatrix(ginibre_density(2, rng))
            r = reconstruct(settings, sampled_frequencies(rho, settings, copies, rng))
            assert r.converged
            _assert_state(r)

    def test_four_qubit_pauli_full_set(self, rng):
        settings = pauli_settings(4)
        freqs = sampled_frequencies(rank_two_sc_state(4, 0.8), settings, 2000, rng)
        r = reconstruct(settings, freqs)
        assert r.converged
        _assert_state(r)

    def test_degenerate_counts_end_quickly(self):
        # five copies of the maximally mixed state on five Pauli bases: zero
        # frequencies force a rank-deficient optimum, and the Newton system
        # reaches condition 1e16 (an earlier variant stalled at a gap of
        # 1.1e-7 relative here)
        settings = [ProductSetting(b) for b in ("YZZ", "YXY", "YYX", "XZZ", "XXX")]
        hits = [[0, 2, 0, 0, 1, 2, 0, 0], [0, 1, 1, 0, 0, 0, 2, 1], [1, 0, 0, 1, 2, 0, 1, 0],
                [1, 0, 1, 0, 1, 0, 1, 1], [1, 0, 1, 1, 1, 0, 0, 1]]
        A, f = _rows_and_freqs(settings, [np.array(h) / 5 for h in hits])
        [(r, y, z)] = _lockstep([(A, f)], 5000)
        assert r.iterations <= 30
        assert r.objective - (f @ y + z) <= 1e-6 * (1 + r.objective)
        _assert_state(r)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_tiny_budgets_return_a_state(self, max_iter, rng):
        settings = tomography_projectors(3)
        freqs = sampled_frequencies(rank_two_sc_state(3, 0.7068), settings, 20000, rng)
        [(r, _, _)] = _lockstep([_rows_and_freqs(settings, freqs)], max_iter)
        assert (r.iterations, r.converged) == (max_iter, False)
        _assert_state(r)


class TestReconstructionCurve:
    def test_mse_shrinks_with_more_settings(self):
        rho = rank_two_sc_state(3, 0.7068)
        curve = reconstruction_curve(rho, counts_per_setting=5000,
                                     setting_counts=[8, 30, 64], repeats=2,
                                     rng=RngSeed(11))
        mses = [r.mean_mse for r in curve.rows]
        assert mses[0] > mses[1] > mses[2]
        assert mses[2] <= 0.02

    def test_full_settings_huge_counts_near_exact(self):
        rho = rank_two_sc_state(3, 0.75)
        curve = reconstruction_curve(rho, counts_per_setting=10**6,
                                     setting_counts=[64], repeats=1,
                                     rng=RngSeed(13))
        assert curve.rows[0].mean_mse <= 1e-3

    def test_pauli_family_supported(self):
        rho = rank_two_sc_state(2, 0.8)
        curve = reconstruction_curve(rho, counts_per_setting=4000,
                                     setting_counts=[3, 9], repeats=2,
                                     rng=RngSeed(7), family="pauli")
        assert curve.rows[-1].mean_mse < curve.rows[0].mean_mse

    def test_csv_header(self):
        rho = rank_two_sc_state(2, 0.8)
        curve = reconstruction_curve(rho, counts_per_setting=1000,
                                     setting_counts=[4, 16], repeats=1,
                                     rng=RngSeed(3))
        first = curve.to_csv().split("\n", 1)[0]
        assert first == "settings_used,mean_fidelity,std_fidelity,mean_mse,std_mse"

    def test_bad_setting_counts(self):
        rho = rank_two_sc_state(2, 0.8)
        with pytest.raises(QcopiesError):
            reconstruction_curve(rho, counts_per_setting=100, setting_counts=[0],
                                 repeats=1, rng=RngSeed(1))
        with pytest.raises(QcopiesError):
            reconstruction_curve(rho, counts_per_setting=100, setting_counts=[17],
                                 repeats=1, rng=RngSeed(1), family="pauli")
        with pytest.raises(QcopiesError):
            reconstruction_curve(rho, counts_per_setting=100, setting_counts=[],
                                 repeats=1, rng=RngSeed(1))

    def test_repeated_setting_count_rejected(self):
        # a repeated count would solve the same problem twice
        with pytest.raises(QcopiesError, match="only once"):
            reconstruction_curve(rank_two_sc_state(2, 0.8), counts_per_setting=100,
                                 setting_counts=[4, 8, 4], repeats=1, rng=RngSeed(1))


class TestSmallCopyBias:
    def test_bias_grows_when_counts_drop(self):
        # reproduce the observation that few copies bias the estimate; not
        # corrected, only measured
        rho = rank_two_sc_state(3, 0.7068)
        lo = reconstruction_curve(rho, counts_per_setting=60,
                                  setting_counts=[64], repeats=4, rng=RngSeed(5))
        hi = reconstruction_curve(rho, counts_per_setting=20000,
                                  setting_counts=[64], repeats=4, rng=RngSeed(5))
        bias_lo = abs(lo.rows[0].mean_fidelity - 0.7068)
        bias_hi = abs(hi.rows[0].mean_fidelity - 0.7068)
        assert bias_hi < 0.02
        assert bias_lo > bias_hi


def test_reconstruct_options_defaults():
    opts = ReconstructOptions()
    assert opts.max_iter == 5000


@pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, float("inf")])
def test_reconstruct_options_need_an_iteration(max_iter):
    with pytest.raises(QcopiesError, match="max_iter"):
        ReconstructOptions(max_iter=max_iter)
