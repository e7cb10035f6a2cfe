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
    fidelity_pure,
    frobenius_distance,
    noisy_sc_state,
    pauli_settings,
    rank_two_sc_state,
    reconstruct,
    reconstruction_curve,
    sampled_frequencies,
    sc_state,
    tomography_projectors,
)
from qcopies.phaselift import _solve

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
        # bytes, not values: the solver's eigendecompositions see every bit
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
        settings = pauli_settings(3)
        rho = DensityMatrix(ginibre_density(8, rng))
        freqs = sampled_frequencies(rho, settings, 2000, rng)
        res = reconstruct(settings, freqs)
        assert np.all(np.diff(res.objective_history) <= 1e-12)

    def test_budget_cut_solve_not_converged(self):
        # 50 iterations end the solve before the stall rule's first check at
        # step 100
        settings = pauli_settings(3)
        freqs = sampled_frequencies(rank_two_sc_state(3, 0.7068), settings, 2000,
                                    np.random.default_rng(0))
        result = reconstruct(settings, freqs, ReconstructOptions(max_iter=50))
        assert result.iterations == 50
        assert not result.converged

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

    def test_rejects_mixed_qubit_counts(self):
        with pytest.raises(DimensionMismatchError):
            reconstruct([pauli_settings(1)[0], pauli_settings(2)[0]],
                        [[0.5, 0.5], [0.25] * 4])


def _same_result(a, b):
    return (a.rho_hat.matrix.tobytes() == b.rho_hat.matrix.tobytes()
            and a.objective == b.objective and a.iterations == b.iterations
            and a.converged == b.converged
            and a.objective_history.tobytes() == b.objective_history.tobytes())


class TestLockstep:
    """Solving problems together gives each the bits it gets alone."""

    @staticmethod
    def _problems(rng):
        rank_two = rank_two_sc_state(3, 0.7068)
        mixed = DensityMatrix(np.eye(8) / 8)
        pauli, proj = pauli_settings(3), tomography_projectors(3)
        cases = [
            (pauli, exact_frequencies(mixed, pauli)),
            (proj[:8], sampled_frequencies(rank_two, proj[:8], 2000, rng)),
            (proj, sampled_frequencies(rank_two, proj, 20000, rng)),
            (pauli[:5], sampled_frequencies(DensityMatrix(ginibre_density(8, rng)),
                                            pauli[:5], 500, rng)),
        ]
        return [(settings, freqs, np.concatenate([s.rows for s in settings]),
                 np.concatenate(freqs)) for settings, freqs in cases]

    @pytest.mark.parametrize("max_iter", [5000, 400, 7, 1])
    def test_matches_separate_solves(self, rng, max_iter):
        problems = self._problems(rng)
        opts = ReconstructOptions(max_iter=max_iter)
        alone = [reconstruct(settings, freqs, opts) for settings, freqs, _, _ in problems]
        together = _solve([(A, f) for _, _, A, f in problems], max_iter)
        assert all(_same_result(a, b) for a, b in zip(alone, together))
        for r, (_, _, A, f) in zip(alone, problems):
            rho, obj, iterations, converged, history = primal_dual_reconstruct(A, f, max_iter)
            assert r.rho_hat.matrix.tobytes() == rho.tobytes()
            assert (r.objective, r.iterations, r.converged) == (obj, iterations, converged)
            assert r.objective_history.tobytes() == history.tobytes()
        if max_iter < 100:  # every solve is cut before the first stall check
            assert [(r.iterations, r.converged) for r in alone] == [(max_iter, False)] * 4
        elif max_iter == 400:  # one is cut by the budget, the others stall by then
            assert [(r.iterations, r.converged) for r in alone] == [
                (100, True), (300, True), (400, False), (400, True)]
        else:  # they all stall, far apart
            assert [(r.iterations, r.converged) for r in alone] == [
                (100, True), (300, True), (900, True), (400, True)]

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
            fid = [fidelity_pure(r.rho_hat, sc_state(2)) for r in alone]
            assert row.mean_fidelity == float(np.mean(fid))
            assert row.std_fidelity == float(np.std(fid, ddof=1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([pauli_settings, tomography_projectors]), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_dual_adjoint_is_hermitian_to_the_bit(family, n, seed, scale):
    """The solver steps along (dual @ A).reshape(d, d).T unsymmetrized: for a
    real dual in [-1, 1] it already equals its conjugate transpose, and
    symmetrizing it, 0.5 * (g + g^H), gives back its bytes.  (g^H itself
    differs in bytes only by the sign of the diagonal's zero imaginary parts.)"""
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
        for r, (A, f) in zip(_solve(problems, 5000), problems):
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
        # a repeated count would solve the same problem twice, and `row`
        # could return only the first
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
