import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qcopies import (
    DensityMatrix,
    QcopiesError,
    RngSeed,
    SettingProbabilities,
    WitnessDecomposition,
    XState,
    allocate_sc,
    build_settings,
    delta_f,
    depolarized_sc,
    fidelity_from_probabilities,
    noisy_sc_state,
    rank_two_sc_state,
    run_histogram_experiment,
    sc_fidelity,
    setting_probabilities,
)
from qcopies.core import MAX_QUBITS
from qcopies.witness import MeasurementSetting, ROTATED, _spreads

from _oracles import (born_probabilities, fidelity_direct, ginibre_density, m_tensor_expectation,
                      popcounts, rotated_projovers, sc_projector, spread_one)


class TestBuildSettings:
    def test_three_qubits(self):
        wd = build_settings(3)
        assert len(wd.settings) == 4
        assert wd.settings[0].kind == "computational"
        assert wd.thetas == pytest.approx([np.pi / 3, 2 * np.pi / 3, np.pi])

    def test_eight_qubits(self):
        wd = build_settings(8)
        assert len(wd.settings) == 9
        assert wd.thetas == pytest.approx([k * np.pi / 8 for k in range(1, 9)])

    @pytest.mark.parametrize("n", [0, MAX_QUBITS + 1])
    def test_range(self, n):
        with pytest.raises(QcopiesError):
            build_settings(n)

    @pytest.mark.parametrize("n", [1, 2, 8, MAX_QUBITS])
    def test_decomposition_is_built_from_n(self, n):
        # the settings are fixed by n, so a decomposition takes nothing else
        assert WitnessDecomposition(n) == build_settings(n)
        with pytest.raises(TypeError):
            WitnessDecomposition(n, build_settings(n).settings)

    @pytest.mark.parametrize("n", [0, MAX_QUBITS + 1, 2.0])
    def test_decomposition_rejects_a_bad_qubit_count(self, n):
        with pytest.raises(QcopiesError):
            WitnessDecomposition(n)

    def test_rotated_angle_validated(self):
        with pytest.raises(QcopiesError):
            MeasurementSetting(4, ROTATED, 0.123)

    def test_rotated_outcome_probabilities_not_computed(self):
        rho = depolarized_sc(3, 0.9)
        for setting in build_settings(3).settings[1:]:
            with pytest.raises(QcopiesError, match="setting_probabilities"):
                setting.born_probabilities(rho)


class TestSettingProbabilities:
    def test_pure_sc_even_n(self):
        # even n: corner mass 1, even-parity mass alternates 0/1 starting at P2=0
        for n in (2, 4):
            wd = build_settings(n)
            rho = depolarized_sc(n, 1.0)
            p = setting_probabilities(rho, wd).P
            assert p[0] == pytest.approx(1.0, abs=1e-10)
            for j in range(2, n + 2):
                expected = 1.0 if j % 2 == 1 else 0.0
                assert p[j - 1] == pytest.approx(expected, abs=1e-10), f"j={j}"

    def test_maximally_mixed(self):
        n = 3
        wd = build_settings(n)
        rho = DensityMatrix(np.eye(8) / 8)
        p = setting_probabilities(rho, wd).P
        assert p[0] == pytest.approx(2 ** (1 - n), abs=1e-12)
        assert p[1:] == pytest.approx([0.5] * n, abs=1e-12)

    def test_outcome_probabilities_sum_to_one(self, rng):
        wd = build_settings(3)
        rho = DensityMatrix(ginibre_density(8, rng))
        for setting in wd.settings:
            assert born_probabilities(setting, rho).sum() == pytest.approx(1.0, abs=1e-10)

    def test_against_explicit_projectors(self, rng):
        # contraction path vs explicitly built rank-1 projector matrices
        wd = build_settings(3)
        rho = DensityMatrix(ginibre_density(8, rng))
        for setting in wd.settings[1:]:
            probs = born_probabilities(setting, rho)
            ref = [np.trace(rho.matrix @ proj).real
                   for proj in rotated_projovers(3, setting.theta)]
            assert probs == pytest.approx(ref, abs=1e-10)

    def test_parity_identity(self, rng):
        # sum_outcomes parity * prob equals the explicit tensor expectation
        for n in range(1, 9):
            wd = build_settings(n)
            parity = 1 - 2 * (popcounts(n) % 2)
            states = [DensityMatrix(ginibre_density(2**n, rng))]
            if n >= 2:
                states += [noisy_sc_state(n, 0.8, 0.9), rank_two_sc_state(n, 0.7)]
            for rho in states:
                p = setting_probabilities(rho, wd)
                for j, setting in enumerate(wd.settings[1:], start=2):
                    probs = born_probabilities(setting, rho)
                    parity_sum = float(parity @ probs)
                    assert parity_sum == pytest.approx(2 * p.P[j - 1] - 1, abs=1e-12)
                    assert parity_sum == pytest.approx(
                        m_tensor_expectation(rho.matrix, n, setting.theta), abs=1e-10)


    @pytest.mark.parametrize("n", range(1, 15))
    def test_rotated_masses_against_the_full_phase_table(self, rng, n):
        # the 2**n x n phase table computed entry by entry, not gathered
        # from its n+1 distinct rows, gives the same bytes
        wd = build_settings(n)
        diag = rng.uniform(size=2**n)
        diag /= diag.sum()
        half = np.sqrt(diag * diag[::-1]) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2**n))
        anti = np.where(np.arange(2**n) < 2 ** (n - 1), half, half[::-1].conj())
        rho = XState(diag, anti * rng.uniform())
        phases = np.exp(1j * np.outer(n - 2 * popcounts(n), wd.thetas))
        parity = (rho.anti_diagonal() @ phases).real
        assert setting_probabilities(rho, wd).P[1:].tobytes() == (0.5 * (1.0 + parity)).tobytes()

    @pytest.mark.parametrize("n", [13, 16])
    def test_past_the_dense_cap(self, n):
        p = setting_probabilities(noisy_sc_state(n, 0.8414, 0.947), build_settings(n))
        assert p.P[0] == pytest.approx(0.947, abs=1e-12)
        assert fidelity_from_probabilities(p) == pytest.approx(0.8414, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        P = np.full(4, 0.5)
        P[2] = bad
        with pytest.raises(QcopiesError):
            SettingProbabilities(n=3, P=P)

    @pytest.mark.parametrize("n, P", [(0, [0.5]), (-1, []), (1.0, [0.5, 0.5]),
                                      (True, [0.5, 0.5]), ("1", [0.5, 0.5])])
    def test_needs_an_integer_qubit_count_of_at_least_one(self, n, P):
        # n = 0 would make F = 0/0 in the fidelity formula
        with pytest.raises(QcopiesError):
            SettingProbabilities(n=n, P=np.array(P))


class TestFidelityFromProbabilities:
    def test_pure_sc_eight_qubits(self):
        wd = build_settings(8)
        p = setting_probabilities(depolarized_sc(8, 1.0), wd)
        assert fidelity_from_probabilities(p) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_eight_qubits(self):
        wd = build_settings(8)
        p = setting_probabilities(DensityMatrix(np.eye(256) / 256), wd)
        assert fidelity_from_probabilities(p) == pytest.approx(2**-8, abs=1e-12)

    def test_brute_force_equivalence(self, rng):
        for n in (2, 3, 4):
            wd = build_settings(n)
            for _ in range(50):
                rho = DensityMatrix(ginibre_density(2**n, rng))
                f_path = fidelity_from_probabilities(setting_probabilities(rho, wd))
                assert abs(f_path - fidelity_direct(rho.matrix, n)) < 1e-10


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_decomposition_equals_direct_fidelity(n, rank, cat_weight, seed):
    """The witness decomposition, the corner-and-coherence read and the
    plain contraction Tr(rho |SC><SC|) agree."""
    # a random rank-limited Ginibre state mixed with the cat, so the
    # fidelity spans [0, 1]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    noise = g @ g.conj().T
    m = cat_weight * sc_projector(n) + (1.0 - cat_weight) * noise / np.trace(noise).real
    rho = DensityMatrix(m)
    via_settings = fidelity_from_probabilities(setting_probabilities(rho, build_settings(n)))
    direct = fidelity_direct(m, n)
    assert sc_fidelity(rho) == pytest.approx(direct, abs=1e-12)
    assert via_settings == pytest.approx(direct, abs=1e-10)
    assert via_settings == pytest.approx(sc_fidelity(rho), abs=1e-10)


class TestDeltaF:
    def test_zero_variance(self):
        p = SettingProbabilities(n=2, P=np.array([1.0, 0.0, 1.0]))
        assert delta_f(p, [10, 10, 10]) == 0.0

    def test_hand_value(self):
        p = SettingProbabilities(n=8, P=np.array([0.8] + [0.2] * 8))
        val = delta_f(p, [100] * 9)
        assert val == pytest.approx(np.sqrt(0.0004 + 0.0002), abs=1e-12)

    def test_doubling_counts_scales_by_sqrt2(self, rng):
        p = SettingProbabilities(n=3, P=rng.uniform(0.2, 0.8, size=4))
        t = rng.integers(50, 200, size=4)
        assert delta_f(p, 2 * t) == pytest.approx(delta_f(p, t) / np.sqrt(2), abs=1e-12)

    def test_strictly_decreasing_in_each_count(self):
        p = SettingProbabilities(n=3, P=np.array([0.8, 0.3, 0.6, 0.4]))
        t = np.array([40, 40, 40, 40])
        base = delta_f(p, t)
        for j in range(4):
            bumped = t.copy()
            bumped[j] += 1
            assert delta_f(p, bumped) < base

    def test_nonpositive_counts_rejected(self):
        p = SettingProbabilities(n=2, P=np.array([0.5, 0.5, 0.5]))
        for t in ([10, 0, 10], [np.nan, 1, 1], [np.inf, 1, 1]):
            with pytest.raises(QcopiesError):
                delta_f(p, t)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 9, 16, 20])
    def test_stacked_rows_match_one_row_at_a_time(self, n, rng):
        P = rng.choice([0.0, 1.0, 0.5], size=(6, n + 1))
        P[:3] = rng.random((3, n + 1))
        t = rng.integers(1, 10**6, size=(6, n + 1)).astype(float)
        spreads = _spreads(n, P, t)
        for row, (p_row, t_row) in enumerate(zip(P, t)):
            assert spreads[row] == spread_one(n, p_row, t_row)
            assert spreads[row] == delta_f(SettingProbabilities(n=n, P=p_row), t_row)


# Fixed examples: the tolerance is statistical, as in acceptance 11.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.sampled_from([depolarized_sc, rank_two_sc_state]),
       st.floats(0.3, 0.85), st.floats(0.01, 0.05), st.integers(0, 2**32 - 1))
def test_delta_f_matches_simulated_spread(n, model, fidelity, epsilon0, seed):
    rho = model(n, fidelity)
    wd = build_settings(n)
    p = setting_probabilities(rho, wd)
    assume(np.all((p.P >= 0.05) & (p.P <= 0.95)))
    res = run_histogram_experiment(rho, wd, allocate_sc(p, epsilon0=epsilon0), trials=550,
                                   rng=RngSeed(seed))
    assert abs(res.std - res.predicted_delta_f) <= 0.15 * res.predicted_delta_f

