import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcopies import (
    AdaptiveConfig,
    ConfigError,
    DensityMatrix,
    DimensionMismatchError,
    QcopiesError,
    RngSeed,
    XState,
    allocate_sc,
    allocation_interval,
    build_settings,
    compare_distributions,
    coverage_experiment,
    delta_f,
    density_from_json,
    depolarized_sc,
    fidelity_from_probabilities,
    frobenius_distance,
    noisy_sc_state,
    protocol_timeline,
    psd_project,
    rank_two_sc_state,
    run_adaptive,
    run_histogram_experiment,
    sc_fidelity,
    sc_variance_weights,
    setting_probabilities,
    solve_budget,
    sweep_epsilon_ratio,
    uniform_allocation,
    white_noise_weight_for_fidelity,
)
from qcopies.core import MAX_DENSE_QUBITS, MAX_QUBITS
from qcopies.witness import ROTATED, MeasurementSetting

from _oracles import (born_probabilities, dense_depolarized_sc, dense_noisy_sc_state,
                      dense_rank_two_sc_state, density_json, fidelity_direct,
                      ginibre_density, phase_table_probabilities, pure_density,
                      sc_projector, sorting_psd_project, white_noise_mix,
                      x_noise_model)


class TestScState:
    """`sc_fidelity` reads the cat state (|H..H> + |V..V>) / sqrt(2) off two
    corners and one coherence."""

    def test_single_qubit(self):
        # the one-qubit cat is |D> = (|H> + |V>) / sqrt(2)
        for amps, f in (([1.0, 1.0], 1.0), ([1.0, -1.0], 0.0), ([np.sqrt(2.0), 0.0], 0.5)):
            rho = pure_density(np.array(amps) / np.sqrt(2.0))
            assert sc_fidelity(rho) == pytest.approx(f, abs=1e-15)

    def test_three_qubits_support(self, rng):
        # only rho[0, 0], rho[7, 7] and rho[0, 7] are read
        rho = ginibre_density(8, rng)
        support = np.zeros_like(rho)
        support[np.ix_([0, 7], [0, 7])] = rho[np.ix_([0, 7], [0, 7])]
        f = sc_fidelity(DensityMatrix(rho))
        assert f == sc_fidelity(DensityMatrix(support, validate=False))
        assert f == pytest.approx(fidelity_direct(rho, 3), abs=1e-15)

    def test_self_fidelity_eight_qubits(self):
        assert sc_fidelity(DensityMatrix(sc_projector(8))) == pytest.approx(1.0, abs=1e-12)


class TestPureDensity:
    def test_ground_state(self):
        rho = pure_density(np.array([1.0, 0.0]))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_sc2_corners(self):
        rho = pure_density(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)).matrix
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.allclose(rho, expected)

    def test_purity_and_idempotence(self, rng):
        for _ in range(5):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            rho = pure_density(v / np.linalg.norm(v)).matrix
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(rho @ rho - rho)) < 1e-10


class TestWhiteNoise:
    def test_endpoints(self):
        rho = DensityMatrix(sc_projector(3))
        assert np.allclose(white_noise_mix(rho, 1.0).matrix, rho.matrix)
        assert np.allclose(white_noise_mix(rho, 0.0).matrix, np.eye(8) / 8)

    def test_ten_qubit_target_fidelity(self):
        # invert the affine fidelity formula for the 0.8414 target
        p = white_noise_weight_for_fidelity(10, 0.8414)
        assert p == pytest.approx((0.8414 - 2**-10) / (1 - 2**-10), abs=1e-15)
        rho = depolarized_sc(10, 0.8414)
        assert sc_fidelity(rho) == pytest.approx(0.8414, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 2000])
    def test_weight_checks_the_qubit_count_first(self, n):
        # 2**2000 overflowed a float and n=0 reported a fidelity range
        with pytest.raises(QcopiesError, match=r"qubit count must be in \[1, 20\]"):
            white_noise_weight_for_fidelity(n, 0.9)

    def test_affine_fidelity_formula(self, rng):
        for n in range(2, 9):
            target = DensityMatrix(sc_projector(n))
            for p in rng.uniform(0, 1, size=20):
                f = sc_fidelity(white_noise_mix(target, p))
                assert f == pytest.approx(p + (1 - p) / 2**n, abs=1e-10)


class TestNoisyScState:
    def test_matches_requested_profile(self):
        rho = noisy_sc_state(8, 0.708, corner_mass=0.8068)
        assert sc_fidelity(rho) == pytest.approx(0.708, abs=1e-10)
        corners = (rho.matrix[0, 0] + rho.matrix[-1, -1]).real
        assert corners == pytest.approx(0.8068, abs=1e-10)

    def test_infeasible_profile_rejected(self):
        with pytest.raises(QcopiesError):
            noisy_sc_state(4, 0.5, corner_mass=0.2)  # corner mass below 2F-1 bound

    @pytest.mark.parametrize("fidelity,corner_mass", [(np.nan, 0.9), (0.9, np.nan)])
    def test_non_finite_profile_rejected(self, fidelity, corner_mass):
        with pytest.raises(QcopiesError):
            noisy_sc_state(4, fidelity, corner_mass=corner_mass)

    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_corner_mass_needs_two_to_twelve_qubits(self, n):
        # at n=1 the corner component equals white noise and 1 - 2/d is 0
        with pytest.raises(QcopiesError):
            noisy_sc_state(n, 0.9, corner_mass=0.9)


class TestFidelityPure:
    """`sc_fidelity`, the fidelity with the pure cat state."""

    def test_projector_is_one(self):
        for n in range(1, 9):
            assert sc_fidelity(DensityMatrix(sc_projector(n))) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(8) / 8)
        assert sc_fidelity(rho) == pytest.approx(1 / 8, abs=1e-12)

    def test_mixture_value_and_direct_contraction(self):
        rho = white_noise_mix(DensityMatrix(sc_projector(3)), 0.7)
        f = sc_fidelity(rho)
        assert f == pytest.approx(0.7 + 0.3 / 8, abs=1e-12)
        assert f == pytest.approx(fidelity_direct(rho.matrix, 3), abs=1e-12)

    @pytest.mark.parametrize("name", ["depolarized", "corner-mass", "rank-two"])
    @pytest.mark.parametrize("n", [2, 10, 16, 20])
    def test_models_give_the_requested_fidelity(self, name, n):
        # the read needs no dense view, so it reaches the 20-qubit cap
        rho = NOISE_MODELS[name][0](n, 0.8414, 0.947)
        assert sc_fidelity(rho) == pytest.approx(0.8414, abs=1e-12)


class TestFrobenius:
    def test_zero_on_equal(self):
        rho = depolarized_sc(2, 0.8)
        assert frobenius_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert frobenius_distance(a, b) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            a, b, c = (DensityMatrix(ginibre_density(4, rng)) for _ in range(3))
            assert frobenius_distance(a, c) <= (
                frobenius_distance(a, b) + frobenius_distance(b, c) + 1e-12)


_RHO, _WD, _ALLOC = depolarized_sc(2, 0.8), build_settings(2), uniform_allocation(3, 10)
_CFG = AdaptiveConfig.geometric(0.01, 0.1, 0.0003)


@pytest.mark.parametrize("call", [
    lambda: sc_fidelity(None),
    lambda: sc_fidelity(np.eye(4) / 4),
    lambda: frobenius_distance(None, _RHO),
    lambda: frobenius_distance(_RHO, np.eye(4) / 4),
    lambda: setting_probabilities(None, _WD),
    lambda: setting_probabilities(_RHO, None),
    lambda: setting_probabilities(_RHO, _WD.settings),
    lambda: run_histogram_experiment(None, _WD, _ALLOC, 5, RngSeed(1)),
    lambda: compare_distributions(None, _WD, {"a": _ALLOC, "b": _ALLOC}, 5, RngSeed(1)),
    lambda: coverage_experiment(None, _WD, [10], 0.05, 5, RngSeed(1)),
    lambda: run_adaptive(None, _WD, _CFG, RngSeed(1).generator()),
    lambda: run_adaptive(_RHO, None, _CFG, RngSeed(1).generator()),
    lambda: sweep_epsilon_ratio(None, _WD, [0.1], 1, RngSeed(1)),
    lambda: sweep_epsilon_ratio(_RHO, None, [0.1], 1, RngSeed(1)),
    lambda: run_histogram_experiment(_RHO, _WD, None, 5, RngSeed(1)),
    lambda: compare_distributions(_RHO, _WD, None, 5, RngSeed(1)),
    lambda: compare_distributions(_RHO, _WD, {"a": _ALLOC, "b": None}, 5, RngSeed(1)),
    lambda: compare_distributions(_RHO, _WD, {"a": None, "b": _ALLOC}, 5, RngSeed(1)),
    lambda: delta_f(None, _ALLOC),
    lambda: fidelity_from_probabilities(None),
    lambda: allocate_sc(None, 0.1),
    lambda: sc_variance_weights(None),
    lambda: solve_budget(None),
    lambda: allocation_interval(None, 0.01, 0.1),
    lambda: protocol_timeline(None, 0.1, 8.88),
    lambda: run_adaptive(_RHO, _WD, None, RngSeed(1).generator()),
    lambda: run_adaptive(_RHO, _WD, _CFG, RngSeed(1)),
], ids=["sc_fidelity-None", "sc_fidelity-array", "frobenius-None", "frobenius-array",
        "setting_probabilities-None", "setting_probabilities-wd-None",
        "setting_probabilities-wd-tuple", "histogram", "compare", "coverage", "adaptive",
        "adaptive-wd-None", "sweep", "sweep-wd-None", "histogram-allocation-None",
        "compare-None", "compare-last-None", "compare-baseline-None", "delta_f-None",
        "fidelity-None", "allocate_sc-None", "weights-None", "solve_budget-None",
        "allocation_interval-None", "timeline-None", "adaptive-cfg-None",
        "adaptive-RngSeed"])
def test_non_state_raises_a_library_error(call):
    with pytest.raises(QcopiesError):
        call()


class TestPsdProject:
    def test_fixed_point(self, rng):
        rho = DensityMatrix(ginibre_density(8, rng))
        assert frobenius_distance(psd_project(rho.matrix), rho) < 1e-9

    def test_two_level_hand_case(self):
        out = psd_project(np.diag([2.0, -1.0]))
        assert np.allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_invariants_on_random_hermitian(self, rng):
        for _ in range(100):
            d = 2 ** int(rng.integers(1, 4))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (g + g.conj().T) / 2
            out = psd_project(h).matrix
            assert np.max(np.abs(out - out.conj().T)) <= 1e-10
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(out).min() >= -1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3), st.booleans())
    def test_matches_sorting_projection(self, n, seed, scale, ties):
        """Reversing eigh's ascending eigenvalues gives the bytes of sorting
        them, on random Hermitian matrices and on diagonal ones with ties and
        signed zeros."""
        gen, d = np.random.default_rng(seed), 2**n
        if ties:
            m = np.diag(scale * gen.choice([-1.0, -0.0, 0.0, 0.5, 1.0], d)).astype(complex)
        else:
            g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            m = scale * (g + g.conj().T)
        assert psd_project(m).matrix.tobytes() == sorting_psd_project(m).tobytes()

    @pytest.mark.parametrize("m, error", [
        (np.eye(3) / 3, DimensionMismatchError),
        (np.eye(1), DimensionMismatchError),
        (np.zeros((0, 0)), DimensionMismatchError),
        (np.array([[np.nan, 0.0], [0.0, 0.5]]), QcopiesError),
        (np.array([[np.inf, 0.0], [0.0, 0.5]]), QcopiesError),
    ], ids=["3x3", "1x1", "0x0", "nan", "inf"])
    def test_rejects_other_sizes_and_non_finite_entries(self, m, error):
        with pytest.raises(error) as caught:
            psd_project(m)
        assert caught.type is error


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(QcopiesError):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(QcopiesError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(QcopiesError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.1, np.nan)])
    @pytest.mark.parametrize("d", [2, 4])
    def test_rejects_non_finite_entries(self, bad, d):
        # NaN fails every comparison the later checks make
        with pytest.raises(QcopiesError, match="finite"):
            DensityMatrix(np.full((d, d), bad))
        m = np.eye(d, dtype=complex) / d
        m[1, 1] = bad
        with pytest.raises(QcopiesError, match="finite"):
            DensityMatrix(m)

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_rejects_size_not_power_of_two(self, d):
        with pytest.raises(QcopiesError):
            DensityMatrix(np.eye(d) / d)

    def test_immutable(self):
        rho = depolarized_sc(2, 0.9)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0


class TestJson:
    def test_round_trip(self, rng):
        rho = DensityMatrix(ginibre_density(8, rng))
        back = density_from_json(density_json(rho))
        assert frobenius_distance(rho, back) < 1e-12
        assert back.n_qubits == 3

    @pytest.mark.parametrize("text", [
        '{"n": 1, "re": [[1, 0], [0, 0]]}',
        '[[1, 0], [0, 0]]',
        '{"n": 1, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}',
        '{"n": 1, "re": [[1, 0], [0, 0]]',
        '{"n": "x", "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}',
        '{"n": 1e400, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}',
        '"rho"',
        '{"n": 1.7, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}',
        '{"n": true, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}',
        '{"n": 1, "re": [[1, 0], [0, 0]], "im": 0}',
        '{"n": 1, "re": [[1, 0], [0, 0]], "im": [[0], [0]]}',
    ])
    def test_malformed_text_is_a_config_error(self, text):
        with pytest.raises(ConfigError, match="not a density-matrix JSON object"):
            density_from_json(text)

    def test_qubit_count_must_match_the_matrix(self):
        text = density_json(depolarized_sc(2, 0.9)).replace('"n": 2', '"n": 3')
        with pytest.raises(QcopiesError, match="n=3"):
            density_from_json(text)


# (library model, dense oracle, fewest qubits) of each synthetic noise model
NOISE_MODELS = {
    "depolarized": (lambda n, f, cm: depolarized_sc(n, f),
                    lambda n, f, cm: dense_depolarized_sc(n, f), 1),
    "corner-mass": (noisy_sc_state, dense_noisy_sc_state, 2),
    "rank-two": (lambda n, f, cm: rank_two_sc_state(n, f),
                 lambda n, f, cm: dense_rank_two_sc_state(n, f), 2),
}


@st.composite
def model_profiles(draw, max_qubits):
    """(model name, n, fidelity, corner mass) that the model accepts."""
    name = draw(st.sampled_from(sorted(NOISE_MODELS)))
    n = draw(st.integers(NOISE_MODELS[name][2], max_qubits))
    d = 2**n
    if name == "corner-mass":
        # weight c <= 1 of I/d, then a of |SC><SC| with a + c <= 1
        corner_mass = draw(st.floats(2.0 / d, 1.0))
        c = (1.0 - corner_mass) / (1.0 - 2.0 / d)
        a = draw(st.floats(0.0, 1.0)) * (1.0 - c)
        return name, n, (a + corner_mass) / 2.0, corner_mass
    low = 1.0 / d if name == "depolarized" else 0.0
    return name, n, draw(st.floats(low, 1.0)), None


def _model_and_oracle(name, n, fidelity, corner_mass):
    model, oracle, _ = NOISE_MODELS[name]
    return model(n, fidelity, corner_mass), oracle(n, fidelity, corner_mass)


def _same_setting_probabilities(rho, dense, n):
    wd = build_settings(n)
    return (setting_probabilities(rho, wd).P.tobytes()
            == setting_probabilities(DensityMatrix(dense, validate=False), wd).P.tobytes())


class TestXState:
    @settings(max_examples=150, deadline=None)
    @given(model_profiles(max_qubits=10))
    def test_setting_probabilities_match_dense_oracle_bytes(self, profile):
        name, n, fidelity, corner_mass = profile
        rho, dense = _model_and_oracle(name, n, fidelity, corner_mass)
        assert isinstance(rho, XState)
        assert _same_setting_probabilities(rho, dense, n)

    @pytest.mark.parametrize("name", sorted(NOISE_MODELS))
    @pytest.mark.parametrize("n", [11, 12])
    def test_setting_probabilities_match_dense_oracle_bytes_up_to_dense_cap(self, name, n):
        rho, dense = _model_and_oracle(name, n, 0.8414, 0.947)
        assert _same_setting_probabilities(rho, dense, n)

    @settings(max_examples=150, deadline=None)
    @given(model_profiles(max_qubits=14))
    def test_setting_probabilities_match_the_phase_table_read(self, profile):
        # the read of the non-zero anti-diagonal entries against the read of
        # all of them: the same bytes with the two non-zero entries of the
        # depolarized and corner-mass models; with the rank-two model's four,
        # BLAS may sum in another order, which moves P by up to two ulps
        name, n, fidelity, corner_mass = profile
        rho = NOISE_MODELS[name][0](n, fidelity, corner_mass)
        wd = build_settings(n)
        P, ref = setting_probabilities(rho, wd).P, phase_table_probabilities(rho, wd)
        if name == "rank-two":
            assert np.abs(P - ref).max() <= 2.3e-16
        else:
            assert P.tobytes() == ref.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_dense_setting_probabilities_match_the_phase_table_read(self, n, seed):
        rho = DensityMatrix(ginibre_density(2**n, np.random.default_rng(seed)))
        wd = build_settings(n)
        assert (setting_probabilities(rho, wd).P.tobytes()
                == phase_table_probabilities(rho, wd).tobytes())

    @settings(max_examples=100, deadline=None)
    @given(model_profiles(max_qubits=8))
    def test_dense_view_equals_oracle(self, profile):
        rho, dense = _model_and_oracle(*profile)
        assert np.array_equal(rho.matrix, dense)
        assert rho.matrix is rho.matrix
        assert np.array_equal(rho.diagonal(), dense.diagonal().real)
        assert np.array_equal(rho.anti_diagonal(), dense[:, ::-1].diagonal())

    def test_validated_state_matches_dense_validation(self):
        rho = noisy_sc_state(4, 0.8, corner_mass=0.9)
        again = XState(rho.diagonal(), rho.anti_diagonal())
        assert np.array_equal(again.matrix, DensityMatrix(rho.matrix).matrix)
        assert again.n_qubits == 4

    @pytest.mark.parametrize("case", ["hermitian", "trace", "psd", "nan", "complex-diagonal"])
    def test_validation_rejects(self, case):
        diag = np.array([0.4, 0.1, 0.1, 0.4])
        anti = np.array([0.3 + 0.1j, 0.05, 0.05, 0.3 - 0.1j])
        XState(diag, anti)
        if case == "hermitian":
            anti[3] = 0.3 + 0.1j
        elif case == "trace":
            diag = diag * 1.1
        elif case == "psd":
            anti[0], anti[3] = 0.45, 0.45  # 0.4 * 0.4 < 0.45**2
        elif case == "nan":
            diag[1] = np.nan
        else:
            diag = diag + 1e-3j
        with pytest.raises(QcopiesError):
            XState(diag, anti)

    @pytest.mark.parametrize("diag, anti", [(np.full(4, 0.25), np.zeros(2)),
                                            (np.full(3, 1 / 3), np.zeros(3))])
    def test_rejects_bad_sizes(self, diag, anti):
        with pytest.raises(QcopiesError):
            XState(diag, anti)

    def test_immutable(self):
        rho = noisy_sc_state(3, 0.9, corner_mass=0.95)
        for arr in (rho.diagonal(), rho.anti_diagonal(), rho.matrix):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_no_dense_view_past_the_dense_cap(self):
        n = 16
        rho = noisy_sc_state(n, 0.8414, corner_mass=0.947)
        assert rho.diagonal()[0] + rho.diagonal()[-1] == pytest.approx(0.947, abs=1e-12)
        assert sc_fidelity(rho) == pytest.approx(0.8414, abs=1e-12)
        for dense_use in (lambda: rho.matrix,
                          lambda: born_probabilities(MeasurementSetting(n, ROTATED, np.pi / n),
                                                     rho),
                          lambda: pure_density(np.ones(2**n) / 2**(n / 2))):
            with pytest.raises(QcopiesError, match=f"up to {MAX_DENSE_QUBITS} qubits"):
                dense_use()

    @pytest.mark.parametrize("name", sorted(NOISE_MODELS))
    def test_models_allocate_no_dense_matrix(self, name):
        n = 12  # a dense state would take 16 * 4**12 bytes = 268 MB
        tracemalloc.start()
        try:
            NOISE_MODELS[name][0](n, 0.8414, 0.947)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**n * 16

    @pytest.mark.parametrize("name", sorted(NOISE_MODELS))
    def test_models_at_the_qubit_cap_peak_at_twice_their_entries(self, name):
        # the models write their entries into the arrays the state keeps
        model = NOISE_MODELS[name][0]
        tracemalloc.start()
        try:
            rho = model(MAX_QUBITS, 0.8414, 0.947)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (rho.diagonal().nbytes + rho.anti_diagonal().nbytes)

    @settings(max_examples=120, deadline=None)
    @given(model_profiles(max_qubits=MAX_QUBITS))
    @example(("corner-mass", MAX_QUBITS, 0.8414, 0.947))
    @example(("corner-mass", 2, 0.5, 1.0))                  # a = c = 0
    @example(("corner-mass", 2, (0.5 - 5e-13) / 2, 0.5))    # a just below 0
    @example(("depolarized", 1, 0.5, None))                  # p = 0
    @example(("depolarized", 1, 1.0, None))
    @example(("rank-two", 2, 0.0, None))
    def test_models_match_the_component_mix_bytes(self, profile):
        # writing the entries gives the bytes of mixing full component arrays
        name, n, fidelity, corner_mass = profile
        rho = NOISE_MODELS[name][0](n, fidelity, corner_mass)
        ref = XState(*x_noise_model(name, n, fidelity, corner_mass))
        assert rho.diagonal().tobytes() == ref.diagonal().tobytes()
        assert rho.anti_diagonal().tobytes() == ref.anti_diagonal().tobytes()
        wd = build_settings(n)
        assert (setting_probabilities(rho, wd).P.tobytes()
                == setting_probabilities(ref, wd).P.tobytes())

    @pytest.mark.parametrize("name", sorted(NOISE_MODELS))
    @pytest.mark.parametrize("n", [0, MAX_QUBITS + 1, 2000])
    def test_models_check_the_qubit_count_first(self, name, n):
        with pytest.raises(QcopiesError, match="qubit count must be in"):
            NOISE_MODELS[name][0](n, 0.9, 0.95)
