import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcopies import (
    EIGHT_PHOTON_MEASURED_P,
    QcopiesError,
    RngSeed,
    SettingProbabilities,
    allocate_sc,
    allocation_interval,
    build_settings,
    coverage_experiment,
    depolarized_sc,
    failure_probability,
    hoeffding_radius,
    joint_success,
    noisy_sc_state,
    required_copies,
    setting_probabilities,
)
from qcopies.hoeffding import CoverageRow, CoverageTable


class TestFailureProbability:
    def test_hand_value(self):
        assert failure_probability(110, 0.2) == pytest.approx(2 * np.exp(-8.8), rel=1e-12)
        assert failure_probability(110, 0.2) == pytest.approx(3.01e-4, abs=2e-6)

    def test_large_deviation_vanishes(self):
        assert failure_probability(10000, 0.99) < 1e-300 * 10

    def test_vacuous_bound_clamped(self):
        assert failure_probability(1, 0.01) == 1.0

    def test_monotone_in_t_and_h(self):
        assert failure_probability(200, 0.1) < failure_probability(100, 0.1)
        assert failure_probability(100, 0.2) < failure_probability(100, 0.1)

    def test_domain(self):
        with pytest.raises(QcopiesError):
            failure_probability(0, 0.1)
        with pytest.raises(QcopiesError):
            failure_probability(10, 1.5)


class TestJointSuccess:
    def test_nine_settings_value(self):
        prob = joint_success([110] * 9, [0.2] * 9)
        assert prob == pytest.approx(0.9973, abs=2e-4)
        assert 0.9970 <= prob <= 0.9975

    def test_single_setting_reduces(self):
        assert joint_success([110], [0.2]) == pytest.approx(
            1 - failure_probability(110, 0.2), rel=1e-12)

    def test_vacuous_factor_kills_product(self):
        assert joint_success([1, 1000], [0.01, 0.2]) == 0.0

    def test_never_exceeds_weakest_setting(self, rng):
        t = rng.integers(5, 500, size=6)
        h = rng.uniform(0.05, 0.3, size=6)
        joint = joint_success(t, h)
        per = [1 - failure_probability(int(ti), float(hi)) for ti, hi in zip(t, h)]
        assert joint <= min(per) + 1e-15

    def test_length_mismatch(self):
        with pytest.raises(QcopiesError):
            joint_success([10, 10], [0.1])

    def test_a_table_of_settings_is_one_product(self):
        assert joint_success([[110, 50]], [[0.2, 0.1]]) == joint_success([110, 50], [0.2, 0.1])

    def test_rejects_no_settings(self):
        # an empty product would read 1.0, success over nothing
        with pytest.raises(QcopiesError):
            joint_success([], [])


class TestRequiredCopies:
    def test_hand_inversion(self):
        assert required_copies(0.2, 1e-4) == 124

    def test_vacuous_target_needs_one_copy(self):
        assert required_copies(0.9, 0.5) == 1

    def test_doubling_h_quarters_t(self):
        t1 = required_copies(0.05, 1e-6)
        t2 = required_copies(0.1, 1e-6)
        assert abs(t2 - t1 / 4) <= 1

    def test_satisfies_and_is_minimal(self):
        for h, delta in [(0.2, 1e-4), (0.1, 1e-3), (0.05, 0.01)]:
            t = required_copies(h, delta)
            assert failure_probability(t, h) <= delta
            if t > 1:
                assert failure_probability(t - 1, h) > delta

    def test_domain(self):
        with pytest.raises(QcopiesError):
            required_copies(0.0, 0.1)
        with pytest.raises(QcopiesError):
            required_copies(0.1, 0.0)


class TestAllocationInterval:
    def _spec(self, h, m=9):
        return np.full(m, h)

    def test_zero_h_degenerates_to_point(self):
        p = SettingProbabilities(n=8, P=np.asarray(EIGHT_PHOTON_MEASURED_P))
        iv = allocation_interval(p, self._spec(0.0), 0.016)
        assert iv.t_minus == pytest.approx(iv.t_plus, abs=1e-9)
        assert iv.t_minus == pytest.approx(iv.t_point, abs=1e-9)

    def test_half_probability_range_contains_half(self):
        p = SettingProbabilities(n=3, P=np.full(4, 0.5))
        iv = allocation_interval(p, self._spec(0.1, m=4), 0.02)
        # a rotated setting ranges over [0.4, 0.6] like setting 1; the
        # largest weight is at 1/2, the smallest at either end
        assert iv.P_minus[1] == pytest.approx(0.4)
        assert iv.P_plus[1] == pytest.approx(0.6)
        assert iv.k_plus[1] == pytest.approx(0.25 / 9, rel=1e-12)
        assert iv.k_minus[1] == pytest.approx(0.24 / 9, rel=1e-12)

    def test_measured_profile_brackets_point(self):
        p = SettingProbabilities(n=8, P=np.asarray(EIGHT_PHOTON_MEASURED_P))
        iv = allocation_interval(p, self._spec(0.2), 0.016)
        assert np.all(np.isfinite(iv.t_minus)) and np.all(np.isfinite(iv.t_plus))
        assert np.all(iv.t_minus <= iv.t_plus + 1e-12)
        assert np.all(iv.t_minus <= iv.t_point + 1e-9)
        assert np.all(iv.t_point <= iv.t_plus + 1e-9)

    def test_nesting_in_h(self):
        p = SettingProbabilities(n=8, P=np.asarray(EIGHT_PHOTON_MEASURED_P))
        prev = None
        for h in (0.02, 0.05, 0.1, 0.15, 0.2):
            iv = allocation_interval(p, self._spec(h), 0.016)
            if prev is not None:
                assert np.all(iv.P_minus <= prev.P_minus + 1e-12)
                assert np.all(iv.P_plus >= prev.P_plus - 1e-12)
                assert np.all(iv.k_minus <= prev.k_minus + 1e-15)
                assert np.all(iv.k_plus >= prev.k_plus - 1e-15)
                assert np.all(iv.t_minus <= prev.t_minus + 1e-9)
                assert np.all(iv.t_plus >= prev.t_plus - 1e-9)
            prev = iv

    @pytest.mark.parametrize("p", [
        setting_probabilities(depolarized_sc(4, 0.8), build_settings(4)),
        SettingProbabilities(n=8, P=np.asarray(EIGHT_PHOTON_MEASURED_P)),
    ], ids=["depolarized-n4", "eight-photon"])
    def test_zero_h_collapses_onto_allocate_sc(self, p):
        eps0 = 0.05 if p.n == 4 else 0.016
        real_t = allocate_sc(p, eps0).real_t
        iv = allocation_interval(p, 0.0, eps0)
        for t in (iv.t_minus, iv.t_plus, iv.t_point):
            assert t == pytest.approx(real_t, rel=1e-12)

    def test_zero_h_depolarized_hand_values(self):
        p = setting_probabilities(depolarized_sc(4, 0.8), build_settings(4))
        iv = allocation_interval(p, 0.0, 0.05)
        assert iv.t_point == pytest.approx([39.24] + [15.54] * 4, abs=0.005)

    def test_measured_profile_bracket_holds_setting_one_plan(self):
        p = SettingProbabilities(n=8, P=np.asarray(EIGHT_PHOTON_MEASURED_P))
        iv = allocation_interval(p, 0.2, 0.016)
        assert allocate_sc(p, 0.016).t[0] == 458
        assert iv.t_minus[0] <= 458 <= iv.t_plus[0]
        assert np.all(iv.t_plus > 0)

    @pytest.mark.parametrize("h", [1.0, -0.1, np.nan, [0.1] * 3, [[0.1] * 9], "x"])
    def test_bad_h_rejected(self, h):
        p = SettingProbabilities(n=8, P=np.asarray(EIGHT_PHOTON_MEASURED_P))
        with pytest.raises(QcopiesError):
            allocation_interval(p, h, 0.016)

    def test_infinite_epsilon0_rejected(self):
        p = SettingProbabilities(n=8, P=np.asarray(EIGHT_PHOTON_MEASURED_P))
        with pytest.raises(QcopiesError):
            allocation_interval(p, 0.1, np.inf)


@st.composite
def _state_in_box(draw):
    n = draw(st.integers(1, 9))
    unit = st.floats(0.0, 1.0)
    P = np.array(draw(st.lists(unit, min_size=n + 1, max_size=n + 1)))
    h = np.array(draw(st.lists(st.floats(0.0, 0.3, exclude_max=True),
                               min_size=n + 1, max_size=n + 1)))
    where = np.array(draw(st.lists(unit, min_size=n + 1, max_size=n + 1)))
    eps0 = draw(st.floats(0.005, 0.2))
    return n, P, h, where, eps0


@settings(max_examples=300, deadline=None)
@given(_state_in_box())
def test_interval_brackets_every_state_in_the_box(case):
    n, P, h, where, eps0 = case
    iv = allocation_interval(SettingProbabilities(n=n, P=P), h, eps0)
    inside = iv.P_minus + where * (iv.P_plus - iv.P_minus)
    real_t = allocate_sc(SettingProbabilities(n=n, P=inside), eps0).real_t
    slack = 1e-9 * (1.0 + real_t)
    assert np.all(iv.t_minus <= real_t + slack)
    assert np.all(real_t <= iv.t_plus + slack)


class TestCoverage:
    def test_huge_count_is_consistent(self):
        wd = build_settings(3)
        rho = noisy_sc_state(3, 0.7068)
        table = coverage_experiment(rho, wd, [10**6], delta=1e-4, repeats=2,
                                    rng=RngSeed(12))
        for est in table.rows[0].estimates:
            assert abs(est - table.true_value) < 0.005

    def test_profile_state_all_points_inside(self):
        wd = build_settings(8)
        rho = noisy_sc_state(8, 0.708, corner_mass=0.8068)
        counts = [50, 100, 200, 400, 800, 1600, 3200]
        table = coverage_experiment(rho, wd, counts, delta=1e-4, repeats=10,
                                    rng=RngSeed(0))
        assert table.true_value == pytest.approx(0.8068, abs=1e-10)
        assert table.all_inside
        assert table.empirical_coverage >= 1 - 1e-4

    def test_csv_header(self):
        wd = build_settings(2)
        table = coverage_experiment(noisy_sc_state(2, 0.9), wd, [20, 40], delta=0.01,
                                    repeats=3, rng=RngSeed(5))
        first = table.to_csv().split("\n", 1)[0]
        assert first == "copies,lower,upper,estimate_1,estimate_2,estimate_3"

    def test_radius_matches_band(self):
        wd = build_settings(2)
        table = coverage_experiment(noisy_sc_state(2, 0.9), wd, [100], delta=0.01,
                                    repeats=1, rng=RngSeed(5))
        row = table.rows[0]
        assert row.upper - row.lower == pytest.approx(2 * hoeffding_radius(100, 0.01),
                                                      abs=1e-12)

    def test_each_copy_count_draws_its_repeats_from_one_stream(self):
        wd = build_settings(3)
        rho = noisy_sc_state(3, 0.8, corner_mass=0.9)
        counts, repeats = [30, 70], 15
        table = coverage_experiment(rho, wd, counts, delta=0.01, repeats=repeats,
                                    rng=RngSeed(8))
        v = table.true_value
        for i, (c, row) in enumerate(zip(counts, table.rows)):
            hits = RngSeed(8).generator(i).multinomial(c, [v, 1.0 - v], size=repeats)[:, 0]
            assert row.estimates == tuple(float(h / c) for h in hits)

    def test_n_inside_counts_the_closed_band(self):
        row = CoverageRow(copies=10, lower=0.2, upper=0.6,
                          estimates=(0.1, 0.2, 0.4, 0.6, 0.7, 0.6))
        assert row.n_inside == 4
        table = CoverageTable(true_value=0.4, delta=0.01, rows=(row,))
        assert not table.all_inside
        assert table.empirical_coverage == pytest.approx(4 / 6)

    def test_empty_copy_counts(self):
        with pytest.raises(QcopiesError):
            coverage_experiment(noisy_sc_state(2, 0.9), build_settings(2), [], delta=0.01,
                                repeats=1, rng=RngSeed(5))


class TestEmpiricalCoverageOfBound:
    def test_binomial_frequencies_respect_band(self):
        # direct binomial simulation, independent of the library sampler
        rng = np.random.default_rng(99)
        t, delta, reps = 200, 0.01, 1000
        h = hoeffding_radius(t, delta)
        for p in (0.1, 0.5, 0.8068, 0.95):
            freqs = rng.binomial(t, p, size=reps) / t
            coverage = np.mean(np.abs(freqs - p) <= h)
            assert coverage >= 1 - delta
