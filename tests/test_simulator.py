import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcopies import (
    ConfigError,
    DensityMatrix,
    DimensionMismatchError,
    QcopiesError,
    RngSeed,
    SettingProbabilities,
    allocate_sc,
    build_settings,
    compare_distributions,
    delta_f,
    depolarized_sc,
    explicit_allocation,
    fidelity_from_probabilities,
    run_histogram_experiment,
    sample_counts,
    setting_probabilities,
    uniform_allocation,
)
from qcopies.simulator import _experiment, _hit_counts
from qcopies.witness import _fidelities

from _oracles import born_probabilities, popcounts, pure_density


def outcome_counts(rho, theta, copies, rng):
    """Per-outcome counts of `copies` copies measured in one setting: the
    computational one without theta, else the rotated one at theta."""
    return sample_counts(born_probabilities(rho, rho.n_qubits, theta), copies, rng.generator())


class TestRngSeed:
    def test_replay_is_byte_identical(self):
        wd = build_settings(3)
        rho = depolarized_sc(3, 0.7)
        c1 = outcome_counts(rho, wd.thetas[0], 500, RngSeed(42, stream=7))
        c2 = outcome_counts(rho, wd.thetas[0], 500, RngSeed(42, stream=7))
        assert np.array_equal(c1, c2)

    def test_streams_differ(self):
        wd = build_settings(3)
        rho = depolarized_sc(3, 0.7)
        c1 = outcome_counts(rho, wd.thetas[0], 500, RngSeed(42, stream=0))
        c2 = outcome_counts(rho, wd.thetas[0], 500, RngSeed(42, stream=1))
        assert not np.array_equal(c1, c2)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (1, -1), (1.5, 0), ("3", 0),
                                              (None, 0), (True, 0), (1, 2.0)])
    def test_rejects_what_is_not_a_non_negative_integer(self, seed, stream):
        with pytest.raises(ConfigError):
            RngSeed(seed, stream=stream)

    def test_numpy_integers_accepted(self):
        assert RngSeed(np.int64(3), stream=np.uint8(1)) == RngSeed(3, stream=1)


class TestSampleSetting:
    def test_zero_copies(self):
        counts = outcome_counts(depolarized_sc(2, 0.9), None, 0, RngSeed(1))
        assert counts.shape == (4,)
        assert counts.sum() == 0

    def test_deterministic_product_state(self):
        # |H..H> measured computationally always lands on outcome 0
        n = 3
        amps = np.zeros(2**n)
        amps[0] = 1.0
        rho = pure_density(amps)
        counts = outcome_counts(rho, None, 1000, RngSeed(3))
        assert counts[0] == 1000

    def test_negative_copies_rejected(self):
        with pytest.raises(QcopiesError):
            outcome_counts(depolarized_sc(2, 0.9), None, -1, RngSeed(1))

    def test_concentration_on_maximally_mixed(self):
        n = 3
        copies = 10**6
        rho = DensityMatrix(np.eye(2**n) / 2**n)
        counts = outcome_counts(rho, None, copies, RngSeed(11))
        p = 1 / 2**n
        sigma = np.sqrt(p * (1 - p) / copies)
        assert np.all(np.abs(counts / copies - p) < 5 * sigma)

    def test_sampler_matches_born_distribution(self):
        # chi-square statistic of the sampler against the exact cell
        # probabilities stays within a generous quantile band
        n = 3
        rho = depolarized_sc(n, 0.7)
        wd = build_settings(n)
        probs = born_probabilities(rho, n, wd.thetas[1])
        copies = 20000
        counts = outcome_counts(rho, wd.thetas[1], copies, RngSeed(5))
        expected = probs * copies
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 8 cells -> 7ish dof; mean 7, sd ~3.7; allow a wide pass band
        assert chi2 < 30, f"chi2={chi2}"


class TestSampleCounts:
    @pytest.mark.parametrize("probs", [
        [0.0, 0.0, 0.0],
        [],
        [0.5, -0.1, 0.6],
        [0.5, np.nan],
        [np.inf, 0.5],
    ])
    def test_bad_probabilities_rejected(self, probs):
        with pytest.raises(QcopiesError):
            sample_counts(np.array(probs, dtype=float), 10, RngSeed(1).generator())

    def test_unnormalized_weights_accepted(self):
        counts = sample_counts([2.0, 0.0, 6.0], 1000, RngSeed(1).generator())
        assert counts.sum() == 1000 and counts[1] == 0

    @pytest.mark.parametrize("probs, copies", [
        ([0.3, 0.7], 137),
        ([2.0, 0.0, 6.0], 1000),
        ([1.0, 0.0], 50),
        ([0.1, 0.2, 0.3, 0.4], 0),
    ])
    def test_one_row_is_plain_multinomial(self, probs, copies):
        p = np.array(probs)
        counts = sample_counts(p, copies, RngSeed(4).generator())
        expected = RngSeed(4).generator().multinomial(copies, p / p.sum())
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), outcomes=st.integers(2, 8),
           copies=st.integers(0, 10**4), size=st.integers(1, 500), data=st.data())
    def test_sized_row_matches_its_broadcast_stack(self, seed, outcomes, copies, size, data):
        # a row drawn `size` times gives numpy's sized multinomial draw of
        # the normalized row, and leaves the generator where that draw does
        row = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.0, 1e-3, 0.25, 1.0, 7.5]),
            min_size=outcomes, max_size=outcomes).filter(any)))
        sized, plain = RngSeed(seed).generator(), RngSeed(seed).generator()
        counts = sample_counts(row, copies, sized, size=size)
        expected = plain.multinomial(copies, row / row.sum(), size=size)
        assert counts.dtype == np.int64
        assert counts.shape == (size, outcomes)
        assert counts.tobytes() == expected.astype(np.int64).tobytes()
        assert sized.random() == plain.random()

    @pytest.mark.parametrize("rows", [[[0.3, 0.7]], [[1.0, 3.0], [5.0, 5.0]], [[[0.5, 0.5]]]],
                             ids=["one-row stack", "two rows", "3-d"])
    def test_stacked_rows_rejected(self, rows):
        # one call draws one row; a stack of rows is a caller's loop
        with pytest.raises(QcopiesError, match="one row"):
            sample_counts(rows, 10, RngSeed(1).generator())

    @pytest.mark.parametrize("size", [0, -3, True, 2.0, np.array([2, 3]), np.array(4)],
                             ids=["zero", "negative", "bool", "float", "array", "0-d array"])
    def test_bad_size_rejected(self, size):
        with pytest.raises(QcopiesError, match="size must be an integer >= 1"):
            sample_counts([0.3, 0.7], 10, RngSeed(1).generator(), size=size)

    def test_scalar_rejected(self):
        with pytest.raises(QcopiesError):
            sample_counts(0.5, 10, RngSeed(1).generator())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 3), rows=st.integers(1, 6),
           data=st.data())
    def test_per_row_copies_match_one_call_per_row(self, seed, runs, rows, data):
        # the adaptive protocol's draw, one copy count per setting and one
        # generator per run: settings with zero copies are skipped, as a
        # caller with nothing to measure makes no call, and a run's counts
        # are the first column of its two-outcome multinomial; the streams
        # must end in the same place
        p = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                                                  st.floats(0.0, 1.0)),
                                        min_size=rows, max_size=rows)))
        probs = np.column_stack([p, 1.0 - p])
        pvals = probs / probs.sum(axis=1, keepdims=True)
        copies = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0, 0, 1, 7, 250, 10**6]), min_size=rows, max_size=rows),
            min_size=runs, max_size=runs)), dtype=np.int64)
        stacked = [RngSeed(seed, r).generator() for r in range(runs)]
        alone = [RngSeed(seed, r).generator() for r in range(runs)]
        multi = [RngSeed(seed, r).generator() for r in range(runs)]
        counts = _hit_counts(pvals[:, 0], copies, stacked)
        expected = [[sample_counts(p_row, int(c), gen)[0] if c else 0
                     for p_row, c in zip(probs, row)] for row, gen in zip(copies, alone)]
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)
        assert np.array_equal(counts, [gen.multinomial(row, pvals)[:, 0]
                                       for row, gen in zip(copies, multi)])
        for gens in zip(stacked, alone, multi):
            assert len({gen.random() for gen in gens}) == 1

    def test_zero_copies_leave_the_stream_untouched(self):
        gen = RngSeed(3).generator()
        counts = _hit_counts(np.array([0.3, 0.5]), np.zeros((1, 2), dtype=np.int64), [gen])
        assert counts.shape == (1, 2) and not counts.any()
        assert gen.bit_generator.state == RngSeed(3).generator().bit_generator.state

    @pytest.mark.parametrize("copies", [-1, np.array([3, -1]), 4.5, np.array([2.0, 3.0]),
                                        np.array([1.5, 2]), np.array(["a", "b"]), None,
                                        np.array([40, 40]), np.array(40)])
    def test_bad_copies_rejected(self, copies):
        with pytest.raises(QcopiesError, match="copies"):
            sample_counts([0.3, 0.7], copies, RngSeed(1).generator())

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (1, 2)])
    def test_copies_of_the_wrong_shape_rejected(self, shape):
        # one count serves the row and every sized draw of it, so an array
        # of counts is rejected whatever its shape
        with pytest.raises(QcopiesError, match="copies must be an integer >= 0") as caught:
            sample_counts([0.3, 0.7], np.ones(shape, dtype=np.int64), RngSeed(1).generator())
        assert caught.type is QcopiesError


class TestSimulateFidelities:
    def test_one_stream_drawn_setting_by_setting(self):
        # the trials of an experiment read one stream: each setting draws
        # all its trials' hit counts in turn, in setting order
        n, trials = 3, 25
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.75)
        p = setting_probabilities(rho, wd)
        alloc = explicit_allocation([40, 17, 23, 31])
        res = run_histogram_experiment(rho, wd, alloc, trials=trials, rng=RngSeed(12, 3))
        gen = RngSeed(12, 3).generator()
        hits = np.column_stack([gen.multinomial(t_j, [p_j, 1.0 - p_j], size=trials)[:, 0]
                                for p_j, t_j in zip(p.P, alloc.t)])
        expected = [fidelity_from_probabilities(SettingProbabilities(n, h / alloc.t))
                    for h in hits]
        assert np.array_equal(res.fidelities, expected)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 24])
    def test_stacked_estimates_equal_single_rows(self, n):
        P = np.random.default_rng(n).random((300, n + 1))
        rows = [fidelity_from_probabilities(SettingProbabilities(n, r)) for r in P]
        assert np.array_equal(_fidelities(n, P), rows)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_pure_cat_estimates_one_every_trial(self, n):
        wd = build_settings(n)
        rho = depolarized_sc(n, 1.0)
        p = setting_probabilities(rho, wd)
        assert np.all((p.P < 1e-12) | (p.P > 1 - 1e-12))
        res = run_histogram_experiment(rho, wd, uniform_allocation(n + 1, 30), trials=50,
                                       rng=RngSeed(n))
        assert np.all(res.fidelities == 1.0)

    def test_replays_and_paths_differ(self):
        n = 3
        wd = build_settings(n)
        p = setting_probabilities(depolarized_sc(n, 0.8), wd)
        alloc = uniform_allocation(n + 1, 60)

        def run(path):
            return _experiment(p, alloc, 40, RngSeed(5, stream=2), path).fidelities

        assert np.array_equal(run((0,)), run((0,)))
        assert not np.array_equal(run((0,)), run((1,)))
        assert not np.array_equal(run(()), run((0,)))


class TestEstimateFidelity:
    def test_estimator_is_unbiased_within_noise(self):
        # mean of F-hat over 550 trials stays within 3 sigma of truth
        n = 3
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.7068)
        p = setting_probabilities(rho, wd)
        alloc = allocate_sc(p, epsilon0=0.02)
        res = run_histogram_experiment(rho, wd, alloc, trials=550, rng=RngSeed(17))
        f_true = 0.7068
        tol = 3 * delta_f(p, alloc) / np.sqrt(550)
        assert abs(res.mean - f_true) < tol


class TestLawOfLargeNumbers:
    def test_parity_estimates_concentrate(self):
        n = 3
        copies = 10**5
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.7)
        p_true = setting_probabilities(rho, wd).P
        even = popcounts(n) % 2 == 0
        hits = 0
        reps = 100
        for rep in range(reps):
            gen = RngSeed(23).generator(rep)
            ok = True
            for j, theta in enumerate([None, *wd.thetas]):
                counts = sample_counts(born_probabilities(rho, n, theta), copies, gen)
                # corner mass (computational) or even-parity mass (rotated)
                est = (counts[0] + counts[-1] if j == 0 else counts[even].sum()) / copies
                bound = 5 * np.sqrt(p_true[j] * (1 - p_true[j]) / copies)
                ok &= abs(est - p_true[j]) <= bound
            hits += ok
        assert hits >= 99


class TestHistogram:
    def test_pure_state_single_bin(self):
        n = 2
        wd = build_settings(n)
        rho = depolarized_sc(n, 1.0)
        alloc = uniform_allocation(n + 1, 50)
        res = run_histogram_experiment(rho, wd, alloc, trials=40, rng=RngSeed(2))
        events = res.events()
        assert events.sum() == 40
        assert events[-1] == 40  # fidelity exactly 1.0 in the last bin

    def test_events_total_trials(self):
        n = 3
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.75)
        alloc = uniform_allocation(n + 1, 80)
        res = run_histogram_experiment(rho, wd, alloc, trials=123, rng=RngSeed(4))
        assert res.events(250).sum() == 123
        assert res.events(250).size == 250

    def test_summary_json(self):
        import json

        n = 2
        wd = build_settings(n)
        res = run_histogram_experiment(depolarized_sc(n, 0.8), wd,
                                       uniform_allocation(n + 1, 30), trials=10,
                                       rng=RngSeed(6))
        summary = json.loads(res.summary_json())
        assert summary["trials"] == 10
        assert summary["bins"] == 50
        assert summary["range"] == [0.0, 1.0]

    def test_csv_shape(self):
        n = 2
        wd = build_settings(n)
        res = run_histogram_experiment(depolarized_sc(n, 0.8), wd,
                                       uniform_allocation(n + 1, 30), trials=10,
                                       rng=RngSeed(6))
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "bin_low,bin_high,events"
        assert len(lines) == 51

    def test_bins_must_be_positive(self):
        res = run_histogram_experiment(depolarized_sc(2, 0.8), build_settings(2),
                                       uniform_allocation(3, 30), trials=10, rng=RngSeed(6))
        for write in (res.events, res.to_csv, res.summary_json):
            with pytest.raises(QcopiesError):
                write(0)

    def test_wrong_length_allocation_rejected(self):
        with pytest.raises(DimensionMismatchError):
            run_histogram_experiment(depolarized_sc(2, 0.9), build_settings(2),
                                     uniform_allocation(4, 10), trials=5, rng=RngSeed(1))


class TestPredictedSpread:
    def test_empirical_std_matches_formula(self):
        # the binomial formula evaluated at truth vs the observed spread
        n = 3
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.75)
        p = setting_probabilities(rho, wd)
        assert np.all(p.P > 0.05) and np.all(p.P < 0.95)
        alloc = allocate_sc(p, epsilon0=0.02)
        res = run_histogram_experiment(rho, wd, alloc, trials=600, rng=RngSeed(9))
        assert res.predicted_delta_f == pytest.approx(delta_f(p, alloc), abs=1e-15)
        assert abs(res.std - res.predicted_delta_f) / res.predicted_delta_f < 0.15


class TestEightPhotonRegime:
    def test_own_allocation_meets_spread_target(self):
        # fidelity-0.708 state, allocation designed for a 0.016 deviation:
        # the observed spread honors the budget with 10% slack
        n = 8
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.708)
        alloc = allocate_sc(setting_probabilities(rho, wd), epsilon0=0.016)
        res = run_histogram_experiment(rho, wd, alloc, trials=550, rng=RngSeed(88))
        assert res.std <= 1.1 * 0.016

    def test_optimized_never_exceeds_reference_at_equal_precision(self):
        # at the deviation the 1305-copy reference distribution actually
        # achieves, the optimizer needs fewer copies
        from qcopies import EIGHT_PHOTON_EXPERIMENT_COPIES, noisy_sc_state

        n = 8
        wd = build_settings(n)
        rho = noisy_sc_state(n, 0.708, corner_mass=0.8068)
        p = setting_probabilities(rho, wd)
        reference = explicit_allocation(EIGHT_PHOTON_EXPERIMENT_COPIES)
        opt = allocate_sc(p, epsilon0=delta_f(p, reference))
        assert opt.total <= reference.total


class TestCompareDistributions:
    def test_optimized_beats_uniform_at_same_total(self):
        # same copy budget, optimized split vs even split: tighter estimates
        n = 8
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.73)
        opt = allocate_sc(setting_probabilities(rho, wd), epsilon0=0.016)
        uni = uniform_allocation(n + 1, int(round(opt.total / (n + 1))))
        report = compare_distributions(rho, wd, {"uniform": uni, "optimized": opt},
                                       trials=550, rng=RngSeed(31))
        assert report.row("optimized").std_fidelity < report.row("uniform").std_fidelity

    def test_identical_allocations_zero_savings(self):
        n = 2
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.8)
        a = uniform_allocation(n + 1, 100)
        report = compare_distributions(rho, wd, {"a": a, "b": a}, trials=20,
                                       rng=RngSeed(8))
        assert report.row("b").savings_pct == 0.0

    def test_first_entry_is_baseline(self):
        wd = build_settings(2)
        report = compare_distributions(depolarized_sc(2, 0.8), wd,
                                       {"small": uniform_allocation(3, 50),
                                        "large": uniform_allocation(3, 100)},
                                       trials=5, rng=RngSeed(3))
        assert report.baseline == "small"
        assert report.row("small").savings_pct == 0.0
        assert report.row("large").savings_pct == -100.0

    def test_row_total_is_exact_past_int64(self):
        wd = build_settings(2)
        huge = explicit_allocation([2**62] * 3)
        report = compare_distributions(depolarized_sc(2, 0.8), wd,
                                       {"small": uniform_allocation(3, 50), "huge": huge},
                                       trials=2, rng=RngSeed(3))
        assert report.row("huge").total == 3 * 2**62
        assert '"total": 13835058055282163712' in report.to_json()

    def test_rows_summarize_their_results(self):
        # allocation i's row and result come from the trials of stream (i,)
        n = 3
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.8)
        p = setting_probabilities(rho, wd)
        allocations = {"a": uniform_allocation(4, 40), "b": explicit_allocation([70, 30, 30, 30])}
        report = compare_distributions(rho, wd, allocations, trials=25, rng=RngSeed(6))
        assert len(report.results) == len(report.rows) == 2
        for i, (row, res) in enumerate(zip(report.rows, report.results)):
            fids = _experiment(p, allocations[row.name], 25, RngSeed(6), (i,)).fidelities
            assert np.array_equal(res.fidelities, fids)
            assert (row.mean_fidelity, row.std_fidelity, row.predicted_delta_f) == (
                res.mean, res.std, res.predicted_delta_f)
            assert res.std == float(fids.std(ddof=1))
        assert "results" not in report.to_json()

    def test_trials_must_be_positive(self):
        wd = build_settings(2)
        a = uniform_allocation(3, 10)
        with pytest.raises(QcopiesError):
            compare_distributions(depolarized_sc(2, 0.8), wd, {"a": a, "b": a},
                                  trials=0, rng=RngSeed(1))

    def test_requires_two_allocations(self):
        n = 2
        wd = build_settings(n)
        with pytest.raises(QcopiesError):
            compare_distributions(depolarized_sc(n, 0.8), wd,
                                  {"only": uniform_allocation(3, 10)}, trials=5,
                                  rng=RngSeed(1))

    def test_explicit_allocation_round_trip(self):
        alloc = explicit_allocation([352, 200, 107, 100, 110, 111, 106, 116, 103])
        assert alloc.total == 1305
