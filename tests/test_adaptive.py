import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcopies import (
    AdaptiveConfig,
    ConfigError,
    QcopiesError,
    RngSeed,
    SettingProbabilities,
    allocate_sc,
    build_settings,
    delta_f,
    depolarized_sc,
    fidelity_from_probabilities,
    geometric_schedule,
    protocol_timeline,
    run_adaptive,
    sample_counts,
    setting_probabilities,
    sweep_epsilon_ratio,
)
from qcopies import adaptive
from qcopies.adaptive import MAX_SCHEDULE_LENGTH, AdaptiveState, RoundRecord, _clamped

from _oracles import run_adaptive_one, sweep_epsilon_ratio_one


class TestSchedule:
    def test_geometric_passes_final(self):
        assert geometric_schedule(0.01, 0.1, 0.0003) == pytest.approx((0.01, 0.001, 0.0001))
        assert geometric_schedule(0.01, 0.1, 1e-5) == pytest.approx(
            (0.01, 0.001, 1e-4, 1e-5))
        assert len(geometric_schedule(0.01, 0.2, 0.0003)) == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveConfig(epsilon_schedule=())
        with pytest.raises(ConfigError):
            AdaptiveConfig(epsilon_schedule=(0.01, 0.02))
        with pytest.raises(ConfigError):
            AdaptiveConfig(epsilon_schedule=(0.01, -0.001))
        for schedule in [(np.nan,), (np.inf, 0.01), (0.01, np.nan)]:
            with pytest.raises(ConfigError):
                AdaptiveConfig(epsilon_schedule=schedule)
        with pytest.raises(ConfigError):
            geometric_schedule(0.01, 1.2, 0.0001)

    def test_length_is_capped(self):
        # the cap admits ratio 0.999 over the default span and no more
        assert len(geometric_schedule(0.01, 0.999, 1e-5)) == 6906
        final = 1.0
        for _ in range(MAX_SCHEDULE_LENGTH - 1):
            final *= 0.999
        assert len(geometric_schedule(1.0, 0.999, final)) == MAX_SCHEDULE_LENGTH
        with pytest.raises(ConfigError, match="has over 10000 budgets"):
            geometric_schedule(1.0, 0.999, final * 0.9995)

    def test_cap_raises_before_building_the_list(self):
        # uncapped, this schedule would hold about 7e15 budgets
        with pytest.raises(ConfigError, match="budgets"):
            geometric_schedule(0.01, 1.0 - 1e-15, 1e-5)

    @pytest.mark.parametrize("start", [np.inf, np.nan])
    def test_non_finite_start_rejected(self, start):
        # inf * ratio stays inf, so the schedule would never reach `final`
        with pytest.raises(ConfigError):
            geometric_schedule(start, 0.1, 0.0001)


class TestRunAdaptive:
    def test_single_round_equals_one_shot_allocation(self):
        # with a one-entry schedule, known priors and no pilot, the first
        # pass is the one-shot allocation; top-ups only add to it, until the
        # spread at the final estimates meets the budget
        n = 3
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.75)
        p_true = setting_probabilities(rho, wd)
        cfg = AdaptiveConfig(epsilon_schedule=(4e-4,), initial_P=p_true.P, t_initial=0)
        state = run_adaptive(rho, wd, cfg, RngSeed(5).generator())
        oneshot = allocate_sc(p_true, epsilon0=np.sqrt(4e-4))
        assert np.all(state.cumulative_t >= oneshot.t)
        spread = delta_f(SettingProbabilities(n=n, P=state.current_P),
                         state.cumulative_t.astype(float))
        assert spread <= 0.02 * (1 + 1e-9)
        assert state.round == 1

    def test_pilot_that_covers_the_targets_feeds_the_estimates(self):
        # 50 copies a setting cover the first allocation at the 1/2 priors, so
        # the round draws nothing more; the estimates are still the pooled
        # pilot hits over copies, not the priors
        n = 4
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.9374)
        cfg = AdaptiveConfig((0.01,), t_initial=50)
        state = run_adaptive(rho, wd, cfg, RngSeed(0).generator())
        gen = RngSeed(0).generator()
        hits = [sample_counts([p, 1.0 - p], 50, gen)[0] for p in setting_probabilities(rho, wd).P]
        assert not state.rounds[0].increments.any()
        assert state.cumulative_t.tolist() == [50] * (n + 1)
        assert state.current_P.tolist() == (np.array(hits) / 50).tolist()
        assert abs(state.fidelity - 0.9374) <= 3 * state.fidelity_std

    def test_total_copies_is_exact_past_int64(self):
        cfg = AdaptiveConfig((0.01, 0.001), t_initial=2**62)
        state = run_adaptive(depolarized_sc(2, 0.9), build_settings(2), cfg,
                             RngSeed(0).generator())
        assert state.cumulative_t.tolist() == [2**62] * 3
        assert state.total_copies == 3 * 2**62
        assert '"total_copies": 13835058055282163712' in state.final_report_json()
        pilot, *rounds = protocol_timeline(state, 0.1, 8.88).rows
        assert (pilot.label, pilot.copies, pilot.switches) == ("pilot", 3 * 2**62, 3)
        assert [r.copies for r in rounds] == [0, 0]

    def test_negative_pilot_rejected(self):
        with pytest.raises(ConfigError):
            AdaptiveConfig(epsilon_schedule=(0.01,), t_initial=-1)
        with pytest.raises(ConfigError):
            AdaptiveConfig(epsilon_schedule=(0.01,), t_initial=np.array([5, -1, 5]))

    @pytest.mark.parametrize("kwargs", [
        {"t_min": 0},
        {"t_min": -3},
        {"initial_P": [np.nan, 0.5, 0.5]},
        {"initial_P": [0.5, np.inf, 0.5]},
        {"initial_P": [2.0, 0.5, 0.5]},
        {"initial_P": [0.5, -0.1, 0.5]},
        {"t_initial": 4.5},
        {"t_initial": np.nan},
        {"t_initial": np.inf},
        {"t_initial": "x"},
        {"t_initial": None},
        {"t_initial": [5, 4.5, 5]},
        {"t_min": 1.5},
    ])
    def test_bad_config_rejected_before_any_draw(self, kwargs):
        with pytest.raises(ConfigError):
            AdaptiveConfig(epsilon_schedule=(0.01,), **kwargs)

    def test_edge_priors_accepted(self):
        cfg = AdaptiveConfig(epsilon_schedule=(0.01,), initial_P=[0.0, 1.0, 0.5])
        state = run_adaptive(depolarized_sc(2, 0.9), build_settings(2), cfg,
                             RngSeed(1).generator())
        assert state.round == 1

    def test_clamp_matches_per_setting_rule(self):
        gen = np.random.default_rng(3)
        P = np.concatenate([gen.random(40), [0.0, 1.0, 0.0, 1.0, 0.5, 0.0, 1.0]])
        t = np.concatenate([gen.integers(0, 12, size=40), [0, 1, 2, 2, 2, 1000, 1000]])
        expected = P.copy()
        for j, t_j in enumerate(t):
            if t_j >= 2:
                expected[j] = min(max(P[j], 1.0 / t_j), 1.0 - 1.0 / t_j)
        assert np.array_equal(_clamped(P, t), expected)

    def test_monotone_cumulative_and_nonnegative_increments(self):
        n = 4
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.9374)
        cfg = AdaptiveConfig.geometric(0.01, 0.1, 1e-4)
        state = run_adaptive(rho, wd, cfg, RngSeed(2).generator())
        prev = np.zeros(n + 1, dtype=np.int64)
        for rec in state.rounds:
            assert np.all(rec.increments >= 0)
            assert np.all(rec.cumulative_t >= prev)
            prev = rec.cumulative_t

    def test_determinism(self):
        n = 3
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.8)
        cfg = AdaptiveConfig.geometric(0.01, 0.1, 1e-4)
        s1 = run_adaptive(rho, wd, cfg, RngSeed(9).generator())
        s2 = run_adaptive(rho, wd, cfg, RngSeed(9).generator())
        assert list(s1.cumulative_t) == list(s2.cumulative_t)
        assert s1.current_P == pytest.approx(s2.current_P, abs=0)

    def test_final_spread_below_budget(self):
        n = 2
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.8)
        cfg = AdaptiveConfig.geometric(0.01, 0.1, 1e-4)
        for seed in range(5):
            state = run_adaptive(rho, wd, cfg, RngSeed(seed).generator())
            assert state.fidelity_std <= np.sqrt(1e-4) * (1 + 1e-6)

    def test_estimates_converge_to_truth(self):
        # final estimates within 3 binomial sigmas of the true values in
        # at least 95 of 100 seeded runs
        n = 2
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.8)
        p_true = setting_probabilities(rho, wd).P
        cfg = AdaptiveConfig.geometric(0.01, 0.1, 1e-4)
        hits = 0
        for seed in range(100):
            state = run_adaptive(rho, wd, cfg, RngSeed(1000 + seed).generator())
            t = state.cumulative_t.astype(float)
            sigma = np.sqrt(p_true * (1 - p_true) / t)
            hits += bool(np.all(np.abs(state.current_P - p_true) <= 3 * sigma))
        assert hits >= 95

    def test_round_budgets_met_by_cumulative_counts(self):
        n = 4
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.9374)
        cfg = AdaptiveConfig.geometric(0.01, 0.1, 1e-4)
        state = run_adaptive(rho, wd, cfg, RngSeed(21).generator())
        for rec in state.rounds:
            clamped = np.clip(rec.P_hat, 1 / rec.cumulative_t, 1 - 1 / rec.cumulative_t)
            spread = delta_f(SettingProbabilities(n=n, P=clamped),
                             rec.cumulative_t.astype(float))
            assert spread <= np.sqrt(rec.epsilon) * (1 + 1e-6)

    def test_history_csv_shape(self):
        n = 2
        wd = build_settings(n)
        state = run_adaptive(depolarized_sc(n, 0.8), wd,
                             AdaptiveConfig.geometric(0.01, 0.1, 1e-3),
                             RngSeed(3).generator())
        lines = state.history_csv().strip().split("\n")
        assert lines[0] == "round,epsilon,setting,increment,cumulative,P_hat"
        assert len(lines) == 1 + state.round * (n + 1)


def assert_same_state(got, want):
    """Every field of two protocol trajectories, compared exactly."""
    assert got.n == want.n and got.round == want.round
    for a, b in zip(got.rounds, want.rounds):
        assert (a.index, a.epsilon, a.budget_met) == (b.index, b.epsilon, b.budget_met)
        for name in ("P_used", "target_t", "increments", "cumulative_t", "P_hat"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert got.cumulative_t.tobytes() == want.cumulative_t.tobytes()
    assert got.current_P.tobytes() == want.current_P.tobytes()
    assert (got.fidelity, got.fidelity_std) == (want.fidelity, want.fidelity_std)


# fidelity 1.0 is the pure cat state, whose P_j sit at 0 or 1
fidelities = st.sampled_from([1.0, 0.98, 0.9374, 0.8, 0.6])


class TestLockstepMatchesOneRun:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), fidelity=fidelities, seed=st.integers(0, 2**32 - 1),
           start=st.floats(1e-3, 0.05), ratio=st.floats(0.05, 0.5),
           prior=st.sampled_from(["half", "target", "edges"]),
           t_initial=st.sampled_from([0, 1, 5]), t_min=st.integers(1, 4))
    # no pilot at the pure state's own P: every variance weight is zero
    @example(n=3, fidelity=1.0, seed=1, start=0.01, ratio=0.1, prior="target", t_initial=0,
             t_min=2)
    # a pilot that covers round 1's targets: the round pools it and draws nothing
    @example(n=4, fidelity=0.9374, seed=0, start=0.01, ratio=0.1, prior="half", t_initial=50,
             t_min=1)
    def test_run_adaptive(self, n, fidelity, seed, start, ratio, prior, t_initial, t_min):
        wd = build_settings(n)
        rho = depolarized_sc(n, fidelity)
        gen = np.random.default_rng(seed)
        initial_P = {"half": None,
                     "target": setting_probabilities(rho, wd).P,
                     "edges": gen.choice([0.0, 0.3, 1.0], size=n + 1)}[prior]
        cfg = AdaptiveConfig(geometric_schedule(start, ratio, start * ratio**3),
                             initial_P=initial_P, t_initial=t_initial, t_min=t_min)
        assert_same_state(run_adaptive(rho, wd, cfg, RngSeed(seed).generator()),
                          run_adaptive_one(rho, wd, cfg, RngSeed(seed).generator()))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 5), fidelity=fidelities, seed=st.integers(0, 2**32 - 1),
           ratios=st.lists(st.floats(0.05, 0.5), min_size=1, max_size=3),
           repeats=st.integers(1, 4))
    # the feedback benchmark's sweep shape, at its extreme ratios
    @example(n=4, fidelity=0.98, seed=3001, ratios=[0.05, 0.3], repeats=50)
    def test_sweep(self, n, fidelity, seed, ratios, repeats):
        wd = build_settings(n)
        rho = depolarized_sc(n, fidelity)
        assert (sweep_epsilon_ratio(rho, wd, ratios, repeats, RngSeed(seed))
                == sweep_epsilon_ratio_one(rho, wd, ratios, repeats, RngSeed(seed)))

    @pytest.mark.parametrize("passes", [1, 64])
    def test_budget_met_agrees_with_recomputed_spread(self, passes, monkeypatch):
        # one top-up pass per round cuts rounds short and the record says
        # so, exactly when delta F at the clamped pooled estimates misses
        # the budget; the default cap of 64 passes is never reached here
        monkeypatch.setattr(adaptive, "_TOP_UP_PASSES", passes)
        n = 4
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.9374)
        cfg = AdaptiveConfig.geometric(0.01, 0.1, 1e-5)
        missed = 0
        for seed in range(10):
            state = run_adaptive(rho, wd, cfg, RngSeed(seed).generator())
            assert_same_state(state, run_adaptive_one(rho, wd, cfg, RngSeed(seed).generator(),
                                                      passes=passes))
            for rec in state.rounds:
                p = SettingProbabilities(n=n, P=_clamped(rec.P_hat, rec.cumulative_t))
                spread = delta_f(p, rec.cumulative_t.astype(float))
                assert rec.budget_met == (spread <= np.sqrt(rec.epsilon) * (1 + 1e-9))
                missed += not rec.budget_met
        assert (missed > 0) == (passes == 1)


class TestSweep:
    def test_single_ratio_single_row(self):
        wd = build_settings(2)
        rho = depolarized_sc(2, 0.9)
        res = sweep_epsilon_ratio(rho, wd, [0.1], repeats=3, rng=RngSeed(4))
        assert len(res.rows) == 1
        assert res.rows[0].ratio == 0.1
        assert res.rows[0].mean_rounds == 3.0

    def test_rounds_track_schedule_length(self):
        wd = build_settings(2)
        rho = depolarized_sc(2, 0.9)
        res = sweep_epsilon_ratio(rho, wd, [0.1, 0.2], repeats=2, rng=RngSeed(4))
        assert res.rows[0].mean_rounds == 3.0
        assert res.rows[1].mean_rounds == 4.0

    @pytest.mark.parametrize("ratios, repeats", [([0.1], 0), ([], 2)])
    def test_empty_sweep_rejected(self, ratios, repeats):
        with pytest.raises(QcopiesError):
            sweep_epsilon_ratio(depolarized_sc(2, 0.9), build_settings(2), ratios,
                                repeats=repeats, rng=RngSeed(4))


class TestTimeline:
    def _one_round_state(self, t):
        t = np.asarray(t, dtype=np.int64)
        P = np.full(t.size, 0.5)
        rec = RoundRecord(index=1, epsilon=2.56e-4, P_used=P, target_t=t, increments=t,
                          cumulative_t=t, P_hat=P)
        p = SettingProbabilities(n=t.size - 1, P=P)
        return AdaptiveState(n=t.size - 1, rounds=(rec,), cumulative_t=t, current_P=P,
                             fidelity=fidelity_from_probabilities(p),
                             fidelity_std=delta_f(p, t.astype(float)))

    def test_zero_switch_cost_time_tracks_copies(self):
        state = self._one_round_state([100, 50, 50, 50, 50, 50, 50, 50, 50])
        rep = protocol_timeline(state, switch_cost_hours=0.0, copy_rate_per_hour=10.0)
        hours = rep.adaptive_prep_hours + rep.adaptive_switch_hours
        assert hours == pytest.approx(state.total_copies / 10.0)

    def test_hours_saved_against_reference_experiment(self):
        # 1253 optimized vs 1305 at 8.88 copies/hour recovers ~5.9 hours
        state = self._one_round_state([415, 106, 103, 106, 103, 108, 101, 108, 103])
        rep = protocol_timeline(state, switch_cost_hours=2 / 60, copy_rate_per_hour=8.88)
        saved = 1305 / 8.88 - rep.adaptive_prep_hours
        assert saved == pytest.approx(52 / 8.88, abs=1e-9)
        assert saved == pytest.approx(5.9, abs=0.1)

    def test_switch_count_multiplies_with_rounds(self):
        n = 4
        wd = build_settings(n)
        rho = depolarized_sc(n, 0.9374)
        state = run_adaptive(rho, wd, AdaptiveConfig.geometric(0.01, 0.1, 1e-4),
                             RngSeed(31).generator())
        rep = protocol_timeline(state, switch_cost_hours=2 / 60, copy_rate_per_hour=8.88)
        ratio = rep.adaptive_switches / rep.single_pass_switches
        assert 2.0 <= ratio <= 6.0

    def test_bad_rate_rejected(self):
        state = self._one_round_state([10, 10, 10])
        with pytest.raises(Exception):
            protocol_timeline(state, switch_cost_hours=0.1, copy_rate_per_hour=0.0)

    @pytest.mark.parametrize("rate", [np.inf, np.nan, -1.0])
    def test_rate_must_be_positive_and_finite(self, rate):
        state = self._one_round_state([10, 10, 10])
        with pytest.raises(QcopiesError, match="copy rate"):
            protocol_timeline(state, switch_cost_hours=0.1, copy_rate_per_hour=rate)

    @pytest.mark.parametrize("cost", [np.nan, np.inf, -0.1])
    def test_switch_cost_must_be_finite_and_nonnegative(self, cost):
        state = self._one_round_state([10, 10, 10])
        with pytest.raises(QcopiesError, match="switch cost"):
            protocol_timeline(state, switch_cost_hours=cost, copy_rate_per_hour=8.88)

    @pytest.mark.parametrize("value", [True, np.bool_(False), "1", None, 1 + 0j],
                             ids=["bool", "numpy-bool", "str", "none", "complex"])
    @pytest.mark.parametrize("name, kwarg", [("copy rate", "copy_rate_per_hour"),
                                             ("switch cost", "switch_cost_hours")])
    def test_rate_and_cost_must_be_real_numbers(self, value, name, kwarg):
        state = self._one_round_state([10, 10, 10])
        args = dict(switch_cost_hours=0.1, copy_rate_per_hour=8.88) | {kwarg: value}
        with pytest.raises(QcopiesError, match=f"{name} must be a real number"):
            protocol_timeline(state, **args)

    def test_numpy_and_integer_rates_accepted(self):
        state = self._one_round_state([10, 10, 10])
        rep = protocol_timeline(state, switch_cost_hours=np.float32(0.5),
                                copy_rate_per_hour=np.int64(10))
        assert rep.adaptive_prep_hours == 3.0
