import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcopies import (
    AdaptiveConfig,
    CopyAllocation,
    DegenerateProblemError,
    DimensionMismatchError,
    EIGHT_PHOTON_EXPERIMENT_COPIES,
    EIGHT_PHOTON_MEASURED_P,
    EIGHT_PHOTON_REPORTED_OPTIMUM,
    QcopiesError,
    ReconstructOptions,
    RngSeed,
    SettingProbabilities,
    allocate_sc,
    allocation_interval,
    build_settings,
    compare_distributions,
    coverage_experiment,
    delta_f,
    depolarized_sc,
    explicit_allocation,
    failure_probability,
    hoeffding_radius,
    joint_success,
    noisy_sc_state,
    pauli_settings,
    rank_two_sc_state,
    reconstruction_curve,
    required_copies,
    run_histogram_experiment,
    sample_counts,
    sampled_frequencies,
    sc_variance_weights,
    solve_budget,
    sweep_epsilon_ratio,
    ten_photon_cost,
    tomography_projectors,
    uniform_allocation,
    white_noise_weight_for_fidelity,
)
from qcopies.allocator import _round_up
from qcopies.errors import MAX_COPIES

from _oracles import minimize_budget_numeric, round_up_one


class TestSolveBudget:
    def test_symmetric_split(self):
        alloc = solve_budget(np.full(5, 0.01), 0.001)
        assert alloc.real_t == pytest.approx([50.0] * 5, rel=1e-12)
        assert list(alloc.t) == [50] * 5
        assert alloc.total == 250

    def test_hand_value_eight_qubit_profile(self):
        # P1=0.8, Pj=0.2 at n=8 gives k1=0.04 and kj=0.0025
        k = np.array([0.04] + [0.0025] * 8)
        alloc = solve_budget(k, 0.016**2)
        assert alloc.real_t[0] == pytest.approx(468.75, rel=1e-12)
        assert alloc.real_t[1] == pytest.approx(117.1875, rel=1e-12)
        assert list(alloc.t) == [469] + [118] * 8

    def test_halving_budget_doubles_counts(self, rng):
        k = rng.uniform(0.001, 0.05, size=6)
        a1 = solve_budget(k, 0.002)
        a2 = solve_budget(k, 0.001)
        assert a2.real_t == pytest.approx(2 * a1.real_t, rel=1e-12)

    def test_zero_weight_settings_get_t_min(self):
        alloc = solve_budget(np.array([0.01, 0.0, 0.02]), 1e-3, t_min=3)
        assert alloc.t[1] == 3
        assert alloc.real_t[1] == 0.0

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateProblemError):
            solve_budget(np.zeros(4), 1e-3)

    def test_bad_epsilon(self):
        with pytest.raises(QcopiesError):
            solve_budget(np.array([0.01]), 0.0)

    def test_near_tie_within_the_slack_gets_no_extra_copy(self):
        # the rounded-up optimum overshoots the budget by a relative 1e-13,
        # inside the 1e-9 that plans allow, and no setting gains a copy
        k = np.array([1.0, 1.0])
        eps = 0.002 / (1 + 1e-13)
        assert np.sum(k / 1000) > eps
        assert list(solve_budget(k, eps).t) == [1000, 1000]
        assert _round_up(np.stack([k, k]), eps, 1)[1].tolist() == [[1000, 1000]] * 2

    def test_constraint_tight_before_and_satisfied_after_rounding(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 13))
            k = rng.uniform(1e-4, 0.06, size=m)
            eps = float(rng.uniform(1e-4, 1e-2))
            alloc = solve_budget(k, eps)
            assert np.sum(k / alloc.real_t) == pytest.approx(eps, abs=1e-9 * eps + 1e-15)
            assert np.sum(k / alloc.t) <= eps * (1 + 1e-9)

    def test_oracle_equivalence(self, rng):
        # closed form vs independent numeric constrained minimizer
        for _ in range(200):
            m = int(rng.integers(2, 13))
            k = rng.uniform(1e-4, 0.06, size=m)
            eps = float(rng.uniform(1e-4, 1e-2))
            alloc = solve_budget(k, eps)
            t_num = minimize_budget_numeric(k, eps)
            assert np.max(np.abs(alloc.real_t - t_num) / t_num) < 1e-3
            assert abs(alloc.real_t.sum() - t_num.sum()) / t_num.sum() < 1e-4

    def test_ratio_law(self, rng):
        k = rng.uniform(1e-4, 0.05, size=8)
        alloc = solve_budget(k, 1e-3)
        for i in range(8):
            for j in range(8):
                assert alloc.real_t[i] / alloc.real_t[j] == pytest.approx(
                    np.sqrt(k[i] / k[j]), abs=1e-9)

    def test_monotone_in_weights(self, rng):
        k = rng.uniform(1e-3, 0.05, size=6)
        base = solve_budget(k, 1e-3).real_t
        for j in range(6):
            bumped = k.copy()
            bumped[j] *= 1.5
            grown = solve_budget(bumped, 1e-3).real_t
            assert np.all(grown >= base - 1e-9)


class TestNonFiniteInput:
    @pytest.mark.parametrize("k", [[np.inf, 0.01], [np.nan, 0.01, 0.01], [0.01, -np.inf]])
    def test_weights_rejected(self, k):
        with pytest.raises(QcopiesError):
            solve_budget(np.array(k), 1e-3)

    @pytest.mark.parametrize("eps", [np.inf, np.nan, -1e-3])
    def test_budget_rejected(self, eps):
        with pytest.raises(QcopiesError):
            solve_budget(np.array([0.01, 0.01]), eps)

    def test_overflowing_plan_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(QcopiesError):
            solve_budget(np.array([1e300, 1e300]), 1e-300)

    def test_infinite_epsilon0_rejected_on_noiseless_profile(self):
        # every weight is zero here, so the budget solver is never reached
        p = SettingProbabilities(n=2, P=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(QcopiesError):
            allocate_sc(p, epsilon0=np.inf)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(lambda k: max(k) > 0),
       st.floats(1e-4, 1.0), st.floats(0.01, 1.0), st.integers(1, 5))
def test_solve_budget_feasible_near_minimal_and_monotone(k, eps, shrink, t_min):
    k = np.array(k)
    plan = solve_budget(k, eps, t_min=t_min)
    assert np.sum(k / plan.t) <= eps * (1 + 1e-9)
    assert np.all(plan.t <= np.maximum(t_min, np.ceil(plan.real_t)) + 1)
    tighter = solve_budget(k, eps * shrink, t_min=t_min)
    assert tighter.total >= plan.total


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 21), st.integers(1, 3))
def test_stacked_rounding_matches_one_row_at_a_time(seed, rows, m, t_min):
    # up to 21 settings, so the row sums take numpy's blocked summation too
    gen = np.random.default_rng(seed)
    k = gen.random((rows, m)) * (gen.random((rows, m)) < 0.8) / gen.integers(1, 400, (rows, 1))
    eps = 10.0 ** gen.uniform(-6, -1)
    real_t, t = _round_up(k, eps, t_min)
    for r in range(rows):
        roots = np.sqrt(k[r])
        assert real_t[r].tobytes() == (roots * roots.sum() / eps).tobytes()
        assert t[r].tobytes() == round_up_one(k[r], eps, t_min).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.floats(-1e-11, 1e-11)),
                min_size=1, max_size=21).filter(lambda r: any(n for n, _ in r)),
       st.floats(-150, 0), st.integers(1, 3))
def test_rounded_plan_meets_the_budget_with_no_top_up(rows, log_scale, t_min):
    # weights whose optimum lands within a relative 1e-11 of an integer (or
    # at zero): sqrt(k_j) = c * target_j and eps = c**2 * sum(target) put
    # real_t at target, with k as small as 1e-300
    target = np.array([n * (1 + rel) for n, rel in rows])
    c = 10.0**log_scale
    k, eps = (c * target) ** 2, c**2 * target.sum()
    _, t = _round_up(k[None], eps, t_min)
    assert np.sum(k / t[0]) <= eps * (1 + 1e-9)
    assert np.all(t[0] >= t_min)
    # the oracle's top-up loop adds nothing
    assert t[0].tobytes() == round_up_one(k, eps, t_min).tobytes()


class TestAllocateSc:
    def test_pure_state_degenerate_gets_t_min(self):
        p = SettingProbabilities(n=2, P=np.array([1.0, 0.0, 1.0]))
        alloc = allocate_sc(p, epsilon0=0.01, t_min=2)
        assert list(alloc.t) == [2, 2, 2]

    def test_noiseless_profile_rounds_like_any_other(self):
        p = SettingProbabilities(n=2, P=np.array([1.0, 0.0, 1.0]))
        alloc = allocate_sc(p, epsilon0=0.01, t_min=2)
        real_t, t = _round_up(np.zeros((1, 3)), 1e-4, 2)
        assert alloc.t.tobytes() == t[0].tobytes()
        assert alloc.real_t.tobytes() == real_t[0].tobytes() == np.zeros(3).tobytes()
        assert alloc.epsilon0 == 0.01

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1.0))
    def test_reports_epsilon0_as_given(self, epsilon0):
        p = SettingProbabilities(n=2, P=np.array([0.9, 0.3, 0.6]))
        alloc = allocate_sc(p, epsilon0)
        assert alloc.epsilon0 == epsilon0 == float(np.sqrt(epsilon0**2))

    def test_measured_eight_photon_values_match_oracle(self):
        p = SettingProbabilities(n=8, P=np.asarray(EIGHT_PHOTON_MEASURED_P))
        alloc = allocate_sc(p, epsilon0=0.016)
        t_num = minimize_budget_numeric(sc_variance_weights(p), 0.016**2)
        assert np.max(np.abs(alloc.t - np.ceil(t_num))) <= 1
        # closed form puts ~458 copies on the computational setting here
        assert abs(alloc.real_t[0] - 458.0) < 1.0

    def test_reference_distributions(self):
        assert sum(EIGHT_PHOTON_EXPERIMENT_COPIES) == 1305
        assert sum(EIGHT_PHOTON_REPORTED_OPTIMUM) == 1253
        assert EIGHT_PHOTON_REPORTED_OPTIMUM[0] == 415

    def test_never_worse_than_best_uniform(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            P = rng.uniform(0.05, 0.95, size=n + 1)
            p = SettingProbabilities(n=n, P=P)
            eps0 = float(rng.uniform(0.005, 0.05))
            alloc = allocate_sc(p, epsilon0=eps0)
            k = sc_variance_weights(p)
            per_setting = int(np.ceil(k.sum() / eps0**2))
            assert alloc.total <= per_setting * (n + 1)


class TestInputsCheckedOnce:
    @pytest.mark.parametrize("epsilon0", [
        1e200, 1e-200, -0.1, 0.0, np.nan, np.inf,
        pytest.param(10**200, id="int-square-past-float-range"),
        pytest.param(10**400, id="int-past-float-range")])
    def test_epsilon0_needs_a_positive_finite_square(self, epsilon0):
        p = SettingProbabilities(n=2, P=np.array([0.9, 0.3, 0.6]))
        for allocate in (lambda: allocate_sc(p, epsilon0),
                         lambda: allocation_interval(p, 0.1, epsilon0)):
            with pytest.raises(QcopiesError, match="epsilon0"):
                allocate()

    @pytest.mark.parametrize("t_min", [2.7, 2.0, True, "2", None])
    def test_non_integer_t_min_rejected(self, t_min):
        p = SettingProbabilities(n=2, P=np.array([0.9, 0.3, 0.6]))
        with pytest.raises(QcopiesError, match="t_min"):
            allocate_sc(p, 0.3, t_min=t_min)
        with pytest.raises(QcopiesError, match="t_min"):
            solve_budget(np.array([0.01, 0.02]), 1e-3, t_min=t_min)

    def test_numpy_integer_t_min_accepted(self):
        p = SettingProbabilities(n=2, P=np.array([0.9, 0.3, 0.6]))
        assert list(allocate_sc(p, 0.3, t_min=np.int64(4)).t) == [4, 4, 4]


class TestCopyAllocationType:
    def test_rejects_zero_counts(self):
        with pytest.raises(QcopiesError):
            CopyAllocation(t=np.array([0, 5]), epsilon0=0.1, real_t=np.array([0.0, 5.0]))

    @pytest.mark.parametrize("t, message", [
        (np.array([3, 0, 5], dtype=np.int64), "copies must be an integer >= 1, got 0"),
        (np.array([3, -2], dtype=np.int8), "copies must be an integer >= 1, got -2"),
        (np.array([3, 2**63], dtype=np.uint64), f"copies must be at most {MAX_COPIES}"),
    ], ids=["int64-zero", "int8-negative", "uint64-past-max"])
    def test_integer_arrays_keep_the_entry_messages(self, t, message):
        # a signed array is checked by its least entry, an unsigned one entry
        # by entry, and both report the first bad entry as a list would
        with pytest.raises(QcopiesError) as caught:
            CopyAllocation(t=t, epsilon0=0.1, real_t=t.astype(float))
        assert str(caught.value) == message
        with pytest.raises(QcopiesError) as listed:
            CopyAllocation(t=t.tolist(), epsilon0=0.1, real_t=t.astype(float))
        assert str(listed.value) == message

    @pytest.mark.parametrize("t", [np.array([4, 1, 9], dtype=np.int64),
                                   np.array([4, 1, 9], dtype=np.int16),
                                   np.array([4, 1, 9], dtype=np.uint64), [4, 1, 9]],
                             ids=["int64", "int16", "uint64", "list"])
    def test_valid_counts_are_held_as_int64_copies(self, t):
        alloc = CopyAllocation(t=t, epsilon0=0.1, real_t=[4.0, 1.0, 9.0])
        assert alloc.t.dtype == np.int64 and alloc.t.tolist() == [4, 1, 9]
        assert alloc.t is not t and not alloc.t.flags.writeable

    def test_total_is_exact_past_int64(self):
        # each count fits int64, their sum does not; the total must not wrap
        plan = allocate_sc(SettingProbabilities(n=1, P=[0.5, 0.5]), 0.1, t_min=MAX_COPIES)
        assert plan.t.tolist() == [MAX_COPIES] * 2
        assert plan.total == explicit_allocation([MAX_COPIES] * 2).total == 2 * MAX_COPIES

    @pytest.mark.parametrize("t", [[], [[3, 4], [5, 6]], 5], ids=["empty", "2-D", "scalar"])
    def test_t_must_be_a_nonempty_vector(self, t):
        with pytest.raises(DimensionMismatchError, match="t must be a nonempty vector"):
            CopyAllocation(t=np.array(t), epsilon0=0.1, real_t=np.array(t, dtype=float))
        with pytest.raises(DimensionMismatchError, match="t must be a nonempty vector"):
            explicit_allocation(t)


def _count_entry_points():
    """Each public entry point that takes a count, called with that count."""
    wd, rho, rng = build_settings(2), noisy_sc_state(2, 0.9), RngSeed(1)
    alloc, tomo = uniform_allocation(3, 10), rank_two_sc_state(2, 0.8)
    few = ReconstructOptions(max_iter=5)
    return {
        "histogram trials": lambda c: run_histogram_experiment(rho, wd, alloc, c, rng),
        "compare trials": lambda c: compare_distributions(
            rho, wd, {"a": alloc, "b": alloc}, c, rng),
        "sweep repeats": lambda c: sweep_epsilon_ratio(rho, wd, [0.1], c, rng),
        "coverage repeats": lambda c: coverage_experiment(rho, wd, [50], 0.01, c, rng),
        "coverage copies": lambda c: coverage_experiment(rho, wd, [c], 0.01, 2, rng),
        "curve repeats": lambda c: reconstruction_curve(tomo, 100, [4], c, rng, few),
        "curve setting count": lambda c: reconstruction_curve(tomo, 100, [c], 1, rng, few),
        "joint copies": lambda c: joint_success([c], [0.1]),
        "explicit copies": lambda c: explicit_allocation([c, 2]),
        "uniform settings": lambda c: uniform_allocation(c, 2),
        "uniform copies": lambda c: uniform_allocation(2, c),
    }


@pytest.mark.parametrize("entry", list(_count_entry_points()))
@pytest.mark.parametrize("count", [2.5, True, 0, np.float64(3.0)])
def test_counts_are_integers_at_least_one(entry, count):
    """A count that is a float, a bool or below one raises QcopiesError
    rather than a bare TypeError or a silent truncation; numpy integers
    pass."""
    call = _count_entry_points()[entry]
    with pytest.raises(QcopiesError, match="must be an integer >= 1"):
        call(count)
    call(np.int64(3))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: required_copies(1e-200, 0.5), id="required-h-squared-underflows"),
    pytest.param(lambda: required_copies(1e-160, 0.5), id="required-count-past-float"),
    pytest.param(lambda: required_copies(1e-10, 0.5), id="required-count-past-int64"),
    pytest.param(lambda: ten_photon_cost(1e300, 5), id="ten-photon-rate-overflows"),
    pytest.param(lambda: ten_photon_cost(1e-300, 5), id="ten-photon-rate-underflows"),
    pytest.param(lambda: ten_photon_cost(1.0, 10**400), id="ten-photon-copies-past-int64"),
    pytest.param(lambda: hoeffding_radius(10**400, 0.5), id="radius-copies-past-int64"),
    pytest.param(lambda: failure_probability(10**400, 0.1), id="failure-copies-past-int64"),
    pytest.param(lambda: joint_success([10**400], [0.1]), id="joint-copies-past-int64"),
    pytest.param(lambda: CopyAllocation(t=[1.5, 2.7, 3.9], epsilon0=float("nan"),
                                        real_t=[1.5, 2.7, 3.9]), id="allocation-fractional"),
    pytest.param(lambda: CopyAllocation(t=[2**63, 2, 3], epsilon0=float("nan"),
                                        real_t=[1.0, 2.0, 3.0]), id="allocation-past-int64"),
    pytest.param(lambda: explicit_allocation([10**30, 1]), id="explicit-past-int64"),
    pytest.param(lambda: explicit_allocation([10**400, 1]), id="explicit-past-float"),
    pytest.param(lambda: uniform_allocation(3, 10**30), id="uniform-past-int64"),
    pytest.param(lambda: sample_counts([0.5, 0.5], 2**63, np.random.default_rng(1)),
                 id="sample-copies-past-int64"),
    pytest.param(lambda: sample_counts([0.5, 0.5], 2, np.random.default_rng(1), size=10**20),
                 id="sample-size-past-int64"),
    pytest.param(lambda: sampled_frequencies(rank_two_sc_state(2, 0.8), pauli_settings(2), 10**30,
                                             np.random.default_rng(1)),
                 id="frequency-copies-past-int64"),
    pytest.param(lambda: delta_f(SettingProbabilities(n=2, P=[0.9, 0.5, 0.5]), [10**400, 1, 1]),
                 id="spread-copies-past-float"),
    pytest.param(lambda: allocate_sc(SettingProbabilities(n=1, P=[0.5, 0.5]), 0.1, 10**20),
                 id="allocate-t_min-past-int64"),
    pytest.param(lambda: solve_budget([0.01, 0.01], 1e-3, 10**20), id="budget-t_min-past-int64"),
    pytest.param(lambda: AdaptiveConfig((0.01,), t_min=10**20), id="adaptive-t_min-past-int64"),
    pytest.param(lambda: AdaptiveConfig((0.01,), t_initial=10**20),
                 id="adaptive-pilot-past-int64"),
    pytest.param(lambda: run_histogram_experiment(noisy_sc_state(2, 0.9), build_settings(2),
                                                  uniform_allocation(3, 10), 2**63, RngSeed(1)),
                 id="histogram-trials-past-int64"),
    pytest.param(lambda: coverage_experiment(noisy_sc_state(2, 0.9), build_settings(2), [50],
                                             0.01, 2**63, RngSeed(1)),
                 id="coverage-repeats-past-int64"),
    pytest.param(lambda: run_histogram_experiment(noisy_sc_state(2, 0.9), build_settings(2),
                                                  uniform_allocation(3, 10), 2, RngSeed(1))
                 .events(2**63), id="histogram-bins-past-int64"),
    # 2**59 rows of two int64 outcomes pass numpy's 2**63 - 1 bytes
    pytest.param(lambda: sample_counts([0.5, 0.5], 2, np.random.default_rng(1), size=2**59),
                 id="sample-size-past-array-bound"),
    pytest.param(lambda: run_histogram_experiment(noisy_sc_state(2, 0.9), build_settings(2),
                                                  uniform_allocation(3, 10), 2**59, RngSeed(1)),
                 id="histogram-trials-past-array-bound"),
    pytest.param(lambda: coverage_experiment(noisy_sc_state(2, 0.9), build_settings(2), [50],
                                             0.01, 2**59, RngSeed(1)),
                 id="coverage-repeats-past-array-bound"),
    pytest.param(lambda: run_histogram_experiment(noisy_sc_state(2, 0.9), build_settings(2),
                                                  uniform_allocation(3, 10), 2, RngSeed(1))
                 .summary_json(2**59), id="histogram-bins-past-array-bound"),
])
def test_values_out_of_range_raise_a_library_error(call):
    """A rate or deviation whose arithmetic leaves float range, a fractional
    copy count, or one past its bound (2**63 - 1 copies, 2**59 - 1 trials,
    repeats, bins or draws) raises QcopiesError rather than a
    bare OverflowError, a ZeroDivisionError, a RuntimeWarning or a silent
    truncation."""
    with pytest.raises(QcopiesError):
        call()


def _seed_entry_points():
    """Each public entry point that takes an `RngSeed`, called with that seed."""
    wd, rho, alloc = build_settings(2), noisy_sc_state(2, 0.9), uniform_allocation(3, 10)
    tomo, few = rank_two_sc_state(2, 0.8), ReconstructOptions(max_iter=5)
    return {
        "run_histogram_experiment": lambda r: run_histogram_experiment(rho, wd, alloc, 3, r),
        "compare_distributions": lambda r: compare_distributions(
            rho, wd, {"a": alloc, "b": alloc}, 3, r),
        "coverage_experiment": lambda r: coverage_experiment(rho, wd, [50], 0.01, 2, r),
        "sweep_epsilon_ratio": lambda r: sweep_epsilon_ratio(rho, wd, [0.1], 2, r),
        "reconstruction_curve": lambda r: reconstruction_curve(tomo, 100, [4], 1, r, few),
    }


@pytest.mark.parametrize("entry", list(_seed_entry_points()))
@pytest.mark.parametrize("rng", [np.random.default_rng(1), 1, None],
                         ids=["Generator", "int", "None"])
def test_seeds_are_rng_seeds(entry, rng):
    """A seed that is not an `RngSeed` raises QcopiesError naming its type
    rather than a bare AttributeError; an `RngSeed` passes."""
    call = _seed_entry_points()[entry]
    with pytest.raises(QcopiesError, match=f"expected RngSeed, got {type(rng).__name__}$"):
        call(rng)
    call(RngSeed(1))


@pytest.mark.parametrize("value, shown", [(np.int64(0), "0"), (-2, "-2"), (2.5, "2.5"),
                                          ("2", "'2'"), (True, "True")])
def test_count_messages_show_integers_plainly(value, shown):
    """A rejected integer reads as a plain int, whatever its numpy type;
    anything else keeps its repr, so 2.5 and '2' stay distinct."""
    with pytest.raises(QcopiesError, match=f"^copies must be an integer >= 1, got {shown}$"):
        failure_probability(value, 0.1)


# Each public entry point that takes a qubit count, called with that count.
QUBIT_COUNT_ENTRY_POINTS = {
    "noisy_sc_state": lambda n: noisy_sc_state(n, 0.8),
    "depolarized_sc": lambda n: depolarized_sc(n, 0.8),
    "rank_two_sc_state": lambda n: rank_two_sc_state(n, 0.8),
    "white_noise_weight_for_fidelity": lambda n: white_noise_weight_for_fidelity(n, 0.9),
    "build_settings": build_settings,
    "pauli_settings": pauli_settings,
    "tomography_projectors": tomography_projectors,
}


@pytest.mark.parametrize("entry", list(QUBIT_COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("n", [2.5, True, np.float64(3.0)])
def test_qubit_counts_are_integers(entry, n):
    """A qubit count that is a float or a bool raises QcopiesError rather
    than a bare TypeError, a wrong answer or one qubit; numpy integers
    pass."""
    call = QUBIT_COUNT_ENTRY_POINTS[entry]
    with pytest.raises(QcopiesError, match="qubit count must be an integer >= 1"):
        call(n)
    call(np.int64(3))


# Each public entry point that takes a count that may be zero.
ZERO_COUNT_ENTRY_POINTS = {
    "sample_counts copies": lambda c: sample_counts([0.5, 0.5], c, np.random.default_rng(0)),
    "ten_photon_cost copies": lambda c: ten_photon_cost(1.0, c),
}


@pytest.mark.parametrize("entry", list(ZERO_COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("count", [2.5, True, np.float64(3.0)])
def test_counts_are_integers_at_least_zero(entry, count):
    """No copy count is truncated or taken from a bool; zero and numpy
    integers pass."""
    call = ZERO_COUNT_ENTRY_POINTS[entry]
    with pytest.raises(QcopiesError, match="must be an integer >= 0"):
        call(count)
    call(0)
    call(np.int64(3))
