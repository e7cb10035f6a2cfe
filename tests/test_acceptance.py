"""Acceptance suite: one test per criterion, each timed against its stated
budget and printing a PASS line (run with `pytest -v -s` to see them).

Fixture states substituting for unpublished experimental density matrices
are documented in the README; where a published table value is compared,
the tolerance reflects the substitution.
"""
import time

import numpy as np
import pytest

from qcopies import (
    AdaptiveConfig,
    BudgetProblem,
    DensityMatrix,
    RngSeed,
    SettingProbabilities,
    allocate_sc,
    build_settings,
    compare_distributions,
    coverage_experiment,
    delta_f,
    depolarized_sc,
    fidelity_from_probabilities,
    joint_success,
    noisy_sc_state,
    rank_two_sc_state,
    reconstruction_curve,
    run_adaptive,
    run_histogram_experiment,
    setting_probabilities,
    solve_budget,
    sweep_epsilon_ratio,
    ten_photon_cost,
    uniform_allocation,
)

from _oracles import fidelity_direct, ginibre_density, minimize_budget_numeric

EIGHT_PHOTON_EXPERIMENT_TOTAL = 1305
TABLE2_FINAL_P = np.array([0.9339, 0.0316, 0.9491, 0.0325, 0.9474])


def _report(k, elapsed, limit, detail):
    line = f"ACCEPTANCE {k:2d}: PASS  ({elapsed:6.1f}s < {limit:>4.0f}s)  {detail}"
    print("\n" + line)
    assert elapsed < limit, f"criterion {k} exceeded its runtime budget: {line}"


def test_acceptance_01_witness_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (2, 3, 4):
        wd = build_settings(n)
        for _ in range(100):
            rho = DensityMatrix(ginibre_density(2**n, rng))
            path = fidelity_from_probabilities(setting_probabilities(rho, wd))
            worst = max(worst, abs(path - fidelity_direct(rho.matrix, n)))
    assert worst < 1e-10
    _report(1, time.time() - t0, 10, f"decomposition vs direct trace, worst dev {worst:.2e}")


def test_acceptance_02_allocator_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst_coord = worst_obj = worst_tight = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 13))
        k = rng.uniform(1e-4, 0.06, size=m)
        eps = float(rng.uniform(1e-4, 1e-2))
        alloc = solve_budget(BudgetProblem(k=k, epsilon=eps))
        t_num = minimize_budget_numeric(k, eps)
        worst_coord = max(worst_coord, float(np.max(np.abs(alloc.real_t - t_num) / t_num)))
        worst_obj = max(worst_obj, abs(alloc.real_t.sum() - t_num.sum()) / t_num.sum())
        worst_tight = max(worst_tight, abs(np.sum(k / alloc.real_t) - eps) / eps)
    assert worst_coord < 1e-3
    assert worst_obj < 1e-4
    assert worst_tight < 1e-9
    _report(2, time.time() - t0, 30,
            f"closed form vs numeric minimizer, worst coord dev {worst_coord:.2e}")


def test_acceptance_03_eight_photon_savings():
    t0 = time.time()
    n = 8
    wd = build_settings(n)
    rho = depolarized_sc(n, 0.73)  # white-noise stand-in in the 0.7 fidelity class
    p = setting_probabilities(rho, wd)
    opt = allocate_sc(p, epsilon0=0.016)
    savings = 100.0 * (EIGHT_PHOTON_EXPERIMENT_TOTAL - opt.total) / EIGHT_PHOTON_EXPERIMENT_TOTAL
    assert opt.total < EIGHT_PHOTON_EXPERIMENT_TOTAL
    assert 2.0 <= savings <= 9.0
    res = run_histogram_experiment(rho, wd, opt, trials=550, rng=RngSeed(2026))
    assert res.std <= 1.1 * 0.016
    _report(3, time.time() - t0, 300,
            f"total {opt.total} vs 1305 ({savings:.2f}% saved), "
            f"550-trial std {res.std:.4f} <= {1.1 * 0.016:.4f}")


def test_acceptance_04_ten_photon_savings():
    t0 = time.time()
    n = 10
    wd = build_settings(n)
    rho = noisy_sc_state(n, 0.8414, corner_mass=0.947)
    p = setting_probabilities(rho, wd)
    uniform = uniform_allocation(n + 1, 100)
    matched_eps0 = delta_f(p, uniform)
    opt = allocate_sc(p, epsilon0=matched_eps0)
    report = compare_distributions(rho, wd, {"uniform": uniform, "optimized": opt},
                                   trials=100, rng=RngSeed(1010))
    savings = report.row("optimized").savings_pct
    assert abs(savings - 22.45) <= 5.0
    assert report.row("optimized").predicted_delta_f <= matched_eps0 * (1 + 1e-9)
    _report(4, time.time() - t0, 600,
            f"optimized {opt.total} vs uniform 1100 at matched spread: {savings:.2f}% saved")


def test_acceptance_05_hoeffding_joint_probability():
    t0 = time.time()
    prob = joint_success([110] * 9, [0.2] * 9)
    assert 0.9970 <= prob <= 0.9975
    _report(5, time.time() - t0, 1, f"joint success {prob:.6f}")


def test_acceptance_06_coverage():
    t0 = time.time()
    wd = build_settings(8)
    rho = noisy_sc_state(8, 0.708, corner_mass=0.8068)
    table = coverage_experiment(rho, wd, [50, 100, 200, 400, 800, 1600, 3200],
                                delta=1e-4, repeats=10, rng=RngSeed(0))
    assert table.true_value == pytest.approx(0.8068, abs=1e-10)
    assert table.all_inside
    _report(6, time.time() - t0, 120,
            f"70 corner-mass estimates inside the 1e-4 band around {table.true_value:.4f}")


def test_acceptance_07_adaptive_protocol():
    t0 = time.time()
    wd = build_settings(4)
    rho = depolarized_sc(4, 0.9374)
    cfg = AdaptiveConfig.geometric(0.01, 0.1, 1e-5)
    state = run_adaptive(rho, wd, cfg, RngSeed(0).generator())
    dev = np.max(np.abs(state.current_P - TABLE2_FINAL_P))
    assert state.round == 4
    assert dev <= 0.03
    assert state.fidelity_std <= np.sqrt(1e-5) * (1 + 1e-6)
    _report(7, time.time() - t0, 120,
            f"final estimates within {dev:.4f} of the published pattern")


def test_acceptance_08_epsilon_ratio_sweep():
    t0 = time.time()
    wd = build_settings(4)
    rho = depolarized_sc(4, 0.98)
    ratios = [0.05, 0.08, 0.1, 0.12, 0.15, 0.17, 0.2, 0.25, 0.3]
    res = sweep_epsilon_ratio(rho, wd, ratios, repeats=10, rng=RngSeed(77))
    best = res.best
    assert 120 <= best.mean_total <= 260
    assert all(3.0 <= r.mean_rounds <= 4.0 for r in res.rows)
    _report(8, time.time() - t0, 300,
            f"cheapest ratio {best.ratio} needs {best.mean_total:.0f} copies on average, "
            f"rounds 3-4 throughout")


def test_acceptance_09_phaselift_plateau():
    t0 = time.time()
    true_f = 0.7068
    rho = rank_two_sc_state(3, true_f)
    curve = reconstruction_curve(rho, counts_per_setting=20000,
                                 setting_counts=[8, 16, 30, 45, 50, 56, 64],
                                 repeats=3, rng=RngSeed(42))
    plateau = [r for r in curve.rows if r.settings_used >= 45]
    worst = max(abs(r.mean_fidelity - true_f) for r in plateau)
    assert worst <= 0.05
    full_mse = next(r for r in curve.rows if r.settings_used == 64).mean_mse
    assert full_mse <= 0.01
    _report(9, time.time() - t0, 300,
            f"fidelity within {worst:.4f} of {true_f} from 45 settings on, "
            f"full-set MSE {full_mse:.4f}")


def test_acceptance_10_ten_photon_cost_arithmetic():
    t0 = time.time()
    rep = ten_photon_cost(2.8e-5, 110)
    assert rep.ten_photon_per_hour == pytest.approx(0.0568, rel=5e-3)
    assert rep.hours == pytest.approx(1936.6, rel=5e-3)
    _report(10, time.time() - t0, 1,
            f"{rep.ten_photon_per_hour:.4f} copies/hour, {rep.hours:.1f} hours for 110")


def test_acceptance_11_spread_formula_validity():
    t0 = time.time()
    n = 3
    wd = build_settings(n)
    rho = depolarized_sc(n, 0.75)
    p = setting_probabilities(rho, wd)
    assert np.all(p.P >= 0.05) and np.all(p.P <= 0.95)
    alloc = allocate_sc(p, epsilon0=0.02)
    res = run_histogram_experiment(rho, wd, alloc, trials=550, rng=RngSeed(3030))
    rel = abs(res.std - res.predicted_delta_f) / res.predicted_delta_f
    assert rel <= 0.15
    _report(11, time.time() - t0, 300,
            f"empirical spread {res.std:.5f} vs formula {res.predicted_delta_f:.5f} "
            f"({100 * rel:.1f}% apart)")
