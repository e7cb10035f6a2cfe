"""The benchmark's four workloads.

Each workload function takes the imported `qcopies` package, the job
seeds derived from the workload seed and the smoke flag, builds the
workload's states and settings (that is the set-up `setup_s` times) and
returns its fixed job list.  A job runs one acceptance-style scenario
through public library calls with library defaults, and its check
compares the outcome with the statistical band of the matching
acceptance test in `tests/test_acceptance.py`; bands are tolerances,
never pinned draws.

Library functions are looked up on the package at call time (`q.name`),
so the traced run's wrappers see the benchmark's own calls too.

Smoke mode shrinks every job to a few milliseconds to exercise the
harness; the bands only hold at full size, so smoke jobs are not checked.
"""
from __future__ import annotations

import csv
import io
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]


def _band(misses, ok, text):
    if not ok:
        misses.append(text)


def certify_n10(q, seeds, smoke):
    """README `simulate --n 10 --fidelity 0.8414 --corner-mass 0.947
    --compare uniform:100 --trials 100`, in-process through the CLI.

    The CLI builds its own state; set-up builds the same state and settings
    so `setup_s` carries the n=10 state construction every caller pays.
    """
    n, trials = (4, 10) if smoke else (10, 100)
    q.build_settings(n)
    q.noisy_sc_state(n, 0.8414, corner_mass=0.947)
    argv = ["simulate", "--n", str(n), "--fidelity", "0.8414", "--corner-mass", "0.947",
            "--compare", "uniform:100", "--trials", str(trials), "--seed", str(seeds[0])]

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = q.cli.main(argv)
        lines = out.getvalue().splitlines()
        rows = {r["name"]: r for r in csv.DictReader(lines[:3])}
        return {
            "exit_code": code,
            "savings_pct": float(rows["optimized"]["savings_pct"]),
            "optimized_delta_f": float(rows["optimized"]["predicted_delta_f"]),
            "matched_epsilon0": float(rows["uniform"]["predicted_delta_f"]),
            "optimized_mean": float(rows["optimized"]["mean_fidelity"]),
            "optimized_std": float(rows["optimized"]["std_fidelity"]),
        }

    def check(o):
        # The CLI prints six significant digits; rounding is monotone, so
        # the delta-F comparison cannot flip on the printed values.
        misses = []
        _band(misses, o["exit_code"] == 0, f"exit code {o['exit_code']}")
        _band(misses, abs(o["savings_pct"] - 22.45) <= 5.0,
              f"savings {o['savings_pct']}% outside 22.45 +- 5")
        _band(misses, o["optimized_delta_f"] <= o["matched_epsilon0"] * (1 + 1e-9),
              f"optimized dF {o['optimized_delta_f']} > matched eps0 {o['matched_epsilon0']}")
        return misses

    return [Job("simulate-n10", run, check)]


def verify_mc(q, seeds, smoke):
    """Fixed-allocation Monte Carlo: acceptance 03, 11 and 06, scaled up."""
    n8 = 3 if smoke else 8
    trials03, trials11, repeats06 = (20, 20, 2) if smoke else (550, 3000, 1000)
    wd8 = q.build_settings(n8)
    rho03 = q.depolarized_sc(n8, 0.73)
    rho06 = q.noisy_sc_state(n8, 0.708, corner_mass=0.8068)
    wd3 = q.build_settings(3)
    rho11 = q.depolarized_sc(3, 0.75)
    copies06 = [50, 100, 200, 400, 800, 1600, 3200]

    def run03():
        p = q.setting_probabilities(rho03, wd8)
        alloc = q.allocate_sc(p, epsilon0=0.016)
        res = q.run_histogram_experiment(rho03, wd8, alloc, trials=trials03,
                                         rng=q.RngSeed(seeds[0]))
        return {"total": alloc.total, "std": res.std, "predicted": res.predicted_delta_f}

    def check03(o):
        misses = []
        _band(misses, o["total"] < 1305, f"total {o['total']} not below 1305")
        _band(misses, o["std"] <= 1.1 * 0.016, f"std {o['std']} > {1.1 * 0.016}")
        return misses

    def run11():
        p = q.setting_probabilities(rho11, wd3)
        alloc = q.allocate_sc(p, epsilon0=0.02)
        res = q.run_histogram_experiment(rho11, wd3, alloc, trials=trials11,
                                         rng=q.RngSeed(seeds[1]))
        return {"std": res.std, "predicted": res.predicted_delta_f}

    def check11(o):
        rel = abs(o["std"] - o["predicted"]) / o["predicted"]
        return [] if rel <= 0.15 else [f"spread {o['std']} is {rel:.3f} from dF"]

    def run06():
        table = q.coverage_experiment(rho06, wd8, copies06, delta=1e-4,
                                      repeats=repeats06, rng=q.RngSeed(seeds[2]))
        return {"true_value": table.true_value, "all_inside": table.all_inside,
                "coverage": table.empirical_coverage}

    def check06(o):
        misses = []
        _band(misses, abs(o["true_value"] - 0.8068) <= 1e-10,
              f"corner mass {o['true_value']} != 0.8068")
        _band(misses, o["all_inside"], f"coverage {o['coverage']} < 1")
        return misses

    return [Job("acceptance-03", run03, check03), Job("acceptance-11", run11, check11),
            Job("acceptance-06", run06, check06)]


def feedback(q, seeds, smoke):
    """Adaptive protocol at n=4: acceptance 08's ratio sweep and acceptance
    07 over several seeds."""
    n = 4
    repeats08, runs07 = (2, 2) if smoke else (50, 10)
    wd = q.build_settings(n)
    rho08 = q.depolarized_sc(n, 0.98)
    rho07 = q.depolarized_sc(n, 0.9374)
    ratios = [0.05, 0.08, 0.1, 0.12, 0.15, 0.17, 0.2, 0.25, 0.3]
    final = 1e-5
    cfg07 = q.AdaptiveConfig.geometric(0.01, 0.1, final)

    def run08():
        res = q.sweep_epsilon_ratio(rho08, wd, ratios, repeats=repeats08,
                                    rng=q.RngSeed(seeds[0]))
        return {"best_ratio": res.best.ratio, "best_mean_total": res.best.mean_total,
                "best_std_total": res.best.std_total,
                "mean_totals": [r.mean_total for r in res.rows]}

    def check08(o):
        # The band bounds the true mean, so it is tested against the estimate
        # with three standard errors of slack.  The best mean sits near 251
        # for every seed, close to the upper edge: a bare cut-off at 260
        # failed one correct run in 39 (seed 710: 264.3, standard error 6.9).
        mean = o["best_mean_total"]
        slack = 3 * o["best_std_total"] / np.sqrt(repeats08)
        ok = mean - slack <= 260 and mean + slack >= 120
        return [] if ok else [f"best mean total {mean} is more than {slack:.1f} "
                              f"(3 standard errors) outside [120, 260]"]

    def adaptive_job(seed):
        def run07():
            state = q.run_adaptive(rho07, wd, cfg07, q.RngSeed(seed).generator())
            return {"total": state.total_copies, "fidelity": state.fidelity,
                    "fidelity_std": state.fidelity_std}
        return run07

    def check07(o):
        ok = o["fidelity_std"] <= np.sqrt(final) * (1 + 1e-6)
        return [] if ok else [f"final fidelity_std {o['fidelity_std']} > sqrt({final})"]

    return [Job("acceptance-08", run08, check08)] + [
        Job(f"acceptance-07-{i}", adaptive_job(seeds[1 + i]), check07)
        for i in range(runs07)]


def tomography_n3(q, seeds, smoke):
    """Acceptance 09's reconstruction curve (rank-two n=3, 20000 counts per
    setting, 7 setting counts) as nine one-repeat curves.

    Each curve fixes one setting order, and the order drives the solver's
    iteration count (quartile spread 0.17 of the median over 24 orders).
    Nine independent orders cut that to about 0.05; their 63 solves are
    three times those of acceptance 09's three-repeat curve.
    """
    true_f = 0.7068
    if smoke:
        n, counts, setting_counts = 2, 500, [4, 16]
        opts = q.ReconstructOptions(max_iter=100)
    else:
        n, counts, setting_counts = 3, 20000, [8, 16, 30, 45, 50, 56, 64]
        opts = None
    rho = q.rank_two_sc_state(n, true_f)

    def curve_job(seed):
        def run():
            curve = q.reconstruction_curve(rho, counts_per_setting=counts,
                                           setting_counts=setting_counts, repeats=1,
                                           rng=q.RngSeed(seed), opts=opts)
            return {"settings_used": [r.settings_used for r in curve.rows],
                    "fidelity": [r.mean_fidelity for r in curve.rows],
                    "mse": [r.mean_mse for r in curve.rows]}
        return run

    def check(o):
        # Acceptance 09 also asks for the 45- to 56-setting points to sit
        # within 0.05, but that holds only for most setting orders: some
        # subsets leave the cat coherence undetermined and the solver fits
        # the data better than the true state does.  Only the full set is
        # order-free, so only it is checked; the curve stays in the record.
        misses = []
        full_f, full_mse = o["fidelity"][-1], o["mse"][-1]
        _band(misses, abs(full_f - true_f) <= 0.05,
              f"full-set fidelity {full_f} not within 0.05 of {true_f}")
        _band(misses, full_mse <= 0.01, f"full-set MSE {full_mse} > 0.01")
        return misses

    curves = 2 if smoke else 9
    return [Job(f"acceptance-09-{i}", curve_job(seeds[i]), check) for i in range(curves)]


WORKLOADS = {
    "certify-n10": certify_n10,
    "verify-mc": verify_mc,
    "feedback": feedback,
    "tomography-n3": tomography_n3,
}
