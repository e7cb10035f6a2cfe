"""Budgeting copies for an eight-photon cat-state certification.

Walks the core workflow: build the nine measurement settings, compute the
aggregate probabilities of a noisy state, solve for the cheapest copy
distribution meeting a fidelity-deviation bound of 0.016, and verify by
Monte Carlo that the promised precision is met while spending fewer copies
than the historical 1305-copy reference distribution.
"""
from pathlib import Path

import numpy as np

from qcopies import (
    EIGHT_PHOTON_EXPERIMENT_COPIES,
    RngSeed,
    allocate_sc,
    build_settings,
    compare_distributions,
    depolarized_sc,
    explicit_allocation,
    setting_probabilities,
    uniform_allocation,
)

OUT = Path(__file__).parent / "output"
N = 8
EPSILON0 = 0.016

wd = build_settings(N)
rho = depolarized_sc(N, fidelity=0.73)
p = setting_probabilities(rho, wd)
print(f"aggregate probabilities: {np.round(p.P, 4)}")

optimized = allocate_sc(p, epsilon0=EPSILON0)
print(f"optimized distribution: {optimized.t.tolist()}  (total {optimized.total})")

experiment = explicit_allocation(EIGHT_PHOTON_EXPERIMENT_COPIES)
uniform = uniform_allocation(N + 1, experiment.total // (N + 1))
print(f"reference experiment total: {experiment.total}, uniform total: {uniform.total}")
saved = experiment.total - optimized.total
print(f"copies saved: {saved} ({100 * saved / experiment.total:.1f}%)")

rng = RngSeed(2026)
report = compare_distributions(
    rho, wd, {"experiment": experiment, "uniform": uniform, "optimized": optimized},
    trials=550, rng=rng)
for row in report.rows:
    print(f"  {row.name:10s} total={row.total:5d} std(F)={row.std_fidelity:.4f} "
          f"predicted={row.predicted_delta_f:.4f}")

OUT.mkdir(exist_ok=True)
(OUT / "eight_photon_comparison.csv").write_text(report.to_csv())

# the event histograms behind the comparison, 50 bins over [0, 1], from the
# same trials as its rows
results = {row.name: res for row, res in zip(report.rows, report.results)}
for name in ("experiment", "optimized"):
    res = results[name]
    (OUT / f"eight_photon_hist_{name}.csv").write_text(res.to_csv())
    print(f"histogram for {name}: mean F = {res.mean:.4f}, std = {res.std:.4f}")

print(f"wrote {OUT}/eight_photon_*.csv")
