"""How sure can we be of the estimated frequencies?  Distribution-free
answers from the concentration bound 2*exp(-2 t h^2): per-setting failure
probabilities, the joint success over all nine settings of an eight-photon
run, required copies for a target confidence, the induced bracket on the
allocation itself, and an empirical coverage check.
"""
from pathlib import Path

import numpy as np

from qcopies import (
    RngSeed,
    SettingProbabilities,
    allocation_interval,
    build_settings,
    coverage_experiment,
    failure_probability,
    joint_success,
    noisy_sc_state,
    required_copies,
)
from qcopies.allocator import EIGHT_PHOTON_MEASURED_P

OUT = Path(__file__).parent / "output"

print(f"one setting, 110 copies, h=0.2: failure <= {failure_probability(110, 0.2):.3e}")
print(f"nine settings jointly: success >= {joint_success([110] * 9, [0.2] * 9):.4f}")
print(f"copies for h=0.2 at 1e-4 failure: {required_copies(0.2, 1e-4)}")

# bracket the closed-form allocation when frequencies are known to +-h
p_hat = SettingProbabilities(n=8, P=np.asarray(EIGHT_PHOTON_MEASURED_P))
interval = allocation_interval(p_hat, h=0.2, epsilon0=0.016)
print(f"copy-count bracket, setting 1: [{interval.t_minus[0]:.0f}, {interval.t_plus[0]:.0f}]"
      f" around {interval.t_point[0]:.0f}")

# simulate corner-mass estimation at growing copy numbers; every point
# should stay inside the band when the failure target is 1e-4
wd = build_settings(8)
rho = noisy_sc_state(8, fidelity=0.708, corner_mass=0.8068)
table = coverage_experiment(rho, wd, [50, 100, 200, 400, 800, 1600, 3200],
                            delta=1e-4, repeats=10, rng=RngSeed(0))
print(f"true corner mass {table.true_value:.4f}; "
      f"all {sum(len(r.estimates) for r in table.rows)} estimates inside band: "
      f"{table.all_inside}")

OUT.mkdir(exist_ok=True)
(OUT / "coverage.csv").write_text(table.to_csv())
print(f"wrote {OUT}/coverage.csv")
