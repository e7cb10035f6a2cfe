"""qcopies: minimum measurement-copy budgeting for certifying multi-qubit
Schrodinger-cat entanglement by fidelity, with Monte Carlo verification,
adaptive feedback, Hoeffding guarantees and phaselift tomography.

`import qcopies` loads none of its modules.  A module loads on first use:
`qcopies.name` imports the home module of `name` listed in `_NAMES` and
returns the name from it, and `qcopies.core` (any module) imports that
module.  A name resolves through its module at each access and is never
stored here, so rebinding it in its module (as the benchmark's tracer
does) rebinds it here too.
"""

import importlib as _importlib

__version__ = "0.1.0"

# each module of the package -> the public names it exports here
_NAMES = {
    "adaptive": "AdaptiveConfig AdaptiveState TenPhotonCost geometric_schedule "
                "protocol_timeline run_adaptive sweep_epsilon_ratio ten_photon_cost",
    "allocator": "BudgetProblem CopyAllocation EIGHT_PHOTON_EXPERIMENT_COPIES "
                 "EIGHT_PHOTON_MEASURED_P EIGHT_PHOTON_REPORTED_OPTIMUM allocate_sc "
                 "explicit_allocation sc_variance_weights solve_budget uniform_allocation",
    "cli": "",
    "core": "DensityMatrix XState density_from_json depolarized_sc frobenius_distance "
            "noisy_sc_state psd_project rank_two_sc_state sc_fidelity "
            "white_noise_weight_for_fidelity",
    "errors": "ConfigError DegenerateProblemError DimensionMismatchError QcopiesError",
    "hoeffding": "AllocationInterval CoverageTable allocation_interval coverage_experiment "
                 "failure_probability hoeffding_radius joint_success required_copies",
    "phaselift": "ProductSetting ReconstructOptions ReconstructionResult exact_frequencies "
                 "pauli_settings reconstruct reconstruction_curve sampled_frequencies "
                 "tomography_projectors",
    "reports": "",
    "simulator": "ComparisonReport RngSeed compare_distributions run_histogram_experiment "
                 "sample_counts",
    "witness": "SettingProbabilities WitnessDecomposition build_settings delta_f "
               "fidelity_from_probabilities setting_probabilities",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _NAMES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_NAMES, *_HOME})
