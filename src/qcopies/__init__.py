"""qcopies: minimum measurement-copy budgeting for certifying multi-qubit
Schrodinger-cat entanglement by fidelity, with Monte Carlo verification,
adaptive feedback, Hoeffding guarantees and phaselift tomography.
"""

from .adaptive import (
    AdaptiveConfig,
    AdaptiveState,
    TenPhotonCost,
    geometric_schedule,
    protocol_timeline,
    run_adaptive,
    sweep_epsilon_ratio,
    ten_photon_cost,
)
from .allocator import (
    BudgetProblem,
    CopyAllocation,
    EIGHT_PHOTON_EXPERIMENT_COPIES,
    EIGHT_PHOTON_MEASURED_P,
    EIGHT_PHOTON_REPORTED_OPTIMUM,
    allocate_sc,
    explicit_allocation,
    sc_variance_weights,
    solve_budget,
    uniform_allocation,
)
from .core import (
    DensityMatrix,
    XState,
    density_from_json,
    depolarized_sc,
    frobenius_distance,
    noisy_sc_state,
    psd_project,
    rank_two_sc_state,
    sc_fidelity,
    white_noise_weight_for_fidelity,
)
from .errors import (
    ConfigError,
    DegenerateProblemError,
    DimensionMismatchError,
    QcopiesError,
)
from .hoeffding import (
    AllocationInterval,
    CoverageTable,
    allocation_interval,
    coverage_experiment,
    failure_probability,
    hoeffding_radius,
    joint_success,
    required_copies,
)
from .phaselift import (
    ProductSetting,
    ReconstructOptions,
    ReconstructionResult,
    exact_frequencies,
    pauli_settings,
    reconstruct,
    reconstruction_curve,
    sampled_frequencies,
    tomography_projectors,
)
from .simulator import (
    ComparisonReport,
    RngSeed,
    compare_distributions,
    run_histogram_experiment,
    sample_counts,
)
from .witness import (
    SettingProbabilities,
    WitnessDecomposition,
    build_settings,
    delta_f,
    fidelity_from_probabilities,
    setting_probabilities,
)

__version__ = "0.1.0"


def __getattr__(name):
    # `qcopies.cli` loads on first use, so `python -m qcopies.cli` does not
    # find it imported already
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
