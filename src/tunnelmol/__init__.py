"""Two-level tunneling molecule under collisional decoherence.

The package follows one model end to end: coherent tunneling between two
localized wells at angular frequency omega, interrupted by collisions at
rate gamma that each read out the localization observable.  From the master
equation it builds the Pauli transfer propagator, its channel dilations,
the moving decompositions that stay consistent as history families, the
classical telegraph processes living on those families, and the bookkeeping
of where the information about each observable goes.
"""

from .channels import (
    NonCPError,
    ptm_to_choi,
)
from .families import (
    BACKWARD,
    BlochDirection,
    FORWARD,
    FamilyTrajectory,
    RegimeReport,
    StationaryFamily,
    StationarySet,
    X_DIRECTION,
    Y_DIRECTION,
    Z_DIRECTION,
    check_forward_condition,
    classify_regime,
    exact_direction,
    stationary_families,
    transition_rate,
)
from .histories import (
    ConsistencyReport,
    Decomposition,
    DecoherenceMatrix,
    HistoryFamily,
    MarkovChain,
    NotConsistentError,
    consistency_check,
    decoherence_functional,
    markov_from_family,
    telegraph_flip_probability,
)
from .info_flow import (
    ForwardConditionError,
    InfoReport,
    InputEnsemble,
    binary_entropy,
    build_info_report,
    holevo_chi,
    holevo_complementary,
    holevo_direct,
    mub_bound_check,
    mutual_information_family,
    quadratic_information,
    short_time_leak_model,
    verify_family_information_identity,
    von_neumann_entropy,
)
from .ptm import (
    EigenSystem,
    ModelParams,
    OVERDAMPED,
    CRITICAL,
    UNDERDAMPED,
    apply_ptm,
    eigen_system,
    generator,
    operator_from_pauli,
    pauli_coefficients,
    propagator_closed_form,
)
from .trajectories import (
    Ensemble,
    EnsembleSeries,
    GapStatistics,
    SamplerConfig,
    Trajectory,
    deterministic_occupation,
    ensemble_average,
    gap_statistics,
    sample_ensemble,
    sample_trajectory,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
