"""Two-level tunneling molecule under collisional decoherence.

The package follows one model end to end: coherent tunneling between two
localized wells at angular frequency omega, interrupted by collisions at
rate gamma that each read out the localization observable.  From the master
equation it builds the Pauli transfer propagator, its channel dilations,
the moving decompositions that stay consistent as history families, the
classical telegraph processes living on those families, and the bookkeeping
of where the information about each observable goes.
"""

from .channels import NonCPError, choi_spectrum
from .families import (
    BACKWARD,
    BlochDirection,
    FORWARD,
    FamilyTrajectory,
    StationaryFamily,
    StationarySet,
    X_DIRECTION,
    Y_DIRECTION,
    Z_DIRECTION,
    flow_unit_vectors,
    stationary_families,
    stationary_roots,
    transition_rate,
)
from .histories import (
    ConsistencyReport,
    Decomposition,
    DecoherenceMatrix,
    HistoryFamily,
    MarkovChain,
    NotConsistentError,
    chain_kernel,
    consistency_check,
    decoherence_functional,
    markov_from_family,
    telegraph_flip_probability,
)
from .info_flow import (
    InfoReport,
    build_info_report,
    quadratic_information,
)
from .ptm import (
    ModelParams,
    OVERDAMPED,
    CRITICAL,
    UNDERDAMPED,
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
    deterministic_occupation,
    ensemble_average,
    gap_statistics,
    sample_ensemble,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
