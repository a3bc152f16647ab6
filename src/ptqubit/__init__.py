"""Gain-loss (PT-symmetric) qubit simulation toolkit.

Exact propagation across the unbroken, exceptional-point, and broken
regimes; unitary dilation with post-selection; temporal-correlation
functionals (K3, quantum witness); finite-shot emulation; and interval
optimization.
"""

__version__ = "0.1.0"

from .correlations import (
    CorrelatorSet,
    WitnessResult,
    conditional_prob,
    correlators,
    quantum_witness,
    witness_initial_state,
)
from .dilation import (
    dilation_report,
    dilation_unitary,
    embed_initial,
    metric_operator,
    postselect,
    pt_via_dilation,
)
from .errors import (
    NormalizationError,
    NoStatisticsError,
    ParameterError,
    PtQubitError,
    RegimeError,
    VanishingNormError,
)
from .montecarlo import ShotConfig, ShotRecord, k3_sampled, sample_conditional, witness_sampled
from .optimize import (
    EpDiscontinuity,
    SweepPoint,
    ep_discontinuity,
    max_k3_over_T,
    sweep_gamma,
)
from .pt_dynamics import (
    EP_THRESHOLD,
    PtParams,
    Regime,
    Trajectory,
    evolve_density_nonlinear,
    evolve_state,
    evolve_state_scaled,
    hamiltonian,
    propagator,
    propagator_scaled,
    speed_profile,
    trajectory,
)
from .qstate import (
    IDENTITY2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    PureState,
    bloch_from,
    fubini_study_distance,
    minus_y,
    plus_y,
)

__all__ = [
    "__version__",
    # states and operators
    "PureState",
    "DensityMatrix",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY2",
    "plus_y",
    "minus_y",
    "bloch_from",
    "fubini_study_distance",
    # dynamics
    "PtParams",
    "Regime",
    "EP_THRESHOLD",
    "Trajectory",
    "hamiltonian",
    "propagator",
    "propagator_scaled",
    "evolve_state",
    "evolve_state_scaled",
    "evolve_density_nonlinear",
    "trajectory",
    "speed_profile",
    # dilation
    "metric_operator",
    "embed_initial",
    "dilation_unitary",
    "postselect",
    "pt_via_dilation",
    "dilation_report",
    # correlations
    "CorrelatorSet",
    "WitnessResult",
    "conditional_prob",
    "correlators",
    "quantum_witness",
    "witness_initial_state",
    # finite shots
    "ShotConfig",
    "ShotRecord",
    "sample_conditional",
    "k3_sampled",
    "witness_sampled",
    # optimization
    "SweepPoint",
    "EpDiscontinuity",
    "max_k3_over_T",
    "sweep_gamma",
    "ep_discontinuity",
    # errors
    "PtQubitError",
    "ParameterError",
    "NormalizationError",
    "RegimeError",
    "VanishingNormError",
    "NoStatisticsError",
]
