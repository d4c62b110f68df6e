"""Phase-space entropy toolkit for continuous-variable states.

Heterodyne (Husimi-type) densities, their Wehrl-type entropies with
closed forms cross-checked by quadrature, entropic uncertainty sums
against the shared 1 + ln(pi) bound, and mutual-information witnesses
for pure bipartite states.
"""

import logging

from .entropies import (
    EULER_GAMMA,
    LN_PI,
    WitnessVerdict,
    entanglement_witness,
    harmonic_number,
    homodyne_entropy_thermal_closed,
    quantum_mutual_information_noon,
    quantum_mutual_information_tmss,
    von_neumann,
    wehrl_closed,
    wehrl_conditional_entropy,
    wehrl_fock_closed,
    wehrl_fock_stirling,
    wehrl_mutual_information,
    wehrl_quadrature,
    wehrl_relative_entropy,
    wehrl_thermal_closed,
)
from .errors import (
    DegenerateBlock,
    DimensionMismatch,
    InadmissibleCovariance,
    LambdaOutOfRange,
    NonNormalizedMixture,
    NonSymmetric,
    NotBipartite,
    NotPure,
    SingularMatrix,
    SupportViolation,
    ToleranceNotReached,
    ToolkitError,
    UnsupportedState,
)
from .eur import (
    BOUND,
    EurReport,
    bbm_lhs_asymptotic,
    eur_report,
    eur_sweep_fock,
    eur_sweep_mixture,
    eur_sweep_thermal,
    mixture_crossover,
    wl_lhs_stirling,
)
from .gaussian import (
    CovarianceModel,
    ModePartition,
    NormalFormParams,
    SeparabilityVerdict,
    apply_local_squeeze,
    from_grouped_ordering,
    gaussian_witness,
    ppt_minimum,
    ppt_reflect,
    random_admissible_covariance,
    simon_pure_separability,
    squeezed_vacuum_covariance,
    symplectic_eigenvalues,
    symplectic_form,
    tmss_covariance,
    von_neumann_gaussian,
    wehrl_gaussian_joint,
    wehrl_gaussian_local,
)
from .husimi import (
    ConvexCombinationHusimi,
    FockHusimi,
    FockMixtureHusimi,
    FockMixturePositionDensity,
    FockPositionDensity,
    GaussianHusimi,
    HusimiEvaluator,
    NoonHusimi,
    NoonMarginalHusimi,
    PositionDensity,
    ProductHusimi,
    ThermalHusimi,
    ThermalPositionDensity,
    evaluator_for,
    marginal_husimi,
    position_density_for,
)
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    density_entropies_1d,
    density_entropy_1d,
    density_normalization_1d,
    entropy_functional,
    entropy_functionals,
    gamma_tail_threshold,
    integrate,
    normalization,
    relative_entropy,
)
from .states import (
    FockMixtureState,
    FockState,
    GaussianState,
    NoonState,
    ThermalState,
    TwoModeSqueezedState,
    partition_of,
    state_from_dict,
    state_to_dict,
    validate,
)

__version__ = "0.1.0"

# Refinement levels and applied caps are logged under "wehrlkit"; the
# library writes nothing unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())
