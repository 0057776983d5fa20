"""Spin entanglement generated by spin-independent scattering of identical particles.

The package follows one pipeline: an interaction model supplies raw
direct/exchange amplitudes at a scattering angle; normalization reduces
them to the unit pair (f_plus, f_minus); from there come the outgoing
two-spin state and its Slater decomposition, the entropy of entanglement,
and the Bell combination F with its critical crossing angle.  The
lowest-order Coulomb interaction is built in as the worked example.
"""

from .amplitudes import (
    DEFAULT_KINEMATICS,
    NORM_TOL,
    AmplitudePair,
    AmplitudeProvider,
    Kinematics,
    NormalizedAmplitudePair,
    constant_provider,
    coulomb_amplitudes,
    coulomb_f_pm,
    coulomb_provider,
    normalize,
    validate_angle,
)
from .bell import (
    BellGeometry,
    UnitVector3,
    bell_F,
    correlator_closed_form,
    correlator_oracle,
    critical_angle,
    standard_geometry,
)
from .entanglement import (
    eoe_label_fixed,
    eoe_symmetrized,
)
from .spin_states import (
    ExchangeStatistics,
    SlaterDecomposition,
    TwoSpinState,
    distinguishable_outgoing_state,
    outgoing_state,
    slater_decomposition,
    slater_rank,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_KINEMATICS",
    "NORM_TOL",
    "AmplitudePair",
    "AmplitudeProvider",
    "BellGeometry",
    "ExchangeStatistics",
    "Kinematics",
    "NormalizedAmplitudePair",
    "SlaterDecomposition",
    "TwoSpinState",
    "UnitVector3",
    "bell_F",
    "constant_provider",
    "correlator_closed_form",
    "correlator_oracle",
    "coulomb_amplitudes",
    "coulomb_f_pm",
    "coulomb_provider",
    "critical_angle",
    "distinguishable_outgoing_state",
    "eoe_label_fixed",
    "eoe_symmetrized",
    "normalize",
    "outgoing_state",
    "slater_decomposition",
    "slater_rank",
    "standard_geometry",
    "validate_angle",
]
