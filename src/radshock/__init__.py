"""Dissipative shock profiles of a sharply-causal radiation-fluid model.

The package analyzes the planar profile ODE of the model: closed-form rest
points, node/focus classification of the downstream attractor over the
(eps, q_tilde) parameter square including the two separatrix curves, and
numerical heteroclinic shooting with oscillation detection.  The README's
*Library* section holds the purpose of each name of `__all__` in one table.
"""

from .classification import (
    CubicRoots,
    RegionLabel,
    classify,
    cubic_roots,
    epsilon_hat,
    local_spectrum,
    p_coefficients,
    p_eval,
    separatrix_q1,
    separatrix_q2,
)
from .equilibria import (
    EquilibriumPair,
    admissible,
    q_of_vplus,
    rest_points,
    state_from_v,
    v_minus_squared,
    v_plus_squared,
)
from .errors import RadshockError
from .model import (
    CausalityClass,
    CausalityVerdict,
    GodunovState,
    Kinematics,
    b_one,
    b_sharp,
    b_two,
    b_visc,
    causality_check,
    flux_residual,
    kinematics,
    lin_matrix,
)
from .scan import ScanConfig, ScanRecord, ScanResult, ScanTable, run_scan
from .shooting import (
    OscillationReport,
    ProfileResult,
    ProfileVerdict,
    ShootOptions,
    oscillation_report,
    shoot,
    unstable_direction,
)

__version__ = "0.1.0"

__all__ = [
    "CausalityClass",
    "CausalityVerdict",
    "CubicRoots",
    "EquilibriumPair",
    "GodunovState",
    "Kinematics",
    "OscillationReport",
    "ProfileResult",
    "ProfileVerdict",
    "RadshockError",
    "RegionLabel",
    "ScanConfig",
    "ScanRecord",
    "ScanResult",
    "ScanTable",
    "ShootOptions",
    "admissible",
    "b_one",
    "b_sharp",
    "b_two",
    "b_visc",
    "causality_check",
    "classify",
    "cubic_roots",
    "epsilon_hat",
    "flux_residual",
    "kinematics",
    "lin_matrix",
    "local_spectrum",
    "oscillation_report",
    "p_coefficients",
    "p_eval",
    "q_of_vplus",
    "rest_points",
    "run_scan",
    "separatrix_q1",
    "separatrix_q2",
    "shoot",
    "state_from_v",
    "unstable_direction",
    "v_minus_squared",
    "v_plus_squared",
]
