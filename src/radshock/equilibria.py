"""Rest points of the profile system and the downstream-velocity map.

With the normalization q1 = 1, q0 = q_tilde^(-1/2) > 0 the system has two
rest points exactly for q_tilde in (3/4, 1).  Both are taken on the
right-moving branch v > 0; the reflected family follows from the stated
flux symmetry and is not materialized separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShock, ParamsOutOfOmega, QOutOfRange, ZOutOfRange
from .model import GodunovState

Q_MIN = 0.75
Q_MAX = 1.0

# Below this distance from 3/4 the two rest points are too close for the
# downstream eigen-decompositions to be trustworthy.
DEGENERATE_BAND = 1e-8


def check_omega(eps: float, q_tilde: float) -> None:
    """Raise ParamsOutOfOmega unless (eps, q_tilde) lies in the square (0, 1] x (3/4, 1)."""
    if not (0.0 < eps <= 1.0 and Q_MIN < q_tilde < Q_MAX):
        raise ParamsOutOfOmega(f"({eps}, {q_tilde}) outside (0,1] x (3/4,1)")


@dataclass(frozen=True)
class EquilibriumPair:
    """Upstream saddle and downstream attractor for one q_tilde."""

    psi_minus: GodunovState
    psi_plus: GodunovState
    v_minus_sq: float
    v_plus_sq: float

    def __post_init__(self):
        if not self.v_plus_sq < self.v_minus_sq:
            raise QOutOfRange("downstream state must have the smaller velocity")


def _check_q(q_tilde) -> None:
    if not np.all((Q_MIN < q_tilde) & (q_tilde < Q_MAX)):
        raise QOutOfRange(f"q_tilde must lie in (3/4, 1), got {q_tilde}")


def v_plus_squared(q_tilde):
    """Squared velocity of the downstream rest point, in (1/8, 1/2).

    q_tilde may be a float or an ndarray.  Evaluated in the rationalized
    form 1 / (4 (2q-1 + sqrt(q(4q-3)))), which is free of cancellation over
    the whole interval; the textbook quotient
    ((2q-1) - sqrt(q(4q-3))) / (4(1-q)) loses ~6 digits as q_tilde -> 1.
    """
    _check_q(q_tilde)
    return 1.0 / (4.0 * (2.0 * q_tilde - 1.0 + np.sqrt(q_tilde * (4.0 * q_tilde - 3.0))))


def v_minus_squared(q_tilde: float) -> float:
    """Squared velocity of the upstream rest point, > 1/2."""
    _check_q(q_tilde)
    return ((2.0 * q_tilde - 1.0) + math.sqrt(q_tilde * (4.0 * q_tilde - 3.0))) / (
        4.0 * (1.0 - q_tilde)
    )


def state_from_v(v: float) -> GodunovState:
    """State on the equilibrium family parameterized by velocity v.

    psi = ((4/3) v^2 + 1/3)^(1/4) * (sqrt(1 + v^2), v); its kinematics
    return exactly this v, and theta^4 = ((4/3) v^2 + 1/3)^(-1).
    """
    pref = ((4.0 / 3.0) * v * v + 1.0 / 3.0) ** 0.25
    return GodunovState(pref * math.sqrt(1.0 + v * v), pref * v)


def rest_points(q_tilde: float) -> EquilibriumPair:
    """Both rest points for flux constants (q_tilde^(-1/2), 1), v > 0 branch."""
    _check_q(q_tilde)
    if q_tilde - Q_MIN <= DEGENERATE_BAND:
        raise DegenerateShock(
            f"q_tilde = {q_tilde} within {DEGENERATE_BAND} of the zero-amplitude limit 3/4"
        )
    v_m_sq = v_minus_squared(q_tilde)
    v_p_sq = v_plus_squared(q_tilde)
    return EquilibriumPair(
        psi_minus=state_from_v(math.sqrt(v_m_sq)),
        psi_plus=state_from_v(math.sqrt(v_p_sq)),
        v_minus_sq=v_m_sq,
        v_plus_sq=v_p_sq,
    )


def q_of_vplus(z: float) -> float:
    """Inverse of the downstream-velocity map: q_tilde with v_plus^2 = z.

    q = (4z+1)^2 / (16 z (1+z)), strictly decreasing on (1/8, 1/2).
    """
    if not 0.125 < z < 0.5:
        raise ZOutOfRange(f"z must lie in (1/8, 1/2), got {z}")
    return (4.0 * z + 1.0) ** 2 / (16.0 * z * (1.0 + z))


def admissible(q0: float, q1: float) -> bool:
    """True iff the flux constants admit two distinct rest points."""
    return q1 > 0.0 and q1 * q1 < q0 * q0 < (4.0 / 3.0) * q1 * q1
