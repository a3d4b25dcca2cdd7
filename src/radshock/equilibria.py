"""Rest points of the profile system and the downstream-velocity map.

With the normalization q1 = 1, q0 = q_tilde^(-1/2) > 0 the system has two
rest points exactly for q_tilde in (3/4, 1).  Both are taken on the
right-moving branch v > 0; the reflected family follows from the stated
flux symmetry and is not materialized separately.  Their algebra has one
body, `_rest_v_sq`, which every entry point calls once it has gated q_tilde.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShock, ParamsOutOfOmega, QOutOfRange, ZOutOfRange, _real, _reals
from .model import GodunovState

Q_MIN = 0.75
Q_MAX = 1.0

# Below this distance from 3/4 the two rest points are too close for the
# downstream eigen-decompositions to be trustworthy.
DEGENERATE_BAND = 1e-8


def check_omega(eps: float, q_tilde: float) -> tuple[float, float]:
    """(eps, q_tilde) as floats; ParamsOutOfOmega outside the square (0, 1] x (3/4, 1)."""
    e, q = _real(eps), _real(q_tilde)
    if not (0.0 < e <= 1.0 and Q_MIN < q < Q_MAX):
        raise ParamsOutOfOmega(f"({eps!r}, {q_tilde!r}) outside (0,1] x (3/4,1)")
    return e, q


@dataclass(frozen=True)
class EquilibriumPair:
    """Upstream saddle and downstream attractor for one q_tilde."""

    psi_minus: GodunovState
    psi_plus: GodunovState
    v_minus_sq: float
    v_plus_sq: float

    def __post_init__(self):
        if not _real(self.v_plus_sq) < _real(self.v_minus_sq):
            raise QOutOfRange("downstream state must have the smaller velocity")


def _check_q(q_tilde):
    q, lo, hi = _reals(q_tilde)
    if not Q_MIN < lo <= hi < Q_MAX:
        raise QOutOfRange(f"q_tilde must lie in (3/4, 1), got {q_tilde!r}")
    return q


def _sqrt(x):
    """np.sqrt for ndarrays, math.sqrt (and so a Python float) otherwise."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _rest_v_sq(q):
    """(v_minus^2, v_plus^2) at a gated q_tilde, a float or an array: the rest points' one body.

    Both come from s = 2q-1 + sqrt(q(4q-3)), formed once: v_minus^2 =
    s / (4(1-q)) and v_plus^2 = 1 / (4s), the rationalized form, which is
    free of cancellation over the whole interval; the textbook quotient
    ((2q-1) - sqrt(q(4q-3))) / (4(1-q)) loses ~6 digits as q_tilde -> 1.
    """
    s = 2.0 * q - 1.0 + _sqrt(q * (4.0 * q - 3.0))
    return s / (4.0 * (1.0 - q)), 1.0 / (4.0 * s)


def v_plus_squared(q_tilde):
    """Squared velocity of the downstream rest point, in (1/8, 1/2).

    q_tilde may be a number, which gives a Python float, or an array.
    """
    return _rest_v_sq(_check_q(q_tilde))[1]


def v_minus_squared(q_tilde):
    """Squared velocity of the upstream rest point, > 1/2.

    q_tilde may be a number, which gives a Python float, or an array.
    """
    return _rest_v_sq(_check_q(q_tilde))[0]


def psi_from_v(v):
    """(psi0, psi1) on the equilibrium family at velocity v, for floats or ndarrays.

    psi = ((4/3) v^2 + 1/3)^(1/4) * (sqrt(1 + v^2), v); its kinematics
    return exactly this v, and theta^4 = ((4/3) v^2 + 1/3)^(-1).
    """
    pref = ((4.0 / 3.0) * v * v + 1.0 / 3.0) ** 0.25
    return pref * _sqrt(1.0 + v * v), pref * v


def state_from_v(v: float) -> GodunovState:
    """State on the equilibrium family parameterized by velocity v (see `psi_from_v`)."""
    return GodunovState(*psi_from_v(_real(v)))


def rest_points(q_tilde: float) -> EquilibriumPair:
    """Both rest points for flux constants (q_tilde^(-1/2), 1), v > 0 branch."""
    q = _real(q_tilde)
    if not Q_MIN < q < Q_MAX:
        raise QOutOfRange(f"q_tilde must lie in (3/4, 1), got {q_tilde!r}")
    return _pair(q)


def _pair(q: float) -> EquilibriumPair:
    """Both rest points at a gated q_tilde; DegenerateShock within `DEGENERATE_BAND` of 3/4."""
    if q - Q_MIN <= DEGENERATE_BAND:
        raise DegenerateShock(
            f"q_tilde = {q} within {DEGENERATE_BAND} of the zero-amplitude limit 3/4"
        )
    v_m_sq, v_p_sq = _rest_v_sq(q)
    return EquilibriumPair(
        psi_minus=GodunovState(*psi_from_v(math.sqrt(v_m_sq))),
        psi_plus=GodunovState(*psi_from_v(math.sqrt(v_p_sq))),
        v_minus_sq=v_m_sq,
        v_plus_sq=v_p_sq,
    )


def q_of_vplus(z):
    """Inverse of the downstream-velocity map: q_tilde with v_plus^2 = z.

    q = (4z+1)^2 / (16 z (1+z)), strictly decreasing on (1/8, 1/2); z may
    be a number or an array.
    """
    x, lo, hi = _reals(z)
    if not 0.125 < lo <= hi < 0.5:
        raise ZOutOfRange(f"z must lie in (1/8, 1/2), got {z!r}")
    return (4.0 * x + 1.0) ** 2 / (16.0 * x * (1.0 + x))


def admissible(q0: float, q1: float) -> bool:
    """True iff the flux constants admit two distinct rest points."""
    q0, q1 = _real(q0), _real(q1)
    return q1 > 0.0 and q1 * q1 < q0 * q0 < (4.0 / 3.0) * q1 * q1
