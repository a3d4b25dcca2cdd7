"""State algebra of the reduced planar radiation-fluid model.

Everything here is an algebraic function of the planar Godunov state
psi = (psi0, psi1) with psi0 > |psi1|: the kinematic map to temperature
and 2-velocity, the three 2x2 dissipation blocks and their sharply-causal
combination, the flux residual whose zeros are the rest points, the scaled
linearization matrix, and the causality classification of a transport
triple (eta, mu, nu).

Production code reaches B# through the closed forms of its determinant and
trace, which `spectrum_at_v` combines into the eigenvalues of B#^-1 A (the
node/focus spectrum at the downstream rest point and the saddle's at the
upstream one), and through `shooting._field`, which applies adj(B#) through
the rank-one split of its blocks; the matrix builders (`b_sharp`, its blocks,
`lin_matrix`) and `trace_adj`, the one body of trace(adj(B#) A), are the
reference route that tests and the `verify` command check them against, and
have no other caller.  They use arithmetic only, so a `Kinematics` of floats gives 2x2 matrices and
one of ndarrays of shape (n,) gives stacked (2, 2, n) lanes, one matrix per
lane along the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    EpsilonOutOfRange, NonPositiveParameter, SingularBsharp, StateOutsideDomain, _real, _reals
)

# Relative tolerance for the equality cases of the causality bounds.
CAUSALITY_RTOL = 1e-10


@dataclass(frozen=True)
class GodunovState:
    """Planar state psi = (psi0, psi1) of real numbers, kept as floats, with psi0 > |psi1|."""

    psi0: float
    psi1: float

    def __post_init__(self):
        psi0, psi1 = _real(self.psi0), _real(self.psi1)
        if not -psi0 < psi1 < psi0:
            raise StateOutsideDomain(f"need psi0 > |psi1|, got ({self.psi0!r}, {self.psi1!r})")
        vars(self).update(psi0=psi0, psi1=psi1)  # frozen: past the dataclass's __setattr__

    def as_array(self) -> np.ndarray:
        return np.array([self.psi0, self.psi1], dtype=float)


@dataclass(frozen=True)
class Kinematics:
    """Temperature and 2-velocity (theta, u, v) with u^2 - v^2 = 1; floats or lane ndarrays."""

    theta: float
    u: float
    v: float


def theta_u_v(psi0, psi1):
    """(theta, u, v) inside the cone psi0 > |psi1|, for floats or ndarrays."""
    theta = (psi0 * psi0 - psi1 * psi1) ** -0.5
    return theta, theta * psi0, theta * psi1


def kinematics(psi: GodunovState) -> Kinematics:
    """Map a state to (theta, u, v).

    theta = (psi0^2 - psi1^2)^(-1/2), (u, v) = theta * (psi0, psi1),
    so that u^2 - v^2 = 1 holds identically.
    """
    return Kinematics(*theta_u_v(psi.psi0, psi.psi1))


def check_eps(eps):
    """eps through the array gate; EpsilonOutOfRange unless it (or every entry) lies in (0, 1]."""
    x, lo, hi = _reals(eps)
    if not 0.0 < lo <= hi <= 1.0:
        raise EpsilonOutOfRange(f"eps must lie in (0, 1], got {eps!r}")
    return x


def b_visc(kin: Kinematics) -> np.ndarray:
    """Shear-viscosity block of the dissipation matrix."""
    u, v = kin.u, kin.v
    off = -(u**3) * v
    return np.array([[u * u * v * v, off], [off, u**4]])


def b_one(kin: Kinematics) -> np.ndarray:
    """First causality-regulator block."""
    u, v = kin.u, kin.v
    off = -4.0 * u * v * (4.0 * v * v + 1.0)
    return np.array([[16.0 * u * u * v * v, off], [off, (4.0 * v * v + 1.0) ** 2]])


def b_two(kin: Kinematics) -> np.ndarray:
    """Second causality-regulator block."""
    u, v = kin.u, kin.v
    s = u * u + v * v
    off = -2.0 * s * u * v
    return np.array([[s * s, off], [off, 4.0 * u * u * v * v]])


def b_sharp(kin: Kinematics, eps) -> np.ndarray:
    """Sharply-causal dissipation matrix, 2x2 or stacked (2, 2, n) lanes.

    B# = eps * b_visc - b_one - (9 eps / (4 - eps)) * b_two for the
    dissipation parameter eps in (0, 1], a float or one value per lane.
    The gate reads an `mpmath.mpf` eps as a float: sum the blocks for B# in more digits.
    """
    eps = check_eps(eps)
    return eps * b_visc(kin) - b_one(kin) - (9.0 * eps / (4.0 - eps)) * b_two(kin)


def det_b_sharp_closed(v_sq: float, eps: float) -> float:
    """Closed form of det(B#): 9 eps ((8+eps) v^2 + eps - 1) / (eps - 4)."""
    return 9.0 * eps * ((8.0 + eps) * v_sq + eps - 1.0) / (eps - 4.0)


def singular_locus_v_sq(eps: float) -> float:
    """Squared velocity (1-eps)/(8+eps) where det(B#) vanishes."""
    return (1.0 - eps) / (8.0 + eps)


def check_off_locus(v_sq: float, eps: float) -> None:
    """Raise SingularBsharp if v^2 lies on the singular locus to within its rounding.

    det(B#) is proportional to the gap v^2 - s with s = (1-eps)/(8+eps), so it
    carries the rounding of v^2, which psi0^2 - psi1^2 makes about 2^-52
    (u^2 + v^2) = 2^-52 (1 + 2 v^2) relative.  States put on the locus by
    `state_from_v` land within 6.3 such units of it; the check allows 64.
    The band is sized at s, not at v^2: one sized at v^2 outgrows v^2 itself
    once v^2 > ~3.5e13, and would take states far above the locus for it.
    """
    s = singular_locus_v_sq(eps)
    if abs(v_sq - s) <= 64.0 * 2.0**-52 * (1.0 + 2.0 * s) * s:
        raise SingularBsharp(f"v^2 = {v_sq} is on the singular locus at eps = {eps}")


def flux_residual(psi: GodunovState, q0: float, q1: float) -> np.ndarray:
    """Flux residual F(psi, q); its zeros are the rest points.

    F = (-(4/3) theta^4 v u + q0,  theta^4 ((4/3) v^2 + 1/3) - q1)
    """
    q0, q1 = _real(q0), _real(q1)
    theta, u, v = theta_u_v(psi.psi0, psi.psi1)
    t4 = theta**4
    return np.array(
        [
            -(4.0 / 3.0) * t4 * v * u + q0,
            t4 * ((4.0 / 3.0) * v * v + 1.0 / 3.0) - q1,
        ]
    )


def lin_matrix(kin: Kinematics) -> np.ndarray:
    """Scaled linearization matrix A of the profile field, 2x2 or (2, 2, n) lanes.

    The exact Jacobian of the flux residual is (4/3) theta^5 * A, so A
    carries the full sign/discriminant information at any state.
    """
    u, v = kin.u, kin.v
    off = -u * (6.0 * v * v + 1.0)
    return np.array(
        [[v * (6.0 * v * v + 5.0), off], [off, 3.0 * v * (2.0 * v * v + 1.0)]]
    )


def det_lin_closed(v_sq: float) -> float:
    """Closed form of det(A): 2 v^2 - 1."""
    return 2.0 * v_sq - 1.0


def trace_adj(b, a):
    """trace(adj(b) a) of two 2x2 matrices by plain arithmetic, or per lane of (2, 2, n) stacks."""
    return b[1, 1] * a[0, 0] - b[0, 1] * a[1, 0] - b[1, 0] * a[0, 1] + b[0, 0] * a[1, 1]


def trace_adj_closed(v: float, eps: float) -> float:
    """Closed form: (3v/(eps-4)) ((8+eps^2) v^2 + eps^2 - 6 eps - 4)."""
    return (3.0 * v / (eps - 4.0)) * ((8.0 + eps * eps) * v * v + eps * eps - 6.0 * eps - 4.0)


def spectrum_at_v(v: float, eps: float) -> tuple[complex, complex]:
    """`local_spectrum` at velocity v, from the closed forms, without its domain checks."""
    det_b = det_b_sharp_closed(v * v, eps)
    tr = trace_adj_closed(v, eps) / det_b
    det = det_lin_closed(v * v) / det_b
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        # The root of trace's sign, and the other from their product: 0.5 (tr
        # -+ sqrt(disc)) cancels to 0 where |det| << tr^2, as at eps = 1e-12.
        big = 0.5 * (tr + math.copysign(math.sqrt(disc), tr))
        lo, hi = sorted((big, det / big if big != 0.0 else 0.0))
        return complex(lo, 0.0), complex(hi, 0.0)
    s = math.sqrt(-disc)
    return complex(0.5 * tr, -0.5 * s), complex(0.5 * tr, 0.5 * s)


class CausalityClass(str, Enum):
    STRICTLY_CAUSAL = "StrictlyCausal"
    SHARPLY_CAUSAL = "SharplyCausal"
    ACAUSAL = "Acausal"


@dataclass(frozen=True)
class CausalityVerdict:
    """Causality class of (eta, mu, nu); eps = 4 eta / (3 mu) when causal."""

    klass: CausalityClass
    epsilon: float | None = None


def causality_check(eta: float, mu: float, nu: float) -> CausalityVerdict:
    """Classify a transport triple as acausal, strictly or sharply causal.

    Subluminality requires mu >= (4/3) eta and nu <= (1/(3 eta) - 1/(9 mu))^-1;
    equality in the nu bound is the sharply-causal case.  Comparisons use a
    1e-10 relative band so that float-rounded equality inputs land on the
    boundary rather than just outside it.
    """
    given = eta, mu, nu
    eta, mu, nu = map(_real, given)
    if not all(0.0 < x < math.inf for x in (eta, mu, nu)):
        raise NonPositiveParameter(f"eta, mu, nu must be positive and finite, got {given}")
    eps = 4.0 * eta / (3.0 * mu)
    if eps > 1.0 + CAUSALITY_RTOL:
        return CausalityVerdict(CausalityClass.ACAUSAL)
    eps = min(eps, 1.0)
    bound = 1.0 / (1.0 / (3.0 * eta) - 1.0 / (9.0 * mu))
    if abs(nu - bound) <= CAUSALITY_RTOL * bound:
        return CausalityVerdict(CausalityClass.SHARPLY_CAUSAL, eps)
    if nu > bound:
        return CausalityVerdict(CausalityClass.ACAUSAL)
    return CausalityVerdict(CausalityClass.STRICTLY_CAUSAL, eps)
