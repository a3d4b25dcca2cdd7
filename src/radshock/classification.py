"""Node/focus classification of the downstream rest point over (eps, q_tilde).

The attractor type is decided by the sign of a cubic polynomial P(z, eps)
evaluated at z = v_plus^2: negative means complex eigenvalues (focus),
positive means real ones (node).  The zero set of that sign, pulled back
through the downstream-velocity map, consists of two separatrix curves
q1(eps) and q2(eps) that split the parameter square into a focus band
between them and node regions below and above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .equilibria import check_omega, q_of_vplus, v_plus_squared
from .errors import (
    EpsilonAboveHat,
    EpsilonOutOfRange,
    InternalInconsistency,
    RootFindingFailure,
)
from .model import (
    GodunovState,
    check_eps,
    check_off_locus,
    det_b_sharp_closed,
    det_lin_closed,
    theta_u_v,
    trace_adj_closed,
)

# Points closer than this (in q_tilde) to a separatrix get the curve label;
# strict sign classification inside the band is floating-point noise.
SEPARATRIX_BAND = 1e-10

# Critical dissipation value: the middle root crosses 1/8 here and the upper
# separatrix reaches the infinite-amplitude boundary q_tilde = 1.
_SQRT6 = math.sqrt(6.0)
_EPS_HAT = (2.0 / 3.0) * (3.0 * _SQRT6 - 2.0 * math.sqrt(16.0 - 6.0 * _SQRT6) - 4.0)


class RegionLabel(str, Enum):
    NODE_BELOW = "NodeBelow"
    FOCUS = "Focus"
    NODE_ABOVE = "NodeAbove"
    SEPARATRIX_1 = "Separatrix1"
    SEPARATRIX_2 = "Separatrix2"


@dataclass(frozen=True)
class CubicRoots:
    """Sorted real roots w1 < w2 < w3 of P(., eps) for eps in (0, 1]."""

    w1: float
    w2: float
    w3: float
    eps: float


def p_coefficients(eps: float) -> tuple[float, float, float, float]:
    """Coefficients (a0, a1, a2, a3) of P(z, eps) = a3 z^3 + ... + a0."""
    if not 0.0 <= eps <= 1.0:
        raise EpsilonOutOfRange(f"eps must lie in [0, 1], got {eps}")
    a0 = eps * ((4.0 * eps - 20.0) * eps + 16.0)
    a1 = (((eps - 16.0) * eps + 84.0) * eps - 112.0) * eps + 16.0
    a2 = (((2.0 * eps - 20.0) * eps - 24.0) * eps + 160.0) * eps - 64.0
    a3 = (eps * eps + 16.0) * eps * eps + 64.0
    return a0, a1, a2, a3


def p_eval(z, eps: float):
    """P(z, eps) by nested multiplication; z may be a float or an ndarray."""
    a0, a1, a2, a3 = p_coefficients(eps)
    return ((a3 * z + a2) * z + a1) * z + a0


def _p_scale(z, eps: float):
    """Magnitude of the terms entering P(z, eps); conditioning reference."""
    a0, a1, a2, a3 = p_coefficients(eps)
    az = abs(z)
    return ((abs(a3) * az + abs(a2)) * az + abs(a1)) * az + abs(a0)


def epsilon_hat() -> float:
    """Critical dissipation value, (2/3)(3 sqrt(6) - 2 sqrt(16 - 6 sqrt(6)) - 4)."""
    return _EPS_HAT


def discriminant_tail(eps: float) -> float:
    """Quintic factor of the cubic discriminant; positive on (0, 1)."""
    return ((((-4.0 * eps + 179.0) * eps - 844.0) * eps + 880.0) * eps - 32.0) * eps + 64.0


def cubic_discriminant(eps: float) -> float:
    """Discriminant of P(., eps) in factored form, 1296 eps^5 (4-eps)^3 * tail."""
    return 1296.0 * eps**5 * (4.0 - eps) ** 3 * discriminant_tail(eps)


def _newton_polish(w: float, coeffs: tuple[float, float, float, float]) -> float:
    a0, a1, a2, a3 = coeffs
    for _ in range(8):
        pw = ((a3 * w + a2) * w + a1) * w + a0
        dpw = (3.0 * a3 * w + 2.0 * a2) * w + a1
        if dpw == 0.0:
            break
        step = pw / dpw
        w_next = w - step
        if w_next == w:
            break
        w = w_next
    return w


def _lowest_root(coeffs: tuple[float, float, float, float]) -> float:
    """The isolated lowest root w1 of P(., eps): trigonometric form, then Newton."""
    a0, a1, a2, a3 = coeffs
    # Monic reduction z^3 + b z^2 + c z + d, depressed with z = t - b/3.
    b = a2 / a3
    c = a1 / a3
    d = a0 / a3
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b**3 / 27.0
    # p < 0 throughout (0, 1]: it rises to -1/12 only in the limit eps -> 0,
    # so the trigonometric form always applies.
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    # Of the angles (acos(arg) - 2 pi k) / 3, k = 2 gives the smallest root.
    t = m * math.cos((math.acos(arg) - 4.0 * math.pi) / 3.0)
    return _newton_polish(t - b / 3.0, coeffs)


def cubic_roots(eps: float) -> CubicRoots:
    """Three real roots of P(., eps), sorted ascending.

    w1, well apart from the other two, comes from the trigonometric form and
    Newton polishing.  The upper pair, which collides like eps^(5/2) as
    eps -> 0, comes from exact invariants: its midpoint from the root sum
    -a2/a3 - w1, its half-gap from the factored discriminant
    disc = a3^4 (w3-w2)^2 (w3-w1)^2 (w2-w1)^2 together with
    a3 (w3-w1)(w2-w1) = P'(w1).  Neither involves a cancellation, so both
    roots keep full precision at every eps in (0, 1].
    """
    check_eps(eps)
    coeffs = p_coefficients(eps)
    a0, a1, a2, a3 = coeffs
    w1 = _lowest_root(coeffs)
    mid = 0.5 * (-a2 / a3 - w1)
    dp1 = (3.0 * a3 * w1 + 2.0 * a2) * w1 + a1
    half = math.sqrt(max(cubic_discriminant(eps), 0.0)) / (2.0 * a3 * abs(dp1))
    w2, w3 = mid - half, mid + half
    if not w1 < w2 < w3:
        raise RootFindingFailure(f"root ordering lost at eps={eps}: {w1}, {w2}, {w3}")
    tol = 1e-10 * max(1.0, abs(a3))
    for w in (w1, w2, w3):
        res = ((a3 * w + a2) * w + a1) * w + a0
        if abs(res) > tol:
            raise RootFindingFailure(f"|P({w}, {eps})| = {abs(res)} above {tol}")
    return CubicRoots(w1=w1, w2=w2, w3=w3, eps=eps)


def separatrix_q1(eps: float) -> float:
    """Lower separatrix q1(eps) = q_of_vplus(w3(eps)), defined on (0, 1]."""
    return q_of_vplus(cubic_roots(eps).w3)


def separatrix_q2(eps: float) -> float:
    """Upper separatrix q2(eps) = q_of_vplus(w2(eps)), defined on (0, eps_hat)."""
    check_eps(eps)
    if eps >= _EPS_HAT:
        raise EpsilonAboveHat(
            f"upper separatrix undefined for eps = {eps} >= {_EPS_HAT}"
        )
    return q_of_vplus(cubic_roots(eps).w2)


# Region label of each code that `classify_row` assigns.
_ROW_LABELS = (
    RegionLabel.SEPARATRIX_1,
    RegionLabel.SEPARATRIX_2,
    RegionLabel.NODE_BELOW,
    RegionLabel.NODE_ABOVE,
    RegionLabel.FOCUS,
)


def classify_row(eps: float, q_tilde: np.ndarray) -> tuple[list[RegionLabel], np.ndarray]:
    """Region labels and P(v_plus^2, eps) for a vector of q_tilde at one eps.

    Labels place each q_tilde relative to the separatrix curves of one cubic
    solve, with q2 only where `separatrix_q2` defines it, eps < eps_hat; off
    the bands each is cross-checked against the sign of P and a
    disagreement raises InternalInconsistency.  Inputs must lie in the square.
    """
    q = np.asarray(q_tilde, dtype=float)
    roots = cubic_roots(eps)
    q1 = q_of_vplus(roots.w3)
    q2 = q_of_vplus(roots.w2) if eps < _EPS_HAT else math.inf
    code = np.where(q < q1, 2, np.where(q > q2, 3, 4))
    code[np.abs(q - q2) <= SEPARATRIX_BAND] = 1
    code[np.abs(q - q1) <= SEPARATRIX_BAND] = 0
    z = v_plus_squared(q)
    pval = p_eval(z, eps)
    decided = np.abs(pval) > 1e-10 * np.maximum(1.0, _p_scale(z, eps))
    wrong = decided & (code >= 2) & ((pval < 0.0) != (code == 4))
    if wrong.any():
        i = int(np.argmax(wrong))
        raise InternalInconsistency(
            f"separatrix route says {_ROW_LABELS[code[i]].value} "
            f"but P({z[i]}, {eps}) = {pval[i]}"
        )
    return [_ROW_LABELS[c] for c in code.tolist()], pval


def classify(eps: float, q_tilde: float) -> RegionLabel:
    """Region label of (eps, q_tilde) in the parameter square.

    Computes both characterizations (sign of P at v_plus^2 and position
    relative to the separatrix curves) and raises InternalInconsistency if
    they disagree outside the tie band.
    """
    check_omega(eps, q_tilde)
    return classify_row(eps, [q_tilde])[0][0]


def local_spectrum(psi: GodunovState, eps: float) -> tuple[complex, complex]:
    """Eigenvalues of B#(psi, eps)^-1 A(psi) via the 2x2 trace/det formulas.

    The pair is sorted by (real, imag).  Signs and the real/complex split
    match the true profile linearization at rest points, which differs from
    this matrix only by the positive factor (4/3) theta^5.
    """
    check_eps(eps)
    _, _, v = theta_u_v(psi.psi0, psi.psi1)
    check_off_locus(v * v, eps)
    det_b = det_b_sharp_closed(v * v, eps)
    tr = trace_adj_closed(v, eps) / det_b
    det = det_lin_closed(v * v) / det_b
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        lo, hi = 0.5 * (tr - s), 0.5 * (tr + s)
        return complex(lo, 0.0), complex(hi, 0.0)
    s = math.sqrt(-disc)
    return complex(0.5 * tr, -0.5 * s), complex(0.5 * tr, 0.5 * s)
