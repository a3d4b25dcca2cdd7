"""Node/focus classification of the downstream rest point over (eps, q_tilde).

The attractor type is decided by the sign of a cubic polynomial P(z, eps)
evaluated at z = v_plus^2: negative means complex eigenvalues (focus),
positive means real ones (node).  The zero set of that sign, pulled back
through the downstream-velocity map, consists of two separatrix curves
q1(eps) and q2(eps) that split the parameter square into a focus band
between them and node regions below and above.  `_labels` labels a whole
grid of eps against q_tilde in one array pass, on the separatrices of
`_separatrix_rows` (the scan's route); `classify` runs the same body at one
point.  `local_spectrum` gates eps, then its body
`_spectrum` checks that the state is off the singular locus and reads the
eigenvalues off `model.spectrum_at_v`.  Entry points gate once, then run
bodies (`_roots`, `_separatrices`, `_labels`, `_spectrum`, and P's, which take
any number type: `_coefficients`, `_discriminant`, `_horner`), so the exact
proofs of P run the shipped arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .equilibria import _rest_v_sq, check_omega, q_of_vplus
from .errors import (
    EpsilonAboveHat, EpsilonOutOfRange, InternalInconsistency, RootFindingFailure, ZOutOfRange,
    _real, _reals,
)
from .model import GodunovState, check_off_locus, spectrum_at_v, theta_u_v

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


def _scalar_eps(eps) -> float:
    """One eps as a float; EpsilonOutOfRange outside (0, 1], an array included."""
    e = _real(eps)
    if not 0.0 < e <= 1.0:
        raise EpsilonOutOfRange(f"eps must lie in (0, 1], got {eps!r}")
    return e


def _closed_eps(eps):
    x, lo, hi = _reals(eps)
    if not 0.0 <= lo <= hi <= 1.0:
        raise EpsilonOutOfRange(f"eps must lie in [0, 1], got {eps!r}")
    return x


def _coefficients(eps):
    """(a0, a1, a2, a3) of P(., eps) by arithmetic alone, for any number type or array."""
    a0 = eps * ((4.0 * eps - 20.0) * eps + 16.0)
    a1 = (((eps - 16.0) * eps + 84.0) * eps - 112.0) * eps + 16.0
    a2 = (((2.0 * eps - 20.0) * eps - 24.0) * eps + 160.0) * eps - 64.0
    a3 = (eps * eps + 16.0) * eps * eps + 64.0
    return a0, a1, a2, a3


def _horner(coeffs, z):
    """((a3 z + a2) z + a1) z + a0, the one nested form of P; on |coeffs| and |z|, its term scale."""
    a0, a1, a2, a3 = coeffs
    return ((a3 * z + a2) * z + a1) * z + a0


def p_coefficients(eps: float) -> tuple[float, float, float, float]:
    """Coefficients (a0, a1, a2, a3) of P(z, eps) = a3 z^3 + ... + a0; eps may be an array."""
    return _coefficients(_closed_eps(eps))


def p_eval(z, eps: float):
    """P(z, eps) by nested multiplication; z and eps may be numbers or arrays."""
    x, lo, hi = _reals(z)
    if not -math.inf <= lo <= hi <= math.inf:  # NaN fails too
        raise ZOutOfRange(f"z must be a real number, got {z!r}")
    return _horner(p_coefficients(eps), x)


def epsilon_hat() -> float:
    """Critical dissipation value, (2/3)(3 sqrt(6) - 2 sqrt(16 - 6 sqrt(6)) - 4)."""
    return _EPS_HAT


def discriminant_tail(eps: float) -> float:
    """Quintic factor of the cubic discriminant; positive on (0, 1)."""
    return ((((-4.0 * eps + 179.0) * eps - 844.0) * eps + 880.0) * eps - 32.0) * eps + 64.0


def _discriminant(eps):
    """Discriminant of P(., eps) by arithmetic alone, for any number type or array."""
    return 1296.0 * eps**5 * (4.0 - eps) ** 3 * discriminant_tail(eps)


def _lowest_root(coeffs: tuple[float, float, float, float]) -> float:
    """The isolated lowest root w1 of P(., eps): trigonometric form, then Newton."""
    a0, a1, a2, a3 = coeffs
    # Monic reduction z^3 + b z^2 + c z + d, depressed with z = t - b/3.
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b**3 / 27.0
    # p < 0 throughout (0, 1]: it rises to -1/12 only in the limit eps -> 0,
    # so the trigonometric form always applies.
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
    # Of the angles (acos(arg) - 2 pi k) / 3, k = 2 gives the smallest root.
    w = m * math.cos((math.acos(arg) - 4.0 * math.pi) / 3.0) - b / 3.0
    for _ in range(8):
        dpw = (3.0 * a3 * w + 2.0 * a2) * w + a1
        if dpw == 0.0:
            break
        w_next = w - _horner(coeffs, w) / dpw
        if w_next == w:
            break
        w = w_next
    return w


def cubic_roots(eps: float) -> CubicRoots:
    """Three real roots of P(., eps), sorted ascending (see `_roots`)."""
    return _roots(_scalar_eps(eps))


def _roots(eps: float) -> CubicRoots:
    """`cubic_roots` at a gated eps.

    w1, well apart from the other two, comes from the trigonometric form and
    Newton polishing.  The upper pair, which collides like eps^(5/2) as
    eps -> 0, comes from exact invariants: its midpoint from the root sum
    -a2/a3 - w1, its half-gap from the factored discriminant
    disc = a3^4 (w3-w2)^2 (w3-w1)^2 (w2-w1)^2 together with
    a3 (w3-w1)(w2-w1) = P'(w1).  Neither involves a cancellation, so both
    roots keep full precision at every eps in (0, 1].
    """
    coeffs = _coefficients(eps)
    _, a1, a2, a3 = coeffs
    w1 = _lowest_root(coeffs)
    mid = 0.5 * (-a2 / a3 - w1)
    dp1 = (3.0 * a3 * w1 + 2.0 * a2) * w1 + a1
    half = math.sqrt(max(_discriminant(eps), 0.0)) / (2.0 * a3 * abs(dp1))
    w2, w3 = mid - half, mid + half
    if not w1 < w2 < w3:
        raise RootFindingFailure(f"root ordering lost at eps={eps}: {w1}, {w2}, {w3}")
    tol = 1e-10 * max(1.0, abs(a3))
    for w in (w1, w2, w3):
        res = _horner(coeffs, w)
        if abs(res) > tol:
            raise RootFindingFailure(f"|P({w}, {eps})| = {abs(res)} above {tol}")
    return CubicRoots(w1=w1, w2=w2, w3=w3, eps=eps)


def separatrix_q1(eps: float) -> float:
    """Lower separatrix q1(eps) = q_of_vplus(w3(eps)), defined on (0, 1]."""
    return q_of_vplus(_roots(_scalar_eps(eps)).w3)


def separatrix_q2(eps: float) -> float:
    """Upper separatrix q2(eps) = q_of_vplus(w2(eps)), defined on (0, eps_hat)."""
    q2 = _separatrices(_scalar_eps(eps))[1]
    if q2 == math.inf:
        raise EpsilonAboveHat(f"upper separatrix undefined for eps = {eps} >= {_EPS_HAT}")
    return q2


# Region label of each code that `_labels` assigns.
CODE_LABELS = (
    RegionLabel.SEPARATRIX_1,
    RegionLabel.SEPARATRIX_2,
    RegionLabel.NODE_BELOW,
    RegionLabel.NODE_ABOVE,
    RegionLabel.FOCUS,
)


def _separatrices(eps: float) -> tuple[float, float]:
    """q1 and q2 at a gated eps from one cubic solve, with q2 = inf where it is undefined.

    `q_of_vplus`'s range check on the roots is the solver's post-condition.
    """
    roots = _roots(eps)
    return q_of_vplus(roots.w3), q_of_vplus(roots.w2) if eps < _EPS_HAT else math.inf


def _separatrix_rows(e) -> np.ndarray:
    """q1 and q2 at each gated eps of an array, one cubic solve each, as rows of a (2, n) array."""
    return np.array([_separatrices(x) for x in np.ravel(e).tolist()]).T


def _labels(e, q, q1, q2):
    """Region codes (see `CODE_LABELS`), v_plus^2 and P(v_plus^2, eps) at gated eps and q_tilde.

    `e` and `q` are floats or arrays that broadcast, such as the scan's eps
    column against its q_tilde row, with q1 and q2 at `e` (q2 = inf at eps >=
    eps_hat).  Off the bands each label is cross-checked against the sign of
    P, and a disagreement raises InternalInconsistency.
    """
    code = np.where(q < q1, 2, np.where(q > q2, 3, 4))
    code[np.abs(q - q2) <= SEPARATRIX_BAND] = 1
    code[np.abs(q - q1) <= SEPARATRIX_BAND] = 0
    z = _rest_v_sq(q)[1]
    coeffs = _coefficients(e)
    pval = _horner(coeffs, z)
    decided = np.abs(pval) > 1e-10 * np.maximum(1.0, _horner([abs(a) for a in coeffs], abs(z)))
    wrong = decided & (code >= 2) & ((pval < 0.0) != (code == 4))
    if wrong.any():
        i = np.unravel_index(np.argmax(wrong), wrong.shape)
        z_i, e_i, p_i = (np.broadcast_to(x, wrong.shape)[i] for x in (z, e, pval))
        raise InternalInconsistency(
            f"separatrix route says {CODE_LABELS[code[i]].value} but P({z_i}, {e_i}) = {p_i}"
        )
    return code, z, pval


def classify(eps: float, q_tilde: float) -> RegionLabel:
    """Region label of (eps, q_tilde) in the parameter square.

    Computes both characterizations (sign of P at v_plus^2 and position
    relative to the separatrix curves) and raises InternalInconsistency if
    they disagree outside the tie band.
    """
    eps, q_tilde = check_omega(eps, q_tilde)
    return CODE_LABELS[_labels(eps, q_tilde, *_separatrices(eps))[0]]


def local_spectrum(psi: GodunovState, eps: float) -> tuple[complex, complex]:
    """Eigenvalues of B#(psi, eps)^-1 A(psi) via the 2x2 trace/det formulas.

    The pair is sorted by (real, imag).  Signs and the real/complex split
    match the true profile linearization at rest points, which differs from
    this matrix only by the positive factor (4/3) theta^5.
    """
    return _spectrum(psi, _scalar_eps(eps))


def _spectrum(psi: GodunovState, eps: float) -> tuple[complex, complex]:
    """`local_spectrum` at a gated eps."""
    _, _, v = theta_u_v(psi.psi0, psi.psi1)
    check_off_locus(v * v, eps)
    return spectrum_at_v(v, eps)

