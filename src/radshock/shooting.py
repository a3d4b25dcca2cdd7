"""Heteroclinic shooting for the profile field B#(psi, eps) psi' = F(psi, q).

A shot starts on the unstable manifold of the upstream saddle, from its
second-order parameterization, and integrates with LSODA, which switches
between Adams and BDF formulas as the field turns stiff (eps -> 0).  A shot
is taken in the null coordinates a = psi0 + psi1, b = psi0 - psi1, in which
ab = theta^-2 does not cancel at the strong-shock edge: the rest points
(`_null`), the saddle, the start and the steps; the samples are read back in
psi once, at the end.  `_setup` solves the rest points once per shot and
builds the field on their v^2, one closure made by `_field`, the only place
the package applies B#, whose body tests/test_exact_algebra.py proves exact on
rational functions; its Jacobian and the start's tangent and curvature come
from complex steps through it.  The field has no route in psi:
`unstable_direction` takes the saddle's eigenvector back to psi through
T^-1, T = [[1, 1], [1, -1]], as a shot does its samples.  A shot is
stepped in two parts.  The stepper, `_lsoda_steps`, calls ODEPACK's LSODA
runner, which `_lsoda` loads from scipy's compiled module, one step at a
time and yields each accepted step.
The verdict loop, `_integrate`, reads any such steps, LSODA's or another
integrator's, and stops when the orbit is captured at the downstream rest
point (its last sample put where the step's chord meets the capture sphere),
escapes, crosses the singular locus of the dissipation matrix, or exhausts
the step or pseudo-time budget, or when the steps run out.
`oscillation_report` counts the extrema and sign changes of the samples'
coordinate series around their limits.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .equilibria import EquilibriumPair, _pair, check_omega
from .errors import NotASaddle, OptionOutOfRange, StateOutsideDomain, TooFewSamples, _real, _reals
from .model import (
    GodunovState, det_b_sharp_closed, singular_locus_v_sq, spectrum_at_v, theta_u_v
)

# A shot starts this far out on the saddle's unstable manifold, in the
# parameter sigma of its second-order parameterization (see `_start`),
# relative to |psi_minus - psi_plus|.  A numerical choice, not a parameter of
# the physics.  At interior points the start lies 1e-12 to 1e-9 of that size
# off the manifold, where a linear start this far out would lie 1e-10 to
# 1.4e-7 off, and its departure from psi_minus is far above what LSODA's
# error test, relative to |y|, can miss at loose tolerances.  Added to
# psi_minus in null coordinates it rounds by at most 6e-11 of itself on a
# sweep of the square from eps = 1e-12 and q_tilde = 3/4 + 1e-8 to 1 - 1e-15.
_OFFSET = 3e-3

# Imaginary step of the complex-step Jacobian (Squire & Trapp, SIAM Rev. 40,
# 1998): Im f(y + ih e_k) / h has no subtractive cancellation, so any h far
# below the state's rounding gives the derivative to rounding.
_COMPLEX_STEP = 1e-30

# Integration stops (verdict Escaped) if the state comes this close to the
# boundary of the admissible cone psi0 > |psi1|.
_BOUNDARY_MARGIN = 1e-9

# The smallest relative tolerance handed to LSODA, scipy's floor for its solvers.
_MIN_REL_TOL = 100 * 2.0**-52

# A shot ends ConvergedToPlus inside this radius around psi_plus and
# Escaped beyond this one, both relative to |psi_minus - psi_plus|.
_CAPTURE_RADIUS = 1e-8
_ESCAPE_RADIUS = 1e2

# The pseudo-time budget, LSODA's tout and tcrit; a unit is one of B#^-1 F's
# at psi_plus, m(v+)/m(v) of one elsewhere (see `_field`).  tout also enters
# ODEPACK's first-step formula, so any other value changes every shot's
# samples ((1e-4, 0.8) takes 341 at 1e5, 344 at 1e6 and 337 at 1e7).  No
# default-tolerance shot of the benchmark or 20x20 scan nears it: the longest,
# (1, 3/4 + 1e-6), ends at 1.7e4; (1, 1 - 1e-6), at 9.9e5 in B#^-1 F's, at 7.4.
_MAX_PSEUDO_TIME = 1e6

# A shot ends Stalled after this many accepted steps, which bounds the work
# of one that does not resolve.  At the default tolerances the most taken on
# the 20x20 scan or the benchmark is 983, at the corner (1e-6, 1 - 1e-6).
_MAX_STEPS = 10_000

# scipy's OpenBLAS, which scipy.integrate._odepack links, starts a worker
# thread as it loads, and an idle worker spins for 2^28 TSC ticks (about
# 0.13 s at 2 GHz) before it sleeps.  Loaded by a shot, that spin overlapped
# the shots that followed and, on 2 cores, made them up to twice as slow.
# At 2^20 ticks (about 0.5 ms) it ends before the next shot starts.  OpenBLAS
# reads this only while it loads, and a value already set is kept.
_OPENBLAS_THREAD_TIMEOUT = "20"


@functools.cache
def _lsoda():
    """ODEPACK's LSODA runner, `lsoda` of scipy's compiled module scipy.integrate._odepack.

    Loaded once per process from the file that `PathFinder` finds in
    scipy's integrate directory, without running that package's __init__:
    `scipy.integrate` would import some 600 modules, `scipy.optimize` among
    them, in about 0.5 s, for the one function a shot calls.  `find_spec` of the
    top-level package imports nothing, not even scipy.
    """
    full = "scipy.integrate._odepack"
    scipy = importlib.util.find_spec("scipy")
    roots = (scipy and scipy.submodule_search_locations) or ()
    try:
        spec = importlib.machinery.PathFinder.find_spec(
            full, [os.path.join(root, "integrate") for root in roots]
        )
        if spec is None:
            raise ModuleNotFoundError(f"no compiled module {full}", name=full)
        unset = "OPENBLAS_THREAD_TIMEOUT" not in os.environ
        os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _OPENBLAS_THREAD_TIMEOUT)
        try:
            ext = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(ext)
        finally:
            if unset:
                del os.environ["OPENBLAS_THREAD_TIMEOUT"]
        return ext.lsoda
    except (ImportError, AttributeError) as exc:
        raise ImportError(
            f"a shot calls lsoda of scipy's compiled module {full} (scipy>=1.17), "
            f"which could not be loaded: {exc}",
            name=full,
        ) from exc


@dataclass(frozen=True)
class ShootOptions:
    """LSODA's tolerances for a shot.

    They bound the local error of each null component a = psi0 + psi1 and
    b = psi0 - psi1 that LSODA steps, each weighted by rel_tol |a| + abs_tol
    and rel_tol |b| + abs_tol.  `rel_tol` must lie in (0, 1), since a
    relative tolerance of 1 or more asks for no accuracy, and `abs_tol` in
    (0, inf); both are kept as floats.  Anything else, NaN included, raises
    OptionOutOfRange.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name, hi in (("rel_tol", 1.0), ("abs_tol", math.inf)):
            if not 0.0 < (val := _real(getattr(self, name))) < hi:
                raise OptionOutOfRange(f"{name} must lie in (0, {hi}), got {getattr(self, name)!r}")
            object.__setattr__(self, name, val)


class ProfileVerdict(str, Enum):
    CONVERGED_TO_PLUS = "ConvergedToPlus"
    ESCAPED = "Escaped"
    STALLED = "Stalled"
    HIT_SINGULAR_LOCUS = "HitSingularLocus"


# The series an oscillation report counts, in the order it stacks them, and
# each coordinate system's two components among them, in its counts' order.
SERIES = ("psi0", "psi1", "theta", "u", "v")
SYSTEMS = {"psi": SERIES[:2], "theta_v": SERIES[2::2], "u_v": SERIES[3:]}


@dataclass(frozen=True)
class ComponentCounts:
    """Strict local extrema and sign changes of (component - its limit)."""

    extrema: int
    sign_changes: int


@dataclass(frozen=True)
class OscillationReport:
    """Per-coordinate-system oscillation counts along a trajectory.

    `systems` maps each coordinate system of `SYSTEMS` to the counts of its
    two components, in that order; it is empty for a shot of fewer than 3
    samples.  The flags are read off the counts.
    """

    systems: dict[str, tuple[ComponentCounts, ComponentCounts]]

    @property
    def oscillatory_by_system(self) -> dict[str, bool]:
        """Per system: does any component change sign at least twice around its limit?"""
        return {
            name: any(c.sign_changes >= 2 for c in counts) for name, counts in self.systems.items()
        }

    @property
    def oscillatory(self) -> bool:
        return any(self.oscillatory_by_system.values())


@dataclass
class ProfileResult:
    times: np.ndarray
    states: np.ndarray
    verdict: ProfileVerdict
    oscillation: OscillationReport
    psi_minus: GodunovState
    psi_plus: GodunovState
    eps: float
    q_tilde: float

    def kinematics_array(self) -> np.ndarray:
        """Columns (theta, u, v) for every sample."""
        return np.column_stack(theta_u_v(self.states[:, 0], self.states[:, 1]))


def profile_to_csv(result: ProfileResult) -> str:
    """The trajectory as CSV, one row per sample, 17 significant digits."""
    rows = np.column_stack((result.times, result.states, result.kinematics_array()))
    lines = ["pseudo_time,psi0,psi1,theta,u,v"]
    lines.extend(",".join(format(x, ".17g") for x in row) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def _field(eps: float, q_tilde: float, vp2: float, vm2: float):
    """The profile field adj(B#) F / det B#(psi_plus) at fixed (eps, q_tilde) in null coordinates.

    Returns `field(a, b) -> (a', b')` with a = psi0 + psi1 and b = psi0 - psi1,
    the coordinates a shot steps: ab = theta^-2 without the cancellation of
    psi0^2 - psi1^2, and the cone psi0 > |psi1| is a > 0 < b.  det B# =
    9 eps m(v) / (eps - 4), m(v) = (8 + eps) v^2 + eps - 1, so this is B#^-1 F
    in a time rescaled by m(v) / m(v+), 1 at psi_plus: the same orbits,
    oriented alike above the singular locus m = 0, and regular across it
    (Szmolyan & Wechselberger, JDE 177, 2001).  The hot path of every shot,
    called with Python floats or complex numbers.  B# = eps u^2 x x^T - w w^T
    - c2 y y^T with x = (v, -u), w = (4uv, -r), y = (g, -2uv), r = 4v^2 + 1 and
    g = 2v^2 + 1, so adj(B#) F = alpha (u, v) - phi (r, 4uv) - beta (2uv, g),
    with three projections of F (q1 = 1, q0 = q_tilde^(-1/2)) simplified by
    u^2 - v^2 = 1.  Its psi components f0, f1 give (a', b') = (f0 + f1,
    f0 - f1), formed with p = u + v and m = u - v as alpha p - (2p^2 - 1) phi
    - p^2 beta and alpha m - (2m^2 - 1) phi + m^2 beta, again by u^2 - v^2 = 1:
    f0 - f1 itself cancels like u^2 at the strong-shock edge, where b is small.
    theta cancels from phi, which is O(eps) on the slow manifold, so for v > 0
    it is factored through the rest points' v^2, `vp2` and `vm2`, as solved by
    the caller.  Where ab is not a finite number above 1e-300 (outside the
    cone, or overflowed to inf or NaN), or the field itself is not finite (its
    terms overflow), the field is (1e300, 1e300): LSODA's error test rejects
    such a trial step, where a NaN, false in every comparison, would pass it.
    """
    q0, c2 = q_tilde**-0.5, 9.0 * eps / (4.0 - eps)
    k = 16.0 * (1.0 - q_tilde) / q_tilde
    inv = 1.0 / det_b_sharp_closed(vp2, eps)
    inf = math.inf

    def field(a, b):
        s = a * b
        if not 1e-300 <= s.real < inf:
            return 1e300, 1e300
        theta = s ** -0.5
        # u + v = theta a and u - v = theta b.
        p, m = theta * a, theta * b
        u, v = 0.5 * (p + m), 0.5 * (p - m)
        v2, uv, t2 = v * v, u * v, theta * theta
        r, g, t4 = 4.0 * v2 + 1.0, 2.0 * v2 + 1.0, t2 * t2
        if v.real > 0.0:
            # phi = 16 ((1 - q_tilde)/q_tilde) (v^2 - v+^2)(v^2 - v-^2) / (r q0 + 4uv).
            phi = k * (v2 - vp2) * (v2 - vm2) / (r * q0 + 4.0 * uv)
        else:
            phi = r * q0 - 4.0 * uv
        alpha = eps * u * u * (u * q0 - v * (1.0 + t4))
        beta = c2 * (2.0 * uv * q0 - g + t4 * (1.0 - 2.0 * v2) / 3.0)
        p2, m2 = p * p, m * m
        da = (alpha * p - (2.0 * p2 - 1.0) * phi - p2 * beta) * inv
        db = (alpha * m - (2.0 * m2 - 1.0) * phi + m2 * beta) * inv
        # False for an inf or a NaN in either part: the terms overflow where
        # one of a, b is far below the other at a small ab.
        if (da + db) * 0.0 == 0.0:
            return da, db
        return 1e300, 1e300

    return field


def _field_jacobian(field, y0: float, y1: float) -> list[list[float]]:
    h = _COMPLEX_STEP
    a0, a1 = field(complex(y0, h), y1)
    b0, b1 = field(y0, complex(y1, h))
    return [[a0.imag / h, b0.imag / h], [a1.imag / h, b1.imag / h]]


def unstable_direction(eps: float, q_tilde: float) -> np.ndarray:
    """Unit eigenvector in psi of the saddle's positive eigenvalue, aimed downstream.

    The sign is fixed so the vector points toward the attractor side, which
    makes the kinematic velocity decrease along it.
    """
    eps, _, pair, field, minus, plus = _setup(eps, q_tilde)
    _, _, (e0, e1) = _saddle(field, eps, pair, minus, plus)
    # T^-1 e with T = [[1, 1], [1, -1]], but for the factor 1/2 the unit vector drops.
    vec = np.array([e0 + e1, e0 - e1])
    return vec / math.hypot(*vec)


def _setup(eps: float, q_tilde: float):
    """A shot's gated inputs, rest points (solved once), field, and rest points in (a, b)."""
    eps, q_tilde = check_omega(eps, q_tilde)
    pair = _pair(q_tilde)
    field = _field(eps, q_tilde, pair.v_plus_sq, pair.v_minus_sq)
    return eps, q_tilde, pair, field, _null(pair.v_minus_sq), _null(pair.v_plus_sq)


def _null(v_sq: float) -> tuple[float, float]:
    """`psi_from_v`'s state at v^2 = `v_sq` in null coordinates (a, b) = (psi0 + psi1, psi0 - psi1).

    ((4v^2 + 1)/3)^(1/4) (p, 1/p) with p = sqrt(1 + v^2) + v: b = psi0 - psi1
    without the cancellation of the difference as v grows.
    """
    p = math.sqrt(1.0 + v_sq) + math.sqrt(v_sq)
    pref = ((4.0 * v_sq + 1.0) / 3.0) ** 0.25
    return pref * p, pref / p


def _saddle(field, eps: float, pair: EquilibriumPair, minus, plus):
    """(J, lambda, e) at the saddle, in Python floats, for `field` in null coordinates.

    `minus` and `plus` are `pair`'s rest points in them (see `_null`).  J is
    the Jacobian at `minus` by complex step, lambda J's positive eigenvalue in
    closed form, and e its unit eigenvector in (a, b), aimed at `plus`.
    """
    jac = _field_jacobian(field, *minus)
    (j00, j01), (j10, j11) = jac
    # J is local_spectrum's matrix, taken to null coordinates, times (4/3)
    # theta^5 m(v-)/m(v+), as F = 0 here, with theta^4 = 3 / (4 v-^2 + 1);
    # its closed forms do not cancel as q_tilde -> 1, where adj(B#) A's
    # entries grow like v^8.  Its singular-locus check is left out: v_minus^2
    # > 1/2 lies above the locus, which stays at or below 1/8.
    v_sq = pair.v_minus_sq
    lo, hi = spectrum_at_v(math.sqrt(v_sq), eps)
    if not lo.real < 0.0 < hi.real:
        raise NotASaddle(f"eigenvalues {lo}, {hi} at the saddle v^2 = {v_sq}, eps={eps}")
    theta = (3.0 / (4.0 * v_sq + 1.0)) ** 0.25
    lam_pos = (4.0 / 3.0) * theta**5 * hi.real * det_b_sharp_closed(v_sq, eps)
    lam_pos /= det_b_sharp_closed(pair.v_plus_sq, eps)
    # Either row of J - lambda I gives the eigenvector; the longer one rounds less.
    cand_a, cand_b = (j01, lam_pos - j00), (lam_pos - j11, j10)
    norm_a, norm_b = math.hypot(*cand_a), math.hypot(*cand_b)
    (e0, e1), norm = (cand_a, norm_a) if norm_a >= norm_b else (cand_b, norm_b)
    if e0 * (plus[0] - minus[0]) + e1 * (plus[1] - minus[1]) < 0.0:
        norm = -norm
    return jac, lam_pos, (e0 / norm, e1 / norm)


def _start(field, eps: float, pair: EquilibriumPair, minus, plus):
    """(start, shift, scale) in null coordinates: a start, its shift from `minus`, |minus - plus|.

    `minus` and `plus` are as in `_saddle`.  `shoot` reads start and scale;
    shift, unrounded, is there so the tests can measure how minus + shift rounds.

    The start is the saddle's unstable manifold to second order,
    P(sigma) = minus + sigma e + sigma^2 w, at sigma = _OFFSET scale
    (Cabre, Fontich & de la Llave, Indiana Univ. Math. J. 52, 2003).  With
    G the field, J its Jacobian and lambda, e its unstable eigenpair at
    `minus`, invariance of the manifold under the flow, G(P(sigma)) =
    lambda sigma P'(sigma), holds at order sigma^2 for (2 lambda I - J) w =
    D^2G[e, e] / 2, which has a unique solution: 2 lambda is not an eigenvalue
    of J.  D^2G[e, e] is a central difference, at minus +- sigma e / 30, of
    two complex-step derivatives of G along e.  sigma is capped so that the
    shift moves neither component of `minus` by more than a tenth of itself,
    which keeps the start in the cone a, b > 0, and a w that is not finite
    is dropped.
    """
    ((j00, j01), (j10, j11)), lam, (e0, e1) = _saddle(field, eps, pair, minus, plus)
    c0, c1 = minus
    scale = math.hypot(c0 - plus[0], c1 - plus[1])
    # This first cap, sigma |e_i| <= c_i / 10, keeps the difference points
    # well inside the cone.
    sigma = min([_OFFSET * scale] + [0.1 * c / abs(l) for c, l in zip(minus, (e0, e1)) if l])
    h, ih = sigma / 30.0, _COMPLEX_STEP
    fp = field(complex(c0 + h * e0, ih * e0), complex(c1 + h * e1, ih * e1))
    fm = field(complex(c0 - h * e0, ih * e0), complex(c1 - h * e1, ih * e1))
    # r = D^2G[e, e] / 2, then w by Cramer's rule.
    r0, r1 = ((f.imag - g.imag) / (4.0 * h * ih) for f, g in zip(fp, fm))
    d00, d11 = 2.0 * lam - j00, 2.0 * lam - j11
    det = d00 * d11 - j01 * j10
    w0 = w1 = 0.0
    if det != 0.0:
        w0, w1 = (d11 * r0 + j01 * r1) / det, (j10 * r0 + d00 * r1) / det
    if not abs(w0) + abs(w1) < math.inf:
        w0 = w1 = 0.0
    # The cap itself: the shift of each component, sigma l + sigma^2 k,
    # keeps sigma |l| + sigma^2 |k| <= c / 10.
    for c, l, k in zip(minus, (e0, e1), (w0, w1)):
        if l or k:
            sigma = min(sigma, 0.2 * c / (abs(l) + math.sqrt(l * l + 0.4 * c * abs(k))))
    shift = (sigma * (e0 + sigma * w0), sigma * (e1 + sigma * w1))
    return (c0 + shift[0], c1 + shift[1]), shift, scale


def _counts(x: list[float], limit: float) -> ComponentCounts:
    """Extrema and sign changes of one series about `limit`, from its ends and turning points `x`.

    `x` holds the series' first and last values and every value not strictly
    between its neighbours, in order, so its max and min are the series'.
    The noise floor is 1e-10 times the larger of the range and |limit|: the
    integrator's error is relative to the state's size, so a weak shock's
    small range alone would let that noise count.  An extremum counts once a
    reversal's excursion beats the floor (hysteresis), a sign change between
    values of x - limit beyond the floor.  Between two turning points the
    series is strictly monotone, so the inside of a run changes neither count.
    """
    floor = 1e-10 * max(max(x) - min(x), abs(limit))
    extrema, direction, ref = 0, 0, x[0]
    for val in x[1:]:
        if direction * (val - ref) > 0.0:
            ref = val
        elif val > ref + floor:
            extrema, direction, ref = extrema + (direction < 0), 1, val
        elif val < ref - floor:
            extrema, direction, ref = extrema + (direction > 0), -1, val
    above = [val > limit for val in x if abs(val - limit) > floor]
    return ComponentCounts(extrema, sum(a != b for a, b in zip(above, above[1:])))


def oscillation_report(states: np.ndarray, psi_plus: GodunovState) -> OscillationReport:
    """Extrema and sign-change counts of a trajectory in three coordinate systems.

    `states` is an (n, 2) array of real psi samples, n >= 3 (else TooFewSamples),
    each finite and inside the cone psi0 > |psi1| (else StateOutsideDomain).
    Each series of `SERIES` is a row of one array, with its limit at psi_plus;
    `_counts` reads each row's counts off its ends and turning points alone.
    """
    arr, _, top = _reals(states)
    if np.ndim(arr) != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise TooFewSamples(f"need an (n >= 3, 2) real sample array, got shape {np.shape(arr)}")
    psi0, psi1 = arr.T
    if not (top < math.inf and (np.abs(psi1) < psi0).all()):  # NaN fails too
        raise StateOutsideDomain("every sample must be finite with psi0 > |psi1|")
    series = np.vstack((psi0, psi1, *theta_u_v(psi0, psi1)))
    limits = (psi_plus.psi0, psi_plus.psi1, *theta_u_v(psi_plus.psi0, psi_plus.psi1))
    # Each row's ends and turning points: the samples not strictly between their neighbours.
    slope = np.sign(np.diff(series, axis=1))
    turning = np.ones(series.shape, dtype=bool)
    turning[:, 1:-1] = slope[:, :-1] * slope[:, 1:] <= 0.0
    counts = {
        name: _counts(row[keep].tolist(), limit)
        for name, row, keep, limit in zip(SERIES, series, turning, limits)
    }
    return OscillationReport({s: tuple(map(counts.get, names)) for s, names in SYSTEMS.items()})


def _capture_point(t_old: float, y_old: list, t: float, y: list, centre: tuple, r_cap: float):
    """Where the step's chord from (t_old, y_old) to (t, y) meets the capture sphere: (time, state).

    `y_old` lies outside the sphere of radius `r_cap` about `centre`, `y`
    inside.  The chord's parameter is the smaller root s of |a + s d| = r_cap,
    a = y_old - centre and d = y - y_old, taken as c / (sqrt((a.d)^2 - |d|^2 c)
    - a.d) with c = |a|^2 - r_cap^2: entering the ball makes a.d < 0, so the
    denominator does not cancel.  When rounding leaves no root in (0, 1) the
    accepted state is kept.
    """
    a0, a1 = y_old[0] - centre[0], y_old[1] - centre[1]
    d0, d1 = y[0] - y_old[0], y[1] - y_old[1]
    ad = a0 * d0 + a1 * d1
    norm_a = math.hypot(a0, a1)
    c = (norm_a - r_cap) * (norm_a + r_cap)
    disc = ad * ad - (d0 * d0 + d1 * d1) * c
    if not (disc >= 0.0 and 0.0 < (s := c / (math.sqrt(disc) - ad)) < 1.0):
        return t, y
    return t_old + s * (t - t_old), [y_old[0] + s * d0, y_old[1] + s * d1]


def _lsoda_steps(field, y_start: tuple, opts: ShootOptions):
    """LSODA's accepted steps of `field` from `y_start`, each as (t, a, b) in Python floats.

    One step per call of ODEPACK's runner, as scipy's LSODA solver steps it:
    itask 5 never steps past tcrit = `_MAX_PSEUDO_TIME`, so the last step
    lands on it.  The steps end when LSODA gives up (a negative istate).
    """
    # The field's pair goes back through one buffer per shot, stored through
    # a memoryview (cheaper than the array's item stores): handed a tuple,
    # the integrator's callback would build an array from it on every call.
    out = np.empty(2)
    buf = memoryview(out)

    # Python floats: their arithmetic is about twice as fast as numpy scalars'.
    def rhs(_t, y):
        a, b = y.tolist()
        buf[0], buf[1] = field(a, b)
        return out

    def jac(_t, y):
        return _field_jacobian(field, *y.tolist())

    # Like scipy's LSODA solver, raise rel_tol to 100 ulp; below it ODEPACK
    # can reject the input before the first step.  The runner would build
    # these 1-element arrays from floats on every call; a 2-element atol
    # would make LSODA's tolerance per component.
    rtol = np.array([max(opts.rel_tol, _MIN_REL_TOL)])
    atol = np.array([opts.abs_tol])
    step = _lsoda()
    # The work arrays scipy's `lsoda.reset` builds for n = 2 with a full user
    # Jacobian (jt = 1): rwork of 20 + (12 + 4) n doubles, iwork of 20 + n
    # ints with nsteps 500 and the Adams and BDF order limits 12 and 5, and
    # the zeroed 240 doubles and 48 ints the runner keeps between calls.
    rwork, iwork = np.zeros(52), np.zeros(22, dtype=np.int32)
    iwork[5], iwork[7], iwork[8] = 500, 12, 5
    sd, si = np.zeros(240), np.zeros(48, dtype=np.int32)
    t_end = rwork[0] = _MAX_PSEUDO_TIME
    # The runner overwrites its state argument.
    arr, t, istate = np.array(y_start), 0.0, 1
    while True:
        # The 17-argument call of scipy 1.17's `lsoda.run`: (fun, y, t, tout,
        # rtol, atol, itask, istate, rwork, iwork, jac, jt, f_params, tfirst,
        # jac_params, state_doubles, state_ints).  TestStepLoopParity fails on
        # any other layout.  A negative istate is LSODA's failure return.
        arr, t, istate = step(
            rhs, arr, t, t_end, rtol, atol, 5, istate, rwork, iwork, jac, 1, (), 1, (), sd, si
        )
        if istate < 0:
            return
        a, b = arr.tolist()
        yield t, a, b


def _integrate(steps, y_start: tuple, eps: float, plus: tuple, scale: float):
    """(verdict, times, samples in psi) of the orbit from `y_start`; it, `plus` and `scale` in (a, b).

    `steps` yields accepted steps from `y_start` as (t, a, b), as `_lsoda_steps`
    does.  T = [[1, 1], [1, -1]] is sqrt(2) times an orthogonal map, so the
    capture and escape spheres in (a, b) are those of psi, relative to its scale.
    """
    p0, p1 = plus
    r_cap = _CAPTURE_RADIUS * scale
    r_esc = _ESCAPE_RADIUS * scale
    sing_level = singular_locus_v_sq(eps)
    # The samples in null coordinates, flat: a, b of each in turn.
    flat = list(y_start)
    times = [0.0]
    # v^2 minus its value on the singular locus at the last accepted state,
    # positive at the start next to psi_minus (v^2 > 1/2, the locus <= 1/8).
    gap, verdict = math.inf, None
    for t, a, b in steps:
        r = math.hypot(a - p0, b - p1)
        if r <= r_cap:
            # psi_plus is a hyperbolic sink throughout Omega, so an orbit that
            # enters the capture ball has converged.  The last sample is put
            # where the step's chord meets the capture sphere, where the
            # oscillation counts stop.
            t, (a, b) = _capture_point(times[-1], flat[-2:], t, [a, b], plus, r_cap)
            verdict = ProfileVerdict.CONVERGED_TO_PLUS
        elif r >= r_esc or not a > _BOUNDARY_MARGIN < b:
            # min(a, b) = psi0 - |psi1|, written so that a NaN state escapes
            # too.  A state whose psi, read back, is not strictly inside the
            # cone has no kinematics and is not recorded.
            verdict = ProfileVerdict.ESCAPED
            if not a + b > abs(a - b):
                break
        else:
            # a, b > 0 here, and v^2 = (a - b)^2 / (4ab); the field is
            # regular, so a sign change is a crossing.
            d = a - b
            gap_old, gap = gap, d * d / (4.0 * a * b) - sing_level
            if gap_old >= 0.0 >= gap:
                verdict = ProfileVerdict.HIT_SINGULAR_LOCUS
            elif t >= _MAX_PSEUDO_TIME or len(times) == _MAX_STEPS:
                verdict = ProfileVerdict.STALLED
        times.append(t)
        flat += (a, b)
        if verdict is not None:
            break
    else:
        # The steps ran out: the integrator gave up, with no blow-up to blame.
        verdict = ProfileVerdict.STALLED
    a, b = np.array(flat).reshape(-1, 2).T
    return verdict, np.array(times), 0.5 * np.column_stack((a + b, a - b))


def shoot(eps: float, q_tilde: float, opts: ShootOptions | None = None) -> ProfileResult:
    """Shoot the unstable manifold of the saddle toward the attractor.

    Returns the sampled trajectory, a convergence verdict and the oscillation
    report.  The shot starts on the saddle's unstable manifold, to second
    order, 3e-3 |psi_minus - psi_plus| out (see `_start`), where it moves
    neither null component of psi_minus by more than a tenth of itself.  The
    samples are the integrator's accepted steps; a converged shot's last
    sample lies on the capture sphere around psi_plus.  Non-convergence is a
    verdict, not an error.  A sample that rounds out of the cone psi0 > |psi1|
    when read back in psi raises StateOutsideDomain.
    """
    if opts is None:
        opts = ShootOptions()
    eps, q_tilde, pair, field, minus, plus = _setup(eps, q_tilde)
    start, _, scale = _start(field, eps, pair, minus, plus)
    steps = _lsoda_steps(field, start, opts)
    verdict, times, states = _integrate(steps, start, eps, plus, scale)
    report = OscillationReport({})
    if len(states) >= 3:
        report = oscillation_report(states, pair.psi_plus)
    return ProfileResult(
        times=times,
        states=states,
        verdict=verdict,
        oscillation=report,
        psi_minus=pair.psi_minus,
        psi_plus=pair.psi_plus,
        eps=eps,
        q_tilde=q_tilde,
    )
