"""Heteroclinic shooting for the profile field B#(psi, eps) psi' = F(psi, q).

A shot starts a fixed small offset along the unstable eigenvector of the
upstream saddle and integrates with LSODA, which switches between Adams and
BDF formulas as the field turns stiff (eps -> 0).  LSODA steps the null
coordinates a = psi0 + psi1, b = psi0 - psi1, in which ab = theta^-2 does not
cancel at the strong-shock edge; each accepted step is read back in psi.  The
field is one closure per shot, built by `_field`, the only place the package
applies B#; its Jacobian, and the start direction, come from a complex step
through it.  The
step loop calls ODEPACK's LSODA runner, which `_compiled` loads from scipy's
compiled module, one step at a time.  The loop stops when the orbit is
captured at the downstream rest point (its last sample put where the step's
chord meets the capture sphere), escapes, crosses the singular locus of the
dissipation matrix, or exhausts the step or pseudo-time budget.
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

from .classification import spectrum_at_v
from .equilibria import EquilibriumPair, check_omega, rest_points, v_minus_squared, v_plus_squared
from .errors import NotASaddle, OptionOutOfRange, StateOutsideDomain, TooFewSamples, _real, _reals
from .model import (
    GodunovState, det_b_sharp_closed, singular_locus_v_sq, theta_u_v
)

# A shot starts this far from psi_minus along the unstable eigenvector,
# relative to |psi_minus - psi_plus|.  A numerical choice, not a parameter of
# the physics.  Added to psi_minus it rounds by at most 1.4e-6 of itself on a
# sweep of the square from eps = 1e-12 and q_tilde = 3/4 + 1e-8 to 1 - 1e-15.
_OFFSET = 1e-7

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
# samples ((1e-4, 0.8) takes 362 at 1e5, 367 at 1e6 and 377 at 1e7).  No
# default-tolerance shot of the benchmark or 20x20 scan nears it: the longest,
# (1, 3/4 + 1e-6), ends at 2.4e4; (1, 1 - 1e-6), at 9.9e5 in B#^-1 F's, at 7.5.
_MAX_PSEUDO_TIME = 1e6

# A shot ends Stalled after this many accepted steps, which bounds the work
# of one that does not resolve.  At the default tolerances the most taken on
# the 20x20 scan or the benchmark is 976, at the corner (1e-6, 1 - 1e-6).
_MAX_STEPS = 10_000

# scipy's OpenBLAS, which scipy.integrate._odepack links, starts a worker
# thread as it loads, and an idle worker spins for 2^28 TSC ticks (about
# 0.13 s at 2 GHz) before it sleeps.  Loaded by a shot, that spin overlapped
# the shots that followed and, on 2 cores, made them up to twice as slow.
# At 2^20 ticks (about 0.5 ms) it ends before the next shot starts.  OpenBLAS
# reads this only while it loads, and a value already set is kept.
_OPENBLAS_THREAD_TIMEOUT = "20"


@functools.cache
def _compiled(module: str, name: str):
    """Function `name` of scipy's compiled module `module`, such as "integrate._odepack".

    Loaded once per process from the file that `PathFinder` finds in the
    module's package directory, without running that package's __init__:
    `scipy.integrate` would import some 600 modules, `scipy.optimize` among
    them, in about 0.5 s, for the one function a shot calls.  `find_spec` of the
    top-level package imports nothing, not even scipy.
    """
    full = f"scipy.{module}"
    *package, _ = module.split(".")
    scipy = importlib.util.find_spec("scipy")
    roots = (scipy and scipy.submodule_search_locations) or ()
    try:
        spec = importlib.machinery.PathFinder.find_spec(
            full, [os.path.join(root, *package) for root in roots]
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
        return getattr(ext, name)
    except (ImportError, AttributeError) as exc:
        raise ImportError(
            f"a shot calls {name} of scipy's compiled module {full} (scipy>=1.17), "
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


def _field(eps: float, q_tilde: float):
    """The profile field adj(B#) F / det B#(psi_plus) at fixed (eps, q_tilde) in null coordinates.

    Returns `field(a, b) -> (a', b')` with a = psi0 + psi1 and b = psi0 - psi1,
    the coordinates a shot steps: ab = theta^-2 without the cancellation of
    psi0^2 - psi1^2, and the cone psi0 > |psi1| is a > 0 < b.  det B# =
    9 eps m(v) / (eps - 4), m(v) = (8 + eps) v^2 + eps - 1, so this is B#^-1 F
    in a time rescaled by m(v) / m(v+), 1 at psi_plus: the same orbits,
    oriented alike above the singular locus m = 0, and regular across it
    (Szmolyan & Wechselberger, JDE 177, 2001).  The hot path of every shot,
    called by the integrator and its complex-step Jacobian with Python floats
    or complex numbers.  B# = eps u^2 x x^T - w w^T - c2 y y^T with x = (v, -u),
    w = (4uv, -r), y = (g, -2uv), r = 4v^2 + 1 and g = 2v^2 + 1, so adj(B#) F =
    alpha (u, v) - phi (r, 4uv) - beta (2uv, g), with three projections of F
    (q1 = 1, q0 = q_tilde^(-1/2)) simplified by u^2 - v^2 = 1.  Its psi
    components f0, f1 give (a', b') = (f0 + f1, f0 - f1), formed with p = u + v
    and m = u - v as alpha p - (2p^2 - 1) phi - p^2 beta and alpha m -
    (2m^2 - 1) phi + m^2 beta, again by u^2 - v^2 = 1: f0 - f1 itself cancels
    like u^2 at the strong-shock edge, where b is small.  theta cancels
    from phi, which is O(eps) on the slow manifold, so for v > 0 it is factored
    through the rest points.  Where ab is not a finite number above 1e-300
    (outside the cone, or overflowed to inf or NaN), or the field itself is
    not finite (its terms overflow), the field is (1e300, 1e300): LSODA's
    error test rejects such a trial step, where a NaN, false in every
    comparison, would pass it and the step be accepted.
    """
    q0, c2 = q_tilde**-0.5, 9.0 * eps / (4.0 - eps)
    k = 16.0 * (1.0 - q_tilde) / q_tilde
    vp2, vm2 = v_plus_squared(q_tilde), v_minus_squared(q_tilde)
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


def _psi_field(field):
    """`field` in psi coordinates: psi' = T^-1 field(T psi) with T = [[1, 1], [1, -1]]."""

    def psi_field(y0, y1):
        da, db = field(y0 + y1, y0 - y1)
        return 0.5 * (da + db), 0.5 * (da - db)

    return psi_field


def vector_field(psi: GodunovState, eps: float, q_tilde: float) -> np.ndarray:
    """The field `shoot` integrates, adj(B#) F / det B#(psi_plus), in psi at a state in the cone.

    Where `_field` gives (1e300, 1e300), which LSODA rejects, this is its image (1e300, 0).
    """
    return np.array(_psi_field(_field(*check_omega(eps, q_tilde)))(psi.psi0, psi.psi1))


def _field_jacobian(field, y0: float, y1: float) -> list[list[float]]:
    h = _COMPLEX_STEP
    a0, a1 = field(complex(y0, h), y1)
    b0, b1 = field(y0, complex(y1, h))
    return [[a0.imag / h, b0.imag / h], [a1.imag / h, b1.imag / h]]


def field_jacobian(psi: GodunovState, eps: float, q_tilde: float) -> np.ndarray:
    """Jacobian of `vector_field`'s field in psi at a state in the cone, by complex step."""
    field = _psi_field(_field(*check_omega(eps, q_tilde)))
    return np.array(_field_jacobian(field, psi.psi0, psi.psi1))


def unstable_direction(eps: float, q_tilde: float) -> np.ndarray:
    """Unit eigenvector in psi of the saddle's positive eigenvalue, aimed downstream.

    The sign is fixed so the vector points toward the attractor side, which
    makes the kinematic velocity decrease along it.
    """
    eps, q_tilde = check_omega(eps, q_tilde)
    return _unstable_direction(rest_points(q_tilde), _field(eps, q_tilde), eps, q_tilde)


def _unstable_direction(pair: EquilibriumPair, field, eps: float, q_tilde: float) -> np.ndarray:
    psi_minus = pair.psi_minus
    (j00, j01), (j10, j11) = _field_jacobian(_psi_field(field), psi_minus.psi0, psi_minus.psi1)
    # J is local_spectrum's matrix times (4/3) theta^5 m(v-)/m(v+), as F = 0
    # here; its closed forms do not cancel as q_tilde -> 1, where adj(B#) A's
    # entries grow like v^8.  Its singular-locus check is left out: v_minus^2
    # > 1/2 lies above the locus, which stays at or below 1/8.
    theta, _, v = theta_u_v(psi_minus.psi0, psi_minus.psi1)
    lo, hi = spectrum_at_v(v, eps)
    if not lo.real < 0.0 < hi.real:
        raise NotASaddle(f"eigenvalues {lo}, {hi} at psi_minus({q_tilde}), eps={eps}")
    lam_pos = (4.0 / 3.0) * theta**5 * hi.real * det_b_sharp_closed(v * v, eps)
    lam_pos /= det_b_sharp_closed(pair.v_plus_sq, eps)
    cand_a = np.array([j01, lam_pos - j00])
    cand_b = np.array([lam_pos - j11, j10])
    vec = cand_a if np.linalg.norm(cand_a) >= np.linalg.norm(cand_b) else cand_b
    vec = vec / np.linalg.norm(vec)
    toward_plus = pair.psi_plus.as_array() - psi_minus.as_array()
    if float(vec @ toward_plus) < 0.0:
        vec = -vec
    return vec


def _count_extrema(x: list[float], floor: float) -> int:
    # Turning points with hysteresis: a direction reversal only counts once
    # the excursion beats the noise floor.
    count, direction, ref = 0, 0, x[0]
    for val in x[1:]:
        if direction * (val - ref) > 0.0:
            ref = val
        elif val > ref + floor:
            count, direction, ref = count + (direction < 0), 1, val
        elif val < ref - floor:
            count, direction, ref = count + (direction > 0), -1, val
    return count


def oscillation_report(states: np.ndarray, psi_plus: GodunovState) -> OscillationReport:
    """Extrema and sign-change counts of a trajectory in three coordinate systems.

    `states` is an (n, 2) array of real psi samples, n >= 3 (else TooFewSamples),
    each finite and inside the cone psi0 > |psi1| (else StateOutsideDomain).
    Each series of `SERIES` is a row of one array, with its limit at psi_plus
    and a noise floor of 1e-10 times the larger of its range and its limit's
    magnitude.  `_count_extrema` walks each row's ends and turning points
    only: the inside of a strictly monotone run cannot change its count.
    """
    arr, _, top = _reals(states)
    if np.ndim(arr) != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise TooFewSamples(f"need an (n >= 3, 2) real sample array, got shape {np.shape(arr)}")
    psi0, psi1 = arr.T
    if not (top < math.inf and (np.abs(psi1) < psi0).all()):  # NaN fails too
        raise StateOutsideDomain("every sample must be finite with psi0 > |psi1|")
    series = np.vstack((psi0, psi1, *theta_u_v(psi0, psi1)))
    limits = np.array([psi_plus.psi0, psi_plus.psi1, *theta_u_v(psi_plus.psi0, psi_plus.psi1)])
    # The integrator's error is relative to the state's size, so a weak
    # shock's small range alone would let that noise count.
    floors = 1e-10 * np.maximum(series.max(axis=1) - series.min(axis=1), np.abs(limits))
    dev = series - limits[:, None]
    # Each row's deviations beyond its floor, in order, and the row of each.
    rows = np.nonzero(beyond := np.abs(dev) > floors[:, None])[0]
    above = dev[beyond] > 0.0
    flips = rows[1:][(above[1:] != above[:-1]) & (rows[1:] == rows[:-1])]
    # Each row's ends and turning points: the samples not strictly between their neighbours.
    slope = np.sign(np.diff(series, axis=1))
    turning = np.ones(series.shape, dtype=bool)
    turning[:, 1:-1] = slope[:, :-1] * slope[:, 1:] <= 0.0
    changes = np.bincount(flips, minlength=len(SERIES)).tolist()
    counts = {
        name: ComponentCounts(_count_extrema(row[keep].tolist(), floor), n)
        for name, row, keep, floor, n in zip(SERIES, series, turning, floors.tolist(), changes)
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


def _integrate(
    field,
    y_start: np.ndarray,
    eps: float,
    pair: EquilibriumPair,
    scale: float,
    opts: ShootOptions,
) -> tuple[ProfileVerdict, np.ndarray, np.ndarray]:
    p0, p1 = pair.psi_plus.psi0, pair.psi_plus.psi1
    r_cap = _CAPTURE_RADIUS * scale
    r_esc = _ESCAPE_RADIUS * scale
    sing_level = singular_locus_v_sq(eps)

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

    # One LSODA step per call, as scipy's LSODA solver steps it: itask 5
    # never steps past tcrit = rwork[0].  Like that solver, raise rel_tol to
    # 100 ulp; below it ODEPACK can reject the input before the first step.
    # The runner would build these 1-element arrays from floats on every
    # call; a 2-element atol would make LSODA's tolerance per component.
    rtol = np.array([max(opts.rel_tol, _MIN_REL_TOL)])
    atol = np.array([opts.abs_tol])
    step = _compiled("integrate._odepack", "lsoda")
    # The work arrays scipy's `lsoda.reset` builds for n = 2 with a full user
    # Jacobian (jt = 1): rwork of 20 + (12 + 4) n doubles, iwork of 20 + n
    # ints with nsteps 500 and the Adams and BDF order limits 12 and 5, and
    # the zeroed 240 doubles and 48 ints the runner keeps between calls.
    rwork, iwork = np.zeros(52), np.zeros(22, dtype=np.int32)
    iwork[5], iwork[7], iwork[8] = 500, 12, 5
    sd, si = np.zeros(240), np.zeros(48, dtype=np.int32)
    jt = 1
    t_end = _MAX_PSEUDO_TIME
    rwork[0] = t_end
    # LSODA steps the null components; the runner overwrites its state argument.
    y0, y1 = y_start.tolist()
    arr, t, istate = np.array([y0 + y1, y0 - y1]), 0.0, 1
    # The samples in psi, flat: y0, y1 of each in turn.
    flat = [y0, y1]
    times = [0.0]
    # v^2 minus its value on the singular locus at the last accepted state,
    # positive at the start next to psi_minus (v^2 > 1/2, the locus <= 1/8).
    gap, verdict = math.inf, None
    while verdict is None:
        # The 17-argument call of scipy 1.17's `lsoda.run`: (fun, y, t, tout,
        # rtol, atol, itask, istate, rwork, iwork, jac, jt, f_params, tfirst,
        # jac_params, state_doubles, state_ints).  TestStepLoopParity fails on
        # any other layout.  A negative istate is LSODA's failure return.
        arr, t, istate = step(
            rhs, arr, t, t_end, rtol, atol, 5, istate, rwork, iwork, jac, jt, (), 1, (), sd, si
        )
        if istate < 0:
            # LSODA gave up; the field has no blow-up to blame it on.
            verdict = ProfileVerdict.STALLED
            break
        a, b = arr.tolist()
        y0, y1 = 0.5 * (a + b), 0.5 * (a - b)
        r = math.hypot(y0 - p0, y1 - p1)
        if r <= r_cap:
            # psi_plus is a hyperbolic sink throughout Omega, so an orbit that
            # enters the capture ball has converged.  The last sample is put
            # where the step's chord meets the capture sphere, where the
            # oscillation counts stop.
            t, (y0, y1) = _capture_point(times[-1], flat[-2:], t, [y0, y1], (p0, p1), r_cap)
            verdict = ProfileVerdict.CONVERGED_TO_PLUS
        elif r >= r_esc or not a > _BOUNDARY_MARGIN < b:
            # min(a, b) = psi0 - |psi1|, written so that a NaN state escapes
            # too.  A state not strictly inside the cone has no kinematics
            # and is not recorded.
            verdict = ProfileVerdict.ESCAPED
            if not y0 > abs(y1):
                break
        else:
            # a, b > 0 here, and v^2 = psi1^2 / (ab); the field is regular, so
            # a sign change is a crossing.
            gap_old, gap = gap, y1 * y1 / (a * b) - sing_level
            if gap_old >= 0.0 >= gap:
                verdict = ProfileVerdict.HIT_SINGULAR_LOCUS
            elif t >= t_end or len(times) == _MAX_STEPS:
                verdict = ProfileVerdict.STALLED
        times.append(t)
        flat += (y0, y1)
    return verdict, np.array(times), np.array(flat).reshape(-1, 2)


def shoot(eps: float, q_tilde: float, opts: ShootOptions | None = None) -> ProfileResult:
    """Shoot the unstable manifold of the saddle toward the attractor.

    Returns the sampled trajectory, a convergence verdict and the oscillation
    report.  The shot starts a fixed offset of 1e-7 |psi_minus - psi_plus|
    along the unstable eigenvector.  The samples are the integrator's
    accepted steps; a converged shot's last sample lies on the capture
    sphere around psi_plus.  Non-convergence is a verdict, not an error; a
    start point outside the cone, as at some q_tilde within 3e-8 of 1,
    raises StateOutsideDomain.
    """
    if opts is None:
        opts = ShootOptions()
    eps, q_tilde = check_omega(eps, q_tilde)
    pair = rest_points(q_tilde)
    field = _field(eps, q_tilde)
    direction = _unstable_direction(pair, field, eps, q_tilde)
    psi_minus = pair.psi_minus.as_array()
    scale = float(np.linalg.norm(psi_minus - pair.psi_plus.as_array()))
    start = psi_minus + _OFFSET * scale * direction
    if not start[0] > abs(start[1]):
        raise StateOutsideDomain(
            f"offset {_OFFSET} puts the start point {start.tolist()} outside the cone "
            f"psi0 > |psi1| at eps={eps}, q_tilde={q_tilde}"
        )
    verdict, times, states = _integrate(field, start, eps, pair, scale, opts)
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
