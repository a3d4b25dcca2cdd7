"""Heteroclinic shooting for the profile field B#(psi, eps) psi' = F(psi, q).

A shot starts a small offset along the unstable eigenvector of the upstream
saddle and integrates with LSODA, which switches between Adams and BDF
formulas as the field turns stiff (eps -> 0), with the field's Jacobian
taken by a complex step through the field function.  That function is one
closure per shot, built by `_field`: adj(B#) F from three rank-one
projections of the flux residual, for floats and complex numbers alike, and
the only place the package applies B#.  Its complex step at the saddle also
gives the start direction.  The step loop calls ODEPACK's LSODA runner
itself, one step per call with the arguments scipy's `LSODA` solver hands
it; scipy's `ode` only sets up the work arrays.  It checks every accepted
step and stops when the orbit is captured at the downstream rest point,
escapes, hits the singular locus of the dissipation matrix, or exhausts the
step or pseudo-time budget.  The sampled trajectory is then scanned for
extrema and sign changes in three coordinate systems, which is how
oscillatory (spiraling) profiles are detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import ode
from scipy.optimize import brentq

from .equilibria import EquilibriumPair, check_omega, rest_points, v_minus_squared, v_plus_squared
from .errors import NotASaddle, OptionOutOfRange, StateOutsideDomain, TooFewSamples
from .model import (
    GodunovState,
    check_off_locus,
    det_b_sharp_closed,
    det_lin_closed,
    kinematics,
    singular_locus_v_sq,
    theta_u_v,
    trace_adj_closed,
)

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

# The pseudo-time budget, LSODA's tout and tcrit.  tout also enters ODEPACK's
# first-step formula, so any other value changes every shot's samples
# ((1e-4, 0.8) takes 371 at 1e5, 382 at 1e6 and 370 at 1e7).  No default-
# tolerance shot of the benchmark reaches it (at most 5.1e5), but the time to
# capture grows like 1/(1 - q_tilde): (1, 1 - 1e-6) ends at 9.9e5.
_MAX_PSEUDO_TIME = 1e6

# A shot ends Stalled after this many accepted steps, which bounds the work
# of one that does not resolve.  At the default tolerances the most taken on
# the 20x20 scan or the benchmark is 1,309, at (0.63, 1 - 1e-6).
_MAX_STEPS = 10_000


@dataclass(frozen=True)
class ShootOptions:
    """Shooting controls; the offset is relative to |psi_minus - psi_plus|.

    `offset` and `abs_tol` must lie in (0, inf) and `rel_tol` in (0, 1): a
    relative tolerance of 1 or more asks for no accuracy.  Anything else,
    NaN included, raises OptionOutOfRange.  `shoot` also rejects an offset
    that the start point cannot resolve at the point shot.
    """

    offset: float = 1e-7
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name, hi in (("offset", math.inf), ("rel_tol", 1.0), ("abs_tol", math.inf)):
            value = getattr(self, name)
            if not 0.0 < value < hi:
                raise OptionOutOfRange(f"{name} must lie in (0, {hi}), got {value}")


class ProfileVerdict(str, Enum):
    CONVERGED_TO_PLUS = "ConvergedToPlus"
    ESCAPED = "Escaped"
    STALLED = "Stalled"
    HIT_SINGULAR_LOCUS = "HitSingularLocus"


@dataclass(frozen=True)
class ComponentCounts:
    """Strict local extrema and sign changes of (component - its limit)."""

    extrema: int
    sign_changes: int


@dataclass(frozen=True)
class OscillationReport:
    """Per-coordinate-system oscillation counts along a trajectory.

    `systems` maps each coordinate system name to a tuple of per-component
    counts, ordered (psi0, psi1) / (theta, v) / (u, v).  A system is flagged
    oscillatory when any of its components changes sign at least twice
    around its limit value.
    """

    systems: dict[str, tuple[ComponentCounts, ComponentCounts]]
    oscillatory_by_system: dict[str, bool]
    oscillatory: bool


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
    """The profile field B#^-1 F at fixed (eps, q_tilde), as `field(y0, y1)`.

    The hot path of every shot, called by the integrator and its complex-step
    Jacobian with Python floats or complex numbers.  B# = eps u^2 a a^T -
    w w^T - c2 y y^T with a = (v, -u), w = (4uv, -r), y = (g, -2uv),
    r = 4v^2 + 1 and g = 2v^2 + 1, so adj(B#) F = alpha (u, v) - phi (r, 4uv)
    - beta (2uv, g), with three projections of F (q1 = 1, q0 = q_tilde^(-1/2))
    simplified by u^2 - v^2 = 1.  theta cancels from phi, which is O(eps) on
    the slow manifold, so for v > 0 it is factored through the rest points.
    Outside the cone, and where psi0^2 - psi1^2 overflows to NaN, the field
    is (1e300, 1e300): LSODA's error test rejects such a trial step, where a
    NaN, false in every comparison, would pass it and the step be accepted.
    """
    q0, c2 = q_tilde**-0.5, 9.0 * eps / (4.0 - eps)
    k = 16.0 * (1.0 - q_tilde) / q_tilde
    vp2, vm2 = float(v_plus_squared(q_tilde)), float(v_minus_squared(q_tilde))
    nine_eps, eps_plus_8, eps_minus_4 = 9.0 * eps, 8.0 + eps, eps - 4.0

    def field(y0, y1):
        s = y0 * y0 - y1 * y1
        if not s.real >= 1e-300:
            return 1e300, 1e300
        theta = s ** -0.5
        u, v = theta * y0, theta * y1
        v2, uv, t2 = v * v, u * v, theta * theta
        r, g, t4 = 4.0 * v2 + 1.0, 2.0 * v2 + 1.0, t2 * t2
        if v.real > 0.0:
            # phi = 16 ((1 - q_tilde)/q_tilde) (v^2 - v+^2)(v^2 - v-^2) / (r q0 + 4uv).
            phi = k * (v2 - vp2) * (v2 - vm2) / (r * q0 + 4.0 * uv)
        else:
            phi = r * q0 - 4.0 * uv
        alpha = eps * u * u * (u * q0 - v * (1.0 + t4))
        beta = c2 * (2.0 * uv * q0 - g + t4 * (1.0 - 2.0 * v2) / 3.0)
        det = nine_eps * (eps_plus_8 * v2 + eps - 1.0) / eps_minus_4
        if det == 0.0:
            det = -1e-300
        return (alpha * u - r * phi - 2.0 * uv * beta) / det, (
            alpha * v - 4.0 * uv * phi - g * beta
        ) / det

    return field


def _checked_field(psi: GodunovState, eps: float, q_tilde: float):
    # Outside the square the normalised flux has no rest points.
    check_omega(eps, q_tilde)
    _, _, v = theta_u_v(psi.psi0, psi.psi1)
    check_off_locus(v * v, eps)
    return _field(eps, q_tilde)


def vector_field(psi: GodunovState, eps: float, q_tilde: float) -> np.ndarray:
    """Profile field B#^-1 F at one state, via the adjugate and the closed-form det(B#)."""
    return np.array(_checked_field(psi, eps, q_tilde)(psi.psi0, psi.psi1))


def _field_jacobian(field, y0: float, y1: float) -> list[list[float]]:
    h = _COMPLEX_STEP
    a0, a1 = field(complex(y0, h), y1)
    b0, b1 = field(y0, complex(y1, h))
    return [[a0.imag / h, b0.imag / h], [a1.imag / h, b1.imag / h]]


def field_jacobian(psi: GodunovState, eps: float, q_tilde: float) -> np.ndarray:
    """Jacobian of the profile field at any state in the cone, by complex step."""
    return np.array(_field_jacobian(_checked_field(psi, eps, q_tilde), psi.psi0, psi.psi1))


def unstable_direction(eps: float, q_tilde: float) -> np.ndarray:
    """Unit eigenvector of the saddle's positive eigenvalue, aimed downstream.

    The sign is fixed so the vector points toward the attractor side, which
    makes the kinematic velocity decrease along it.
    """
    check_omega(eps, q_tilde)
    return _unstable_direction(rest_points(q_tilde), _field(eps, q_tilde), eps, q_tilde)


def _unstable_direction(pair: EquilibriumPair, field, eps: float, q_tilde: float) -> np.ndarray:
    (j00, j01), (j10, j11) = _field_jacobian(field, pair.psi_minus.psi0, pair.psi_minus.psi1)
    # det J and trace J from the closed forms: the entries of adj(B#) A grow
    # like v^8 and cancel in det and trace as q_tilde -> 1.
    theta, _, v = theta_u_v(pair.psi_minus.psi0, pair.psi_minus.psi1)
    k = (4.0 / 3.0) * theta**5
    det_b = det_b_sharp_closed(v * v, eps)
    det = k * k * det_lin_closed(v * v) / det_b
    if not det < 0.0:
        raise NotASaddle(
            f"eigenvalue product {det} not negative at psi_minus({q_tilde}), eps={eps}"
        )
    tr = k * trace_adj_closed(v, eps) / det_b
    lam_pos = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
    cand_a = np.array([j01, lam_pos - j00])
    cand_b = np.array([lam_pos - j11, j10])
    vec = cand_a if np.linalg.norm(cand_a) >= np.linalg.norm(cand_b) else cand_b
    vec = vec / np.linalg.norm(vec)
    toward_plus = pair.psi_plus.as_array() - pair.psi_minus.as_array()
    if float(vec @ toward_plus) < 0.0:
        vec = -vec
    return vec


def _count_extrema(x: list[float], floor: float) -> int:
    # Turning points with hysteresis: a direction reversal only counts once
    # the excursion beats the noise floor.
    count = 0
    direction = 0
    ref = x[0]
    for val in x[1:]:
        if direction == 0:
            if val > ref + floor:
                direction, ref = 1, val
            elif val < ref - floor:
                direction, ref = -1, val
        elif direction > 0:
            if val > ref:
                ref = val
            elif val < ref - floor:
                count += 1
                direction, ref = -1, val
        else:
            if val < ref:
                ref = val
            elif val > ref + floor:
                count += 1
                direction, ref = 1, val
    return count


def _count_sign_changes(dev: np.ndarray, floor: float) -> int:
    kept = dev[np.abs(dev) > floor]
    if kept.size < 2:
        return 0
    signs = np.sign(kept)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _component_counts(series: np.ndarray, limit: float) -> ComponentCounts:
    # The integrator's error is relative to the state's size, so a weak
    # shock's small range alone would let that noise count.
    floor = 1e-10 * max(float(series.max() - series.min()), abs(limit))
    # A list of Python floats: the extrema loop runs about twice as fast on
    # it as on numpy scalars.
    return ComponentCounts(
        extrema=_count_extrema(series.tolist(), floor),
        sign_changes=_count_sign_changes(series - limit, floor),
    )


def oscillation_report(states: np.ndarray, psi_plus: GodunovState) -> OscillationReport:
    """Extrema and sign-change counts of a trajectory in three coordinate systems.

    `states` is an (n, 2) array of psi samples, n >= 3.  Limits are taken at
    psi_plus.  The noise floor per component is 1e-10 times the larger of its
    range and its limit's magnitude.
    """
    arr = np.asarray(states, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise TooFewSamples(f"need an (n >= 3, 2) sample array, got shape {arr.shape}")
    theta, u, v = theta_u_v(arr[:, 0], arr[:, 1])
    lim = kinematics(psi_plus)
    # (theta, v) and (u, v) share v's counts.
    v_counts = _component_counts(v, lim.v)
    systems = {
        "psi": (
            _component_counts(arr[:, 0], psi_plus.psi0),
            _component_counts(arr[:, 1], psi_plus.psi1),
        ),
        "theta_v": (_component_counts(theta, lim.theta), v_counts),
        "u_v": (_component_counts(u, lim.u), v_counts),
    }
    flags = {
        name: any(c.sign_changes >= 2 for c in counts) for name, counts in systems.items()
    }
    return OscillationReport(
        systems=systems,
        oscillatory_by_system=flags,
        oscillatory=any(flags.values()),
    )


def _capture_point(dense, t_old: float, t: float, y: list, dist, r_cap: float):
    """Where the step from t_old to t meets the capture sphere: (time, state).

    `y` is the accepted state at t, inside the sphere.  A dense output need
    not reproduce it bit for bit (an interpolant may differ by rounding), so
    when the interpolant does not cross the sphere on the step the accepted
    state is kept.
    """
    if not dist(dense(t_old)) - r_cap > 0.0 >= dist(dense(t)) - r_cap:
        return t, y
    t = brentq(lambda s: dist(dense(s)) - r_cap, t_old, t)
    return t, dense(t).tolist()


def _nordsieck_interpolant(integ, t: float):
    """Dense output of LSODA's last step, which ended at t, as scipy's LSODA builds it.

    rwork[20:] holds the Nordsieck history array scaled to the next trial
    step rwork[11], with columns up to the order iwork[13] of the step taken.
    """
    iwork, rwork = integ.iwork, integ.rwork
    order = iwork[13]
    h = rwork[11]
    yh = np.reshape(rwork[20:20 + (order + 1) * 2], (2, order + 1), order="F").copy()
    if iwork[14] < order:
        # An order decrease leaves the last column scaled to the step taken.
        yh[:, -1] *= (h / rwork[10]) ** order
    p = np.arange(order + 1)
    return lambda s: np.dot(yh, ((s - t) / h) ** p)


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

    # The field's pair goes back through one buffer per shot: handed a tuple,
    # the integrator's callback would build an array from it on every call.
    out = np.empty(2)

    # Python floats: their arithmetic is about twice as fast as numpy scalars'.
    def rhs(_t, y):
        out[0], out[1] = field(*y.tolist())
        return out

    def gap_sq(y0, y1):
        # v^2 minus its value on the singular locus.
        s = y0 * y0 - y1 * y1
        return (y1 * y1 / s if s > 0.0 else math.inf) - sing_level

    def dist(y):
        return math.hypot(y[0] - p0, y[1] - p1)

    def jac(_t, y):
        return _field_jacobian(field, *y.tolist())

    # One LSODA step per call, as scipy's LSODA solver steps it: itask 5
    # never steps past tcrit = rwork[0].  Like that solver, raise rel_tol to
    # 100 ulp; below it ODEPACK can reject the input before the first step.
    # scipy's `ode` only builds the work arrays; the loop calls ODEPACK's
    # runner with them itself.
    rtol = max(opts.rel_tol, _MIN_REL_TOL)
    atol = opts.abs_tol
    solver = ode(rhs, jac).set_integrator("lsoda", rtol=rtol, atol=atol)
    integ = solver.set_initial_value(y_start)._integrator
    step = integ.runner
    rwork, iwork = integ.rwork, integ.iwork
    sd, si = integ.state_doubles, integ.state_ints
    jt = integ.call_args[6]
    t_end = _MAX_PSEUDO_TIME
    rwork[0] = t_end
    arr, t, istate = solver.y, 0.0, 1
    # The samples, flat: y0, y1 of each in turn.
    flat = y_start.tolist()
    y0, y1 = flat
    times = [0.0]
    gap = gap_sq(y0, y1)
    verdict = None
    while verdict is None:
        t_old = t
        # The 17-argument call of scipy 1.17's `lsoda.run`: (fun, y, t, tout,
        # rtol, atol, itask, istate, rwork, iwork, jac, jt, f_params, tfirst,
        # jac_params, state_doubles, state_ints).  TestStepLoopParity fails on
        # any other layout.  A negative istate is LSODA's failure return.
        arr, t, istate = step(
            rhs, arr, t, t_end, rtol, atol, 5, istate, rwork, iwork, jac, jt, (), 1, (), sd, si
        )
        if istate < 0:
            # Step underflow.  The field's only blow-up set is the singular
            # locus, which can be approached asymptotically without a
            # crossing; diagnose by the last accepted state's velocity.
            near = abs(gap_sq(y0, y1)) <= 1e-5 * (1.0 + sing_level)
            verdict = ProfileVerdict.HIT_SINGULAR_LOCUS if near else ProfileVerdict.STALLED
            break
        y0, y1 = arr.tolist()
        gap_old, gap = gap, gap_sq(y0, y1)
        r = math.hypot(y0 - p0, y1 - p1)
        if r <= r_cap:
            # psi_plus is a hyperbolic sink throughout Omega, so an orbit that
            # enters the capture ball has converged.  The last sample is put
            # on the capture sphere, where the oscillation counts stop.
            dense = _nordsieck_interpolant(integ, t)
            t, (y0, y1) = _capture_point(dense, t_old, t, [y0, y1], dist, r_cap)
            verdict = ProfileVerdict.CONVERGED_TO_PLUS
        elif r >= r_esc or not y0 - abs(y1) > _BOUNDARY_MARGIN:
            # Written so that a NaN state escapes too.  A state not strictly
            # inside the cone has no kinematics and is not recorded.
            verdict = ProfileVerdict.ESCAPED
            if not y0 > abs(y1):
                break
        elif gap_old >= 0.0 >= gap:
            verdict = ProfileVerdict.HIT_SINGULAR_LOCUS
        elif t >= t_end or len(times) == _MAX_STEPS:
            verdict = ProfileVerdict.STALLED
        times.append(t)
        flat += (y0, y1)
    return verdict, np.array(times), np.array(flat).reshape(-1, 2)


def shoot(eps: float, q_tilde: float, opts: ShootOptions | None = None) -> ProfileResult:
    """Shoot the unstable manifold of the saddle toward the attractor.

    Returns the sampled trajectory, a convergence verdict and the oscillation
    report.  The samples are the integrator's accepted steps; a converged
    shot's last sample lies on the capture sphere around psi_plus.
    Non-convergence is a verdict, not an error; an offset that puts the
    start point outside the cone raises StateOutsideDomain, and one that
    the start point cannot resolve (its rounding is above 1% of the
    offset) raises OptionOutOfRange.
    """
    if opts is None:
        opts = ShootOptions()
    check_omega(eps, q_tilde)
    pair = rest_points(q_tilde)
    field = _field(eps, q_tilde)
    direction = _unstable_direction(pair, field, eps, q_tilde)
    psi_minus = pair.psi_minus.as_array()
    scale = float(np.linalg.norm(psi_minus - pair.psi_plus.as_array()))
    shift = opts.offset * scale * direction
    start = psi_minus + shift
    if not start[0] > abs(start[1]):
        raise StateOutsideDomain(
            f"offset {opts.offset} puts the start point {start.tolist()} outside the cone "
            f"psi0 > |psi1| at eps={eps}, q_tilde={q_tilde}"
        )
    # Below about 1e-14 the rounding of psi_minus + shift swamps the shift,
    # and the verdict turns on that rounding.
    if np.linalg.norm(start - psi_minus - shift) > 1e-2 * opts.offset * scale:
        raise OptionOutOfRange(
            f"offset {opts.offset} is below what the start point resolves next to "
            f"psi_minus at eps={eps}, q_tilde={q_tilde}"
        )
    verdict, times, states = _integrate(field, start, eps, pair, scale, opts)
    report = (
        oscillation_report(states, pair.psi_plus)
        if states.shape[0] >= 3
        else OscillationReport(systems={}, oscillatory_by_system={}, oscillatory=False)
    )
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
