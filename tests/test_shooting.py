import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import LSODA

from conftest import spiral_samples
from radshock.equilibria import rest_points, state_from_v
from radshock.errors import (
    DegenerateShock,
    ParamsOutOfOmega,
    SingularBsharp,
    TooFewSamples,
)
from radshock.model import GodunovState, b_sharp_kernel, kinematics
from radshock import shooting
from radshock.shooting import (
    _BOUNDARY_MARGIN,
    _MAX_STEPS,
    ProfileVerdict,
    ShootOptions,
    _capture_point,
    _field,
    _field_jacobian,
    _integrate,
    _rest_jacobian,
    field_jacobian,
    oscillation_report,
    shoot,
    unstable_direction,
    vector_field,
)

NODE_POINT = (1.0, 0.76)
FOCUS_POINT = (1.0, 0.80)


def kernel_field_reference(y0, y1, eps, q0, q1):
    """Reference for `_field`: the profile field through `b_sharp_kernel`, F, adjugate."""
    if (y0 * y0 - y1 * y1).real < 1e-300:
        return math.nan, math.nan
    theta, u, v, b00, b01, b11, det = b_sharp_kernel(y0, y1, eps)
    t2 = theta * theta
    t4 = t2 * t2
    f0 = -(4.0 / 3.0) * t4 * v * u + q0
    f1 = t4 * ((4.0 / 3.0) * v * v + 1.0 / 3.0) - q1
    if det == 0.0:
        det = -1e-300
    return (b11 * f0 - b01 * f1) / det, (b00 * f1 - b01 * f0) / det


def central_difference_jacobian(psi, eps, q_tilde, step=1e-6):
    """Reference for `field_jacobian`: central differences of the field."""
    q0 = q_tilde**-0.5
    y = (psi.psi0, psi.psi1)
    jac = np.empty((2, 2))
    for i in range(2):
        dp = [0.0, 0.0]
        dp[i] = step
        fp = kernel_field_reference(y[0] + dp[0], y[1] + dp[1], eps, q0, 1.0)
        fm = kernel_field_reference(y[0] - dp[0], y[1] - dp[1], eps, q0, 1.0)
        jac[0, i] = (fp[0] - fm[0]) / (2.0 * step)
        jac[1, i] = (fp[1] - fm[1]) / (2.0 * step)
    return jac


def shot_start(eps, q_tilde, opts):
    """The start state, rest points and length scale `shoot` hands to `_integrate`."""
    pair = rest_points(q_tilde)
    psi_minus = pair.psi_minus.as_array()
    scale = float(np.linalg.norm(psi_minus - pair.psi_plus.as_array()))
    return psi_minus + opts.offset * scale * unstable_direction(eps, q_tilde), pair, scale


def lsoda_solver_reference(y_start, eps, q_tilde, pair, scale, opts):
    """Reference for `_integrate`: the same shot stepped by scipy's public LSODA solver.

    Returns the verdict, times, states and the solver's field-evaluation count.
    """
    q0 = q_tilde**-0.5
    p0, p1 = pair.psi_plus.psi0, pair.psi_plus.psi1
    r_cap = opts.capture_radius * scale
    r_esc = opts.escape_radius * scale
    sing_level = (1.0 - eps) / (8.0 + eps)

    def field(y0, y1):
        return kernel_field_reference(y0, y1, eps, q0, 1.0)

    def rhs(_t, y):
        return field(*y.tolist())

    def jac(_t, y):
        return _field_jacobian(field, *y.tolist())

    def gap_sq(y0, y1):
        s = y0 * y0 - y1 * y1
        return (y1 * y1 / s if s > 0.0 else math.inf) - sing_level

    def dist(y):
        return math.hypot(y[0] - p0, y[1] - p1)

    solver = LSODA(
        rhs, 0.0, y_start, opts.max_pseudo_time,
        rtol=opts.rel_tol, atol=opts.abs_tol, jac=jac,
    )
    times = [0.0]
    states = [tuple(y_start)]
    gap = gap_sq(*states[0])
    verdict = None
    while verdict is None:
        solver.step()
        if solver.status == "failed":
            near = abs(gap_sq(*states[-1])) <= 1e-5 * (1.0 + sing_level)
            verdict = ProfileVerdict.HIT_SINGULAR_LOCUS if near else ProfileVerdict.STALLED
            break
        t, y = solver.t, solver.y.tolist()
        gap_old, gap = gap, gap_sq(*y)
        r = dist(y)
        if r <= r_cap:
            t, y = _capture_point(solver.dense_output(), solver.t_old, t, y, dist, r_cap)
            verdict = ProfileVerdict.CONVERGED_TO_PLUS
        elif r >= r_esc or y[0] - abs(y[1]) <= _BOUNDARY_MARGIN:
            verdict = ProfileVerdict.ESCAPED
        elif gap_old >= 0.0 >= gap:
            verdict = ProfileVerdict.HIT_SINGULAR_LOCUS
        elif solver.status == "finished" or len(times) == _MAX_STEPS:
            verdict = ProfileVerdict.STALLED
        times.append(t)
        states.append(y)
    return verdict, np.array(times), np.array(states), solver.nfev


@pytest.fixture(scope="module")
def node_shot():
    return shoot(*NODE_POINT)


@pytest.fixture(scope="module")
def focus_shot():
    return shoot(*FOCUS_POINT)


def field_bits(pair):
    """Type and IEEE bits of both parts of each component, so NaN and -0.0 compare."""
    return [(type(z), struct.pack("<dd", z.real, z.imag)) for z in pair]


class TestVectorField:
    @given(
        eps=st.floats(1e-6, 1.0),
        q_tilde=st.floats(0.75 + 1e-6, 1.0 - 1e-6),
        y0=st.floats(1e-3, 1e3),
        # |ratio| >= 1 puts the state on or outside the cone.
        ratio=st.sampled_from([-1.0, 1.0]) | st.floats(-2.0, 2.0),
        # None: a float state; 0 or 1: the complex step on that component.
        stepped=st.sampled_from([None, 0, 1]),
    )
    def test_fused_field_matches_kernel_route_bitwise(self, eps, q_tilde, y0, ratio, stepped):
        y = [y0, ratio * y0]
        if stepped is not None:
            y[stepped] = complex(y[stepped], 1e-30)
        q0 = q_tilde**-0.5
        got = _field(eps, q0)(*y)
        assert field_bits(got) == field_bits(kernel_field_reference(*y, eps, q0, 1.0))
        if abs(ratio) >= 1.0:
            assert math.isnan(got[0]) and math.isnan(got[1])

    @pytest.mark.parametrize("q", [0.76, 0.85, 0.97])
    def test_vanishes_at_rest_points(self, q):
        pair = rest_points(q)
        for psi in (pair.psi_minus, pair.psi_plus):
            assert np.max(np.abs(vector_field(psi, 0.8, q))) < 1e-10

    def test_regular_away_from_locus_at_eps_one(self):
        # At eps = 1 the singular locus sits at v = 0, so any moving state works.
        f = vector_field(state_from_v(0.4), 1.0, 0.76)
        assert np.all(np.isfinite(f))

    def test_singular_locus(self):
        eps = 0.5
        v = math.sqrt((1.0 - eps) / (8.0 + eps))
        with pytest.raises(SingularBsharp):
            vector_field(state_from_v(v), eps, 0.76)


class TestUnstableDirection:
    def test_unit_and_eigen(self):
        eps, q = NODE_POINT
        vec = unstable_direction(eps, q)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        pair = rest_points(q)
        jac = field_jacobian(pair.psi_minus, eps, q)
        jv = jac @ vec
        lam = float(vec @ jv)
        assert lam > 0.0
        assert np.linalg.norm(jv - lam * vec) < 1e-6 * max(1.0, lam)

    @pytest.mark.parametrize("eps,q", [(1.0, 0.76), (0.5, 0.8), (0.2, 0.9), (0.9, 0.97)])
    def test_saddle_eigenvalue_product(self, eps, q):
        pair = rest_points(q)
        jac = field_jacobian(pair.psi_minus, eps, q)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        assert det < 0.0
        # The analytic rest-point linearization matches the general-state
        # complex-step Jacobian at both rest points.
        for psi in (pair.psi_minus, pair.psi_plus):
            ref = field_jacobian(psi, eps, q)
            assert np.max(np.abs(_rest_jacobian(psi, eps) - ref)) <= 1e-7 * np.max(np.abs(ref))

    @pytest.mark.parametrize("eps", [1e-3, 0.1, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("q", [0.76, 0.85, 0.95, 0.99])
    def test_field_jacobian_off_rest_points(self, eps, q):
        # Between the rest points F does not vanish, so the derivative of
        # B#^-1 counts too; central differences of the field are the
        # reference, good to ~1e-7 of max |J| (largest measured 1.03e-7).
        pair = rest_points(q)
        a, b = pair.psi_minus.as_array(), pair.psi_plus.as_array()
        for s in (0.05, 0.35, 0.65, 0.95):
            psi = GodunovState(*(a + s * (b - a)))
            jac = field_jacobian(psi, eps, q)
            ref = central_difference_jacobian(psi, eps, q)
            assert np.max(np.abs(jac - ref)) <= 5e-7 * np.max(np.abs(jac)), s

    def test_velocity_decreases_downstream(self):
        eps, q = NODE_POINT
        vec = unstable_direction(eps, q)
        pair = rest_points(q)
        start = pair.psi_minus.as_array()
        stepped = start + 1e-6 * vec
        v0 = kinematics(pair.psi_minus).v
        v1 = kinematics(GodunovState(*stepped)).v
        assert v1 < v0

    def test_field_points_away_along_unstable(self):
        eps, q = NODE_POINT
        pair = rest_points(q)
        vec = unstable_direction(eps, q)
        probe = GodunovState(*(pair.psi_minus.as_array() + 1e-6 * vec))
        f = vector_field(probe, eps, q)
        assert float(f @ vec) > 0.0


class TestShootNodeRegion:
    def test_converges(self, node_shot):
        assert node_shot.verdict is ProfileVerdict.CONVERGED_TO_PLUS

    def test_endpoint_within_capture(self, node_shot):
        scale = np.linalg.norm(
            node_shot.psi_minus.as_array() - node_shot.psi_plus.as_array()
        )
        end = node_shot.states[-1]
        assert np.linalg.norm(end - node_shot.psi_plus.as_array()) <= 1.01e-8 * scale

    def test_monotone_velocity(self, node_shot):
        rep = node_shot.oscillation
        assert rep.oscillatory is False
        assert rep.systems["u_v"][1].sign_changes == 0
        assert rep.systems["psi"][0].extrema == 0
        assert rep.systems["psi"][1].extrema == 0

    def test_samples_strictly_increasing_in_domain(self, node_shot):
        t = node_shot.times
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0.0)
        p0, p1 = node_shot.states[:, 0], node_shot.states[:, 1]
        assert np.all(p0 > np.abs(p1))
        _, u, v = node_shot.kinematics_array().T
        assert np.max(np.abs(u * u - v * v - 1.0)) < 1e-12

    def test_velocity_endpoints(self, node_shot):
        kin = node_shot.kinematics_array()
        assert kin[0, 2] == pytest.approx(math.sqrt(0.7232874559808615), abs=1e-5)
        assert kin[-1, 2] == pytest.approx(math.sqrt(0.3600458773524719), abs=1e-6)


class TestShootFocusRegion:
    def test_stays_in_domain(self, focus_shot):
        p0, p1 = focus_shot.states[:, 0], focus_shot.states[:, 1]
        assert np.all(p0 > np.abs(p1))
        u_sq = p0 * p0 / (p0 * p0 - p1 * p1)
        v_sq = p1 * p1 / (p0 * p0 - p1 * p1)
        assert np.max(np.abs(u_sq - v_sq - 1.0)) < 1e-10

    def test_oscillatory_when_converged(self, focus_shot):
        assert focus_shot.verdict is ProfileVerdict.CONVERGED_TO_PLUS
        rep = focus_shot.oscillation
        assert rep.oscillatory is True
        for system in ("psi", "theta_v", "u_v"):
            assert rep.oscillatory_by_system[system] is True
        assert rep.systems["u_v"][1].sign_changes >= 2

    @pytest.mark.parametrize("point", [NODE_POINT, FOCUS_POINT])
    def test_offset_robustness(self, point):
        eps, q = point
        base = shoot(eps, q, ShootOptions(offset=1e-7))
        halved = shoot(eps, q, ShootOptions(offset=5e-8))
        assert base.verdict is halved.verdict
        for system in ("psi", "theta_v", "u_v"):
            for a, b in zip(base.oscillation.systems[system], halved.oscillation.systems[system]):
                assert abs(a.sign_changes - b.sign_changes) <= 1


class TestShootGuards:
    def test_out_of_omega(self):
        with pytest.raises(ParamsOutOfOmega):
            shoot(1.0, 0.74)
        with pytest.raises(ParamsOutOfOmega):
            shoot(1.5, 0.8)

    def test_degenerate_band(self):
        with pytest.raises(DegenerateShock):
            shoot(1.0, 0.75 + 1e-9)

    def test_tolerance_invariance(self):
        eps, q = NODE_POINT
        a = shoot(eps, q, ShootOptions(rel_tol=1e-10, abs_tol=1e-12))
        b = shoot(eps, q, ShootOptions(rel_tol=5e-11, abs_tol=5e-13))
        scale = np.linalg.norm(a.psi_minus.as_array() - a.psi_plus.as_array())
        drift = np.linalg.norm(a.states[-1] - b.states[-1])
        assert drift < 10.0 * 1e-10 * scale

    def test_wrong_side_start_escapes(self):
        # The branch of the unstable manifold facing away from the attractor
        # must leave through the escape radius or the admissible cone.
        eps, q = NODE_POINT
        pair = rest_points(q)
        vec = unstable_direction(eps, q)
        scale = float(np.linalg.norm(pair.psi_minus.as_array() - pair.psi_plus.as_array()))
        start = pair.psi_minus.as_array() - 1e-7 * scale * vec
        verdict, times, states = _integrate(start, eps, q, pair, scale, ShootOptions())
        assert verdict is ProfileVerdict.ESCAPED
        assert states.shape[0] == times.size

    def test_singular_locus_verdict(self):
        # Near the upper separatrix at small eps the attractor sits close to
        # the singular locus and this orbit runs into it: no profile exists.
        res = shoot(0.1, 0.99)
        assert res.verdict is ProfileVerdict.HIT_SINGULAR_LOCUS

    def test_large_amplitude_edge_ends_in_verdict(self):
        # At psi_minus(0.9999), b00 b11 and b01^2 exceed det(B#) ~5e12-fold,
        # so the expanded det keeps ~4 digits; with the closed form the shot
        # ends after a few hundred samples.
        res = shoot(0.5, 0.9999)
        assert isinstance(res.verdict, ProfileVerdict)
        assert res.states.shape[0] < 5000

    def test_upper_scan_edge_ends_in_verdict(self):
        # The default scan's upper q edge, where the multiplied-out entries of
        # adj(B#) A cancel in det J: the closed forms keep the saddle test
        # sound.  Whether the singular locus is physical here is still open,
        # so only the verdict type is pinned.
        for eps, q in ((0.5, 1.0 - 1e-6), (0.2, 0.99999)):
            res = shoot(eps, q)
            assert isinstance(res.verdict, ProfileVerdict), (eps, q)
            assert res.states.shape[0] < 5000, (eps, q)

    @pytest.mark.parametrize(
        "eps,q",
        [
            (1e-6, 0.8),  # default scan's lower eps edge: singularly perturbed
            (1e-4, 0.8),
            (0.5, 0.75 + 1e-6),  # decay rate at psi_plus vanishes as q -> 3/4
        ],
    )
    def test_stiff_edge_converges(self, eps, q):
        # LSODA's BDF mode steps over the fast direction instead of resolving it.
        res = shoot(eps, q)
        assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS
        assert res.oscillation.oscillatory is False
        assert res.states.shape[0] < 1000

    def test_unresolved_corner_ends_within_budget(self):
        # Both scan edges at once: psi_plus lies 4e-7 in v^2 above the
        # singular locus, and the orbit creeps past it at 5e-5 of the shock's
        # size in steps of ~1e-8, so the step budget ends the shot.
        res = shoot(1e-6, 1.0 - 1e-6)
        assert isinstance(res.verdict, ProfileVerdict)
        assert res.states.shape[0] <= _MAX_STEPS + 1

    def test_rest_points_solved_once_per_shot(self, monkeypatch):
        calls = []

        def counting_rest_points(q_tilde):
            calls.append(q_tilde)
            return rest_points(q_tilde)

        monkeypatch.setattr(shooting, "rest_points", counting_rest_points)
        shoot(*NODE_POINT)
        assert calls == [NODE_POINT[1]]

    def test_pseudo_time_budget_ends_stalled_at_its_end(self):
        # itask 5 stops LSODA at tcrit, so the last step lands on the budget.
        res = shoot(0.5, 0.9, ShootOptions(max_pseudo_time=3.0))
        assert res.verdict is ProfileVerdict.STALLED
        assert res.times[-1] == 3.0

    def test_rel_tol_below_100_ulp_is_raised_to_it(self):
        # ODEPACK rejects such a tolerance before the first step; scipy's
        # LSODA solver raises it to 100 ulp with a warning, and so does the
        # step loop, without one.
        eps, q = 0.5, 0.9
        opts = ShootOptions(rel_tol=1e-16, abs_tol=1e-20)
        res = shoot(eps, q, opts)
        assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS
        start, pair, scale = shot_start(eps, q, opts)
        with pytest.warns(UserWarning, match="rtol"):
            _, ref_times, ref_states, _ = lsoda_solver_reference(start, eps, q, pair, scale, opts)
        assert res.times.tobytes() == ref_times.tobytes()
        assert res.states.tobytes() == ref_states.tobytes()

    def test_stiff_near_infinite_amplitude_converges(self):
        # A stiff sink at large v_minus^2: LSODA's BDF mode with the exact
        # Jacobian converges, where an explicit pair crawls to the budget.
        res = shoot(1e-4, 0.9999)
        assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS
        assert res.states.shape[0] < 2000

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.1, 0.5])
    def test_q_sweep_has_one_existence_boundary(self, eps):
        # At fixed eps, profiles exist up to a boundary q*(eps) and the orbit
        # runs into the singular locus beyond it: the verdicts along q are a
        # run of ConvergedToPlus and then only HitSingularLocus, with no
        # Stalled shot that would mark the integrator, not the physics.
        qs = (0.98, 0.985, 0.99, 0.995, 0.998, 0.999, 0.9995, 0.9998, 0.9999,
              0.99995, 0.99999, 0.999995, 1.0 - 1e-6)
        verdicts = [shoot(eps, q).verdict for q in qs]
        n = verdicts.count(ProfileVerdict.CONVERGED_TO_PLUS)
        assert n > 0
        assert verdicts[n:] == [ProfileVerdict.HIT_SINGULAR_LOCUS] * (len(qs) - n), verdicts

    @pytest.mark.parametrize("point", [NODE_POINT, FOCUS_POINT, (1e-4, 0.8)])
    def test_converged_shot_ends_on_capture_sphere(self, point):
        # The oscillation counts stop where the orbit meets the capture
        # sphere, so the last sample is placed on it, not at a step's end.
        res = shoot(*point)
        assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS
        plus = res.psi_plus.as_array()
        scale = np.linalg.norm(res.psi_minus.as_array() - plus)
        r_cap = ShootOptions().capture_radius * scale
        assert np.linalg.norm(res.states[-1] - plus) == pytest.approx(r_cap, rel=1e-6)


class TestCapturePoint:
    # A straight step toward the origin, the centre of a unit capture sphere.
    @staticmethod
    def dist(y):
        return math.hypot(y[0], y[1])

    def test_crossing_is_located_on_the_sphere(self):
        def dense(s):
            return np.array([2.0 - s, 0.0])

        t, y = _capture_point(dense, 0.0, 1.5, [0.5, 0.0], self.dist, 1.0)
        assert t == pytest.approx(1.0, abs=1e-12)
        assert self.dist(y) == pytest.approx(1.0, abs=1e-12)

    def test_interpolant_ending_just_outside_keeps_the_accepted_state(self):
        # The accepted state lies within rounding inside the sphere while the
        # dense output's end value lies within rounding outside it, as an
        # interpolant can: there is no crossing to bracket.
        end = math.nextafter(1.0, 2.0)

        def dense(s):
            return np.array([2.0 + (end - 2.0) * s, 0.0])

        accepted = [math.nextafter(1.0, 0.0), 0.0]
        assert self.dist(dense(1.0)) > 1.0
        t, y = _capture_point(dense, 0.0, 1.0, accepted, self.dist, 1.0)
        assert (t, y) == (1.0, accepted)


class TestStepLoopParity:
    # `_integrate` steps ODEPACK's LSODA itself; scipy's LSODA solver makes
    # the same calls, so every sample, the capture on its dense output and
    # the number of field evaluations must agree bit for bit.  This also
    # guards the rwork/iwork layout the capture interpolant reads.
    @pytest.mark.parametrize(
        "point,expected",
        [
            ((1.0, 0.762), ProfileVerdict.CONVERGED_TO_PLUS),  # node
            ((1.0, 0.8), ProfileVerdict.CONVERGED_TO_PLUS),  # focus
            ((1e-6, 0.8), ProfileVerdict.CONVERGED_TO_PLUS),  # stiff
            ((0.5, 0.9999), ProfileVerdict.HIT_SINGULAR_LOCUS),
            ((1e-6, 1.0 - 1e-6), ProfileVerdict.STALLED),  # step budget
        ],
    )
    def test_samples_match_scipy_lsoda_solver(self, point, expected, monkeypatch):
        eps, q = point
        opts = ShootOptions()
        start, pair, scale = shot_start(eps, q, opts)
        ref_verdict, ref_times, ref_states, nfev = lsoda_solver_reference(
            start, eps, q, pair, scale, opts
        )

        real_calls = 0

        def counting_factory(eps, q0):
            field = _field(eps, q0)

            def counting_field(y0, y1):
                nonlocal real_calls
                if not isinstance(y0, complex) and not isinstance(y1, complex):
                    real_calls += 1
                return field(y0, y1)

            return counting_field

        monkeypatch.setattr(shooting, "_field", counting_factory)
        verdict, times, states = _integrate(start, eps, q, pair, scale, opts)
        assert verdict is ref_verdict is expected
        assert times.shape == ref_times.shape and times.tobytes() == ref_times.tobytes()
        assert states.shape == ref_states.shape and states.tobytes() == ref_states.tobytes()
        assert real_calls == nfev
        if expected is ProfileVerdict.STALLED:
            assert times.size == _MAX_STEPS + 1


class TestShootOptions:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ShootOptions(offset=0.0)
        with pytest.raises(ValueError):
            ShootOptions(rel_tol=-1e-10)

    def test_rejects_capture_beyond_escape(self):
        with pytest.raises(ValueError):
            ShootOptions(capture_radius=1.0, escape_radius=0.5)


class TestOscillationReport:
    def test_constant_trajectory(self):
        psi = state_from_v(0.5)
        states = np.tile(psi.as_array(), (5, 1))
        rep = oscillation_report(states, psi)
        assert rep.oscillatory is False
        for counts in rep.systems.values():
            for c in counts:
                assert c.extrema == 0 and c.sign_changes == 0

    def test_synthetic_spiral(self):
        psi_plus = state_from_v(0.6)
        states = np.array(spiral_samples(psi_plus.as_array()))
        rep = oscillation_report(states, psi_plus)
        assert rep.systems["psi"][0].sign_changes >= 2
        assert rep.systems["psi"][1].sign_changes >= 2
        assert rep.oscillatory is True
        for flag in rep.oscillatory_by_system.values():
            assert flag is True

    def test_monotone_ramp(self):
        pair = rest_points(0.76)
        a, b = pair.psi_minus.as_array(), pair.psi_plus.as_array()
        states = np.array([a + t * (b - a) for t in np.linspace(0.0, 1.0, 101)])
        rep = oscillation_report(states, pair.psi_plus)
        assert rep.systems["psi"][0].extrema == 0
        assert rep.systems["psi"][1].extrema == 0
        assert rep.oscillatory is False

    def test_noise_below_state_scale_is_not_oscillation(self):
        # A weak shock's range is tiny next to the state itself; integrator
        # noise at the 1e-12 relative level in its tail is not oscillation.
        psi_plus = state_from_v(0.6)
        b = psi_plus.as_array()
        size = float(np.linalg.norm(b))
        d = np.array([1.0, 0.5]) / math.sqrt(1.25)
        ramp = [b + s * 1e-4 * size * d for s in np.linspace(1.0, 0.0, 51)]
        tail = [b + (-1.0) ** k * 1e-12 * size * d for k in range(20)]
        rep = oscillation_report(np.array(ramp + tail), psi_plus)
        assert rep.oscillatory is False
        for counts in rep.systems.values():
            for c in counts:
                assert c.sign_changes == 0

    def test_too_few_samples(self):
        psi = state_from_v(0.5)
        with pytest.raises(TooFewSamples):
            oscillation_report(np.tile(psi.as_array(), (2, 1)), psi)
