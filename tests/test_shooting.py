import contextlib
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import LSODA

from conftest import spiral_samples
from radshock.equilibria import rest_points, state_from_v
from radshock.errors import (
    DegenerateShock,
    OptionOutOfRange,
    ParamsOutOfOmega,
    SingularBsharp,
    TooFewSamples,
)
from radshock.model import (
    GodunovState,
    Kinematics,
    b_one,
    b_sharp,
    b_two,
    b_visc,
    det_b_sharp_closed,
    flux_residual,
    kinematics,
    lin_matrix,
    theta_u_v,
)
from radshock import shooting
from radshock.shooting import (
    _BOUNDARY_MARGIN,
    _CAPTURE_RADIUS,
    _ESCAPE_RADIUS,
    _MAX_PSEUDO_TIME,
    ProfileVerdict,
    ShootOptions,
    _capture_point,
    _field,
    _field_jacobian,
    _integrate,
    field_jacobian,
    oscillation_report,
    profile_to_csv,
    shoot,
    unstable_direction,
    vector_field,
)

NODE_POINT = (1.0, 0.76)
FOCUS_POINT = (1.0, 0.80)


def adjugate(m):
    """adj(m) of a 2x2 matrix, so that m @ adj(m) = det(m) I."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def magnitude(z):
    """|Re z| + i |Im z|: the sizes that rounding of either part is relative to."""
    return np.abs(np.real(z)) + 1j * np.abs(np.imag(z))


def product_magnitude(a, b):
    """The magnitudes of the terms of a * b, for real and imaginary parts apart."""
    a, b = complex(a), complex(b)
    re = abs(a.real * b.real) + abs(a.imag * b.imag)
    return re + 1j * (abs(a.real * b.imag) + abs(a.imag * b.real))


def matrix_field_reference(y0, y1, eps, q0):
    """Reference for `_field` inside the cone: adj(B#) F / det(B#) by the matrix route.

    Also returns, per component, what its rounding is relative to:
    |adj(B#)| |F| / |det(B#)| with every sum in B# and F taken over the
    magnitudes of its terms, for real and imaginary parts apart, so a
    complex step's imaginary part gets its own scale.  That includes the
    sums in the complex products u = theta y0 and v = theta y1: at v = 0
    Im u is such a sum that cancels, and its rounding is all it holds.
    """
    kin = Kinematics(*theta_u_v(y0, y1))
    det = det_b_sharp_closed(kin.v * kin.v, eps)
    f = flux_residual(SimpleNamespace(psi0=y0, psi1=y1), q0, 1.0)
    field = adjugate(b_sharp(kin, eps)) @ f / det
    m = Kinematics(
        magnitude(kin.theta), product_magnitude(kin.theta, y0), product_magnitude(kin.theta, y1)
    )
    c2 = 9.0 * eps / (4.0 - eps)
    b_mag = eps * magnitude(b_visc(m)) + magnitude(b_one(m)) + c2 * magnitude(b_two(m))
    t4 = m.theta**4
    f_mag = np.array(
        [(4.0 / 3.0) * t4 * m.v * m.u + q0, t4 * ((4.0 / 3.0) * m.v * m.v + 1.0 / 3.0) + 1.0]
    )
    num = magnitude(adjugate(b_mag)) @ f_mag
    d = abs(np.real(det))
    scale = num.real / d + 1j * (num.imag / d + num.real / d * (abs(np.imag(det)) / d))
    return field, scale


def central_difference_jacobian(psi, eps, q_tilde, step=1e-6):
    """Reference for `field_jacobian`: central differences of the field."""
    y = (psi.psi0, psi.psi1)
    field = _field(eps, q_tilde)
    jac = np.empty((2, 2))
    for i in range(2):
        dp = [0.0, 0.0]
        dp[i] = step
        fp = field(y[0] + dp[0], y[1] + dp[1])
        fm = field(y[0] - dp[0], y[1] - dp[1])
        jac[0, i] = (fp[0] - fm[0]) / (2.0 * step)
        jac[1, i] = (fp[1] - fm[1]) / (2.0 * step)
    return jac


def rest_jacobian_reference(psi, eps):
    """Reference for `field_jacobian` at a rest point: (4/3) theta^5 adj(B#) A / det(B#).

    Exact only where F vanishes, since the derivative of B#^-1 then drops out.
    """
    kin = kinematics(psi)
    det = det_b_sharp_closed(kin.v * kin.v, eps)
    return (4.0 / 3.0) * kin.theta**5 / det * (adjugate(b_sharp(kin, eps)) @ lin_matrix(kin))


def mpmath_b_sharp(e, u, v):
    """B#'s entries (b00, b01, b11) from its blocks, in mpmath's working precision."""
    u2, v2, uv = u * u, v * v, u * v
    w, r, c2 = u2 + v2, 4 * v2 + 1, 9 * e / (4 - e)
    b00 = e * u2 * v2 - 16 * u2 * v2 - c2 * w * w
    b01 = -e * u2 * uv + 4 * uv * r + 2 * c2 * w * uv
    b11 = e * u2 * u2 - r * r - 4 * c2 * u2 * v2
    return b00, b01, b11


def mpmath_field(y0, y1, eps, q_tilde, dps=50):
    """Reference for `_field`: adj(B#) F / det(B#) at a float state in `dps` digits.

    Also returns the field's Jacobian, by a complex step in the same precision.
    """
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf

    def field(p0, p1, e, q):
        theta = (p0 * p0 - p1 * p1) ** (-mpf(1) / 2)
        u, v = theta * p0, theta * p1
        b00, b01, b11 = mpmath_b_sharp(e, u, v)
        t4 = theta**4
        f0 = -(mpf(4) / 3) * t4 * v * u + q ** (-mpf(1) / 2)
        f1 = t4 * ((mpf(4) / 3) * v * v + mpf(1) / 3) - 1
        det = b00 * b11 - b01 * b01
        return (b11 * f0 - b01 * f1) / det, (b00 * f1 - b01 * f0) / det

    with mpmath.workdps(dps):
        y0, y1, e, q, h = mpf(y0), mpf(y1), mpf(eps), mpf(q_tilde), mpf(10) ** -40
        value = [float(x) for x in field(y0, y1, e, q)]
        cols = [field(mpmath.mpc(y0, h), y1, e, q), field(y0, mpmath.mpc(y1, h), e, q)]
        jac = [[float(col[i].imag / h) for col in cols] for i in range(2)]
    return np.array(value), np.array(jac)


def mpmath_unstable_direction(eps, q_tilde, dps=80):
    """Reference for `unstable_direction`: the exact saddle's unstable eigenvector.

    The rest points, (4/3) theta^5 adj(B#) A / det(B#) and its eigenvectors
    are taken in `dps` digits; the unit vector is aimed at psi_plus.
    """
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf
    with mpmath.workdps(dps):
        q, e = mpf(q_tilde), mpf(eps)
        root = mpmath.sqrt(q * (4 * q - 3))

        def state(v_sq):
            pref = ((mpf(4) / 3) * v_sq + mpf(1) / 3) ** (mpf(1) / 4)
            return pref * mpmath.sqrt(1 + v_sq), pref * mpmath.sqrt(v_sq)

        v_sq = (2 * q - 1 + root) / (4 * (1 - q))
        minus = state(v_sq)
        plus = state(1 / (4 * (2 * q - 1 + root)))
        theta = (minus[0] ** 2 - minus[1] ** 2) ** (-mpf(1) / 2)
        u, v = theta * minus[0], theta * minus[1]
        b00, b01, b11 = mpmath_b_sharp(e, u, v)
        v2 = v * v
        off = -u * (6 * v2 + 1)
        lin = mpmath.matrix([[v * (6 * v2 + 5), off], [off, 3 * v * (2 * v2 + 1)]])
        adj = mpmath.matrix([[b11, -b01], [-b01, b00]])
        jac = (mpf(4) / 3) * theta**5 / (b00 * b11 - b01 * b01) * (adj * lin)
        values, vectors = mpmath.eig(jac)
        k = max(range(2), key=lambda i: mpmath.re(values[i]))
        vec = [mpmath.re(vectors[i, k]) for i in range(2)]
        norm = mpmath.sqrt(vec[0] ** 2 + vec[1] ** 2)
        if vec[0] * (plus[0] - minus[0]) + vec[1] * (plus[1] - minus[1]) < 0:
            norm = -norm
        return np.array([float(x / norm) for x in vec])


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
    p0, p1 = pair.psi_plus.psi0, pair.psi_plus.psi1
    r_cap = _CAPTURE_RADIUS * scale
    r_esc = _ESCAPE_RADIUS * scale
    sing_level = (1.0 - eps) / (8.0 + eps)

    field = _field(eps, q_tilde)

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
        rhs, 0.0, y_start, _MAX_PSEUDO_TIME,
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
        elif r >= r_esc or not y[0] - abs(y[1]) > _BOUNDARY_MARGIN:
            verdict = ProfileVerdict.ESCAPED
            if not y[0] > abs(y[1]):
                break
        elif gap_old >= 0.0 >= gap:
            verdict = ProfileVerdict.HIT_SINGULAR_LOCUS
        elif solver.status == "finished" or len(times) == shooting._MAX_STEPS:
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
    def test_field_matches_matrix_route(self, eps, q_tilde, y0, ratio, stepped):
        y = [y0, ratio * y0]
        if stepped is not None:
            y[stepped] = complex(y[stepped], 1e-30)
        got = _field(eps, q_tilde)(*y)
        if abs(ratio) >= 1.0:
            assert got == (1e300, 1e300)
            return
        # On the singular locus det(B#) is 0 and the field has no value.
        assume(np.real(det_b_sharp_closed(theta_u_v(*y)[2] ** 2, eps)) != 0.0)
        want, scale = matrix_field_reference(*y, eps, q_tilde**-0.5)
        # 25 ulp of the scale: about 3.6x the largest error measured over
        # 600,000 random states (7.0 ulp), real and complex-step alike.
        for g, w, sc in zip(got, want, scale):
            assert abs(g.real - w.real) <= 25.0 * 2.0**-52 * sc.real
            assert abs(g.imag - w.imag) <= 25.0 * 2.0**-52 * sc.imag

    def test_corner_orbits_match_high_precision(self):
        # The field on two orbits near the corner (eps, q_tilde) -> (0, 1),
        # against B#^-1 F in 50 digits, at the first sample within each of ten
        # distances of psi_plus, from 0.95 to 1e-4 of the shock's size.  The
        # error is counted in what one rounding of the state and of the result
        # move the field by, 2^-52 (|f| + |J| |y|).  The largest measured is
        # 1.2; with phi formed by cancellation it was 950.
        worst = 0.0
        for eps, q in ((1e-6, 0.9999), (1e-6, 1.0 - 1e-6)):
            res = shoot(eps, q)
            plus = res.psi_plus.as_array()
            scale = np.linalg.norm(res.psi_minus.as_array() - plus)
            dist = np.linalg.norm(res.states - plus, axis=1) / scale
            field = _field(eps, q)
            for d in np.geomspace(0.95, 1e-4, 10):
                y0, y1 = res.states[np.argmax(dist <= d)].tolist()
                want, jac = mpmath_field(y0, y1, eps, q)
                unit = 2.0**-52 * (np.abs(want) + np.abs(jac) @ np.abs([y0, y1]))
                worst = max(worst, float(np.max(np.abs(np.array(field(y0, y1)) - want) / unit)))
        assert worst <= 12.0

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
        # The complex-step Jacobian matches the analytic rest-point
        # linearization at both rest points.
        for psi in (pair.psi_minus, pair.psi_plus):
            jac = field_jacobian(psi, eps, q)
            ref = rest_jacobian_reference(psi, eps)
            assert np.max(np.abs(jac - ref)) <= 1e-7 * np.max(np.abs(jac))

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

    @pytest.mark.parametrize(
        "eps,q,bound",
        [
            (1.0, 0.8, 1e-13),
            (1e-3, 0.8, 1e-13),
            (1.0, 0.9999, 2e-8),
            (1.0, 0.99999, 2e-6),
            (1.0, 1.0 - 1e-6, 1e-3),
            (0.9473684736842105, 1.0 - 1e-6, 2e-9),  # a 20x20 scan column
            (0.5, 1.0 - 1e-6, 2e-9),
            (1e-6, 1.0 - 1e-6, 1e-13),  # the default scan's corner
        ],
    )
    def test_matches_high_precision_eigenvector(self, eps, q, bound):
        # The start direction from the complex step at the rounded saddle,
        # against the exact saddle's eigenvector.  The bounds sit about 10x
        # above the measured errors, which grow with v_minus^2 as q -> 1.
        got = unstable_direction(eps, q)
        assert np.max(np.abs(got - mpmath_unstable_direction(eps, q))) <= bound

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
        field = _field(eps, q)
        verdict, times, states = _integrate(field, start, eps, pair, scale, ShootOptions())
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
        # singular locus.  With phi formed by cancellation the orbit crept
        # along the slow manifold until the step budget ended it Stalled
        # (10,001 samples); factored through the rest points it converges
        # (887 samples).
        res = shoot(1e-6, 1.0 - 1e-6)
        assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS
        assert res.oscillation.oscillatory is False
        assert res.states.shape[0] < 1000

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "point,rel_tol",
        [
            ((0.028332045493508644, 0.8587433656528857), 1e-6),
            ((1e-3, 0.8), 1e-6),
            ((0.5, 0.9), 1e-3),
            ((1.0, 0.8), 1e-3),
            ((1e-6, 1.0 - 1e-6), 1e-4),  # a trial state where psi0^2 - psi1^2 is inf - inf
            # LSODA accepts a NaN state here; the cone test must catch it.
            ((0.6842108421052632, 0.999999), 1e-2),
            ((0.8421054210526315, 0.999999), 1e-2),
        ],
    )
    def test_loose_tolerance_steps_out_of_the_cone_are_rejected(self, point, rel_tol):
        # LSODA's trial steps leave the cone here.  Handed NaN for them, it
        # accepted the step and walked NaN states to the pseudo-time budget,
        # ending Stalled with nan rows; the finite 1e300 makes it shrink the
        # step.  A step it accepts anyway ends the shot Escaped, unrecorded.
        res = shoot(*point, ShootOptions(rel_tol=rel_tol))
        assert np.all(np.isfinite(res.states))
        assert np.all(res.states[:, 0] > np.abs(res.states[:, 1]))
        assert res.verdict is not ProfileVerdict.STALLED

    @pytest.mark.filterwarnings("error")
    def test_finite_first_step_out_of_the_cone_escapes(self):
        # With no error control, LSODA's first step lands outside the cone
        # with a finite state.  ShootOptions rejects such a tolerance, so a
        # stand-in options object hands it to the step loop directly.
        eps, q = 1.0, 0.8
        start, pair, scale = shot_start(eps, q, ShootOptions())
        loose = SimpleNamespace(rel_tol=1e10, abs_tol=1e-12)
        verdict, times, states = _integrate(_field(eps, q), start, eps, pair, scale, loose)
        assert verdict is ProfileVerdict.ESCAPED
        assert times.size == states.shape[0] == 1
        assert np.all(states[:, 0] > np.abs(states[:, 1]))

    @pytest.mark.parametrize("offset", [1e-16, 1e-15, 3e-15])
    def test_offset_below_the_start_point_resolution_is_rejected(self, offset):
        # Rounding of psi_minus + offset * scale * direction swamps such an
        # offset: at 1e-15 the start is off by 9% here and the shot ended
        # Escaped, where larger offsets converge.  At 3e-15 it is off by 3%,
        # above the 1% the check allows.
        with pytest.raises(OptionOutOfRange, match=f"offset {offset}"):
            shoot(1.0, 0.8, ShootOptions(offset=offset))

    def test_smallest_resolved_offset_converges(self):
        res = shoot(1.0, 0.8, ShootOptions(offset=3e-14))
        assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS

    @pytest.mark.filterwarnings("error")
    def test_lsoda_failure_ends_in_a_verdict_without_a_warning(self):
        # LSODA gives up on the first step ("Repeated convergence failures");
        # the shot ends on that failure path, and ODEPACK's runner, called
        # directly, raises no warning for it.
        res = shoot(1e-6, 0.75 + 1e-6, ShootOptions(rel_tol=1e-4))
        assert isinstance(res.verdict, ProfileVerdict)
        assert np.all(np.isfinite(res.states))

    def test_rest_points_solved_once_per_shot(self, monkeypatch):
        calls = []

        def counting_rest_points(q_tilde):
            calls.append(q_tilde)
            return rest_points(q_tilde)

        monkeypatch.setattr(shooting, "rest_points", counting_rest_points)
        shoot(*NODE_POINT)
        assert calls == [NODE_POINT[1]]

    def test_pseudo_time_budget_ends_stalled_at_its_end(self, monkeypatch):
        # itask 5 stops LSODA at tcrit, so the last step lands on the budget.
        monkeypatch.setattr(shooting, "_MAX_PSEUDO_TIME", 3.0)
        res = shoot(0.5, 0.9)
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

    @pytest.mark.parametrize("eps", [1e-6, 3e-6, 1e-5, 3e-5, 1e-4])
    def test_fixed_eps_sweep_to_the_top_edge_never_stalls(self, eps):
        # 1 - q_tilde from 0.2 down to 1e-6, where psi_plus nears the singular
        # locus as eps -> 0.  With phi formed by cancellation, 8 of these 50
        # shots crept along the slow manifold to the step budget.
        verdicts = [shoot(eps, 1.0 - d).verdict for d in np.geomspace(0.2, 1e-6, 10).tolist()]
        n = verdicts.count(ProfileVerdict.CONVERGED_TO_PLUS)
        assert n > 0
        assert verdicts[n:] == [ProfileVerdict.HIT_SINGULAR_LOCUS] * (len(verdicts) - n), verdicts

    @pytest.mark.parametrize("point", [NODE_POINT, FOCUS_POINT, (1e-4, 0.8)])
    def test_converged_shot_ends_on_capture_sphere(self, point):
        # The oscillation counts stop where the orbit meets the capture
        # sphere, so the last sample is placed on it, not at a step's end.
        res = shoot(*point)
        assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS
        plus = res.psi_plus.as_array()
        scale = np.linalg.norm(res.psi_minus.as_array() - plus)
        r_cap = _CAPTURE_RADIUS * scale
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


# (point, options, verdict, whether LSODA itself gives up, step budget or None
# for the default) for TestStepLoopParity.
PARITY_CASES = [
    ((1.0, 0.762), ShootOptions(), ProfileVerdict.CONVERGED_TO_PLUS, False, None),  # node
    ((1.0, 0.8), ShootOptions(), ProfileVerdict.CONVERGED_TO_PLUS, False, None),  # focus
    ((1e-6, 0.8), ShootOptions(), ProfileVerdict.CONVERGED_TO_PLUS, False, None),  # stiff
    ((0.5, 0.9999), ShootOptions(), ProfileVerdict.HIT_SINGULAR_LOCUS, False, None),
    # The corner converges in 887 samples; a budget of 400 steps ends it first.
    ((1e-6, 1.0 - 1e-6), ShootOptions(), ProfileVerdict.STALLED, False, 400),
    # "Repeated convergence failures" on the first step: istate < 0.
    ((1e-6, 0.75 + 1e-6), ShootOptions(rel_tol=1e-4), ProfileVerdict.STALLED, True, None),
]


class TestStepLoopParity:
    # `_integrate` steps ODEPACK's LSODA itself; scipy's LSODA solver makes
    # the same calls, so every sample, the capture on its dense output and
    # the number of field evaluations must agree bit for bit.  This also
    # guards the runner's call signature and the rwork/iwork layout the
    # capture interpolant reads.
    @pytest.mark.parametrize(
        "point,opts,expected,lsoda_fails,max_steps",
        [pytest.param(*c, id=f"point{i}-{c[2].value}") for i, c in enumerate(PARITY_CASES)],
    )
    def test_samples_match_scipy_lsoda_solver(
        self, monkeypatch, point, opts, expected, lsoda_fails, max_steps
    ):
        if max_steps is not None:
            monkeypatch.setattr(shooting, "_MAX_STEPS", max_steps)
        eps, q = point
        start, pair, scale = shot_start(eps, q, opts)
        # scipy's solver warns when LSODA gives up; the step loop does not.
        with pytest.warns(UserWarning, match="lsoda") if lsoda_fails else contextlib.nullcontext():
            ref_verdict, ref_times, ref_states, nfev = lsoda_solver_reference(
                start, eps, q, pair, scale, opts
            )

        field = _field(eps, q)
        real_calls = 0

        def counting_field(y0, y1):
            nonlocal real_calls
            if not isinstance(y0, complex) and not isinstance(y1, complex):
                real_calls += 1
            return field(y0, y1)

        verdict, times, states = _integrate(counting_field, start, eps, pair, scale, opts)
        assert verdict is ref_verdict is expected
        assert times.shape == ref_times.shape and times.tobytes() == ref_times.tobytes()
        assert states.shape == ref_states.shape and states.tobytes() == ref_states.tobytes()
        assert real_calls == nfev
        if lsoda_fails:
            assert times.size == 1
        elif expected is ProfileVerdict.STALLED:
            assert times.size == shooting._MAX_STEPS + 1


@pytest.mark.parametrize(
    "point,digest",
    [
        ((1.0, 0.762), "809eb29dd316b0a90f7c06e30870e6db9abfebe91c76814220d7c54a64c760b5"),
        ((1.0, 0.8), "6c2c104868d7fcdef39d8436179ec4090f964470857510f31e0de64f5fc79723"),
        ((1e-6, 0.8), "be4faa57cf594549f2fc22b01561cf0f45ef76c4491f1c45037b4759386885c2"),
        ((0.5, 0.9999), "abc9e2326ed53cf962df9869c7b4b0432bdb1bbc87d04fe50ed577576439d721"),
        ((1.0, 1.0 - 1e-6), "c120aaa775fa5ee5ac4f61d0e1a8831e5aedb5066b95603f4764e4aac029a63c"),
    ],
    ids=[f"point{i}" for i in range(5)],
)
def test_whole_shot_digest(point, digest):
    # Every sample of these shots, to the last bit: a rounding change
    # anywhere in the field, the start direction or the step loop shows here.
    assert hashlib.sha256(profile_to_csv(shoot(*point)).encode()).hexdigest() == digest


class TestShootOptions:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ShootOptions(offset=0.0)
        with pytest.raises(ValueError):
            ShootOptions(rel_tol=-1e-10)
        with pytest.raises(ValueError):
            ShootOptions(rel_tol=1e10)
        for name in ("offset", "rel_tol", "abs_tol"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    ShootOptions(**{name: value})


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
