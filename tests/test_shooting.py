import contextlib
import importlib.util
import json
import math
import os
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import BDF, LSODA, Radau, solve_ivp

from conftest import blocks_b_sharp, hide_module, run_python, spiral_samples
from shot_pins import (
    DIGEST_POINTS, INTERIOR_POINTS, INTERIOR_WORK, PINS, WORK, WORK_POINTS, measure, measure_work,
)
from radshock.classification import RegionLabel, local_spectrum
from radshock.equilibria import rest_points, state_from_v, v_plus_squared
from radshock.errors import (
    DegenerateShock,
    NotASaddle,
    ParamsOutOfOmega,
    StateOutsideDomain,
    TooFewSamples,
)
from radshock.scan import ScanConfig, run_scan
from radshock.model import (
    GodunovState,
    Kinematics,
    b_one,
    b_sharp,
    b_two,
    b_visc,
    det_b_sharp_closed,
    kinematics,
    lin_matrix,
    singular_locus_v_sq,
    theta_u_v,
)
from radshock import equilibria, shooting
from radshock.shooting import (
    _CAPTURE_RADIUS,
    _MAX_PSEUDO_TIME,
    ComponentCounts,
    OscillationReport,
    ProfileVerdict,
    ShootOptions,
    _capture_point,
    _counts,
    _psi_field,
    _field_jacobian,
    _integrate,
    _lsoda_steps,
    field_jacobian,
    oscillation_report,
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


def det_plus(eps, q_tilde):
    """det B# at psi_plus, the constant `_field` divides adj(B#) F by."""
    return det_b_sharp_closed(v_plus_squared(q_tilde), eps)


def psi_field_reference(a, b, eps, q_tilde):
    """Reference for `vector_field`: adj(B#) F / det B#(psi_plus) in psi by the matrix route.

    The state is given in null coordinates (a, b) = (psi0 + psi1, psi0 - psi1):
    theta is (ab)^(-1/2) and (u, v) = theta ((a + b)/2, (a - b)/2), so neither
    cancels near the cone's edge.  Also returns, per component, what its
    rounding is relative to: |adj(B#)| |F| / |det B#(psi_plus)| with every sum
    in B# and F taken over the magnitudes of its terms, for real and
    imaginary parts apart, so a complex step's imaginary part gets its own
    scale.  That includes the sums in the complex products u = theta psi0 and
    v = theta psi1: at v = 0 Im u is such a sum that cancels, and its
    rounding is all it holds.
    """
    theta, y0, y1 = (a * b) ** -0.5, 0.5 * (a + b), 0.5 * (a - b)
    kin = Kinematics(theta, theta * y0, theta * y1)
    det, q0 = det_plus(eps, q_tilde), q_tilde**-0.5
    t4, u, v = theta**4, kin.u, kin.v
    f = np.array([-(4.0 / 3.0) * t4 * v * u + q0, t4 * ((4.0 / 3.0) * v * v + 1.0 / 3.0) - 1.0])
    field = adjugate(b_sharp(kin, eps)) @ f / det
    m = Kinematics(
        magnitude(theta), product_magnitude(theta, y0), product_magnitude(theta, y1)
    )
    c2 = 9.0 * eps / (4.0 - eps)
    b_mag = eps * magnitude(b_visc(m)) + magnitude(b_one(m)) + c2 * magnitude(b_two(m))
    t4 = m.theta**4
    f_mag = np.array(
        [(4.0 / 3.0) * t4 * m.v * m.u + q0, t4 * ((4.0 / 3.0) * m.v * m.v + 1.0 / 3.0) + 1.0]
    )
    return field, magnitude(adjugate(b_mag)) @ f_mag / abs(det)


def matrix_field_reference(a, b, eps, q_tilde):
    """Reference for `_field` inside the cone: `psi_field_reference` taken to null coordinates.

    T = [[1, 1], [1, -1]] takes the psi components f0, f1 to (f0 + f1,
    f0 - f1), and the rounding scale of either is the sum of theirs.
    """
    (f0, f1), (sc0, sc1) = psi_field_reference(a, b, eps, q_tilde)
    return (f0 + f1, f0 - f1), (sc0 + sc1, sc0 + sc1)


def central_difference_jacobian(psi, eps, q_tilde, step=1e-6):
    """Reference for `field_jacobian`: central differences of the field in psi."""
    y = (psi.psi0, psi.psi1)
    field = _psi_field(eps, q_tilde)
    jac = np.empty((2, 2))
    for i in range(2):
        dp = [0.0, 0.0]
        dp[i] = step
        fp = field(y[0] + dp[0], y[1] + dp[1])
        fm = field(y[0] - dp[0], y[1] - dp[1])
        jac[0, i] = (fp[0] - fm[0]) / (2.0 * step)
        jac[1, i] = (fp[1] - fm[1]) / (2.0 * step)
    return jac


def rest_jacobian_reference(psi, eps, q_tilde):
    """Reference for `field_jacobian` at a rest point: (4/3) theta^5 adj(B#) A / det B#(psi_plus).

    Exact only where F vanishes, since the derivative of adj(B#) then drops out.
    """
    kin = kinematics(psi)
    adj_a = adjugate(b_sharp(kin, eps)) @ lin_matrix(kin)
    return (4.0 / 3.0) * kin.theta**5 / det_plus(eps, q_tilde) * adj_a


def mpmath_field(a, b, eps, q_tilde, dps=50):
    """Reference for `_field`: T adj(B#) F / det B#(psi_plus) at a float state in `dps` digits.

    The state is in null coordinates (a, b) = (psi0 + psi1, psi0 - psi1), and
    T = [[1, 1], [1, -1]] takes the psi components to them.  The divisor is
    the float `det_plus` that `_field` takes: its rounding is a constant
    factor, which rescales the field's time but moves no orbit.  Also returns
    the field's Jacobian in (a, b), by a complex step in the same precision.
    """
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf

    def field(a, b, e, q):
        p0, p1 = (a + b) / 2, (a - b) / 2
        theta = (p0 * p0 - p1 * p1) ** (-mpf(1) / 2)
        u, v = theta * p0, theta * p1
        t4 = theta**4
        f0 = -(mpf(4) / 3) * t4 * v * u + q ** (-mpf(1) / 2)
        f1 = t4 * ((mpf(4) / 3) * v * v + mpf(1) / 3) - 1
        g0, g1 = adjugate(blocks_b_sharp(Kinematics(theta, u, v), e)) @ [f0, f1] / det
        return g0 + g1, g0 - g1

    det = mpf(det_plus(eps, q_tilde))
    with mpmath.workdps(dps):
        a, b, e, q, h = mpf(a), mpf(b), mpf(eps), mpf(q_tilde), mpf(10) ** -40
        value = [float(x) for x in field(a, b, e, q)]
        cols = [field(mpmath.mpc(a, h), b, e, q), field(a, mpmath.mpc(b, h), e, q)]
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
        kin = Kinematics(theta, theta * minus[0], theta * minus[1])
        bs = blocks_b_sharp(kin, e)
        det = bs[0, 0] * bs[1, 1] - bs[0, 1] * bs[1, 0]
        jac = (mpf(4) / 3) * theta**5 / det * (adjugate(bs) @ lin_matrix(kin))
        values, vectors = mpmath.eig(mpmath.matrix(jac.tolist()))
        k = max(range(2), key=lambda i: mpmath.re(values[i]))
        vec = [mpmath.re(vectors[i, k]) for i in range(2)]
        norm = mpmath.sqrt(vec[0] ** 2 + vec[1] ** 2)
        if vec[0] * (plus[0] - minus[0]) + vec[1] * (plus[1] - minus[1]) < 0:
            norm = -norm
        return np.array([float(x / norm) for x in vec])


def shot_field(eps, q_tilde):
    """The field closure, in null coordinates, that a shot at (eps, q_tilde) steps."""
    return shooting._setup(eps, q_tilde)[3]


def shot_start(eps, q_tilde, linear_offset=None):
    """The field, null start, psi_plus in null coordinates and length scale `shoot` steps from.

    Given `linear_offset`, the start lies that far from psi_minus along the
    unstable eigenvector instead, relative to the length scale: the linear
    start that shots took before they started on the manifold to second
    order, kept as test data where a case needs its first step.
    """
    eps, _, pair, field, minus, plus = shooting._setup(eps, q_tilde)
    start, _, scale = shooting._start(field, eps, pair, minus, plus)
    if linear_offset is not None:
        _, _, direction = shooting._saddle(field, eps, pair, minus, plus)
        start = tuple(c + linear_offset * scale * e for c, e in zip(minus, direction))
    return field, start, plus, scale


def solver_steps(method, field, y_start, opts):
    """A stepper for `_integrate` over scipy's public solver `method`, and the solver.

    The solver steps `field` from the null start `y_start` toward the
    pseudo-time budget at `opts`' tolerances, with Python floats and the
    complex-step Jacobian, as `_lsoda_steps` does.  The stepper yields each
    accepted step as (t, a, b) and ends when the solver fails.
    """
    solver = method(
        lambda _t, y: field(*y.tolist()), 0.0, list(y_start), _MAX_PSEUDO_TIME,
        rtol=opts.rel_tol, atol=opts.abs_tol, jac=lambda _t, y: _field_jacobian(field, *y.tolist()),
    )

    def steps():
        while solver.status == "running":
            solver.step()
            if solver.status == "failed":
                return
            yield solver.t, *solver.y.tolist()

    return solver, steps()


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
        # psi1 / psi0; |ratio| >= 1 puts the state on or outside the cone.
        ratio=st.sampled_from([-1.0, 1.0]) | st.floats(-2.0, 2.0),
        # None: a float state; 0 or 1: the complex step on that null component.
        stepped=st.sampled_from([None, 0, 1]),
    )
    def test_field_matches_matrix_route(self, eps, q_tilde, y0, ratio, stepped):
        y = [y0 * (1.0 + ratio), y0 * (1.0 - ratio)]
        if stepped is not None:
            y[stepped] = complex(y[stepped], 1e-30)
        got = shot_field(eps, q_tilde)(*y)
        if abs(ratio) >= 1.0:
            assert got == (1e300, 1e300)
            return
        want, scale = matrix_field_reference(*y, eps, q_tilde)
        # 25 ulp of the scale: about 4x the largest error measured over
        # 200,000 random states (6.0 ulp), real and complex-step alike.  Both
        # null components share the scale of f0 - f1 as a sum of magnitudes,
        # so this check cannot see b' cancel like u^2 at the strong-shock
        # edge when formed as that difference; only
        # `test_corner_orbits_match_high_precision` guards that.
        for g, w, sc in zip(got, want, scale):
            assert abs(g.real - w.real) <= 25.0 * 2.0**-52 * sc.real
            assert abs(g.imag - w.imag) <= 25.0 * 2.0**-52 * sc.imag

    def test_corner_orbits_match_high_precision(self):
        # The field on two orbits near the corner (eps, q_tilde) -> (0, 1),
        # against the field in 50 digits, at the first sample within each of
        # ten distances of psi_plus, from 0.95 to 1e-4 of the shock's size,
        # taken to null coordinates.  The error is counted in what one
        # rounding of the state and of the result move the field by, 2^-52
        # (|f| + |J| |y|) with y = (a, b).  The largest measured is 1.6
        # (1.2 for the field in psi); with phi formed by cancellation it was
        # 950, and with b' formed as the difference of the psi components,
        # which cancel like u^2 at the top edge, 2.4e5.
        worst = 0.0
        for eps, q in ((1e-6, 0.9999), (1e-6, 1.0 - 1e-6)):
            res = shoot(eps, q)
            plus = res.psi_plus.as_array()
            scale = np.linalg.norm(res.psi_minus.as_array() - plus)
            dist = np.linalg.norm(res.states - plus, axis=1) / scale
            field = shot_field(eps, q)
            for d in np.geomspace(0.95, 1e-4, 10):
                y0, y1 = res.states[np.argmax(dist <= d)].tolist()
                a, b = y0 + y1, y0 - y1
                want, jac = mpmath_field(a, b, eps, q)
                unit = 2.0**-52 * (np.abs(want) + np.abs(jac) @ np.abs([a, b]))
                worst = max(worst, float(np.max(np.abs(np.array(field(a, b)) - want) / unit)))
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

    def test_finite_at_a_trial_state_with_zero_det(self):
        # LSODA may try a state with det(B#) exactly 0.0 inside a step.  The
        # field divides by det B#(psi_plus) only, so it has its ordinary
        # value there: the matrix route's, to the hypothesis test's 25 ulp.
        # The public field and its Jacobian take the state as well, in psi,
        # where vector_field maps it to the same (a, b) the field computes
        # v from.
        y = (0.8242786886853923, 0.19428435011899867)
        a, b = y[0] + y[1], y[0] - y[1]
        theta = (a * b) ** -0.5
        v = 0.5 * (theta * a - theta * b)
        assert det_b_sharp_closed(v * v, 0.5) == 0.0
        for got, (want, scale) in (
            (shot_field(0.5, 0.8)(a, b), matrix_field_reference(a, b, 0.5, 0.8)),
            (vector_field(GodunovState(*y), 0.5, 0.8), psi_field_reference(a, b, 0.5, 0.8)),
        ):
            assert all(math.isfinite(g) for g in got)
            for g, w, sc in zip(got, want, scale):
                assert abs(g - w) <= 25.0 * 2.0**-52 * sc.real
        assert np.all(np.isfinite(field_jacobian(GodunovState(*y), 0.5, 0.8)))

    @pytest.mark.parametrize("psi", [(1e200, 0.0), (1e160, 1e159)])
    def test_overflowing_state_gives_the_rejected_value(self, psi):
        # psi0^2 - psi1^2, and ab in null coordinates, overflow to inf at
        # the first state and to inf - inf = NaN (in psi) at the second.  An
        # inf let through made theta 0 and the field finite but wrong; both
        # give the value LSODA's error test rejects.
        y0, y1 = psi
        assert shot_field(1e-6, 1.0 - 1e-6)(y0 + y1, y0 - y1) == (1e300, 1e300)
        assert vector_field(GodunovState(*psi), 1e-6, 1.0 - 1e-6).tolist() == [1e300, 0.0]

    @pytest.mark.parametrize("ab", [(1e4, 1e-200), (1e4, 1e-150), (1e4, 1e-100), (1e-200, 1e4)])
    def test_overflowing_terms_give_the_rejected_value(self, ab):
        # ab lies far above 1e-300, but with one null component so far below
        # the other theta^4 and u^3 v overflow, and the field's terms came
        # out inf or NaN: (1e4, 1e-200) gave (nan, nan).  Stepped in psi no
        # such state is representable; in null coordinates a trial step can
        # reach one.
        assert shot_field(0.5, 0.9)(*ab) == (1e300, 1e300)

    @pytest.mark.parametrize("eps", [1e-3, 0.5, 0.9])
    def test_regular_across_the_singular_locus(self, eps):
        # A short walk along the equilibrium family whose v^2 crosses the
        # locus (1 - eps)/(8 + eps): every value is finite, and consecutive
        # values differ by O(step), within twice the larger Jacobian of the
        # walk's ends times the step.  B#^-1 F would blow up like 1/det B#.
        v_lo = math.sqrt(singular_locus_v_sq(eps))
        states = [state_from_v(v) for v in np.linspace(v_lo - 1e-3, v_lo + 1e-3, 201).tolist()]
        field = _psi_field(eps, 0.8)
        values = np.array([field(psi.psi0, psi.psi1) for psi in states])
        assert np.all(np.isfinite(values))
        psi = np.array([(psi.psi0, psi.psi1) for psi in states])
        lipschitz = max(np.abs(_field_jacobian(field, *psi[i].tolist())).sum(axis=1).max()
                        for i in (0, -1))
        steps = np.abs(np.diff(psi, axis=0)).max(axis=1)
        assert np.all(np.abs(np.diff(values, axis=0)).max(axis=1) <= 2.0 * lipschitz * steps)

    @pytest.mark.parametrize("eps", [1e-6, 0.5, 1.0])
    @pytest.mark.parametrize("gap", [1e-13, 1e-14, 1e-15])
    def test_defined_at_psi_minus_next_to_q_tilde_one(self, eps, gap):
        # v_minus^2 grows like 1/(1 - q_tilde) and lies far above the locus
        # (at most 1/8); a rounding band sized at v^2 would hold v^2 itself.
        q = 1.0 - gap
        psi = rest_points(q).psi_minus
        lo, hi = local_spectrum(psi, eps)
        assert lo.real < 0.0 < hi.real
        assert np.all(np.isfinite(vector_field(psi, eps, q)))
        assert np.all(np.isfinite(field_jacobian(psi, eps, q)))


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
            ref = rest_jacobian_reference(psi, eps, q)
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
        # The start direction from the complex step at the saddle, against
        # the exact saddle's eigenvector, to the bounds that the direction
        # taken in psi met.  The next test holds the same rows, and two nearer
        # q_tilde = 1, to about 10x their measured errors.
        got = unstable_direction(eps, q)
        assert np.max(np.abs(got - mpmath_unstable_direction(eps, q))) <= bound

    @pytest.mark.parametrize(
        "eps,q,bound",
        [
            (1.0, 0.8, 4e-15),
            (1e-3, 0.8, 2e-15),
            (1.0, 0.9999, 4e-11),
            (1.0, 0.99999, 2e-11),
            (1.0, 1.0 - 1e-6, 3e-9),
            (0.9473684736842105, 1.0 - 1e-6, 4e-14),
            (0.5, 1.0 - 1e-6, 3e-15),
            (1e-6, 1.0 - 1e-6, 2e-15),
            (1.0, 1.0 - 1e-7, 4e-8),
            (1.0, 1.0 - 1e-8, 4e-8),
        ],
    )
    def test_eigenvector_error_is_resolved_in_null_coordinates(self, eps, q, bound):
        # The saddle in closed form (`_null`) and its Jacobian in null
        # coordinates keep the eigenvector's b part.  The bounds sit about 10x
        # above the measured errors (3.3e-16, 1.1e-16, 3.4e-12, 1.6e-12,
        # 2.2e-10, 3.0e-15, 2.2e-16, 1.1e-16, 0 and 3.2e-9 in row order).
        # Taken in psi, from psi_minus formed as a difference, that part was
        # lost: 1.8e-9 at (1, 0.9999), 8.2e-6 at (1, 1 - 1e-6), 2.0e-3 at
        # (1, 1 - 1e-7) and 0.76 at (1, 1 - 1e-8).
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


class TestManifoldStart:
    @pytest.mark.parametrize(
        "eps,q",
        [(1.0, 0.762), (1.0, 0.8), (0.3, 0.95), (1e-3, 0.8), (1e-6, 0.8), (0.5, 0.9),
         (0.05, 0.99), (0.5, 0.9999)],
    )
    def test_start_lies_on_the_unstable_manifold(self, eps, q):
        # The reference is the orbit from a linear start 1e-10 of the
        # shock's size out, whose distance from the manifold is of order
        # (1e-10)^2 and shrinks as it leaves, stepped by scipy's LSODA at
        # rel_tol 1e-13 and abs_tol 1e-16 to the sphere about psi_minus
        # through the start.  The start's distance to where it crosses that
        # sphere is its distance from the manifold: measured 9.7e-13 to 9.6e-10
        # of the shock's size here, against 1.3e-10 to 1.4e-7 for the linear
        # start at the same distance.  The bound sits about 10x above.  Start,
        # orbit and sphere are in null coordinates, whose distances are sqrt(2)
        # times those in psi, as is the scale.
        _, _, pair, field, minus, plus = shooting._setup(eps, q)
        start, shift, scale = shooting._start(field, eps, pair, minus, plus)
        radius = math.hypot(*shift)
        _, _, direction = shooting._saddle(field, eps, pair, minus, plus)
        minus, direction = np.array(minus), np.array(direction)

        def to_sphere(_t, y):
            return math.dist(y.tolist(), minus.tolist()) - radius

        to_sphere.terminal = True
        ref = solve_ivp(
            lambda _t, y: field(*y.tolist()), (0.0, _MAX_PSEUDO_TIME),
            minus + 1e-10 * scale * direction, method="LSODA", rtol=1e-13, atol=1e-16,
            events=to_sphere, jac=lambda _t, y: _field_jacobian(field, *y.tolist()),
        )
        crossing = ref.y_events[0][0]
        error = np.linalg.norm(np.array(start) - crossing)
        assert error <= 1e-8 * scale
        assert error <= 0.05 * np.linalg.norm(minus + radius * direction - crossing)


class TestToleranceIndependence:
    # The default 20x20 grid's bottom and top rows.  From the linear start
    # 1e-7 out, whose departure from psi_minus lies below rel_tol |y| once
    # rel_tol is loose, the bottom row converged in 3, 4 and 8 of 20 cells
    # at rel_tol 1e-4, 1e-6 and 1e-8, most of the rest ending at the saddle,
    # and the top row gave 1 converged, 9 HitSingularLocus and 10 Stalled
    # at 1e-13.
    GRID = ScanConfig(eps_count=20, q_count=20)
    EPS_ROW = np.linspace(GRID.eps_lo, GRID.eps_hi, GRID.eps_count).tolist()

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-6, 1e-8])
    def test_bottom_row_converges_at_loose_tolerances(self, rel_tol):
        opts = ShootOptions(rel_tol=rel_tol)
        verdicts = [shoot(eps, self.GRID.q_lo, opts).verdict for eps in self.EPS_ROW]
        assert verdicts == [ProfileVerdict.CONVERGED_TO_PLUS] * len(self.EPS_ROW)

    def test_top_row_keeps_its_verdicts_at_tight_tolerance(self):
        # 7 ConvergedToPlus and 13 HitSingularLocus, within the step budget.
        q, opts = self.GRID.q_hi, ShootOptions(rel_tol=1e-13)
        tight = [shoot(eps, q, opts) for eps in self.EPS_ROW]
        assert [res.verdict for res in tight] == [shoot(eps, q).verdict for eps in self.EPS_ROW]
        assert max(res.times.size for res in tight) <= shooting._MAX_STEPS


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

    def test_default_grid_cells_are_monotone_in_every_series(self):
        # The classical side of the paper's contrast: like a classical
        # profile (Gilbarg, Amer. J. Math. 73, 1951), every NodeBelow cell of
        # the 20x20 grid converges with no extremum and no sign change in any
        # of the five series.
        records = run_scan(ScanConfig(eps_count=20, q_count=20)).records
        cells = [(r.eps, r.q_tilde) for r in records if r.region == RegionLabel.NODE_BELOW]
        assert len(cells) == 28
        for cell in cells:
            res = shoot(*cell)
            assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS, cell
            counts = [c for pair in res.oscillation.systems.values() for c in pair]
            assert counts == [ComponentCounts(0, 0)] * 6, cell

    def test_velocity_endpoints(self, node_shot):
        # The first sample lies _OFFSET of the shock's size out on the
        # unstable manifold, which puts its v 0.93 _OFFSET (v_minus - v_plus)
        # below v_minus here, so a start that falls back toward psi_minus
        # fails; the last lies on the capture sphere.
        kin = node_shot.kinematics_array()
        v_minus, v_plus = math.sqrt(0.7232874559808615), math.sqrt(0.3600458773524719)
        drop = shooting._OFFSET * (v_minus - v_plus)
        assert 0.9 * drop <= v_minus - kin[0, 2] <= drop
        assert kin[-1, 2] == pytest.approx(v_plus, abs=1e-6)


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
    def test_offset_robustness(self, monkeypatch, point):
        eps, q = point
        base = shoot(eps, q)
        monkeypatch.setattr(shooting, "_OFFSET", shooting._OFFSET / 2.0)
        halved = shoot(eps, q)
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
        # A shot refuses the band; the public field and its Jacobian need no saddle, and do not.
        with pytest.raises(DegenerateShock):
            shoot(1.0, 0.75 + 1e-9)
        for func in (vector_field, field_jacobian):
            assert np.isfinite(func(state_from_v(0.7), 1.0, 0.75 + 1e-9)).all()

    def test_tolerance_invariance(self):
        eps, q = NODE_POINT
        # A 0-d array and a numpy scalar go in; the input gate's floats come back.
        a = shoot(np.array(eps), np.float64(q), ShootOptions(rel_tol=1e-10, abs_tol=1e-12))
        assert type(a.eps) is float and type(a.q_tilde) is float
        b = shoot(eps, q, ShootOptions(rel_tol=5e-11, abs_tol=5e-13))
        scale = np.linalg.norm(a.psi_minus.as_array() - a.psi_plus.as_array())
        drift = np.linalg.norm(a.states[-1] - b.states[-1])
        assert drift < 10.0 * 1e-10 * scale

    def test_wrong_side_start_escapes(self):
        # The branch of the unstable manifold facing away from the attractor
        # must leave through the escape radius or the admissible cone.
        eps, q = NODE_POINT
        field, start, plus, scale = shot_start(eps, q, linear_offset=-1e-7)
        steps = _lsoda_steps(field, start, ShootOptions())
        verdict, times, states = _integrate(steps, start, eps, plus, scale)
        assert verdict is ProfileVerdict.ESCAPED
        assert states.shape[0] == times.size

    def test_locus_crossing_is_frozen(self):
        # The field is regular across the locus, so the verdict loop sees the
        # orbit cross it: the last two samples lie on either side.
        res = shoot(0.5, 0.9999)
        assert res.verdict is ProfileVerdict.HIT_SINGULAR_LOCUS
        assert res.states.shape[0] == PINS[(0.5, 0.9999)].samples
        _, _, v = theta_u_v(res.states[-2:, 0], res.states[-2:, 1])
        assert v[0] ** 2 > singular_locus_v_sq(0.5) >= v[1] ** 2

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
        # (10,001 samples); factored through the rest points it converges,
        # in 887 samples in B#^-1 F's time and 977 in the field's, stepped
        # in null coordinates, 939 from the manifold start formed in psi,
        # and 984 from the one formed in null coordinates.  The drift
        # along the locus, where the time factor m(v)/m(v+) falls to 0.02,
        # costs more than in B#^-1 F's time.  The bound keeps the work a
        # fifth of the step budget.
        res = shoot(1e-6, 1.0 - 1e-6)
        assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS
        assert res.oscillation.oscillatory is False
        assert res.states.shape[0] < shooting._MAX_STEPS // 5

    def test_corner_work_has_one_mode(self, monkeypatch):
        # Stepped in psi, start offsets within 5e-4 of `_OFFSET` gave the
        # corner 1,045-1,634 samples in two modes: in the second LSODA
        # switched to BDF in the fast jump from psi_minus, though h |lambda|
        # was about 0.01, because its stiffness test read a Jacobian whose
        # norm exceeded its spectral radius about 1e5-fold.  In null
        # coordinates the same offsets gave 972-1,081, and from the manifold
        # start at 3e-3 they give 915-999.
        counts, offset = [], shooting._OFFSET
        for k in np.linspace(-5e-4, 5e-4, 11).tolist():
            monkeypatch.setattr(shooting, "_OFFSET", offset * (1.0 + k))
            res = shoot(1e-6, 1.0 - 1e-6)
            assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS
            counts.append(res.states.shape[0])
        assert max(counts) <= 1.15 * min(counts), counts

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "point,rel_tol",
        [
            ((0.028332045493508644, 0.8587433656528857), 1e-6),
            ((1e-3, 0.8), 1e-6),
            ((0.5, 0.9), 1e-3),
            ((1.0, 0.8), 1e-3),
            ((1e-6, 1.0 - 1e-6), 1e-4),  # a trial state where psi0^2 - psi1^2 is inf - inf
            # LSODA once accepted a NaN state here; the cone test must catch it.
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
        # With no error control, LSODA's first step from the linear start
        # 1e-7 out lands outside the cone with a finite state.  ShootOptions
        # rejects such a tolerance, so a stand-in options object hands it to
        # the stepper directly.
        eps, q = 1.0, 0.8
        field, start, plus, scale = shot_start(eps, q, linear_offset=1e-7)
        loose = SimpleNamespace(rel_tol=1e10, abs_tol=1e-12)
        steps = _lsoda_steps(field, start, loose)
        verdict, times, states = _integrate(steps, start, eps, plus, scale)
        assert verdict is ProfileVerdict.ESCAPED
        assert times.size == states.shape[0] == 1
        assert np.all(states[:, 0] > np.abs(states[:, 1]))

    def test_start_point_resolves_the_offset_across_the_square(self):
        # Rounding of psi_minus + shift must not swamp the shift, or the
        # verdict turns on that rounding: it did for offsets below 1e-14.
        # Both edges of q_tilde are approached geometrically.  The shift is
        # added in null coordinates, to the rest point in closed form (`_null`),
        # and rounds by at most 6e-11 of itself; added in psi, to psi_minus
        # formed as a difference, 28 starts from 1 - 2.5e-13 on rounded by up
        # to 0.19 of it.  The cap holds each component of the start at 0.9 of
        # psi_minus's or above (measured 0.977), so every start lies in the
        # cone.  The cap binds nowhere on the sweep, and the shift is the full
        # _OFFSET scale along the unstable eigenvector up to 1 - 1e-14 (at
        # least 0.974 of it).  Nearer, at 5 points, the order-2 term turns it
        # (to -0.25 at (1, 1 - 3e-15)): there sigma |w| exceeds 1.
        eps_values = [1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        q_values = np.unique(np.concatenate(
            (0.75 + np.geomspace(1.00000001e-8, 0.125, 60), 1.0 - np.geomspace(0.125, 1e-15, 60))
        )).tolist()
        turned = 0
        for q in q_values:
            for eps in eps_values:
                _, _, pair, field, minus, plus = shooting._setup(eps, q)
                start, shift, scale = shooting._start(field, eps, pair, minus, plus)
                assert all(x >= 0.9 * c for x, c in zip(start, minus)), (eps, q)
                error = math.hypot(*(x - c - d for x, c, d in zip(start, minus, shift)))
                assert error <= 1e-5 * math.hypot(*shift), (eps, q)
                _, _, direction = shooting._saddle(field, eps, pair, minus, plus)
                if np.dot(shift, direction) < 0.9 * shooting._OFFSET * scale:
                    assert q > 1.0 - 1e-14, (eps, q)
                    turned += 1
        assert turned <= 5

    @pytest.mark.parametrize(
        "spectrum", [(complex(1.0, -2.0), complex(1.0, 2.0)), (complex(1.0), complex(3.0))]
    )
    def test_saddle_test_rejects_a_spectrum_without_opposite_signs(self, monkeypatch, spectrum):
        monkeypatch.setattr(shooting, "spectrum_at_v", lambda v, eps: spectrum)
        with pytest.raises(NotASaddle):
            unstable_direction(1.0, 0.8)

    @pytest.mark.filterwarnings("error")
    def test_lsoda_failure_ends_in_a_verdict_without_a_warning(self):
        # From the linear start 1e-7 out, LSODA gives up on the first step
        # ("Repeated convergence failures"); the stepper returns, the verdict
        # loop ends Stalled, and ODEPACK's runner, called directly, raises no
        # warning for it.  The shot's own start converges.
        eps, q = 1e-6, 0.75 + 1e-6
        opts = ShootOptions(rel_tol=1e-4)
        field, start, plus, scale = shot_start(eps, q, linear_offset=1e-7)
        steps = _lsoda_steps(field, start, opts)
        verdict, times, states = _integrate(steps, start, eps, plus, scale)
        assert verdict is ProfileVerdict.STALLED and times.size == 1
        assert np.all(np.isfinite(states))
        assert shoot(eps, q, opts).verdict is ProfileVerdict.CONVERGED_TO_PLUS

    def test_rest_points_solved_once_per_shot(self, monkeypatch):
        # The field takes the v^2 of the shot's one rest-point solve, a call of
        # the body `_rest_v_sq`, in either module's namespace.
        calls, body = [], equilibria._rest_v_sq

        def counted(q_tilde):
            calls.append(q_tilde)
            return body(q_tilde)

        for module in (equilibria, shooting):
            monkeypatch.setattr(module, "_rest_v_sq", counted)
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
        # stepper, without one.
        eps, q = 0.5, 0.9
        opts = ShootOptions(*PINS[(eps, q)].tolerances)
        res = shoot(eps, q, opts)
        assert res.verdict.value == PINS[(eps, q)].verdict
        field, start, plus, scale = shot_start(eps, q)
        with pytest.warns(UserWarning, match="rtol"):
            _, steps = solver_steps(LSODA, field, start, opts)
        _, ref_times, ref_states = _integrate(steps, start, eps, plus, scale)
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
    # Steps toward the origin, the centre of a unit capture sphere.
    def test_crossing_is_located_on_the_sphere(self):
        # Along an axis and off it, the chord enters at s = 2/3 and s = 1/2.
        for y_old, y, t_cross in (([2.0, 0.0], [0.5, 0.0], 1.0), ([1.2, 1.6], [0.0, 0.0], 0.75)):
            t, got = _capture_point(0.0, y_old, 1.5, y, (0.0, 0.0), 1.0)
            assert t == pytest.approx(t_cross, abs=1e-15)
            assert math.hypot(*got) == pytest.approx(1.0, abs=1e-15)

    def test_interpolant_ending_just_outside_keeps_the_accepted_state(self):
        # The chord ends at an accepted state whose rounded distance, 1.0,
        # counts as captured, while its exact distance lies past the sphere:
        # no root of the chord is left in the step, so the state is kept.
        accepted = [0.962, math.sqrt(1.0 - 0.962**2)]
        assert math.hypot(*accepted) == 1.0
        assert Fraction(accepted[0]) ** 2 + Fraction(accepted[1]) ** 2 > 1
        y_old = [2.0 * accepted[0], 2.0 * accepted[1]]
        t, y = _capture_point(0.0, y_old, 1.0, accepted, (0.0, 0.0), 1.0)
        assert t == 1.0 and y is accepted


# (point, options, verdict, whether LSODA itself gives up, step budget or None
# for the default, linear start offset or None for the shot's own start) for
# TestStepLoopParity.
PARITY_CASES = [
    ((1.0, 0.762), ShootOptions(), ProfileVerdict.CONVERGED_TO_PLUS, False, None, None),  # node
    ((1.0, 0.8), ShootOptions(), ProfileVerdict.CONVERGED_TO_PLUS, False, None, None),  # focus
    ((1e-6, 0.8), ShootOptions(), ProfileVerdict.CONVERGED_TO_PLUS, False, None, None),  # stiff
    ((0.5, 0.9999), ShootOptions(), ProfileVerdict.HIT_SINGULAR_LOCUS, False, None, None),
    # The corner converges in 984 samples; a budget of 400 steps ends it first.
    ((1e-6, 1.0 - 1e-6), ShootOptions(), ProfileVerdict.STALLED, False, 400, None),
    # "Repeated convergence failures" on the first step: istate < 0.  The
    # shot's own start converges here (32 samples); from the linear start
    # 1e-7 out, below what rel_tol 1e-4 resolves, LSODA gives up.
    ((1e-6, 0.75 + 1e-6), ShootOptions(rel_tol=1e-4), ProfileVerdict.STALLED, True, None, 1e-7),
    # Both tolerances off their defaults (85 samples), and abs_tol alone
    # (226 samples, against 355 at the default): an abs_tol handed to the
    # runner per component, or not handed on, changes these samples.
    (
        (1.0, 0.8), ShootOptions(rel_tol=1e-6, abs_tol=1e-9),
        ProfileVerdict.CONVERGED_TO_PLUS, False, None, None,
    ),
    ((1e-3, 0.8), ShootOptions(abs_tol=1e-8), ProfileVerdict.CONVERGED_TO_PLUS, False, None, None),
]


class TestStepLoopParity:
    # `_lsoda_steps` calls ODEPACK's LSODA runner itself; scipy's LSODA
    # solver makes the same calls in the same null coordinates, so through
    # the one verdict loop every sample, the capture on the last step's
    # chord and the number of field evaluations must agree bit for bit.
    # This also guards the runner's call signature and the rwork/iwork
    # layout it is handed.
    @pytest.mark.parametrize(
        "point,opts,expected,lsoda_fails,max_steps,linear_offset",
        [pytest.param(*c, id=f"point{i}-{c[2].value}") for i, c in enumerate(PARITY_CASES)],
    )
    def test_samples_match_scipy_lsoda_solver(
        self, monkeypatch, point, opts, expected, lsoda_fails, max_steps, linear_offset
    ):
        if max_steps is not None:
            monkeypatch.setattr(shooting, "_MAX_STEPS", max_steps)
        eps, q = point
        field, start, plus, scale = shot_start(eps, q, linear_offset)
        solver, steps = solver_steps(LSODA, field, start, opts)
        # scipy's solver warns when LSODA gives up; the runner does not.
        with pytest.warns(UserWarning, match="lsoda") if lsoda_fails else contextlib.nullcontext():
            ref_verdict, ref_times, ref_states = _integrate(steps, start, eps, plus, scale)

        real_calls = 0

        def counting_field(y0, y1):
            nonlocal real_calls
            if not isinstance(y0, complex) and not isinstance(y1, complex):
                real_calls += 1
            return field(y0, y1)

        steps = _lsoda_steps(counting_field, start, opts)
        verdict, times, states = _integrate(steps, start, eps, plus, scale)
        assert verdict is ref_verdict is expected
        assert times.shape == ref_times.shape and times.tobytes() == ref_times.tobytes()
        assert states.shape == ref_states.shape and states.tobytes() == ref_states.tobytes()
        assert real_calls == solver.nfev
        if lsoda_fails:
            assert times.size == 1
        elif expected is ProfileVerdict.STALLED:
            assert times.size == shooting._MAX_STEPS + 1


# Points where a shot's verdict and sign-change counts must not depend on the
# integrator: the default grid's bottom and top rows, interior and stiff
# points, and a pair about q*(0.1) = 0.985805, the minimum over eps of the
# existence boundary q*(eps) (ROADMAP item 3).  Both now converge:
# the boundary at eps = 0.1 lies at 0.9858050027 (bisected to 4e-12).
INTEGRATOR_PARITY_POINTS = [
    *((eps, 0.75 + 1e-6) for eps in (1e-6, 0.3, 0.5, 1.0)),
    (1.0, 1.0 - 1e-6), (0.5, 1.0 - 1e-6), (0.5, 0.9999),
    (1e-6, 0.9), (1e-3, 0.8), (1.0, 0.9), (1.0, 0.8), (1.0, 0.762),
    (0.3, 0.95), (0.5, 0.9), (0.2, 0.96),
    (0.526, 0.763), (0.5, 0.95), (0.1, 0.985804999), (0.1, 0.985805001),
]


def sign_changes(report):
    """The six sign-change counts of an oscillation report, system by system."""
    return [c.sign_changes for counts in report.systems.values() for c in counts]


def stepped_by(method, eps, q_tilde):
    """(verdict, sign-change counts) of the shot at (eps, q_tilde) stepped by scipy's `method`.

    From the shot's own start, at the default tolerances, through `_integrate`.
    """
    field, start, plus, scale = shot_start(eps, q_tilde)
    _, steps = solver_steps(method, field, start, ShootOptions())
    verdict, _, states = _integrate(steps, start, eps, plus, scale)
    return verdict, sign_changes(oscillation_report(states, rest_points(q_tilde).psi_plus))


class TestIntegratorParity:
    # A second stiffly stable method, Radau IIA (Hairer & Wanner, Solving
    # ODEs II, IV.8), shares nothing with LSODA's Adams/BDF switching but
    # the verdict loop, so a verdict or count that turns on LSODA's steps
    # shows.  Radau takes 133-1,943 samples here, about 4 s in all on a
    # 2-core Xeon.
    @pytest.mark.parametrize("point", INTEGRATOR_PARITY_POINTS, ids=str)
    def test_radau_gives_the_shot_verdict_and_sign_changes(self, point):
        res = shoot(*point)
        assert stepped_by(Radau, *point) == (res.verdict, sign_changes(res.oscillation))

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="at the corner (1e-6, 1 - 1e-6) LSODA converges in 984 samples, while BDF "
        "and Radau at the same tolerances end Stalled at the 10,000-step budget, with the "
        "same sign-change counts (ROADMAP items 3 and 25)",
    )
    def test_corner_verdict_does_not_depend_on_the_integrator(self):
        res = shoot(1e-6, 1.0 - 1e-6)
        assert stepped_by(BDF, 1e-6, 1.0 - 1e-6) == (res.verdict, sign_changes(res.oscillation))


def test_shot_work_is_pinned():
    # The work of whole shots, counted on every field closure they build:
    # real evaluations (the integrator's right-hand side), complex ones (the
    # complex steps of the start and LSODA's complex-step Jacobians) and
    # samples.  Any change to the steps taken moves these totals, so a
    # faster shot with the same totals has cheaper steps, not fewer.
    assert measure_work(WORK_POINTS) == WORK


def test_interior_work_is_pinned():
    # The same totals over the benchmark's 147 seed-1 interior points:
    # 40,844 samples from the linear start 1e-7 out.
    assert measure_work(INTERIOR_POINTS) == INTERIOR_WORK


@pytest.mark.parametrize("point", list(PINS), ids=[str(point) for point in PINS])
def test_pinned_shot(point):
    # Each row of the pin table: verdict, flag, samples, field evaluations
    # and, where the row has one, the digest of every sample, to the last
    # bit: a rounding change in the field, the start or either loop shows.
    assert measure(point) == PINS[point]


# Prints the digests of the shots given as JSON in argv[1], then whether
# scipy.integrate was ever imported.
_DIGESTS_IN_A_FRESH_PROCESS = """
import hashlib, json, sys
from radshock.shooting import profile_to_csv, shoot
points = json.loads(sys.argv[1])
print(json.dumps([hashlib.sha256(profile_to_csv(shoot(*p)).encode()).hexdigest()
                  for p in points] + ["scipy.integrate" in sys.modules]))
"""


def test_whole_shot_digest_without_scipy_integrate():
    # This test process has imported scipy.integrate (for the parity
    # reference above), so the digests are recomputed in one that never
    # does: the shots must not depend on what scipy's packages set up.
    proc = run_python(
        "-c", _DIGESTS_IN_A_FRESH_PROCESS, json.dumps(DIGEST_POINTS), timeout=120, check=True
    )
    *digests, loaded = json.loads(proc.stdout)
    assert digests == [PINS[point].digest for point in DIGEST_POINTS]
    assert loaded is False


def test_compiled_module_loads_with_a_short_openblas_spin(monkeypatch):
    # OpenBLAS reads its idle workers' spin from the environment while it
    # loads; the setting is there for the load alone, and a value the
    # environment already has is kept.
    seen = []
    load = importlib.util.module_from_spec

    def spy(spec):
        seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return load(spec)

    monkeypatch.setattr(importlib.util, "module_from_spec", spy)
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    shooting._lsoda.cache_clear()
    shooting._lsoda()
    assert seen == ["20"] and "OPENBLAS_THREAD_TIMEOUT" not in os.environ
    monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", "7")
    shooting._lsoda.cache_clear()
    shooting._lsoda()
    assert seen == ["20", "7"] and os.environ["OPENBLAS_THREAD_TIMEOUT"] == "7"


@pytest.mark.parametrize("module", ["integrate._odepack"])
def test_missing_compiled_module_is_a_clear_import_error(monkeypatch, module):
    # The compiled module is looked up afresh, and it is not found.
    hide_module(monkeypatch, f"scipy.{module}")
    with pytest.raises(ImportError) as raised:
        shoot(1.0, 0.8)
    assert f"scipy.{module}" in str(raised.value) and "scipy>=1.17" in str(raised.value)


class TestShootOptions:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ShootOptions(rel_tol=-1e-10)
        with pytest.raises(ValueError):
            ShootOptions(rel_tol=1e10)
        for name in ("rel_tol", "abs_tol"):
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


def reference_count_extrema(x, floor):
    """Turning points with hysteresis, walked over every sample of one series."""
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


def reference_count_sign_changes(dev, floor):
    kept = dev[np.abs(dev) > floor]
    if kept.size < 2:
        return 0
    signs = np.sign(kept)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def reference_component_counts(series, limit):
    floor = 1e-10 * max(float(series.max() - series.min()), abs(limit))
    return ComponentCounts(
        extrema=reference_count_extrema(series.tolist(), floor),
        sign_changes=reference_count_sign_changes(series - limit, floor),
    )


def reference_oscillation_report(states, psi_plus):
    """The report series by series: one numpy pass and one walk over every sample of each."""
    arr = np.asarray(states, dtype=float)
    theta, u, v = theta_u_v(arr[:, 0], arr[:, 1])
    lim = kinematics(psi_plus)
    v_counts = reference_component_counts(v, lim.v)
    return OscillationReport({
        "psi": (
            reference_component_counts(arr[:, 0], psi_plus.psi0),
            reference_component_counts(arr[:, 1], psi_plus.psi1),
        ),
        "theta_v": (reference_component_counts(theta, lim.theta), v_counts),
        "u_v": (reference_component_counts(u, lim.u), v_counts),
    })


@st.composite
def cone_trajectories(draw):
    """(states, psi_plus): samples around a limit point, all inside the cone.

    One of three kinds:
    - a damped spiral around a rest point (`spiral_samples`);
    - a walk in whole multiples of one step per coordinate around a rest
      point, each sample held for 1-3 samples (plateaus).  With steps of
      1e-10 of the coordinate's own size the range stays below the limit, so
      the noise floor is about the step;
    - a walk whose psi1 has the limit 0 and a dyadic range R, so its floor
      is exactly f = 1e-10 R, and samples of psi1 at 0, +-f and +-2f sit
      exactly on the floor, away from the limit and from each other.
    An optional ramp in front gives the series a range of their own, as a
    shot's approach does.
    """
    kind = draw(st.sampled_from(["spiral", "walk", "on_floor"]))
    if kind == "on_floor":
        psi_plus = GodunovState(1.0, 0.0)
        half = draw(st.sampled_from([2.0**-4, 2.0**-20]))
        f = 1e-10 * (2.0 * half)
        levels = [-half, half, half, -2.0 * f, -f, 0.0, f, 2.0 * f]
        walk = [(1.0, half), (1.0, -half)] + [
            (1.0 + draw(st.sampled_from([0.0, 2.0**-30])), level)
            for level in draw(st.lists(st.sampled_from(levels), min_size=1, max_size=40))
        ]
        center = psi_plus.as_array()
    else:
        psi_plus = state_from_v(draw(st.floats(0.36, 0.7)))
        center = psi_plus.as_array()
        if kind == "spiral":
            amplitude = draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-3]))
            t_max = draw(st.floats(0.5, 30.0))
            walk = spiral_samples(center, amplitude, t_max, draw(st.integers(3, 120)))
        else:
            step = draw(st.sampled_from([1e-11, 1e-10, 2e-10, 1e-6])) * np.abs(center)
            moves = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
            walk = [
                center + step * (a, b)
                for a, b, held in draw(st.lists(moves, min_size=3, max_size=40))
                for _ in range(held)
            ]
    ramp = []
    if draw(st.booleans()):
        start = center * (1.0 + draw(st.sampled_from([1e-9, 1e-6, 1e-2])))
        ramp = list(np.linspace(start, center, draw(st.integers(1, 10)), endpoint=False))
    return np.array(ramp + list(walk)), psi_plus


class TestOscillationReportReference:
    """`oscillation_report` against the per-series reference, count for count."""

    @given(cone_trajectories())
    def test_matches_reference(self, trajectory):
        states, psi_plus = trajectory
        assert oscillation_report(states, psi_plus) == reference_oscillation_report(
            states, psi_plus
        )

    @pytest.mark.parametrize("point", [NODE_POINT, FOCUS_POINT, (0.526, 0.763), (1e-3, 0.8)])
    def test_shot_matches_reference(self, point):
        res = shoot(*point)
        assert res.oscillation == reference_oscillation_report(res.states, res.psi_plus)

    @pytest.mark.parametrize(
        "sample", [(math.nan, 0.0), (0.5, math.nan), (0.4, 0.5), (0.5, -0.5), (math.inf, 0.0)]
    )
    def test_sample_outside_the_cone(self, sample):
        # A NaN sample has no kinematics, and psi0 < |psi1| would give it a
        # NaN theta with a RuntimeWarning.
        psi_plus = state_from_v(0.6)
        states = np.array(spiral_samples(psi_plus.as_array(), n=11))
        states[5] = sample
        with pytest.raises(StateOutsideDomain):
            oscillation_report(states, psi_plus)


def turning_values(x):
    """The ends of `x` and every value not strictly between its neighbours, in order."""
    inner = [b for a, b, c in zip(x, x[1:], x[2:]) if not (a < b < c or a > b > c)]
    return [x[0], *inner, x[-1]]


@st.composite
def component_series(draw):
    """(series, limit): a series of 2 or more samples, each value held for 1-3 of them (plateaus).

    One of three kinds:
    - a walk in whole multiples of one step around a limit, 0 among them;
    - a constant series, its limit equal to it, 0 or apart from it;
    - a series with the limit 0 and a dyadic range R, so its floor is
      exactly f = 1e-10 R and values at +-f sit exactly on it.
    """
    kind = draw(st.sampled_from(["walk", "constant", "on_floor"]))
    held = st.integers(1, 3)
    if kind == "on_floor":
        limit, half = 0.0, draw(st.sampled_from([2.0**-4, 2.0**-20, 1.0]))
        f = 1e-10 * (2.0 * half)
        levels = st.sampled_from([0.0, f, -f, 2.0 * f, -2.0 * f, half, -half])
        values = [half, -half] + draw(st.lists(levels, min_size=1, max_size=40))
    elif kind == "constant":
        value = draw(st.sampled_from([0.0, 0.8, -3.5]))
        limit = draw(st.sampled_from([0.0, value, value + 1e-3]))
        values = [value] * draw(st.integers(1, 3))
    else:
        limit = draw(st.sampled_from([0.0, 1.0, -0.37]))
        step = draw(st.sampled_from([1e-11, 1e-10, 2e-10, 1e-6])) * max(abs(limit), 1.0)
        values = [limit + step * k for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=40))]
    series = [val for val in values for _ in range(draw(held))]
    if len(series) < 2:
        series *= 2
    return np.array(series), limit


@given(component_series())
def test_counts_match_reference_on_every_sample_and_on_turning_points(drawn):
    # `_counts` takes a row's ends and turning points; on those alone and on
    # every sample it gives the all-sample reference's counts.
    series, limit = drawn
    want = reference_component_counts(series, limit)
    assert _counts(series.tolist(), limit) == want
    assert _counts(turning_values(series.tolist()), limit) == want
