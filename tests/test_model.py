import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import frob_sq, rel_err
from radshock.errors import (
    EpsilonOutOfRange,
    NonPositiveParameter,
    StateOutsideDomain,
)
from radshock.model import (
    CausalityClass,
    GodunovState,
    b_one,
    b_sharp,
    b_two,
    b_visc,
    causality_check,
    det_b_sharp_closed,
    det_lin_closed,
    flux_residual,
    kinematics,
    lin_matrix,
    singular_locus_v_sq,
    trace_adj_closed,
    trace_adj_identity,
)


@st.composite
def states(draw):
    v = draw(st.floats(-1.5, 1.5))
    scale = draw(st.floats(0.2, 3.0))
    return GodunovState(scale * math.sqrt(1.0 + v * v), scale * v)


eps_values = st.floats(1e-6, 1.0)


def kin_of_v(v):
    return kinematics(GodunovState(math.sqrt(1.0 + v * v), v))


class TestKinematics:
    def test_rest_state(self):
        k = kinematics(GodunovState(1.0, 0.0))
        assert (k.theta, k.u, k.v) == (1.0, 1.0, 0.0)

    def test_temperature_scaling(self):
        k = kinematics(GodunovState(2.0, 0.0))
        assert (k.theta, k.u, k.v) == (0.5, 1.0, 0.0)

    def test_boosted_state(self):
        k = kinematics(GodunovState(math.sqrt(2.0), 1.0))
        assert abs(k.theta - 1.0) < 1e-15
        assert abs(k.u - math.sqrt(2.0)) < 1e-15
        assert abs(k.v - 1.0) < 1e-15
        assert abs(k.u**2 - k.v**2 - 1.0) < 1e-12

    @pytest.mark.parametrize("psi0,psi1", [(1.0, 1.0), (0.5, 1.0), (0.0, 0.0), (-1.0, 0.5)])
    def test_outside_domain(self, psi0, psi1):
        with pytest.raises(StateOutsideDomain):
            GodunovState(psi0, psi1)

    @given(states())
    def test_normalization(self, psi):
        k = kinematics(psi)
        assert abs(k.u**2 - k.v**2 - 1.0) <= 1e-12 * k.u**2


class TestDissipationMatrices:
    def test_rest_state_blocks(self):
        k = kin_of_v(0.0)
        assert np.allclose(b_visc(k), [[0.0, 0.0], [0.0, 1.0]], atol=0)
        assert np.allclose(b_one(k), [[0.0, 0.0], [0.0, 1.0]], atol=0)
        assert np.allclose(b_two(k), [[1.0, 0.0], [0.0, 0.0]], atol=0)

    def test_b_sharp_rest_state(self):
        b = b_sharp(kin_of_v(0.0), 1.0)
        assert np.allclose(b, [[-3.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_det_closed_form_value(self):
        # (9 * 1 * ((8+1) * 0.5 + 0)) / (1 - 4) = -13.5
        assert det_b_sharp_closed(0.5, 1.0) == pytest.approx(-13.5, abs=1e-14)

    @pytest.mark.parametrize("eps", [0.0, -0.2, 1.0 + 1e-9, 2.0])
    def test_eps_range(self, eps):
        with pytest.raises(EpsilonOutOfRange):
            b_sharp(kin_of_v(0.3), eps)

    @given(states(), eps_values)
    def test_symmetry(self, psi, eps):
        k = kinematics(psi)
        for m in (b_visc(k), b_one(k), b_two(k), b_sharp(k, eps), lin_matrix(k)):
            assert m[0, 1] == m[1, 0]
            assert np.all(np.isfinite(m))

    @given(states(), eps_values)
    def test_det_b_sharp_identity(self, psi, eps):
        k = kinematics(psi)
        b = b_sharp(k, eps)
        det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        assert rel_err(det, det_b_sharp_closed(k.v**2, eps), frob_sq(b)) <= 1e-12

    @given(states(), eps_values)
    def test_det_negative_beyond_locus(self, psi, eps):
        k = kinematics(psi)
        if k.v**2 > singular_locus_v_sq(eps) + 1e-9:
            b = b_sharp(k, eps)
            assert b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0] < 0.0


class TestFluxResidual:
    def test_rest_state_zero_component(self):
        f = flux_residual(GodunovState(1.0, 0.0), 0.0, 1.0)
        assert f == pytest.approx([0.0, -2.0 / 3.0], abs=1e-15)

    def test_rest_state_other_constants(self):
        f = flux_residual(GodunovState(1.0, 0.0), 1.0, 1.0 / 3.0)
        assert f == pytest.approx([1.0, 0.0], abs=1e-15)

    @given(states(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_reflection_symmetry(self, psi, q0, q1):
        f = flux_residual(psi, q0, q1)
        mirrored = flux_residual(GodunovState(psi.psi0, -psi.psi1), -q0, q1)
        assert mirrored[0] == pytest.approx(-f[0], abs=1e-13)
        assert mirrored[1] == pytest.approx(f[1], abs=1e-13)


class TestLinMatrix:
    def test_rest_state(self):
        a = lin_matrix(kin_of_v(0.0))
        assert np.allclose(a, [[0.0, -1.0], [-1.0, 0.0]], atol=0)
        assert a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] == -1.0

    def test_boosted(self):
        a = lin_matrix(kin_of_v(1.0))
        s2 = math.sqrt(2.0)
        assert np.allclose(a, [[11.0, -7.0 * s2], [-7.0 * s2, 9.0]], rtol=1e-14)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        assert det == pytest.approx(1.0, abs=1e-12)

    def test_det_vanishes_at_half(self):
        a = lin_matrix(kin_of_v(math.sqrt(0.5)))
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        assert abs(det) < 1e-14

    @given(states())
    def test_det_identity(self, psi):
        k = kinematics(psi)
        a = lin_matrix(k)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        assert rel_err(det, det_lin_closed(k.v**2), frob_sq(a)) <= 1e-12


class TestTraceAdjIdentity:
    def test_odd_in_v(self):
        assert trace_adj_identity(kin_of_v(0.0), 0.7) == pytest.approx(0.0, abs=1e-14)

    def test_half_velocity(self):
        v = math.sqrt(0.5)
        # (3v / (1-4)) * (9*0.5 + 1 - 6 - 4) = 4.5 v
        assert trace_adj_identity(kin_of_v(v), 1.0) == pytest.approx(4.5 * v, rel=1e-13)

    @given(states(), eps_values)
    def test_matches_closed_form(self, psi, eps):
        k = kinematics(psi)
        got = trace_adj_identity(k, eps)
        want = trace_adj_closed(k.v, eps)
        scale = math.sqrt(frob_sq(b_sharp(k, eps)) * frob_sq(lin_matrix(k)))
        assert rel_err(got, want, scale) <= 1e-12


class TestCausality:
    def test_sharp_boundary_eps_one(self):
        verdict = causality_check(1.0, 4.0 / 3.0, 4.0)
        assert verdict.klass is CausalityClass.SHARPLY_CAUSAL
        assert verdict.epsilon == pytest.approx(1.0, abs=1e-12)

    def test_sharp_boundary_rounded_input(self):
        verdict = causality_check(1.0, 1.3333333333, 4.0)
        assert verdict.klass is CausalityClass.SHARPLY_CAUSAL
        assert verdict.epsilon == 1.0

    def test_acausal_shear_bound(self):
        verdict = causality_check(1.0, 1.0, 1.0)
        assert verdict.klass is CausalityClass.ACAUSAL
        assert verdict.epsilon is None

    def test_sharp_intermediate(self):
        verdict = causality_check(1.0, 3.0, 27.0 / 8.0)
        assert verdict.klass is CausalityClass.SHARPLY_CAUSAL
        assert verdict.epsilon == pytest.approx(4.0 / 9.0, abs=1e-14)

    def test_strictly_causal(self):
        verdict = causality_check(1.0, 3.0, 3.0)
        assert verdict.klass is CausalityClass.STRICTLY_CAUSAL
        assert verdict.epsilon == pytest.approx(4.0 / 9.0, abs=1e-14)

    def test_acausal_heat_bound(self):
        assert causality_check(1.0, 3.0, 4.0).klass is CausalityClass.ACAUSAL

    @pytest.mark.parametrize(
        "triple",
        [
            (0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0),
            (math.nan, 1.0, 1.0), (1.0, 1.0, math.nan), (1.0, math.inf, 1.0),
            (math.inf, 1.0, 1.0), (1.0, 1.0, math.inf),
        ],
    )
    def test_nonpositive(self, triple):
        with pytest.raises(NonPositiveParameter):
            causality_check(*triple)
