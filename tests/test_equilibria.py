import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bisect_root
from radshock.equilibria import (
    admissible,
    q_of_vplus,
    rest_points,
    state_from_v,
    v_minus_squared,
    v_plus_squared,
)
from radshock.errors import DegenerateShock, QOutOfRange, ZOutOfRange
from radshock.model import flux_residual, kinematics

# Upper margin: near q = 1 the upstream state has u^2 ~ 1/(4(1-q)) and the
# kinematic subtraction psi0^2 - psi1^2 cancels u^2 leading digits, so flux
# residuals degrade like u^2 * machine epsilon.
q_values = st.floats(0.7500001, 0.9999)


def flux_component_along_family(v, q_tilde):
    # Independent oracle: the first flux component restricted to the
    # v-parameterized rest-point family (the second vanishes by construction).
    return float(flux_residual(state_from_v(v), q_tilde**-0.5, 1.0)[0])


class TestVPlusSquared:
    def test_exact_at_49_64(self):
        assert v_plus_squared(49.0 / 64.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_coalescence_limit(self):
        assert v_plus_squared(0.7500001) == pytest.approx(0.5, abs=1e-3)
        assert v_minus_squared(0.7500001) == pytest.approx(0.5, abs=1e-3)

    def test_frozen_oracle_point(self):
        # Bisection on the flux along the family gave 0.16288269291261698.
        assert v_plus_squared(0.9) == pytest.approx(0.1628826929126164, abs=1e-13)

    @pytest.mark.parametrize("q", [0.3, 0.75, 1.0, 1.2])
    def test_out_of_range(self, q):
        with pytest.raises(QOutOfRange):
            v_plus_squared(q)
        with pytest.raises(QOutOfRange):
            v_minus_squared(q)

    @given(q_values)
    def test_against_bisection_oracle(self, q):
        v_plus = bisect_root(
            lambda v: flux_component_along_family(v, q),
            math.sqrt(0.125) * (1.0 - 1e-9),
            math.sqrt(0.5) * (1.0 + 1e-9),
        )
        assert v_plus_squared(q) == pytest.approx(v_plus**2, abs=2e-12)

    @given(q_values)
    def test_window(self, q):
        z = v_plus_squared(q)
        assert 0.125 < z < 0.5
        assert v_minus_squared(q) > 0.5

    def test_strictly_decreasing(self):
        qs = np.linspace(0.7501, 0.9999, 400)
        zs = [v_plus_squared(float(q)) for q in qs]
        assert all(b < a for a, b in zip(zs, zs[1:]))

    @given(q_values)
    def test_radicand_identity(self, q):
        # (2q-1)^2 - q(4q-3) = 1 - q guarantees a positive downstream velocity.
        assert (2.0 * q - 1.0) ** 2 - q * (4.0 * q - 3.0) == pytest.approx(1.0 - q, rel=1e-12)


class TestStateFromV:
    def test_rest(self):
        psi = state_from_v(0.0)
        assert psi.psi0 == pytest.approx(3.0 ** -0.25, abs=1e-16)
        assert psi.psi1 == 0.0

    def test_theta_fourth_power(self):
        k = kinematics(state_from_v(0.0))
        assert k.theta**4 == pytest.approx(3.0, rel=1e-14)
        # theta^4 ((4/3) v^2 + 1/3) = 1, so the second flux component
        # vanishes exactly at the q1 = 1 normalization.
        assert flux_residual(state_from_v(0.0), 0.0, 1.0)[1] == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(-1.5, 1.5))
    def test_velocity_round_trip(self, v):
        k = kinematics(state_from_v(v))
        assert k.v == pytest.approx(v, rel=1e-12, abs=1e-13)


class TestRestPoints:
    def test_values_at_49_64(self):
        pair = rest_points(49.0 / 64.0)
        assert pair.v_plus_sq == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert pair.v_minus_sq == pytest.approx(4.0 / 5.0, abs=1e-14)

    def test_frozen_point(self):
        pair = rest_points(0.76)
        assert pair.v_minus_sq == pytest.approx(0.7232874559808615, abs=1e-13)
        assert pair.v_plus_sq == pytest.approx(0.3600458773524719, abs=1e-13)

    @given(q_values)
    def test_residuals_vanish(self, q):
        pair = rest_points(q)
        q0 = q**-0.5
        for psi in (pair.psi_minus, pair.psi_plus):
            assert np.max(np.abs(flux_residual(psi, q0, 1.0))) < 1e-10

    def test_degenerate_guard(self):
        with pytest.raises(DegenerateShock):
            rest_points(0.75 + 1e-9)

    @pytest.mark.parametrize("q", [0.5, 0.75, 1.0])
    def test_out_of_range(self, q):
        with pytest.raises(QOutOfRange):
            rest_points(q)


class TestQOfVPlus:
    def test_exact_third(self):
        assert q_of_vplus(1.0 / 3.0) == pytest.approx(49.0 / 64.0, abs=1e-15)

    def test_boundaries(self):
        assert q_of_vplus(0.5 - 1e-12) == pytest.approx(0.75, abs=1e-12)
        assert q_of_vplus(0.125 + 1e-12) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("z", [0.1, 0.125, 0.5, 0.7])
    def test_out_of_range(self, z):
        with pytest.raises(ZOutOfRange):
            q_of_vplus(z)

    # Margin 1e-5 at the upper end: q_of_vplus is quadratically flat at
    # z = 1/2 (q - 3/4 = (2z-1)^2 / (16 z (1+z))), so a double-rounded q
    # pins z only to ~2e-16 / |2z-1|.
    @given(st.floats(0.125 + 1e-5, 0.5 - 1e-5))
    def test_round_trip(self, z):
        assert v_plus_squared(q_of_vplus(z)) == pytest.approx(z, abs=1e-10)

    def test_strictly_decreasing(self):
        zs = np.linspace(0.1251, 0.4999, 400)
        qs = [q_of_vplus(float(z)) for z in zs]
        assert all(b < a for a, b in zip(qs, qs[1:]))


class TestAdmissible:
    def test_examples(self):
        assert admissible(1.1, 1.0) is True
        assert admissible(1.0, 1.0) is False
        assert admissible(2.0, 1.0) is False

    @given(st.floats(0.1, 3.0))
    def test_matches_rest_point_existence(self, q0):
        q_tilde = 1.0 / (q0 * q0)
        if admissible(q0, 1.0):
            pair = rest_points(q_tilde)
            assert pair.v_plus_sq < pair.v_minus_sq
        else:
            assert not 0.75 < q_tilde < 1.0 or q_tilde - 0.75 <= 1e-8
