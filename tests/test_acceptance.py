"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from conftest import frob_sq, rel_err
from radshock.classification import (
    RegionLabel,
    cubic_roots,
    discriminant_tail,
    epsilon_hat,
    local_spectrum,
    p_eval,
    separatrix_q1,
    separatrix_q2,
)
from radshock.equilibria import (
    q_of_vplus,
    rest_points,
    state_from_v,
    v_plus_squared,
)
from radshock.model import (
    b_sharp,
    det_b_sharp_closed,
    det_lin_closed,
    flux_residual,
    kinematics,
    lin_matrix,
    trace_adj,
    trace_adj_closed,
)
from radshock.scan import ScanConfig, run_scan
from radshock.shooting import ProfileVerdict, ShootOptions, _field_jacobian, _setup, shoot

EPS_HAT = epsilon_hat()


class _Watch:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s, budget {self.budget:.0f}s)")
        self.elapsed = elapsed
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded runtime budget"
        return False


def test_criterion_1_exact_constants():
    with _Watch("1 exact-constants", 1.0):
        roots = cubic_roots(1.0)
        assert abs(roots.w1 + 1.0) <= 1e-12
        assert abs(roots.w2) <= 1e-12
        assert abs(roots.w3 - 1.0 / 3.0) <= 1e-12
        assert abs(separatrix_q1(1.0) - 49.0 / 64.0) <= 1e-12
        assert abs(EPS_HAT - 0.710289) <= 1e-6
        assert abs(p_eval(0.125, EPS_HAT)) <= 1e-10
        assert abs(p_eval(1.0 / 3.0, 2.0 - math.sqrt(3.0))) <= 1e-10


def test_criterion_2_identity_suite():
    with _Watch("2 identity-suite", 5.0):
        rng = np.random.default_rng(42)
        n = 10_000
        v_sq = rng.uniform(1e-9, 2.0, n)
        signs = rng.choice([-1.0, 1.0], n)
        eps = rng.uniform(1e-9, 1.0, n)
        worst_det_b = worst_det_a = worst_trace = 0.0
        sign_checked = 0
        for z, s, e in zip(v_sq, signs, eps):
            v = s * math.sqrt(z)
            kin = kinematics(state_from_v(v))
            b = b_sharp(kin, float(e))
            a = lin_matrix(kin)
            fb, fa = frob_sq(b), frob_sq(a)
            det_b = float(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
            det_a = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
            tr_adj = trace_adj(b, a)
            worst_det_b = max(worst_det_b, rel_err(det_b, det_b_sharp_closed(z, e), fb))
            worst_det_a = max(worst_det_a, rel_err(det_a, det_lin_closed(z), fa))
            worst_trace = max(
                worst_trace, rel_err(tr_adj, trace_adj_closed(v, e), math.sqrt(fb * fa))
            )
            disc = tr_adj * tr_adj - 4.0 * det_b * det_a
            pval = p_eval(float(z), float(e))
            if abs(pval) > 1e-10:
                sign_checked += 1
                assert (disc < 0.0) == (pval < 0.0), f"sign mismatch at v^2={z}, eps={e}"
        assert worst_det_b <= 1e-12, worst_det_b
        assert worst_det_a <= 1e-12, worst_det_a
        assert worst_trace <= 1e-12, worst_trace
        assert sign_checked > 9000


def test_criterion_3_root_brackets():
    with _Watch("3 root-brackets", 5.0):
        for e in np.geomspace(1.0001e-4, 0.99999, 1000):
            e = float(e)
            r = cubic_roots(e)
            assert r.w1 < 0.0
            assert r.w1 < r.w2 < r.w3
            assert 1.0 / 3.0 < r.w3 < 0.5
            if e < EPS_HAT:
                assert 0.125 < r.w2 < 0.5
            else:
                assert 0.0 < r.w2 < 0.125
            assert discriminant_tail(e) > 0.0


def test_criterion_4_figure_reproduction():
    with _Watch("4 figure-reproduction", 60.0):
        result = run_scan(
            ScanConfig(
                eps_lo=1e-4, eps_hi=1.0, eps_count=200,
                q_lo=0.75 + 1e-4, q_hi=1.0 - 1e-4, q_count=200,
            )
        )
        counts = {}
        for r in result.records:
            counts[r.region] = counts.get(r.region, 0) + 1
        for label in (RegionLabel.NODE_BELOW, RegionLabel.FOCUS, RegionLabel.NODE_ABOVE):
            assert counts.get(label.value, 0) > 0, f"{label.value} region empty"

        assert abs(separatrix_q1(1e-4) - 0.75) <= 1e-2
        assert abs(separatrix_q2(1e-4) - 0.75) <= 1e-2
        assert abs(separatrix_q2(EPS_HAT - 1e-4) - 1.0) <= 1e-2

        # A-based vs complex-step-Jacobian node/focus decision.
        disagreements = 0
        for e in np.linspace(0.02, 1.0, 50):
            e = float(e)
            q1 = separatrix_q1(e)
            q2 = separatrix_q2(e) if e < EPS_HAT else None
            for q in np.linspace(0.7505, 0.995, 50):
                q = float(q)
                if abs(q - q1) <= 1e-8 or (q2 is not None and abs(q - q2) <= 1e-8):
                    continue
                p_sign = p_eval(v_plus_squared(q), e) < 0.0
                # The Jacobian in null coordinates at psi_plus: T J T^-1 of
                # the one in psi, T = [[1, 1], [1, -1]], with its trace and det.
                _, _, _, field, _, plus = _setup(e, q)
                jac = _field_jacobian(field, *plus)
                tr = jac[0][0] + jac[1][1]
                det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
                jac_sign = tr * tr - 4.0 * det < 0.0
                if p_sign != jac_sign:
                    disagreements += 1
        assert disagreements == 0


def test_criterion_5_rest_point_spectra():
    with _Watch("5 rest-point-spectra", 10.0):
        for e in np.linspace(0.01, 1.0, 50):
            for q in np.linspace(0.751, 0.995, 50):
                pair = rest_points(float(q))
                lam_minus = local_spectrum(pair.psi_minus, float(e))
                assert lam_minus[0].imag == 0.0 and lam_minus[1].imag == 0.0
                assert lam_minus[0].real * lam_minus[1].real < 0.0
                lam_plus = local_spectrum(pair.psi_plus, float(e))
                assert lam_plus[0].real < 0.0 and lam_plus[1].real < 0.0


def test_criterion_6_profile_properties():
    with _Watch("6 profile-properties", 120.0):
        # (a) node-region shots: monotone convergence.
        # The last two are weak shocks near the saddle-node at q -> 3/4.
        node_qs = [round(0.751 + 0.001 * i, 3) for i in range(14)] + [0.75 + 1e-5, 0.75 + 1e-6]
        for q in node_qs:
            res = shoot(1.0, q)
            assert res.verdict is ProfileVerdict.CONVERGED_TO_PLUS, q
            assert res.oscillation.systems["u_v"][1].sign_changes == 0, q
            assert res.oscillation.oscillatory_by_system["psi"] is False, q

        # (b) focus-region shots: oscillation in every tracked system.  The
        # points start at 0.80: closer to the separatrix (49/64) the spiral
        # is too weak to show two sign alternations in every chart within
        # the capture resolution.
        focus_qs = [round(0.80 + 0.02 * i, 2) for i in range(10)]
        converged = 0
        for q in focus_qs:
            res = shoot(1.0, q)
            if res.verdict is ProfileVerdict.CONVERGED_TO_PLUS:
                converged += 1
                rep = res.oscillation
                assert rep.systems["u_v"][1].sign_changes >= 2, q
                assert rep.oscillatory is True
                for system in ("psi", "theta_v", "u_v"):
                    assert rep.oscillatory_by_system[system] is True, (q, system)
            else:
                print(f"  focus point (1.0, {q}) did not converge: {res.verdict.value}")
        print(f"  focus shots converged: {converged}/{len(focus_qs)}")
        assert converged >= 5

        # (c) halving integrator tolerances barely moves the endpoint.
        for q in (0.755, 0.76, 0.80):
            a = shoot(1.0, q, ShootOptions(rel_tol=1e-10, abs_tol=1e-12))
            b = shoot(1.0, q, ShootOptions(rel_tol=5e-11, abs_tol=5e-13))
            scale = np.linalg.norm(a.psi_minus.as_array() - a.psi_plus.as_array())
            drift = np.linalg.norm(a.states[-1] - b.states[-1])
            assert drift < 1e-8 * scale, (q, drift / scale)


def test_criterion_7_round_trips_and_residuals():
    with _Watch("7 round-trips-residuals", 2.0):
        # Margin 1e-5 at z = 1/2 where the inverse map is quadratically flat
        # and a double-rounded q cannot pin z more tightly.
        for z in np.linspace(0.125 + 1e-5, 0.5 - 1e-5, 1000):
            assert abs(v_plus_squared(q_of_vplus(float(z))) - z) <= 1e-10
        for q in np.linspace(0.7501, 0.9995, 1000):
            pair = rest_points(float(q))
            q0 = float(q) ** -0.5
            for psi in (pair.psi_minus, pair.psi_plus):
                assert np.max(np.abs(flux_residual(psi, q0, 1.0))) < 1e-10
