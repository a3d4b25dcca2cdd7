import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bracketed_roots, frob_sq
from radshock import classification
from radshock.classification import (
    CODE_LABELS,
    SEPARATRIX_BAND,
    RegionLabel,
    classify,
    classify_grid,
    cubic_roots,
    discriminant_tail,
    epsilon_hat,
    local_spectrum,
    p_coefficients,
    p_eval,
    separatrix_grid,
    separatrix_q1,
    separatrix_q2,
)
from radshock.equilibria import state_from_v, rest_points, v_plus_squared
from radshock.errors import (
    EpsilonAboveHat,
    EpsilonOutOfRange,
    InternalInconsistency,
    ParamsOutOfOmega,
    RootFindingFailure,
    SingularBsharp,
)
from radshock.model import (
    b_sharp,
    det_b_sharp_closed,
    det_lin_closed,
    kinematics,
    lin_matrix,
    trace_adj,
)

EPS_HAT = epsilon_hat()

eps_open = st.floats(1e-4, 1.0, exclude_max=True)


class TestPolynomial:
    def test_coefficients_at_one(self):
        assert p_coefficients(1.0) == (0.0, -27.0, 54.0, 81.0)

    def test_coefficients_at_zero(self):
        assert p_coefficients(0.0) == (0.0, 16.0, -64.0, 64.0)

    def test_a0_at_half(self):
        assert p_coefficients(0.5)[0] == pytest.approx(3.5, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(EpsilonOutOfRange):
            p_coefficients(-0.1)
        with pytest.raises(EpsilonOutOfRange):
            p_eval(0.3, 1.1)

    @given(st.floats(0.0, 1.0))
    def test_value_at_half(self, eps):
        want = 9.0 / 8.0 * eps * eps * (eps - 4.0) ** 2
        assert p_eval(0.5, eps) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_value_at_half_eps_one(self):
        assert p_eval(0.5, 1.0) == pytest.approx(81.0 / 8.0, rel=1e-15)

    @given(st.floats(0.0, 1.0))
    def test_value_at_third(self, eps):
        want = 16.0 / 27.0 * (eps - 1.0) ** 2 * (eps * eps - 4.0 * eps + 1.0)
        assert p_eval(1.0 / 3.0, eps) == pytest.approx(want, rel=1e-11, abs=1e-12)

    def test_zero_at_third(self):
        assert abs(p_eval(1.0 / 3.0, 2.0 - math.sqrt(3.0))) < 1e-10
        assert abs(p_eval(1.0 / 3.0, 1.0)) < 1e-15

    def test_zero_at_eighth(self):
        assert abs(p_eval(0.125, EPS_HAT)) < 1e-10

    def test_eps_array_matches_float_calls(self):
        eps = np.linspace(0.0, 1.0, 257)
        for z in (0.5, 1.0 / 3.0):
            assert list(p_eval(z, eps)) == [p_eval(z, float(e)) for e in eps]

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_any_bad_eps_entry_raises(self, bad):
        eps = np.linspace(0.0, 1.0, 9)
        eps[3] = bad
        with pytest.raises(EpsilonOutOfRange):
            p_eval(0.5, eps)


class TestEpsilonHat:
    def test_value(self):
        assert EPS_HAT == pytest.approx(0.710289, abs=1e-6)

    def test_quadratic_in_y(self):
        y = EPS_HAT + 8.0 / (3.0 * EPS_HAT)
        assert abs(9.0 * y * y + 96.0 * y - 608.0) < 1e-9


class TestCubicRoots:
    def test_exact_at_one(self):
        r = cubic_roots(1.0)
        assert abs(r.w1 + 1.0) < 1e-12
        assert abs(r.w2) < 1e-12
        assert abs(r.w3 - 1.0 / 3.0) < 1e-12

    def test_middle_root_at_hat(self):
        assert cubic_roots(EPS_HAT).w2 == pytest.approx(0.125, abs=1e-9)

    def test_frozen_half(self):
        # 60-digit reference solve of the cubic at eps = 0.5.
        r = cubic_roots(0.5)
        assert r.w1 == pytest.approx(-0.6778076274083633, abs=1e-13)
        assert r.w2 == pytest.approx(0.21839789764757228, abs=1e-13)
        assert r.w3 == pytest.approx(0.34738034500413356, abs=1e-13)

    def test_against_bisection_oracle(self):
        for eps in (0.1, 0.35, 0.5, 0.82, 0.97):
            want = bracketed_roots(lambda z: p_eval(z, eps), -2.0, 1.0)
            r = cubic_roots(eps)
            assert len(want) == 3
            for got, ref in zip((r.w1, r.w2, r.w3), want):
                assert got == pytest.approx(ref, abs=1e-9)

    def test_cluster_regime_frozen(self):
        # At eps = 2e-4 the upper pair is ~1.3e-9 apart; reference values
        # from a 60-digit solve.
        r = cubic_roots(2e-4)
        assert r.w1 == pytest.approx(-0.0002000699939885012, abs=1e-15)
        assert r.w2 == pytest.approx(0.499850036864555, abs=1e-12)
        assert r.w3 - r.w2 == pytest.approx(1.2723784248436232e-09, rel=1e-5)

    @pytest.mark.parametrize(
        "eps",
        [1e-6, 1e-5, 1e-4, 2e-4, 1e-3, 5e-3, 0.0184, 0.0194, 0.02, 0.0206, 0.023024,
         0.025, 0.03, 0.05, 0.075, 0.1, 0.15, 0.2, 0.35, 0.5, EPS_HAT, 0.72, 0.82,
         0.938939, 1.0],
    )
    def test_against_50_digit_roots(self, eps):
        # The cubic's coefficients formed from eps in 50 digits, so the
        # reference carries no rounding of the float coefficients, which
        # alone would move the clustered pair by ~sqrt(2^-52) at small eps.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            e = mpmath.mpf(eps)
            a0 = e * ((4 * e - 20) * e + 16)
            a1 = (((e - 16) * e + 84) * e - 112) * e + 16
            a2 = (((2 * e - 20) * e - 24) * e + 160) * e - 64
            a3 = (e * e + 16) * e * e + 64
            ref = sorted(mpmath.re(z) for z in mpmath.polyroots([a3, a2, a1, a0], extraprec=200))
            r = cubic_roots(eps)
            err = [float(abs(w - z)) for w, z in zip((r.w1, r.w2, r.w3), ref)]
        ulp = [abs(np.spacing(float(z))) for z in ref]
        assert err[0] <= 8 * ulp[0]
        assert err[2] <= 8 * ulp[2]
        if eps < EPS_HAT:
            assert err[1] <= 8 * ulp[1]
        else:
            # w2 falls to 0 at eps = 1, where no count of its ulp is a bound.
            assert err[1] <= 1e-15

    @given(st.floats(1e-6, 1.0))
    def test_vieta(self, eps):
        a0, a1, a2, a3 = p_coefficients(eps)
        r = cubic_roots(eps)
        assert r.w1 + r.w2 + r.w3 == pytest.approx(-a2 / a3, rel=1e-12, abs=1e-12)
        assert r.w1 * r.w2 * r.w3 == pytest.approx(-a0 / a3, rel=1e-9, abs=1e-15)

    @given(eps_open)
    def test_bracket_properties(self, eps):
        r = cubic_roots(eps)
        assert r.w1 < 0.0
        assert r.w1 < r.w2 < r.w3
        assert 1.0 / 3.0 < r.w3 < 0.5
        if eps < EPS_HAT - 1e-12:
            assert 0.125 < r.w2 < 0.5
        elif eps > EPS_HAT + 1e-12:
            assert 0.0 < r.w2 < 0.125

    @given(st.floats(1e-6, 1.0))
    def test_residuals(self, eps):
        a0, a1, a2, a3 = p_coefficients(eps)
        r = cubic_roots(eps)
        for w in (r.w1, r.w2, r.w3):
            assert abs(p_eval(w, eps)) <= 1e-10 * max(1.0, abs(a3))

    def test_out_of_range(self):
        with pytest.raises(EpsilonOutOfRange):
            cubic_roots(0.0)
        with pytest.raises(EpsilonOutOfRange):
            cubic_roots(1.5)


class TestDiscriminant:
    def test_factored_value_at_one(self):
        # 1296 * 27 * 243, the exact discriminant of 27 z (3z^2 + 2z - 1).
        assert classification._discriminant(1.0) == 8503056.0

    @given(eps_open)
    def test_tail_positive(self, eps):
        assert discriminant_tail(eps) > 0.0


class TestSeparatrices:
    def test_q1_at_one(self):
        assert separatrix_q1(1.0) == pytest.approx(49.0 / 64.0, abs=1e-12)

    def test_limits_toward_zero(self):
        assert abs(separatrix_q1(1e-4) - 0.75) < 1e-2
        assert abs(separatrix_q2(1e-4) - 0.75) < 1e-2

    def test_q2_limit_at_hat(self):
        assert abs(separatrix_q2(EPS_HAT - 1e-4) - 1.0) < 1e-2

    def test_ordering(self):
        for eps in np.linspace(0.05, EPS_HAT - 1e-3, 25):
            assert separatrix_q1(float(eps)) < separatrix_q2(float(eps))
            assert 0.75 < separatrix_q1(float(eps)) < 1.0
            assert 0.75 < separatrix_q2(float(eps)) < 1.0

    def test_q2_undefined_above_hat(self):
        for eps in (EPS_HAT, 0.9, 1.0):
            with pytest.raises(EpsilonAboveHat):
                separatrix_q2(eps)

    @pytest.mark.parametrize("k", range(12))
    def test_q2_and_the_labels_end_at_the_same_eps(self, k):
        # On the floats just above eps_hat, w2 rounds above 1/8, yet q2 is
        # undefined there: no label may place a point above or on it.
        eps = EPS_HAT
        for _ in range(k):
            eps = math.nextafter(eps, 2.0)
        with pytest.raises(EpsilonAboveHat):
            separatrix_q2(eps)
        label = classify(eps, 1.0 - 1e-12)
        assert label not in (RegionLabel.SEPARATRIX_2, RegionLabel.NODE_ABOVE)

    def test_out_of_range(self):
        with pytest.raises(EpsilonOutOfRange):
            separatrix_q1(0.0)
        with pytest.raises(EpsilonOutOfRange):
            separatrix_q2(-0.5)


class TestClassify:
    def test_node_below(self):
        assert classify(1.0, 0.76) is RegionLabel.NODE_BELOW

    def test_focus_above_q1_at_eps_one(self):
        assert classify(1.0, 0.80) is RegionLabel.FOCUS

    def test_node_above(self):
        # v_plus^2(0.9999) ~ 0.12503 lies below w2(0.3) ~ 0.31634.
        assert v_plus_squared(0.9999) < cubic_roots(0.3).w2
        assert classify(0.3, 0.9999) is RegionLabel.NODE_ABOVE

    @pytest.mark.parametrize("point", [(0.5, 0.5), (0.0, 0.8), (1.2, 0.8), (1.0, 0.7), (1.0, 1.0)])
    def test_out_of_omega(self, point):
        with pytest.raises(ParamsOutOfOmega):
            classify(*point)

    def test_solves_once(self, monkeypatch):
        # One cubic solve at eps and one rest-point solve at q_tilde.
        calls = []
        for name in ("_roots", "_rest_v_sq"):
            body = getattr(classification, name)
            monkeypatch.setattr(classification, name,
                                lambda x, name=name, body=body: calls.append((name, x)) or body(x))
        classify(0.5, 0.9)
        assert [(name, np.ravel(x).tolist()) for name, x in calls] == [
            ("_roots", [0.5]), ("_rest_v_sq", [0.9])]

    @pytest.mark.xfail(
        raises=RootFindingFailure, strict=True,
        reason="ROADMAP item 9: below eps ~ 2.2e-7 the upper roots of P collide in float64",
    )
    def test_region_below_the_root_collision(self):
        # A point of the advertised square.  Once item 9 is done this passes,
        # which a strict xfail reports as a failure, so the mark must go.
        assert isinstance(classify(1e-8, 0.8), RegionLabel)

    def test_separatrix_labels(self):
        assert classify(1.0, separatrix_q1(1.0)) is RegionLabel.SEPARATRIX_1
        assert classify(0.3, separatrix_q2(0.3)) is RegionLabel.SEPARATRIX_2

    def test_two_routes_agree_on_grid(self):
        for eps in np.linspace(0.02, 1.0, 41):
            for q in np.linspace(0.7502, 0.9998, 41):
                classify(float(eps), float(q))  # raises InternalInconsistency on disagreement

    def test_spectrum_route_matches_labels_on_grid(self):
        # Focus iff the downstream eigenvalues have nonzero imaginary part
        # (1e-8 tolerance), checked against the label on a 50x50 grid.
        for eps in np.linspace(0.02, 1.0, 50):
            eps = float(eps)
            q1 = separatrix_q1(eps)
            q2 = separatrix_q2(eps) if eps < EPS_HAT else None
            for q in np.linspace(0.7505, 0.995, 50):
                q = float(q)
                if abs(q - q1) <= 1e-8 or (q2 is not None and abs(q - q2) <= 1e-8):
                    continue
                label = classify(eps, q)
                lam = local_spectrum(rest_points(q).psi_plus, eps)
                spectral_focus = abs(lam[0].imag) > 1e-8
                assert spectral_focus == (label is RegionLabel.FOCUS), (eps, q, label)

    @given(st.floats(0.01, 1.0), st.floats(0.7502, 0.9998))
    def test_sign_route_matches_label(self, eps, q):
        label = classify(eps, q)
        pval = p_eval(v_plus_squared(q), eps)
        if label is RegionLabel.FOCUS:
            assert pval < 1e-8
        elif label in (RegionLabel.NODE_BELOW, RegionLabel.NODE_ABOVE):
            assert pval > -1e-8


class TestClassifyGrid:
    def test_cells_match_the_scalar_routes(self):
        # eps straddles eps_hat and takes both ends of the square; q_tilde
        # holds points half a band off q1 and q2 of some rows.
        eps = [1e-6, 0.05, 0.3, 0.6, math.nextafter(EPS_HAT, 0.0), EPS_HAT,
               math.nextafter(EPS_HAT, 2.0), 0.9, 1.0]
        half = SEPARATRIX_BAND / 2
        q1_rows, q2_rows = (0.05, 0.3, 0.6, 1.0), (0.05, 0.3, 0.6)
        q = [0.75 + 1e-6, 0.8, 0.95, 1.0 - 1e-6]
        q += [separatrix_q1(e) + d for e in q1_rows for d in (-half, half)]
        q += [separatrix_q2(e) + d for e in q2_rows for d in (-half, half)]
        code, z, pval = classify_grid(np.array(eps), np.array(q))
        assert code.shape == pval.shape == (len(eps), len(q))
        for j, qj in enumerate(q):
            assert z[j].hex() == v_plus_squared(qj).hex()
        for i, e in enumerate(eps):
            for j, qj in enumerate(q):
                assert CODE_LABELS[code[i, j]] is classify(e, qj), (e, qj)
                assert pval[i, j].hex() == p_eval(v_plus_squared(qj), e).hex(), (e, qj)
        for k, e in enumerate(q1_rows):
            assert [CODE_LABELS[c] for c in code[eps.index(e), 4 + 2 * k:6 + 2 * k]] == [
                RegionLabel.SEPARATRIX_1] * 2
        for k, e in enumerate(q2_rows):
            j = 4 + 2 * len(q1_rows) + 2 * k
            assert [CODE_LABELS[c] for c in code[eps.index(e), j:j + 2]] == [
                RegionLabel.SEPARATRIX_2] * 2

    def test_float_eps_gives_the_shape_of_q(self):
        code, z, pval = classify_grid(0.5, [0.76, 0.8])
        assert code.shape == z.shape == pval.shape == (2,)
        assert [CODE_LABELS[c] for c in code] == [classify(0.5, 0.76), classify(0.5, 0.8)]

    def test_inconsistency_names_its_cell(self, monkeypatch):
        # Flip the sign of P at one off-diagonal cell of a 4x3 grid, a Focus
        # cell well inside the band between the curves.  The separatrices are
        # solved first and the labelling body is called on them, so the
        # patched nested form sees only the grid's P and term scale; a
        # negative scale leaves the cell decided.
        eps = np.array([0.2, 0.4, 0.6, 0.8])
        q = np.array([0.76, 0.85, 0.95])
        separatrices = separatrix_grid(eps)[..., None]
        z = float(v_plus_squared(q)[1])
        p = -float(p_eval(z, 0.6))
        true_horner = classification._horner

        def flipped(coeffs, z):
            p = true_horner(coeffs, z)
            p[2, 1] = -p[2, 1]
            return p

        monkeypatch.setattr(classification, "_horner", flipped)
        with pytest.raises(InternalInconsistency) as info:
            classification._labels(eps[:, None], q, *separatrices)
        assert str(info.value) == f"separatrix route says Focus but P({z!r}, 0.6) = {p!r}"

    @pytest.mark.parametrize("eps", [[1.5, 0.6], [math.nan, 0.6], ["a", "b"]])
    def test_bad_eps_column_is_refused_before_any_solve(self, monkeypatch, eps):
        # The gate runs first, so an eps column with an entry out of range
        # reaches neither the cubic solve nor the labelling body.
        calls = []
        for body in ("_roots", "_labels"):
            monkeypatch.setattr(classification, body, lambda *a, body=body: calls.append(body))
        with pytest.raises(EpsilonOutOfRange):
            classify_grid(np.array(eps), [0.8, 0.9])
        assert calls == []

    def test_inconsistency_at_a_point_names_it(self, monkeypatch):
        # `classify` runs the same body on a float q_tilde.  Flip the sign of
        # P at the point's v_plus^2 alone, so the cubic solve is untouched; a
        # negative term scale leaves the point decided.
        z = v_plus_squared(0.85)
        p = -p_eval(z, 0.6)
        true_horner = classification._horner
        monkeypatch.setattr(classification, "_horner", lambda coeffs, x: (
            -true_horner(coeffs, x) if x == z else true_horner(coeffs, x)))
        with pytest.raises(InternalInconsistency) as info:
            classify(0.6, 0.85)
        assert str(info.value) == f"separatrix route says Focus but P({z!r}, 0.6) = {p!r}"

    def test_coefficients_formed_once_per_call(self, monkeypatch):
        # The grid's P and its term scale share one set of coefficients, and
        # a cubic solve forms them once.
        eps = np.array([0.2, 0.6])
        separatrices = separatrix_grid(eps)[..., None]
        calls, body = [], classification._coefficients
        monkeypatch.setattr(classification, "_coefficients", lambda e: calls.append(e) or body(e))
        classification._labels(eps[:, None], np.array([0.76, 0.9]), *separatrices)
        assert len(calls) == 1
        cubic_roots(0.5)
        assert len(calls) == 2


class TestLocalSpectrum:
    def test_attractor_node(self):
        pair = rest_points(0.76)
        lam = local_spectrum(pair.psi_plus, 1.0)
        assert lam[0].imag == 0.0 and lam[1].imag == 0.0
        assert lam[0].real < 0.0 and lam[1].real < 0.0

    def test_attractor_focus(self):
        pair = rest_points(0.80)
        lam = local_spectrum(pair.psi_plus, 1.0)
        assert lam[0].imag != 0.0
        assert lam[0].real < 0.0 and lam[1].real < 0.0

    def test_saddle(self):
        for q in (0.76, 0.80, 0.92):
            pair = rest_points(q)
            lam = local_spectrum(pair.psi_minus, 1.0)
            assert lam[0].imag == 0.0 and lam[1].imag == 0.0
            assert lam[0].real * lam[1].real < 0.0

    def test_small_saddle_root_does_not_cancel(self):
        # Here 0.5 (tr - sqrt(disc)) rounds the negative root to exactly 0,
        # as it does at eps = 1e-6 within 2e-11 of q_tilde = 1.
        eps = 1e-12
        psi = rest_points(1.0 - 1e-6).psi_minus
        v_sq = kinematics(psi).v ** 2
        det = det_lin_closed(v_sq) / det_b_sharp_closed(v_sq, eps)
        lo, hi = local_spectrum(psi, eps)
        assert lo.real < 0.0 < hi.real
        assert lo.real * hi.real == pytest.approx(det, rel=1e-14)

    def test_singular_matrix(self):
        eps = 0.5
        v = math.sqrt((1.0 - eps) / (8.0 + eps))
        with pytest.raises(SingularBsharp):
            local_spectrum(state_from_v(v), eps)

    @given(st.floats(0.01, 1.0), st.floats(-1.2, 1.2))
    def test_discriminant_sign_matches_polynomial(self, eps, v):
        psi = state_from_v(v)
        kin = kinematics(psi)
        b = b_sharp(kin, eps)
        a = lin_matrix(kin)
        det_b = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = trace_adj(b, a) ** 2 - 4.0 * det_b * det_a
        pval = p_eval(v * v, eps)
        scale = frob_sq(b) * frob_sq(a)
        if abs(pval) > 1e-10 * max(1.0, scale):
            assert (disc < 0.0) == (pval < 0.0)
