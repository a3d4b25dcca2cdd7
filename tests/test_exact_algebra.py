"""Exact proofs of the B# algebra and of P in `src/`, on rational functions.

The field that `shooting._field` builds runs here on elements of the rational
function field QQ(eps, t, p, theta), unchanged, and is compared with
T adj(B#) F / det B#(psi_plus), B# taken from the model's blocks.  The
closed forms of det B#, det A and trace adj(B#) A are compared with the
matrix builders over QQ(eps, p).  `classification`'s coefficient body, its
nested form of P and its discriminant body run on the same elements: P is
derived from the closed forms, its discriminant from P, and the exact values
that `verify` checks in floats are proven, with Sturm counts (Basu, Pollack
& Roy, Algorithms in Real Algebraic Geometry, 2006) for the tail's sign,
eps_hat and where P's roots lie against 1/8 and 1/2.  With the rest points'
body on q_of_vplus's, they give the label rule for every eps in (0, 1].  Equality in these
fields is equality of rational functions, so each check is a proof for every
parameter and state at which the denominators do not vanish.  The float tests still guard what exact values
cannot see: rounding (`test_corner_orbits_match_high_precision`) and the
guards that pick a rounding route (`test_overflowing_*`).
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ, Poly, Rational, Symbol, discriminant, minimal_polynomial, sqrt  # noqa: E402
from sympy.polys.fields import field as rational_field  # noqa: E402

from conftest import blocks_b_sharp  # noqa: E402
from radshock.classification import (  # noqa: E402
    _EPS_HAT, _coefficients, _discriminant, _horner, discriminant_tail,
)
from radshock import equilibria  # noqa: E402
from radshock.equilibria import _q_of_vplus  # noqa: E402
from radshock.model import (  # noqa: E402
    Kinematics, det_b_sharp_closed, det_lin_closed, lin_matrix, trace_adj, trace_adj_closed,
)
from radshock.shooting import _field  # noqa: E402


class Exact:
    """An element `x` of a rational function field `ring`, for code written on floats.

    Float and int operands become the rationals they denote.  `y ** -0.5` is
    read from `roots`, a table of pairs y: r, each checked, r^2 y = 1, as it
    is read; any other root raises.  Of the comparisons, `v > c` answers
    `positive`, the branch under test, and the cone guard `lo <= ab < hi`
    passes: an exact value neither leaves the cone nor overflows.  `==` is
    exact, so the finiteness guard `f * 0.0 == 0.0` holds.
    """

    def __init__(self, ring, x, roots=None, positive=True):
        self.ring, self.x, self.roots, self.positive = ring, ring(x), roots, positive

    def _new(self, x):
        return Exact(self.ring, x, self.roots, self.positive)

    def _lift(self, y):
        if isinstance(y, Exact):
            return y.x
        if isinstance(y, (int, float)):
            return self.ring(QQ(*Fraction(y).as_integer_ratio()))
        return None

    def _binary(op, reflected=False):
        def method(self, other):
            y = self._lift(other)
            if y is None:
                return NotImplemented
            return self._new(op(y, self.x) if reflected else op(self.x, y))
        return method

    __add__ = _binary(lambda x, y: x + y)
    __radd__ = _binary(lambda x, y: x + y, reflected=True)
    __sub__ = _binary(lambda x, y: x - y)
    __rsub__ = _binary(lambda x, y: x - y, reflected=True)
    __mul__ = _binary(lambda x, y: x * y)
    __rmul__ = _binary(lambda x, y: x * y, reflected=True)
    __truediv__ = _binary(lambda x, y: x / y)
    __rtruediv__ = _binary(lambda x, y: x / y, reflected=True)
    del _binary

    def __neg__(self):
        return self._new(-self.x)

    def __pow__(self, n):
        if isinstance(n, int):
            return self._new(self.x**n)
        assert n == -0.5, n
        r = self.roots[self.x]
        assert r * r * self.x == 1
        return self._new(r)

    @property
    def real(self):
        return self

    def __gt__(self, _):
        return self.positive

    def __ge__(self, _):
        return True

    __lt__ = __ge__

    def __eq__(self, other):
        return self.x == self._lift(other)

    __hash__ = None


def t_adj_b_sharp_f(eps, q_tilde, vp2, theta, u, v):
    """T adj(B#) F / det B#(psi_plus) at (theta, u, v), B# from the model's blocks.

    F = (q0 - (4/3) theta^4 uv, theta^4 ((4/3) v^2 + 1/3) - 1) with q0 =
    q_tilde^(-1/2) and q1 = 1.  det B#(psi_plus) is `det_b_sharp_closed`'s,
    which `test_closed_forms_equal_the_matrix_builders` proves equal to the
    blocks' determinant wherever u^2 - v^2 = 1.
    """
    b = blocks_b_sharp(Kinematics(theta, u, v), eps)
    t4 = theta**4
    f0 = q_tilde**-0.5 - 4 * t4 * u * v / 3
    f1 = t4 * (4 * v * v + 1) / 3 - 1
    det = det_b_sharp_closed(vp2, eps)
    g0 = (b[1, 1] * f0 - b[0, 1] * f1) / det
    g1 = (b[0, 0] * f1 - b[1, 0] * f0) / det
    return g0 + g1, g0 - g1


@pytest.mark.parametrize("positive", [True, False], ids=["phi-factored", "phi-plain"])
def test_shipped_field_body_is_exact(positive):
    # q_tilde = (t^2 + 3)^2 / (16 t^2), with v+^2 = 1/(t^2 - 1) and
    # v-^2 = t^2/(9 - t^2), the roots of q_tilde = (4z + 1)^2 / (16 z (1 + z));
    # t in (sqrt 3, 3) covers q_tilde in (3/4, 1) and v+^2 in (1/8, 1/2).  The
    # state (a, b) = (p/theta, 1/(p theta)) has ab = theta^-2 and u + v = p.
    ring, eps, t, p, theta = rational_field("eps,t,p,theta", QQ)
    q_tilde = (t**2 + 3) ** 2 / (16 * t**2)
    vp2, vm2 = 1 / (t**2 - 1), t**2 / (9 - t**2)
    for z in (vp2, vm2):
        assert (4 * z + 1) ** 2 == 16 * z * (1 + z) * q_tilde
    a, b = p / theta, 1 / (p * theta)
    roots = {q_tilde: 4 * t / (t**2 + 3), a * b: theta}

    def num(x):
        return Exact(ring, x, roots, positive)

    got = _field(num(eps), num(q_tilde), num(vp2), num(vm2))(num(a), num(b))
    u, v = num((p + 1 / p) / 2), num((p - 1 / p) / 2)
    want = t_adj_b_sharp_f(num(eps), num(q_tilde), num(vp2), num(theta), u, v)
    assert tuple(got) == want


def test_closed_forms_equal_the_matrix_builders():
    # u = (p + 1/p)/2 and v = (p - 1/p)/2 give u^2 - v^2 = 1 exactly, so
    # every state's (u, v) is one value of p.  The blocks do not read theta.
    ring, eps, p = rational_field("eps,p", QQ)
    e, u, v = Exact(ring, eps), Exact(ring, (p + 1 / p) / 2), Exact(ring, (p - 1 / p) / 2)
    kin = Kinematics(None, u, v)
    b, a = blocks_b_sharp(kin, e), lin_matrix(kin)
    assert b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0] == det_b_sharp_closed(v * v, e)
    assert a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] == det_lin_closed(v * v)
    assert trace_adj(b, a) == trace_adj_closed(v, e)


def body_p(z, eps):
    """P(z, eps) as `classification` forms it: the coefficient body in the nested form."""
    return _horner(_coefficients(eps), z)


def test_p_is_the_discriminant_of_the_spectrum():
    # B#^-1 A has trace tr/det B# and determinant det A/det B#, so its
    # eigenvalues are complex exactly where tr^2 - 4 det A det B# < 0.
    ring, eps, p = rational_field("eps,p", QQ)
    e, v = Exact(ring, eps), Exact(ring, (p - 1 / p) / 2)
    z = v * v
    disc = trace_adj_closed(v, e) ** 2 - 4 * det_lin_closed(z) * det_b_sharp_closed(z, e)
    assert disc == 9 * body_p(z, e) / (e - 4) ** 2


def test_discriminant_body_is_the_discriminant_of_p():
    ring, eps, z = rational_field("eps,z", QQ)
    e = Exact(ring, eps)
    p = body_p(Exact(ring, z), e).x.as_expr()
    assert _discriminant(e).x == ring.from_expr(discriminant(p, Symbol("z")))


def quartic(e):
    """9 e^4 + 96 e^3 - 560 e^2 + 256 e + 64, whose one root in (0, 1) is eps_hat."""
    return 9 * e**4 + 96 * e**3 - 560 * e**2 + 256 * e + 64


def test_verify_values_are_exact():
    ring, eps = rational_field("eps", QQ)
    e, one = Exact(ring, eps), Exact(ring, 1)
    third = one / 3
    assert body_p(0.5, e) == 9 * e**2 * (e - 4) ** 2 / 8
    assert body_p(third, e) == 16 * (e - 1) ** 2 * (e * e - 4 * e + 1) / 27
    assert body_p(0.125, e) == 9 * quartic(e) / 512
    for w in (-1, 0, third):
        assert body_p(w, one) == 0


def test_sturm_counts_and_eps_hat():
    # count_roots counts by Sturm sequences on the closed interval; the
    # quartic is 64 at 0 and -135 at 1, so its count is that of (0, 1).
    ring, eps = rational_field("eps", QQ)
    e, x = Exact(ring, eps), Symbol("eps")
    tail = Poly(discriminant_tail(e).x.as_expr(), x)
    assert tail.count_roots(0, 1) == 0 and tail.eval(0) > 0
    quartic_x = Poly(quartic(x), x)
    assert quartic_x.count_roots(0, 1) == 1
    s6 = sqrt(6)
    closed = Rational(2, 3) * (3 * s6 - 2 * sqrt(16 - 6 * s6) - 4)
    assert Poly(minimal_polynomial(closed, x), x) == quartic_x
    assert 0 < closed < 1 and float(closed) == pytest.approx(_EPS_HAT, rel=1e-15)


def test_sturm_counts_place_the_roots():
    # For every eps in (0, 1]: w1 < 1/8 < w3 < 1/2, and w2 > 1/8 below
    # eps_hat, w2 < 1/8 above it.  Continuity step: on (0, 1] the leading
    # coefficient a3 is at least 64, so P(., eps) keeps degree 3, and its
    # discriminant is positive, so its three real roots stay simple and move
    # continuously with eps.  No root crosses 1/2, where P(1/2, eps) > 0, and
    # one crosses 1/8 only at eps_hat, the one zero of P(1/8, eps), which lies
    # between 1/2 and 1.  So the roots' counts below 1/8, between 1/8 and 1/2,
    # and above 1/2 are those at eps = 1/2 on (0, eps_hat) and those at
    # eps = 1 on (eps_hat, 1]; at eps_hat, w2 = 1/8 from both sides.
    ring, eps = rational_field("eps", QQ)
    e, x = Exact(ring, eps), Symbol("eps")

    def in_eps(value):
        return Poly(value.x.as_expr(), x)

    assert _coefficients(e)[3] - 64 == e**2 * (e**2 + 16)
    disc = in_eps(_discriminant(e))
    assert disc.count_roots(0, 1) == 1 and disc.eval(0) == 0 and disc.eval(1) > 0
    at_eighth = in_eps(body_p(0.125, e))
    assert at_eighth.count_roots(0, 1) == 1
    assert at_eighth.eval(Rational(1, 2)) > 0 > at_eighth.eval(1)
    assert body_p(0.5, e) == 9 * e**2 * (e - 4) ** 2 / 8

    ring_z, z = rational_field("z", QQ)
    one, eighth, half = Exact(ring_z, 1), Rational(1, 8), Rational(1, 2)
    for at, counts in ((one / 2, [1, 2, 0]), (one, [2, 1, 0])):
        p = Poly(body_p(Exact(ring_z, z), at).x.as_expr(), Symbol("z"))
        assert [p.count_roots(None, eighth), p.count_roots(eighth, half),
                p.count_roots(half, None)] == counts


def test_label_rule_holds_for_every_eps(monkeypatch):
    # The paper's claim that the local scenario extends globally, as the
    # library's label rule.  For every eps in (0, 1]:
    # - q_of_vplus maps (1/8, 1/2) onto (3/4, 1), strictly decreasing:
    #   q(1/8) = 1, q(1/2) = 3/4 and dq/dz < 0 between (checked here);
    # - v+^2 of `_rest_v_sq` is its inverse, v+^2(q(z)) = z (checked here);
    # - w1 < 1/8 < w3 < 1/2, and w2 > 1/8 below eps_hat, w2 <= 1/8 from it
    #   on (`test_sturm_counts_place_the_roots`); P's leading coefficient is
    #   positive, so on (1/8, 1/2) P(z, eps) < 0 exactly for
    #   max(w2, 1/8) < z < w3;
    # - so, through the decreasing map, {q : P(v+^2(q), eps) < 0} is exactly
    #   (q1, q2) with q1 = q(w3), and q2 = q(w2) below eps_hat, q2 = q(1/8) = 1
    #   from it on.
    # That is the rule `classification._labels` applies: Focus strictly
    # between q1 and q2 (q2 = inf from eps_hat on), NodeBelow below q1 and
    # NodeAbove above q2.
    ring, z = rational_field("z", QQ)
    x, one = Exact(ring, z), Exact(ring, 1)
    q = _q_of_vplus(x)
    assert _q_of_vplus(one / 8) == 1 and _q_of_vplus(one / 2) == one * 3 / 4
    slope = (2 * z - 1) * (4 * z + 1) / (16 * z**2 * (z + 1) ** 2)
    assert q.x.diff(z) == slope
    numer = Poly(slope.numer.as_expr(), Symbol("z"))
    eighth, half = Rational(1, 8), Rational(1, 2)
    # Its one root on [1/8, 1/2] is 1/2, and it is negative inside.
    assert numer.count_roots(eighth, half) == 1 and numer.eval(half) == 0
    assert numer.eval(Rational(1, 4)) < 0

    # sqrt(q(4q - 3)) = (1 - 2z)(4z + 1) / (8z(1 + z)), a product of positive
    # factors for z in (1/8, 1/2).
    root = (1 - 2 * z) * (4 * z + 1) / (8 * z * (1 + z))
    roots = {(q * (4 * q - 3)).x: root}

    def table_sqrt(y):
        r = roots[y.x]
        assert r * r == y.x
        return y._new(r)

    monkeypatch.setattr(equilibria, "_sqrt", table_sqrt)
    v_minus_sq, v_plus_sq = equilibria._rest_v_sq(q)
    assert v_plus_sq == x and v_minus_sq == (1 + x) / (8 * x - 1)
