"""Exact proofs of the B# algebra and of P in `src/`, on rational functions.

The field that `shooting._field` builds runs here on elements of the rational
function field QQ(eps, t, p, theta), unchanged, and is compared with
T adj(B#) F / det B#(psi_plus), B# taken from the model's blocks.  The
closed forms of det B#, det A and trace adj(B#) A are compared with the
matrix builders over QQ(eps, p).  `classification`'s coefficient body, its
nested form of P and its discriminant body run on the same elements: P is
derived from the closed forms, its discriminant from P, and the exact values
that `verify` checks in floats are proven, with Sturm counts (Basu, Pollack
& Roy, Algorithms in Real Algebraic Geometry, 2006) for the tail's sign and
eps_hat.  Equality in these fields is equality of rational functions, so
each check is a proof for every parameter and state at which the
denominators do not vanish.  The float tests still guard what exact values
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
