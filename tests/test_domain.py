"""Every public function of eps, or of (eps, q_tilde), rejects input outside its domain.

Functions of eps alone raise EpsilonOutOfRange outside (0, 1]; functions of
(eps, q_tilde) raise ParamsOutOfOmega outside the square (0, 1] x (3/4, 1).
NaN and inf are outside both.  Settings outside their range (shooting
options, the identity suite's sample count) raise OptionOutOfRange.
"""

import math

import pytest

from radshock.classification import classify, cubic_roots, local_spectrum, separatrix_q2
from radshock.equilibria import rest_points
from radshock.errors import DomainError, EpsilonOutOfRange, OptionOutOfRange, ParamsOutOfOmega
from radshock.model import b_sharp, kinematics
from radshock.shooting import (
    ShootOptions,
    field_jacobian,
    shoot,
    unstable_direction,
    vector_field,
)
from radshock.verify import run_identity_suite

# Off the singular locus for every eps in (0, 1]: v_plus^2 > 1/8 >= (1-eps)/(8+eps).
PSI = rest_points(0.8).psi_plus

BAD_EPS = [0.0, -1.0, 1.5, 2.0, math.nan, math.inf]
BAD_Q = [0.75, 1.0, 2.0, -1.0, math.nan]

OF_EPS = {
    "cubic_roots": cubic_roots,
    "separatrix_q2": separatrix_q2,
    "b_sharp": lambda eps: b_sharp(kinematics(PSI), eps),
    "local_spectrum": lambda eps: local_spectrum(PSI, eps),
}
OF_EPS_AND_Q = {
    "classify": classify,
    "shoot": shoot,
    "unstable_direction": unstable_direction,
    "vector_field": lambda eps, q: vector_field(PSI, eps, q),
    "field_jacobian": lambda eps, q: field_jacobian(PSI, eps, q),
}

CASES = [
    pytest.param(func, (eps,), EpsilonOutOfRange, id=f"{name}-eps={eps}")
    for name, func in OF_EPS.items()
    for eps in BAD_EPS
] + [
    pytest.param(func, args, ParamsOutOfOmega, id=f"{name}-eps={args[0]}-q={args[1]}")
    for name, func in OF_EPS_AND_Q.items()
    for args in [(eps, 0.8) for eps in BAD_EPS] + [(0.5, q) for q in BAD_Q]
]


@pytest.mark.parametrize("func, args, error", CASES)
def test_outside_domain_raises_typed_error(func, args, error):
    with pytest.raises(error):
        func(*args)


BAD_OPTIONS = [
    (name, value) for name in ("rel_tol", "abs_tol")
    for value in (0.0, -1.0, math.nan, math.inf)
] + [("rel_tol", 1.0), ("rel_tol", 1e10)]

OPTION_CASES = [
    pytest.param(ShootOptions, {name: value}, id=f"ShootOptions-{name}={value}")
    for name, value in BAD_OPTIONS
] + [
    pytest.param(run_identity_suite, {"samples": n}, id=f"run_identity_suite-samples={n}")
    for n in (0, -3)
]


@pytest.mark.parametrize("func, kwargs", OPTION_CASES)
def test_option_outside_its_range_raises_typed_error(func, kwargs):
    # A DomainError, so the CLI exits 2; a ValueError, so callers that
    # catch that keep working.
    with pytest.raises(OptionOutOfRange) as info:
        func(**kwargs)
    assert isinstance(info.value, DomainError)
    assert isinstance(info.value, ValueError)
