"""Every public function of eps, or of (eps, q_tilde), rejects input outside its domain.

Functions of eps alone raise EpsilonOutOfRange outside (0, 1]; functions of
(eps, q_tilde) raise ParamsOutOfOmega outside the square (0, 1] x (3/4, 1).
NaN and inf are outside both.  Settings outside their range (shooting
options, the identity suite's sample count and seed) raise OptionOutOfRange.
A non-number, such as a string or None, is outside every range and raises
the same typed error as a number outside it; so is an array of several
numbers handed to an entry point that takes one.  A state or velocity that
is not a real number raises StateOutsideDomain.
"""

import math

import numpy as np
import pytest

from radshock.classification import (
    classify,
    cubic_roots,
    local_spectrum,
    p_coefficients,
    p_eval,
    separatrix_q2,
)
from radshock.equilibria import (
    q_of_vplus,
    rest_points,
    state_from_v,
    v_minus_squared,
    v_plus_squared,
)
from radshock.errors import (
    DomainError,
    EpsilonOutOfRange,
    NonPositiveParameter,
    OptionOutOfRange,
    ParamsOutOfOmega,
    QOutOfRange,
    StateOutsideDomain,
    ZOutOfRange,
)
from radshock.model import GodunovState, b_sharp, causality_check, kinematics
from radshock.scan import ScanConfig
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


# Each entry point, called with one argument replaced by a non-number, and
# the typed error its range check raises for it.
NON_NUMBER_CALLS = {
    "classify-eps": (lambda x: classify(x, 0.8), ParamsOutOfOmega),
    "classify-q": (lambda x: classify(0.5, x), ParamsOutOfOmega),
    "shoot-eps": (lambda x: shoot(x, 0.8), ParamsOutOfOmega),
    "shoot-q": (lambda x: shoot(0.5, x), ParamsOutOfOmega),
    "unstable_direction-q": (lambda x: unstable_direction(0.5, x), ParamsOutOfOmega),
    "rest_points": (rest_points, QOutOfRange),
    "v_plus_squared": (v_plus_squared, QOutOfRange),
    "v_minus_squared": (v_minus_squared, QOutOfRange),
    "q_of_vplus": (q_of_vplus, ZOutOfRange),
    "cubic_roots": (cubic_roots, EpsilonOutOfRange),
    "b_sharp": (lambda x: b_sharp(kinematics(PSI), x), EpsilonOutOfRange),
    "p_coefficients": (p_coefficients, EpsilonOutOfRange),
    "p_eval-eps": (lambda x: p_eval(0.3, x), EpsilonOutOfRange),
    "ShootOptions-rel_tol": (lambda x: ShootOptions(rel_tol=x), OptionOutOfRange),
    "ShootOptions-abs_tol": (lambda x: ShootOptions(abs_tol=x), OptionOutOfRange),
    "ScanConfig-eps_lo": (lambda x: ScanConfig(eps_lo=x), ParamsOutOfOmega),
    "ScanConfig-eps_hi": (lambda x: ScanConfig(eps_hi=x), ParamsOutOfOmega),
    "ScanConfig-q_lo": (lambda x: ScanConfig(q_lo=x), ParamsOutOfOmega),
    "ScanConfig-q_hi": (lambda x: ScanConfig(q_hi=x), ParamsOutOfOmega),
    "causality_check-eta": (lambda x: causality_check(x, 1.0, 1.0), NonPositiveParameter),
    "causality_check-nu": (lambda x: causality_check(1.0, 1.0, x), NonPositiveParameter),
    "GodunovState-psi0": (lambda x: GodunovState(x, 0.5), StateOutsideDomain),
    "GodunovState-psi1": (lambda x: GodunovState(2.0, x), StateOutsideDomain),
    "state_from_v": (state_from_v, StateOutsideDomain),
}


@pytest.mark.parametrize("value", ["0.5", None, 0.5j], ids=repr)
@pytest.mark.parametrize("name", NON_NUMBER_CALLS)
def test_non_number_raises_typed_error(name, value):
    call, error = NON_NUMBER_CALLS[name]
    with pytest.raises(error):
        call(value)


# Entry points that take one number, each handed an array of several
# numbers that would each be in range, and the typed error it raises.
ARRAY_CALLS = {
    "classify-eps": (lambda x: classify(x, 0.8), [0.5, 0.6], ParamsOutOfOmega),
    "classify-q": (lambda x: classify(0.5, x), [0.8, 0.9], ParamsOutOfOmega),
    "shoot-eps": (lambda x: shoot(x, 0.8), [0.5, 0.6], ParamsOutOfOmega),
    "shoot-q": (lambda x: shoot(0.5, x), [0.8, 0.9], ParamsOutOfOmega),
    "rest_points": (rest_points, [0.8, 0.9], QOutOfRange),
    "GodunovState": (lambda x: GodunovState(x, 0.5), [2.0, 3.0], StateOutsideDomain),
}


@pytest.mark.parametrize("name", ARRAY_CALLS)
def test_array_of_several_raises_typed_error(name):
    call, values, error = ARRAY_CALLS[name]
    with pytest.raises(error):
        call(np.array(values))


@pytest.mark.parametrize("seed", ["0.5", 0.5j, -1, 2.5, math.nan], ids=repr)
def test_unusable_seed_raises_option_out_of_range(seed):
    # None is usable: numpy seeds from fresh entropy.
    with pytest.raises(OptionOutOfRange):
        run_identity_suite(10, seed=seed)
