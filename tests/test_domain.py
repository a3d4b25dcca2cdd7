"""Every public function of eps, or of (eps, q_tilde), rejects input outside its domain.

Functions of eps alone raise EpsilonOutOfRange outside (0, 1]; functions of
(eps, q_tilde) raise ParamsOutOfOmega outside the square (0, 1] x (3/4, 1).
The grid functions `classify_grid` and `separatrix_grid`, which the README
documents but `radshock.__all__` does not export, take eps in (0, 1], a
number or an array, and `classify_grid` q_tilde in (3/4, 1) likewise; they
raise EpsilonOutOfRange and QOutOfRange.  NaN and inf are outside every
range.  Settings outside their range (shooting options, the identity
suite's sample count and seed) raise OptionOutOfRange.

Each entry point passes its numbers through one input gate: a real number
or a 0-d real array comes out a Python float, and anything else, such as a
string, None, a complex value, a `Decimal`, an int beyond the float range
or an array (empty, of one number or of several) where one number is due,
or an empty array where an array may be, comes out NaN.  So it is outside
every range and raises the same typed error as a number outside it; a
state or velocity that is not a real number raises StateOutsideDomain.  A
fuzz test calls every public callable, the grid functions and the CLI with
such values and allows only a result or a RadshockError.  And each entry
point hands each argument to the gate once.
"""

import importlib
import inspect
import math
import pkgutil
from decimal import Decimal
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radshock
from radshock import classification
from radshock.classification import (
    classify,
    classify_grid,
    cubic_roots,
    local_spectrum,
    p_coefficients,
    p_eval,
    separatrix_grid,
    separatrix_q1,
    separatrix_q2,
)
from radshock.cli import main
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
    RadshockError,
    StateOutsideDomain,
    ZOutOfRange,
)
from radshock.model import GodunovState, b_sharp, causality_check, kinematics
from radshock.scan import ScanConfig
from radshock.shooting import (
    OscillationReport,
    ProfileVerdict,
    ShootOptions,
    _field_jacobian,
    _setup,
    shoot,
    unstable_direction,
)
from radshock.verify import run_identity_suite

# Off the singular locus for every eps in (0, 1]: v_plus^2 > 1/8 >= (1-eps)/(8+eps).
PSI = rest_points(0.8).psi_plus
PSI_NULL = (PSI.psi0 + PSI.psi1, PSI.psi0 - PSI.psi1)


def vector_field(eps, q_tilde):
    """The field a shot steps, built by `_setup` from (eps, q_tilde), at PSI in null coordinates."""
    return _setup(eps, q_tilde)[3](*PSI_NULL)


def field_jacobian(eps, q_tilde):
    """`_field_jacobian` of the field `_setup` builds from (eps, q_tilde), at PSI in null coordinates."""
    return _field_jacobian(_setup(eps, q_tilde)[3], *PSI_NULL)


BAD_EPS = [0.0, -1.0, 1.5, 2.0, math.nan, math.inf]
BAD_Q = [0.75, 1.0, 2.0, -1.0, math.nan]

OF_EPS = {
    "cubic_roots": cubic_roots,
    "separatrix_q2": separatrix_q2,
    "b_sharp": lambda eps: b_sharp(kinematics(PSI), eps),
    "local_spectrum": lambda eps: local_spectrum(PSI, eps),
    "separatrix_grid": separatrix_grid,
    "separatrix_grid-array": lambda eps: separatrix_grid(np.array([0.5, eps])),
    "classify_grid": lambda eps: classify_grid(eps, [0.8]),
    "classify_grid-array": lambda eps: classify_grid(np.array([eps, 0.5]), [0.8]),
    # A 1-element array is a column of one, not a float.
    "classify_grid-one": lambda eps: classify_grid(np.array([eps]), [0.8]),
}
OF_EPS_AND_Q = {
    "classify": classify,
    "shoot": shoot,
    "unstable_direction": unstable_direction,
    "vector_field": vector_field,
    "field_jacobian": field_jacobian,
}

CASES = [
    pytest.param(func, (eps,), EpsilonOutOfRange, id=f"{name}-eps={eps}")
    for name, func in OF_EPS.items()
    for eps in BAD_EPS
] + [
    pytest.param(func, args, ParamsOutOfOmega, id=f"{name}-eps={args[0]}-q={args[1]}")
    for name, func in OF_EPS_AND_Q.items()
    for args in [(eps, 0.8) for eps in BAD_EPS] + [(0.5, q) for q in BAD_Q]
] + [
    pytest.param(func, (q,), QOutOfRange, id=f"{name}-q={q}")
    for name, func in {
        "classify_grid": lambda q: classify_grid(0.5, q),
        "classify_grid-array": lambda q: classify_grid(np.array([0.5, 0.6]), [0.8, q]),
    }.items()
    for q in BAD_Q
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
    for n in (0, -3, 10**30)
] + [
    pytest.param(ScanConfig, {"shoot": value}, id=f"ScanConfig-shoot={value!r}")
    for value in ("no", 1, None)
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
    "unstable_direction-eps": (lambda x: unstable_direction(x, 0.8), ParamsOutOfOmega),
    "unstable_direction-q": (lambda x: unstable_direction(0.5, x), ParamsOutOfOmega),
    "rest_points": (rest_points, QOutOfRange),
    "v_plus_squared": (v_plus_squared, QOutOfRange),
    "v_minus_squared": (v_minus_squared, QOutOfRange),
    "q_of_vplus": (q_of_vplus, ZOutOfRange),
    "cubic_roots": (cubic_roots, EpsilonOutOfRange),
    "b_sharp": (lambda x: b_sharp(kinematics(PSI), x), EpsilonOutOfRange),
    "p_coefficients": (p_coefficients, EpsilonOutOfRange),
    "p_eval-eps": (lambda x: p_eval(0.3, x), EpsilonOutOfRange),
    "p_eval-z": (lambda x: p_eval(x, 0.5), ZOutOfRange),
    "classify_grid-eps": (lambda x: classify_grid(x, [0.8]), EpsilonOutOfRange),
    "classify_grid-q": (lambda x: classify_grid(0.5, x), QOutOfRange),
    "classify_grid-eps-list": (lambda x: classify_grid([x, 0.5], [0.8]), EpsilonOutOfRange),
    "separatrix_grid": (separatrix_grid, EpsilonOutOfRange),
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


NON_NUMBERS = {
    "'0.5'": "0.5",
    "None": None,
    "0.5j": 0.5j,
    "Decimal('0.5')": Decimal("0.5"),
    "10**400": 10**400,
    "empty-array": np.array([]),
    "[]": [],
    "['a']": ["a"],
}


@pytest.mark.parametrize("value", NON_NUMBERS.values(), ids=NON_NUMBERS.keys())
@pytest.mark.parametrize("name", NON_NUMBER_CALLS)
def test_non_number_raises_typed_error(name, value):
    call, error = NON_NUMBER_CALLS[name]
    with pytest.raises(error):
        call(value)


# Entry points that take one number, each handed an array of two numbers
# that would each be in range, or of the first alone, and the typed error
# it raises.
ARRAY_CALLS = {
    "classify-eps": (lambda x: classify(x, 0.8), [0.5, 0.6], ParamsOutOfOmega),
    "classify-q": (lambda x: classify(0.5, x), [0.8, 0.9], ParamsOutOfOmega),
    "shoot-eps": (lambda x: shoot(x, 0.8), [0.5, 0.6], ParamsOutOfOmega),
    "shoot-q": (lambda x: shoot(0.5, x), [0.8, 0.9], ParamsOutOfOmega),
    "rest_points": (rest_points, [0.8, 0.9], QOutOfRange),
    "GodunovState": (lambda x: GodunovState(x, 0.5), [2.0, 3.0], StateOutsideDomain),
    "cubic_roots": (cubic_roots, [0.5, 0.6], EpsilonOutOfRange),
    "separatrix_q1": (separatrix_q1, [0.5, 0.6], EpsilonOutOfRange),
    "separatrix_q2": (separatrix_q2, [0.05, 0.06], EpsilonOutOfRange),
    "local_spectrum": (lambda x: local_spectrum(PSI, x), [0.5, 0.6], EpsilonOutOfRange),
    "ShootOptions": (lambda x: ShootOptions(rel_tol=x), [1e-10, 1e-9], OptionOutOfRange),
    "ScanConfig-eps_lo": (lambda x: ScanConfig(eps_lo=x), [0.1, 0.2], ParamsOutOfOmega),
    "causality_check": (lambda x: causality_check(x, 1.0, 1.0), [0.5, 0.6], NonPositiveParameter),
}


@pytest.mark.parametrize(
    "name, size",
    [(name, 2) for name in ARRAY_CALLS] + [(name, 1) for name in ARRAY_CALLS],
    ids=[*ARRAY_CALLS, *(f"{name}-one" for name in ARRAY_CALLS)],
)
def test_array_of_several_raises_typed_error(name, size):
    call, values, error = ARRAY_CALLS[name]
    with pytest.raises(error):
        call(np.array(values[:size]))


@pytest.mark.parametrize("seed", ["0.5", 0.5j, -1, 2.5, math.nan], ids=repr)
def test_unusable_seed_raises_option_out_of_range(seed):
    # None is usable: numpy seeds from fresh entropy.
    with pytest.raises(OptionOutOfRange):
        run_identity_suite(10, seed=seed)


# Values that no entry point can take as a number in its range, and some
# that are valid numbers in another type: NaN, infinities, subnormals, an
# int beyond the float range, bools, a Fraction, a Decimal, complex, a
# string, None, a numpy scalar of each real dtype and arrays of each shape.
AWKWARD = [
    math.nan, math.inf, -math.inf, 5e-324, -1e-310, 10**400, True, False,
    Fraction(1, 2), Decimal("0.5"), 0.5j, "0.5", None, np.bool_(True),
    *(kind(1) for kind in sorted({np.dtype(c).type for c in np.typecodes["AllInteger"]}, key=str)),
    *(np.dtype(c).type(0.5) for c in np.typecodes["Float"]),
    *(np.full(shape, 0.5) for shape in [(), (0,), (1,), (2,), (2, 2)]),
]

# The numeric parameters' annotations; an unannotated parameter takes a
# number or an array.
NUMERIC = {"float", "float | None", "int", "np.ndarray", inspect.Parameter.empty}

# A valid value for each parameter of a public callable that takes a number.
STATES = np.array([PSI.as_array() * (1.0 + 1e-3 * k) for k in range(4)])
VALID = {
    "eps": 0.5, "q_tilde": 0.8, "z": 0.3, "v": 0.5, "q0": 0.8**-0.5, "q1": 1.0,
    "eta": 1.0, "mu": 4.0 / 3.0, "nu": 1.0, "psi0": 2.0, "psi1": 0.5, "theta": 1.0, "u": 1.0,
    "w1": -1.0, "w2": 0.0, "w3": 1.0 / 3.0, "epsilon": 0.5, "discriminant": 1.0,
    "v_minus_sq": 0.7, "v_plus_sq": 0.2, "rel_tol": 1e-10, "abs_tol": 1e-12,
    "eps_lo": 0.1, "eps_hi": 0.9, "eps_count": 2, "q_lo": 0.8, "q_hi": 0.9, "q_count": 2,
    "times": np.arange(4.0), "states": STATES,
    # The structured parameters beside them.
    "psi": PSI, "psi_minus": PSI, "psi_plus": PSI, "kin": kinematics(PSI),
    "config": ScanConfig(eps_count=2, q_count=2), "opts": None, "shoot_options": None,
    "klass": radshock.CausalityClass.STRICTLY_CAUSAL, "verdict": ProfileVerdict.ESCAPED,
    "oscillation": OscillationReport({}), "region": "Focus", "shoot": False,
    "shoot_verdict": None, "oscillatory": None,
}

# Each numeric parameter of each public callable and grid function, as
# (callable, its valid arguments, the parameter).  Enums, exceptions and
# callables of no number have no such parameter.
SLOTS = [
    (func, {name: VALID[name] for name in params}, name)
    for func in [*map(radshock.__dict__.get, radshock.__all__), classify_grid, separatrix_grid]
    if not (isinstance(func, type) and issubclass(func, (Enum, Exception)))
    for params in [inspect.signature(func).parameters]
    if NUMERIC & {p.annotation for p in params.values()}
    for name, p in params.items() if p.annotation in NUMERIC
]


def _cli_calls(out):
    """Each numeric flag of each command, with "{}" where its text goes."""
    profile = ["profile", f"--out={out / 'profile.csv'}"]
    shot = [*profile, "--eps=0.5", "--q=0.8"]
    scan = ["scan", f"--out={out / 'scan.csv'}"]
    return [
        ["classify", "--eps={}", "--q=0.8"], ["classify", "--eps=0.5", "--q={}"],
        [*profile, "--eps={}", "--q=0.8"], [*profile, "--eps=0.5", "--q={}"],
        [*shot, "--rtol={}"], [*shot, "--atol={}"],
        *([*scan, "--grid=2x2", f"--{b}={{}}"] for b in ("eps-min", "eps-max", "q-min", "q-max")),
        [*scan, "--grid={}x2"], ["verify", "--samples={}"],
        ["causality", "--eta={}", "--mu=1", "--nu=1"],
        ["causality", "--eta=1", "--mu={}", "--nu=1"],
        ["causality", "--eta=1", "--mu=1", "--nu={}"],
    ]


@settings(derandomize=True, max_examples=4 * len(AWKWARD), deadline=None)
@given(value=st.sampled_from(AWKWARD))
def test_awkward_values_give_a_result_or_a_typed_error(tmp_path_factory, value):
    # Every public callable with the value in each numeric parameter in turn,
    # and the CLI with its text as each numeric flag: a result, a
    # RadshockError, or one of the CLI's exit codes other than 1.
    for func, args, name in SLOTS:
        try:
            func(**{**args, name: value})
        except RadshockError:
            pass
    out = tmp_path_factory.getbasetemp()
    for argv in _cli_calls(out):
        try:
            code = main([arg.format(value) for arg in argv])
        except SystemExit as exc:  # argparse's exit on flag text it cannot parse
            code = exc.code
        assert code in (0, 2, 3, 4), argv


# Entry points and their arguments: eps = EPS and q_tilde = Q, values that no
# shot or solve computes on its way, or rows of them.
EPS, Q = 0.3, 0.85
EPS_ROW, Q_ROW = np.array([0.3, 0.6]), np.array([0.8, 0.85])
GATED_CALLS = {
    "shoot": (shoot, EPS, Q),
    "unstable_direction": (unstable_direction, EPS, Q),
    "vector_field": (vector_field, EPS, Q),
    "field_jacobian": (field_jacobian, EPS, Q),
    "rest_points": (rest_points, Q),
    "v_plus_squared": (v_plus_squared, Q),
    "v_minus_squared": (v_minus_squared, Q),
    "classify": (classify, EPS, Q),
    "cubic_roots": (cubic_roots, EPS),
    "separatrix_q1": (separatrix_q1, EPS),
    "separatrix_q2": (separatrix_q2, EPS),
    "local_spectrum": (lambda eps: local_spectrum(PSI, eps), EPS),
    "classify_grid": (classify_grid, EPS, Q_ROW),
    "classify_grid-rows": (classify_grid, EPS_ROW, Q_ROW),
    "separatrix_grid": (separatrix_grid, EPS_ROW),
}


def _carries(x, arg) -> bool:
    """Whether a gate's argument x is `arg`: the same object, or a real scalar equal to it."""
    return x is arg or (np.ndim(arg) == 0 and isinstance(x, (float, np.floating)) and x == arg)


def gate_arguments(monkeypatch) -> list:
    """The argument of every call of any module's `_real` and `_reals` from here on.

    All range checks pass through these two.
    """
    seen = []
    for info in pkgutil.iter_modules(radshock.__path__):
        module = importlib.import_module(f"radshock.{info.name}")
        for gate in ("_real", "_reals"):
            if func := vars(module).get(gate):
                monkeypatch.setattr(module, gate, lambda x, func=func: seen.append(x) or func(x))
    return seen


@pytest.mark.parametrize("name", GATED_CALLS)
def test_each_argument_reaches_the_gate_once(monkeypatch, name):
    # Each argument of the entry point must be among the gates' arguments once.
    seen = gate_arguments(monkeypatch)
    call, *args = GATED_CALLS[name]
    call(*args)
    assert [sum(_carries(x, arg) for x in seen) for arg in args] == [1] * len(args)


def test_classify_command_gates_its_point_once_and_solves_once(monkeypatch, capsys):
    # The command labels the point and prints its separatrices from one
    # cubic solve; q_tilde passes the gate once for the label and the rest
    # points both, and eps once for the label and the spectrum both.
    seen, solves = gate_arguments(monkeypatch), []
    roots = classification._roots
    monkeypatch.setattr(classification, "_roots", lambda eps: solves.append(eps) or roots(eps))
    assert main(["classify", "--eps=0.5", "--q=0.9"]) == 0
    assert "region: NodeAbove" in capsys.readouterr().out
    assert solves == [0.5]
    assert [sum(_carries(x, arg) for x in seen) for arg in (0.5, 0.9)] == [1, 1]
