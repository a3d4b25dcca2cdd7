import pytest

import radshock.model
import radshock.verify
from radshock.errors import OptionOutOfRange
from radshock.verify import format_report, run_identity_suite


# The 12 errors of `run_identity_suite()` at its default seed and 4,000
# samples, as float.hex: any change in how the suite forms a value shows here.
PINNED_ERRORS = [
    ("det(B#) matrix vs closed form", "0x1.2c301c6924b3ep-52"),
    ("det(A) matrix vs 2v^2-1", "0x1.4e12fb70c60b9p-52"),
    ("trace(adj(B#)A) matrix vs closed form", "0x1.55533148ebd76p-52"),
    ("B# = eps u^2 a a^T - w w^T - c2 y y^T", "0x1.b87f6abf87a6fp-51"),
    ("r q0 - 4uv factored through v+^2, v-^2", "0x1.6433cf0daee04p-51"),
    ("P(1/2,eps) = (9/8) eps^2 (eps-4)^2", "0x1.e000000000000p-49"),
    ("P(1/3,eps) = (16/27)(eps-1)^2(eps^2-4eps+1)", "0x1.6210000000000p-48"),
    ("P(1/8, eps_hat) = 0", "0x1.2000000000000p-47"),
    ("discriminant tail positive on (0,1)", "0x0.0p+0"),
    ("roots at eps=1 are (-1, 0, 1/3)", "0x1.0000000000000p-54"),
    ("separatrix q1(1) = 49/64", "0x0.0p+0"),
    ("v_plus_squared o q_of_vplus = id", "0x1.b1bf700000000p-34"),
]


def test_errors_are_pinned():
    assert [(c.name, c.error.hex()) for c in run_identity_suite()] == PINNED_ERRORS


def test_builder_calls_do_not_grow_with_samples(monkeypatch):
    # The suite stacks its samples into (2, 2, n) lanes, and the trace check
    # reads the matrices the determinant checks built, so each reference
    # builder runs exactly once, however many samples the suite draws.
    calls = []
    for name in ("b_sharp", "lin_matrix"):
        builder = getattr(radshock.model, name)

        def counted(*args, _builder=builder, _name=name):
            calls.append(_name)
            return _builder(*args)

        # verify imports the builders by name; a build through a function of
        # model's own would find them in model.
        monkeypatch.setattr(radshock.model, name, counted)
        monkeypatch.setattr(radshock.verify, name, counted)

    for samples in (10, 4000):
        calls.clear()
        run_identity_suite(samples=samples)
        assert sorted(calls) == ["b_sharp", "lin_matrix"]


def test_all_identities_pass():
    checks = run_identity_suite()  # the default 4,000 samples, as `radshock verify` runs
    assert len(checks) == 12
    for c in checks:
        assert c.passed, f"{c.name}: error {c.error} above {c.tolerance}"


def test_report_format():
    checks = run_identity_suite(samples=200)
    report = format_report(checks)
    assert report.count("PASS") == len(checks)
    assert "all identities passed" in report


def test_deterministic():
    a = run_identity_suite(samples=300)
    b = run_identity_suite(samples=300)
    assert [(c.name, c.error) for c in a] == [(c.name, c.error) for c in b]


@pytest.mark.parametrize("samples", [0, -3, 2.5, float("nan")])
def test_rejects_nonpositive_samples(samples):
    with pytest.raises(OptionOutOfRange):
        run_identity_suite(samples=samples)


def test_samples_too_many_to_allocate_are_a_typed_error():
    # 10**17 samples pass the count gate, but numpy's allocation of their
    # 711 PiB fails at once, touching no memory.
    with pytest.raises(OptionOutOfRange, match="Unable to allocate"):
        run_identity_suite(samples=10**17)
