import pytest

import radshock.model
import radshock.verify
from radshock.verify import format_report, run_identity_suite


def test_builder_calls_do_not_grow_with_samples(monkeypatch):
    # The suite stacks its samples into (2, 2, n) lanes, so the reference
    # builders run a fixed number of times, however many samples it draws.
    calls = []
    for name in ("b_sharp", "lin_matrix"):
        builder = getattr(radshock.model, name)

        def counted(*args, _builder=builder, _name=name):
            calls.append(_name)
            return _builder(*args)

        # verify imports the builders by name; trace_adj_identity finds them in model.
        monkeypatch.setattr(radshock.model, name, counted)
        monkeypatch.setattr(radshock.verify, name, counted)

    run_identity_suite(samples=10)
    few = sorted(calls)
    calls.clear()
    run_identity_suite(samples=4000)
    assert sorted(calls) == few and few


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


@pytest.mark.parametrize("samples", [0, -3])
def test_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError):
        run_identity_suite(samples=samples)
