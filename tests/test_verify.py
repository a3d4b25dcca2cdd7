import pytest

from radshock.verify import format_report, run_identity_suite


def test_all_identities_pass():
    checks = run_identity_suite(samples=1500)
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
