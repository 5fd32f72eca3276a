"""Shared fixtures and the acceptance-criteria summary printed after a run."""
import pytest

from ehcr.analysis import analyze_su
from ehcr.model import NetworkModel, PolicyParams, SuProfile, SystemConfig


@pytest.fixture(scope="session")
def reference_model():
    """One user at the documented default constants."""
    return NetworkModel(config=SystemConfig(), profiles=(SuProfile(),))


@pytest.fixture(scope="session")
def reference_su(reference_model):
    """Full analytic chain at the default policy point."""
    return analyze_su(reference_model, 0, PolicyParams(omega=0.35, theta=0.2))


# One-line labels for the release checks in test_acceptance.py, keyed by the
# test-name prefix that identifies each criterion.
_ACCEPTANCE_LABELS = {
    "test_criterion_1": "transition matrices and spend distributions normalized",
    "test_criterion_2": "steady-state solver agrees with power iteration",
    "test_criterion_3": "event simulation matches the analytic chain",
    "test_criterion_4": "scaled exponential integral and rate antiderivative accuracy",
    "test_criterion_5": "reference battery means reproduced",
    "test_criterion_6": "qualitative trends: maxima, knee, monotone battery gains",
    "test_criterion_7": "policy search matches an exhaustive grid",
    "test_criterion_8": "ideal sensing zeroes interference, collapses the mixture",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion that was run."""
    results = {}
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.rsplit("::", 1)[-1]
            for prefix, label in _ACCEPTANCE_LABELS.items():
                if name.startswith(prefix):
                    results[prefix] = (outcome == "passed", label)
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for prefix in sorted(results):
        passed, label = results[prefix]
        number = prefix.rsplit("_", 1)[-1]
        terminalreporter.write_line(
            "criterion %s: %s - %s" % (number, "PASS" if passed else "FAIL", label))
