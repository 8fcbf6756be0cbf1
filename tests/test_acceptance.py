"""Acceptance gate: every criterion of ``checks.CRITERIA`` at its full range.

Each test prints the criterion's pass/fail line (visible with ``pytest -s``
or on failure) and asserts exact success within a wall-clock budget.  The
CLI ``check`` subcommand runs the same table, truncated at max-n 5.
"""

import pytest

from arcbricks.checks import CRITERIA, run_criterion

# Wall-clock budgets in seconds, by criterion number.
BUDGETS = {
    "01": 10.0, "02": 10.0, "03": 60.0, "04": 60.0, "05": 30.0, "06": 10.0,
    "07": 300.0, "08": 120.0, "09": 60.0, "10": 60.0, "11": 5.0,
}


@pytest.mark.parametrize(
    "criterion",
    CRITERIA,
    ids=[f"criterion-{c.number}-{c.name.replace('-', '_')}" for c in CRITERIA],
)
def test_acceptance_criterion(criterion):
    result = run_criterion(criterion)
    budget = BUDGETS[criterion.number]
    print(f"criterion {criterion.number}: {result.line()}")
    assert result.passed, result.counterexample
    assert result.seconds < budget, f"exceeded {budget}s budget: {result.seconds:.1f}s"
