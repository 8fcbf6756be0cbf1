"""Acceptance gate: every criterion of ``checks.CRITERIA`` at its full range.

Each test prints the criterion's pass/fail line (visible with ``pytest -s``
or on failure) and asserts exact success, the pinned number of cases and a
wall-clock budget.  The CLI ``check`` subcommand runs the same table,
truncated at max-n 5.
"""

import pytest

from arcbricks.checks import CRITERIA, run_criterion

# Wall-clock budgets in seconds, by criterion number.
BUDGETS = {
    "01": 10.0, "02": 10.0, "03": 60.0, "04": 60.0, "05": 30.0, "06": 10.0,
    "07": 300.0, "08": 120.0, "09": 60.0, "10": 60.0, "11": 5.0,
}

# Case counts over the full range, by criterion number, so a rewrite of a
# criterion that drops or adds cases fails here.
DETAILS = {
    "01": "46239 cases over n=1..7",
    "02": "5533 cases over n=1..8",
    "03": "158910 cases over n=3..7",
    "04": "197194 cases over n=1..8",
    "05": "79873 cases over n=3..7",
    "06": "34392 cases over n=3..6",
    "07": "57492 cases over n=3..6",
    "08": "533376 cases over n=3..5",
    "09": "204555 cases over n=1..7",
    "10": "960 cases over n=1..7",
    "11": "20 cases over n=2..6",
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
    assert result.detail == DETAILS[criterion.number]
    assert result.seconds < budget, f"exceeded {budget}s budget: {result.seconds:.1f}s"
