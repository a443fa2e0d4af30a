"""Acceptance gate: one test per numbered criterion.

Each test runs its criterion at the stated tolerance through the shared
implementation in pvilab.acceptance (the same code the ``pvilab verify``
subcommand executes) and prints the one-line pass/fail verdict.  Runtime
budgets are asserted per criterion; the kernels are plain Python and NumPy,
so nothing is compiled before the timed regions.
"""

import math

import pytest

from pvilab import acceptance
from pvilab.premodular import z2_stable_many

BUDGETS = {
    1: 5.0,
    2: 5.0,
    3: 10.0,
    4: 120.0,
    5: 30.0,
    6: 600.0,
    7: 30.0,
    8: 60.0,
    9: 60.0,
}


@pytest.mark.parametrize("number", sorted(BUDGETS))
def test_criterion(number):
    func = acceptance.ALL_CRITERIA[number - 1]
    result = func()
    print(result.line())
    for d in result.details[:10]:
        print("   ", d)
    assert result.passed, f"criterion {number} failed: {result.details[:5]}"
    assert result.runtime < BUDGETS[number], (
        f"criterion {number} exceeded its runtime budget: "
        f"{result.runtime:.1f}s > {BUDGETS[number]}s"
    )


def test_criterion_8_fails_on_a_nan(monkeypatch):
    # a NaN sample fails the clearance test instead of passing unseen
    def with_nan(pairs, taus, counts):
        vals, scales = z2_stable_many(pairs, taus, counts)
        vals[0] = complex(math.nan, math.nan)
        return vals, scales

    monkeypatch.setattr(acceptance, "z2_stable_many", with_nan)
    assert not acceptance.criterion_8().passed
