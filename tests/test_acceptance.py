"""Acceptance gate: one test per numbered criterion.

Each test runs its criterion at the stated tolerance through
``pvilab.acceptance.run`` (the harness that ``pvilab verify`` runs over the
whole table) and prints the one-line pass/fail verdict.  Runtime budgets
are asserted per criterion; the kernels are plain Python and NumPy, so
nothing is compiled before the timed regions.  The tests after those
check that a broken input makes a criterion fail rather than pass.
"""

import math

import pytest

from pvilab import acceptance
from pvilab.premodular import cusp_asymptotic, z2_stable_many

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
    result = acceptance.run(number)
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
    assert not acceptance.run(8).passed


def test_criterion_4_fails_when_no_grid_pair_is_checked(monkeypatch):
    # every grid pair read as on an edge: no pair is checked, which fails
    # instead of passing with nothing to check
    class OnEdge:
        tag = "boundary"

    monkeypatch.setattr(acceptance, "classify_triangle", lambda pair: OnEdge)
    result = acceptance.run(4)
    assert result.details == ["0 interior grid samples checked, expected 196"]


def test_criterion_3_records_a_wrong_cusp_order(monkeypatch):
    # a wrong order in the leading-term table is a failure, not an
    # AssertionError that ends the suite
    def wrong_order(pair):
        lead, order = cusp_asymptotic(pair)
        return lead, order + 1

    monkeypatch.setattr(acceptance, "cusp_asymptotic", wrong_order)
    result = acceptance.run(3)
    assert not result.passed
    assert any(d.startswith("s=0 cusp order 2 != 1 at r=") for d in result.details)

