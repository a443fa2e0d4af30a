"""Acceptance gate: one test per numbered criterion.

Each test runs its criterion at the stated tolerance through
``pvilab.acceptance.run`` (the harness that ``pvilab verify`` runs over the
whole table) and prints the one-line pass/fail verdict.  Runtime budgets
are asserted per criterion; the kernels are plain Python and NumPy, so
nothing is compiled before the timed regions.  The tests after those
check that a broken input makes a criterion fail rather than pass.
"""

import hashlib
import math

import pytest

from pvilab import acceptance, locator, oracles
from pvilab.oracles import hecke_lattice_sum, wp_lattice_sum, zeta_lattice_sum
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
    def with_nan(pairs, taus, counts, reduced):
        vals, scales = z2_stable_many(pairs, taus, counts, reduced)
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


def test_criterion_4_tracks_its_windings_in_one_pass(monkeypatch):
    # the 196 boundaries in one _windings pass, then the zeros of the 147
    # pairs with winding 1 in one hunt, whose isolating squares are the
    # second and last pass
    passes, hunts = [], []
    windings, zeros_in_f0 = locator._windings, acceptance._zeros_in_f0

    def tracked(pairs, first, jumps):
        passes.append(len(first.closed))
        return windings(pairs, first, jumps)

    def hunted(pairs, tags):
        hunts.append(len(pairs))
        return zeros_in_f0(pairs, tags)

    monkeypatch.setattr(locator, "_windings", tracked)
    monkeypatch.setattr(acceptance, "_zeros_in_f0", hunted)
    assert acceptance.run(4).passed
    assert (passes, hunts) == ([196, 147], [147])


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



def test_criterion_4_winding_pass_evaluates_no_more_points(monkeypatch):
    # the 196 boundaries keep 17 samples a piece at first, and the edges
    # sampled in log Im tau settle in one refinement round, down from two
    calls = []

    def counted(pairs, taus, counts, reduced):
        calls.append(len(taus))
        return z2_stable_many(pairs, taus, counts, reduced)

    def winding_pass(pairs, d):
        calls.clear()
        try:
            return winding_counts(pairs, d)
        finally:
            passes.append(list(calls))

    passes, winding_counts = [], acceptance._winding_counts
    monkeypatch.setattr(locator, "z2_stable_many", counted)
    monkeypatch.setattr(acceptance, "_winding_counts", winding_pass)
    assert acceptance.run(4).passed
    (calls_of_pass,) = passes
    assert len(calls_of_pass) <= 2 and sum(calls_of_pass) <= 20_960, calls_of_pass


def _lone(oracle_sum, *args):
    """``oracle_sum`` of ``args`` with nothing memoised: its own grids and
    quasi-periods."""
    oracles._box_grid.cache_clear()
    oracles.quasi_periods_lattice_sum.cache_clear()
    return oracle_sum(*args)


def test_criterion_9_oracle_values_equal_the_lone_sums():
    # one tau's grids and quasi-periods, shared by its sums, give each sum
    # the value it gets alone, to the bit
    zs, pairs = [0.31 + 0.17j, 0.49 + 0.02j], [(0.42, 0.13), (0.27, 0.33)]
    for tau in (0.2 + 1.1j, -0.3 + 0.9j):
        wz, hecke = acceptance._oracle_at(tau, zs, pairs)
        assert wz == [(_lone(wp_lattice_sum, z, tau), _lone(zeta_lattice_sum, z, tau)) for z in zs]
        assert hecke == [_lone(hecke_lattice_sum, r, s, tau) for r, s in pairs]


# frozen: SHA-256 of the reprs, comma-joined, of criterion 4's 196 winding
# turns, which a change to the contours or the tracker must keep to the bit
_CRITERION_4_TURNS = "1a943f0b7f6d22081a5a767c50b70c2bd313fd85669fdf696892bf8e25acde49"


def test_criterion_4_turns_are_frozen(monkeypatch):
    passes, windings = [], locator._windings

    def recorded(*args):
        passes.append(windings(*args))
        return passes[-1]

    monkeypatch.setattr(locator, "_windings", recorded)
    assert acceptance.run(4).passed
    turns = passes[0]
    assert len(turns) == 196
    assert hashlib.sha256(",".join(map(repr, turns)).encode()).hexdigest() == _CRITERION_4_TURNS
