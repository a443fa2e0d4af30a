"""Exact integer combinatorics: Q_N, totients, pole counts, orbits."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvilab import orbits
from pvilab.errors import DepthExceeded
from pvilab.modular import ModularMatrix
from pvilab.orbits import (
    RationalPair,
    _gamma2_with_row,
    _nu_infinity,
    classify_orbit,
    enumerate_qn,
    euler_phi,
    orbit_brute_force,
    p_of_n,
    pm_class_reps,
    pm_key,
    pole_count,
    qn_size,
)


# --- euler_phi --------------------------------------------------------------


def test_phi_small_values():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96


def test_nu_infinity_at_odd_and_even_n():
    # phi(N) + phi(N/2), the second term only for even N
    assert _nu_infinity(5) == 4
    assert _nu_infinity(8) == 6
    assert _nu_infinity(12) == 6


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2000))
def test_phi_matches_gcd_count(n):
    assert euler_phi(n) == sum(1 for k in range(n) if math.gcd(k, n) == 1)


# --- enumerate_qn -----------------------------------------------------------


def test_qn_counts():
    assert len(enumerate_qn(3)) == 8
    assert len(enumerate_qn(4)) == 12
    assert len(enumerate_qn(5)) == 24
    assert len(enumerate_qn(6)) == 24
    assert len(enumerate_qn(8)) == 48


def test_qn_pairs_satisfy_gcd_condition():
    for p in enumerate_qn(12):
        assert math.gcd(math.gcd(p.k1, p.k2), 12) == 1


def test_qn_sorted_lexicographically():
    pairs = [(p.k1, p.k2) for p in enumerate_qn(7)]
    assert pairs == sorted(pairs)


def test_qn_size_formula_up_to_100():
    for N in range(3, 101):
        direct = sum(
            1
            for k1 in range(N)
            for k2 in range(N)
            if math.gcd(math.gcd(k1, k2), N) == 1
        )
        assert qn_size(N) == direct


# --- p_of_n / pole_count ----------------------------------------------------


def test_p_of_n_table():
    assert p_of_n(3) == 0
    assert p_of_n(4) == 0
    assert p_of_n(5) == 2  # 24/4 - (4 + 0)
    assert p_of_n(6) == 2  # 24/4 - (2 + 2)


def test_pole_count_table():
    assert pole_count(3) == (1, 0)
    assert pole_count(4) == (3, 0)
    assert pole_count(5) == (1, 6)  # 3*24/4 - 3*4
    assert pole_count(6) == (3, 2)
    assert pole_count(8) == (3, 6)


def test_qn_quarter_integrality():
    for N in range(3, 60):
        assert qn_size(N) % 4 == 0


# --- classify_orbit ---------------------------------------------------------


def test_classify_verified_for_all_n_up_to_24():
    for N in range(3, 25):
        for p in enumerate_qn(N):
            rep = classify_orbit(p)
            assert rep.gamma_witness.in_gamma2
            # exact congruence re-check here, independent of the class
            img = rep.gamma_witness.act_rows(rep.representative.row())
            assert (p.k2 - img[0]) % N == 0
            assert (p.k1 - img[1]) % N == 0


@pytest.mark.parametrize("u", range(-50, 51))
def test_gamma2_with_row_meets_its_contract(u):
    # every coprime (u, v) is row . gamma for gamma in Gamma(2), exactly
    for v in range(-50, 51):
        if math.gcd(u, v) != 1:
            continue
        gamma, row = _gamma2_with_row(u, v)
        assert gamma.in_gamma2
        assert gamma.act_rows(row) == (u, v)


def test_witnesses_are_frozen():
    # every witness, representative and shift of classify_orbit for
    # N = 3..40, hashed: a refactor of the construction must reproduce them
    h = hashlib.sha256()
    for N in range(3, 41):
        for p in enumerate_qn(N):
            rep = classify_orbit(p)
            record = (
                N, p.k1, p.k2, rep.gamma_witness.as_tuple(),
                rep.representative.k1, rep.representative.k2, rep.shift,
            )
            h.update(repr(record).encode())
    assert h.hexdigest() == (
        "4343f037f3c4e5bd5a6e1e40700a5fce9f875eede1c2d80ed1323075ae267b75"
    )


def test_odd_n_representatives_all_connect():
    # the three basic parameter pairs fall in one class for odd N
    for N in (5, 7, 9):
        classes = orbit_brute_force(N)
        assert len(classes) == 1


def test_even_n_basic_pairs_in_distinct_classes():
    classes = orbit_brute_force(6)
    assert len(classes) == 3
    index_of = {}
    for i, cls in enumerate(classes):
        for row in cls:
            index_of[row] = i
    # rows are (s, r) numerators: (0,1/6) -> (1, 0); (1/6,0) -> (0, 1)
    a = index_of[RationalPair(1, 0, 6).pm_canonical().row()]
    b = index_of[RationalPair(0, 1, 6).pm_canonical().row()]
    c = index_of[RationalPair(1, 1, 6).pm_canonical().row()]
    assert len({a, b, c}) == 3


def test_step2_witness_matrix_odd_n():
    # gamma = -[[4m+1, 2m], [2, 1]] carries (1/N, 0) to (1/N, 1/N) mod Z^2
    for m in (1, 2, 3, 7):
        N = 2 * m + 1
        gamma = ModularMatrix(-(4 * m + 1), -2 * m, -2, -1)
        assert gamma.in_gamma2
        out = gamma.act_rows((1, 0))
        assert (out[0] % N, out[1] % N) == (1, 1)


def test_classify_agrees_with_bfs_oracle():
    for N in range(3, 25):
        classes = orbit_brute_force(N)
        assert len(classes) == (1 if N % 2 else 3)
        index_of = {}
        for i, cls in enumerate(classes):
            for row in cls:
                index_of[row] = i
        for p in enumerate_qn(N):
            rep = classify_orbit(p)
            assert (
                index_of[p.pm_canonical().row()]
                == index_of[rep.representative.pm_canonical().row()]
            )


def test_branch_count_consistency():
    # |Q_N|/2 plus-minus classes split evenly among the solution classes
    for N in range(3, 25):
        classes = orbit_brute_force(N)
        sizes = {len(c) for c in classes}
        assert len(sizes) == 1
        (size,) = sizes
        assert size * len(classes) == qn_size(N) // 2


def test_bfs_depth_guard(monkeypatch):
    monkeypatch.setattr(orbits, "_MAX_BFS_DEPTH", 0)
    with pytest.raises(DepthExceeded):
        orbit_brute_force(23)


def test_pm_class_reps_cover():
    reps = pm_class_reps(10)
    assert len(reps) == qn_size(10) // 2
    seen = set()
    for rep in reps:
        assert rep.pm_canonical() == rep
        seen.add(rep.row())
    assert len(seen) == len(reps)


def test_pm_key_is_the_smaller_element_of_the_class():
    for N in (3, 8, 12):
        for p in enumerate_qn(N):
            neg = (-p.k1 % N, -p.k2 % N)
            key = pm_key(p.k1, p.k2, N)
            assert key == pm_key(*neg, N) == pm_key(p.k1 - N, p.k2 + 2 * N, N)
            assert key == min((p.k1, p.k2), neg)


# --- RationalPair -----------------------------------------------------------


def test_rational_pair_validation():
    with pytest.raises(ValueError):
        RationalPair(0, 0, 5)
    with pytest.raises(ValueError):
        RationalPair(2, 4, 6)
    with pytest.raises(ValueError):
        RationalPair(5, 1, 5)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 40))
def test_property_class_count_parity(N):
    assert len(orbit_brute_force(N)) == (1 if N % 2 == 1 else 3)
