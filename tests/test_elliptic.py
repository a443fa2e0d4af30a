"""Weierstrass layer: identities, reductions, and lattice-sum oracles.

Expected constants marked "frozen" were computed with the box-sum oracles
in pvilab.oracles (three box sizes, tail-extrapolated) and pasted here; the
oracle code stays in the repo so they can be regenerated.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mp_oracle import half_period_values_mp
from pvilab import _kernels, oracles
from pvilab.elliptic import (
    ModuliPoint,
    invariants_g,
    weierstrass_p,
    weierstrass_zeta,
)
from pvilab.errors import DomainError, NearSingular
from pvilab.modular import _COSET_REPS, ModularMatrix, gamma2_coset_label
from pvilab.premodular import TorsionPair, hecke_Z, z2_with_derivative
from pvilab.solutions import lambda_rs

PI = math.pi


# --- domain types -----------------------------------------------------------


def test_moduli_point_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        ModuliPoint.from_tau(1.0 - 0.5j)
    with pytest.raises(DomainError):
        ModuliPoint.from_tau(0.3)


@pytest.mark.parametrize(
    "tau",
    [complex(math.nan, 1.0), complex(math.inf, 1.0), complex(-math.inf, 1.0),
     complex(0.0, math.nan), complex(0.0, math.inf)],
)
def test_moduli_point_rejects_non_finite_tau(tau):
    with pytest.raises(DomainError):
        ModuliPoint.from_tau(tau)


# --- the lattice frame ------------------------------------------------------


@pytest.fixture
def prologue_calls(monkeypatch):
    """The taus at which ``_kernels.lattice_constants`` runs."""
    calls = []
    kernel = _kernels.lattice_constants
    monkeypatch.setattr(
        _kernels, "lattice_constants", lambda tau: calls.append(tau) or kernel(tau)
    )
    return calls


def test_lambda_rs_computes_the_prologue_once(prologue_calls):
    lambda_rs(TorsionPair.of(0.3, 0.2), 0.1 + 1.2j)
    assert prologue_calls == [0.1 + 1.2j]


def test_reads_on_one_point_share_one_prologue(prologue_calls):
    m = ModuliPoint.from_tau(0.2 + 0.9j)
    pair = TorsionPair.of(0.6, 0.3)
    invariants_g(m)
    weierstrass_p(0.31 + 0.24j, m)
    weierstrass_zeta(0.31 + 0.24j, m)
    hecke_Z(pair, m)
    z2_with_derivative(pair, m)
    assert prologue_calls == [m.tau]


def test_frame_is_not_part_of_the_point():
    read = ModuliPoint.from_tau(0.2 + 0.9j)
    read.frame
    fresh = ModuliPoint.from_tau(0.2 + 0.9j)
    assert read == fresh
    assert hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert [f.name for f in dataclasses.fields(ModuliPoint)] == ["tau"]


# --- weierstrass_p ----------------------------------------------------------


def test_wp_at_half_period_equals_e1():
    m = ModuliPoint.from_tau(1.3j)
    lat = invariants_g(m)
    wp, _ = weierstrass_p(0.5, m)
    assert abs(wp - lat.e1) <= 1e-12 * abs(lat.e1)


def test_wp_parity():
    m = ModuliPoint.from_tau(0.2 + 1.1j)
    z = 0.31 + 0.24j
    wp_p, wpp_p = weierstrass_p(z, m)
    wp_m, wpp_m = weierstrass_p(-z, m)
    assert wp_p == wp_m
    assert wpp_p == -wpp_m
    zeta_p = weierstrass_zeta(z, m)
    zeta_m = weierstrass_zeta(-z, m)
    assert zeta_p == -zeta_m


def test_wp_against_lattice_sum_oracle_frozen():
    # frozen: oracles.wp_lattice_sum(0.31+0.17j, 1j)
    expected = 4.878821930554929 - 5.7427727305418665j
    wp, _ = weierstrass_p(0.31 + 0.17j, ModuliPoint.from_tau(1j))
    assert abs(wp - expected) < 1e-8
    # regenerate with the live oracle as well
    assert abs(oracles.wp_lattice_sum(0.31 + 0.17j, 1j) - expected) < 1e-9


def test_wp_near_singular_guard():
    m = ModuliPoint.from_tau(1.1j)
    with pytest.raises(NearSingular):
        weierstrass_p(1e-10 + 1e-10j, m)
    with pytest.raises(NearSingular):
        weierstrass_zeta(2.0 + 1e-12j + 1.1j, m)


# --- weierstrass_zeta -------------------------------------------------------


def test_zeta_oddness():
    m = ModuliPoint.from_tau(1.7j)
    z = 0.2 + 0.3j
    assert weierstrass_zeta(-z, m) == -weierstrass_zeta(z, m)


def test_zeta_quasi_periodicity():
    m = ModuliPoint.from_tau(0.3 + 1.2j)
    lat = invariants_g(m)
    eta1, eta2 = lat.eta1, lat.eta2
    z = 0.1 + 0.4j
    lhs = weierstrass_zeta(z + 1.0, m) - weierstrass_zeta(z, m)
    assert abs(lhs - eta1) <= 1e-12 * (1 + abs(eta1))
    lhs2 = weierstrass_zeta(z + m.tau, m) - weierstrass_zeta(z, m)
    assert abs(lhs2 - eta2) <= 1e-12 * (1 + abs(eta2))


def test_zeta_laurent_near_origin():
    # |zeta(z) - 1/z| <= C |z|^3 with C from the oracle's g2(i)/60; the
    # cushion covers the z^7 term (g2/140) z^4 ~ 8.4e-6 relative.
    m = ModuliPoint.from_tau(1j)
    z = 0.05
    C = 3.151212001456036  # frozen: |oracles.invariants_lattice_sum(1j)[0]| / 60
    val = weierstrass_zeta(z, m)
    assert abs(val - 1.0 / z) <= C * abs(z) ** 3 * (1.0 + 1e-4)


# --- quasi-periods ----------------------------------------------------------


def test_legendre_relation_at_2i():
    m = ModuliPoint.from_tau(2j)
    lat = invariants_g(m)
    assert abs(m.tau * lat.eta1 - lat.eta2 - 2j * PI) <= 1e-12


def test_eta1_is_twice_zeta_half():
    m = ModuliPoint.from_tau(0.4 + 0.9j)
    eta1 = invariants_g(m).eta1
    assert abs(eta1 - 2.0 * weierstrass_zeta(0.5, m)) <= 1e-12 * (1 + abs(eta1))


@pytest.mark.parametrize("tau", [1j, 0.4 + 0.9j, 0.3 + 1.2j, -1.7 + 0.05j, 2.2 + 6.0j])
def test_eta2_is_twice_zeta_half_tau(tau):
    # oddness and quasi-periodicity force eta2 = 2 zeta(tau/2): an independent
    # check of the Legendre-relation eta2 against the zeta series
    m = ModuliPoint.from_tau(tau)
    lat = invariants_g(m)
    zeta_half = weierstrass_zeta(0.5 * m.tau, m)
    scale = 1.0 + abs(lat.eta1) + abs(lat.eta2)
    assert abs(2.0 * zeta_half - lat.eta2) <= 1e-9 * scale


def test_eta1_at_square_lattice_is_pi():
    # rotation symmetry of the square lattice forces eta2(i) = -i eta1(i);
    # the Legendre relation then pins eta1(i) = pi.
    lat = invariants_g(ModuliPoint.from_tau(1j))
    eta1, eta2 = lat.eta1, lat.eta2
    assert abs(eta1 - PI) <= 1e-12
    assert abs(eta2 + 1j * PI) <= 1e-12


# --- invariants_g -----------------------------------------------------------


def test_trace_of_half_period_values_vanishes():
    lat = invariants_g(ModuliPoint.from_tau(1.5j))
    scale = abs(lat.e1) + abs(lat.e2) + abs(lat.e3)
    assert abs(lat.e1 + lat.e2 + lat.e3) <= 1e-12 * scale


def test_discriminant_identity():
    lat = invariants_g(ModuliPoint.from_tau(2j))
    lhs = lat.g2**3 - 27 * lat.g3**2
    rhs = 16 * (lat.e1 - lat.e2) ** 2 * (lat.e2 - lat.e3) ** 2 * (lat.e3 - lat.e1) ** 2
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_g3_vanishes_on_square_lattice():
    lat = invariants_g(ModuliPoint.from_tau(1j))
    assert abs(lat.g3) <= 1e-12 * abs(lat.g2) ** 1.5
    # confirm with the lattice-sum oracle
    g2o, g3o = oracles.invariants_lattice_sum(1j)
    assert abs(g3o) <= 1e-10 * abs(g2o) ** 1.5
    assert abs(lat.g2 - g2o) <= 1e-9 * abs(g2o)


def test_est_error_is_small_and_positive():
    lat = invariants_g(ModuliPoint.from_tau(0.3 + 0.8j))
    assert 0 <= lat.est_error < 1e-9


def _eval_taus(rng, n):
    """n taus drawn as the point_eval benchmark draws them: |Re| <= 2 and
    Im log-uniform over [0.05, 5]."""
    lo, hi = math.log(0.05), math.log(5.0)
    return [complex(rng.uniform(-2.0, 2.0), math.exp(rng.uniform(lo, hi))) for _ in range(n)]


def test_half_period_values_equal_wp_in_every_coset(rng):
    # the theta path picks each e_k's reduced value by the parities of the
    # frame's gamma; wp at the half-period itself reads no such table
    cosets = set()
    for tau in _eval_taus(rng, 300):
        m = ModuliPoint.from_tau(tau)
        cosets.add(gamma2_coset_label(ModularMatrix(*m.frame[9])))
        lat = invariants_g(m)
        scale = abs(lat.e1) + abs(lat.e2) + abs(lat.e3)
        for e, z in ((lat.e1, 0.5), (lat.e2, 0.5 * tau), (lat.e3, 0.5 * (1.0 + tau))):
            assert abs(weierstrass_p(z, m)[0] - e) <= 1e-14 * scale, (tau, z)
    assert cosets == set(_COSET_REPS)


def test_half_period_values_sum_no_wp_series(monkeypatch):
    def no_series(*args):
        raise AssertionError("wz_series called")

    monkeypatch.setattr(_kernels, "wz_series", no_series)
    lat = invariants_g(ModuliPoint.from_tau(0.37 + 0.81j))
    assert all(math.isfinite(abs(e)) for e in (lat.e1, lat.e2, lat.e3))


def test_est_error_bounds_half_period_error_against_theta_oracle(rng):
    pytest.importorskip("mpmath")
    taus = _eval_taus(rng, 40)
    # reduced heights 2 to 8: tau = n - 1/tau' with tau' = x + iy
    taus += [
        int(rng.integers(-1, 2)) - 1.0 / complex(rng.uniform(-0.5, 0.5), rng.uniform(2.0, 8.0))
        for _ in range(10)
    ]
    # near the cusps +-1, where e2 - e1 rounds to 0 at 1 + 0.06i
    taus += [
        complex(sign + rng.uniform(-1e-3, 1e-3), 0.06 * (1.0 + rng.uniform(-1e-3, 1e-3)))
        for sign in (-1.0, 1.0)
        for _ in range(3)
    ]
    taus += [1.0 + 0.06j, -1.0 + 0.06j]
    assert sum(_kernels.reduce_tau(tau)[0].imag > 2.0 for tau in taus) >= 15
    for tau in taus:
        lat = invariants_g(ModuliPoint.from_tau(tau))
        ref = half_period_values_mp(tau)
        for e, e_ref in zip((lat.e1, lat.e2, lat.e3), ref):
            assert abs(e - e_ref) <= lat.est_error, (tau, abs(e - e_ref), lat.est_error)


# --- invariants & properties ------------------------------------------------


def test_ode_residual_100_random_points(rng):
    for _ in range(100):
        tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
        z = complex(rng.uniform(0.05, 0.9), rng.uniform(0.02, 0.4))
        m = ModuliPoint.from_tau(tau)
        lat = invariants_g(m)
        wp, wpp = weierstrass_p(z, m)
        resid = wpp**2 - (4 * wp**3 - lat.g2 * wp - lat.g3)
        assert abs(resid) <= 1e-10 * max(1.0, abs(wp) ** 3)


def test_periodicity_random(rng):
    for _ in range(25):
        tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.4, 2.0))
        z = complex(rng.uniform(0.1, 0.8), rng.uniform(0.05, 0.3))
        m = ModuliPoint.from_tau(tau)
        wp, _ = weierstrass_p(z, m)
        for shift in (1.0, tau, 3.0 - 2 * tau):
            wp_s, _ = weierstrass_p(z + shift, m)
            assert abs(wp_s - wp) <= 1e-12 * max(1.0, abs(wp))


def test_homogeneity_under_group_action(rng):
    gammas = [(2, 1, 3, 2), (1, 0, 2, 1), (0, -1, 1, 0), (3, 2, 4, 3)]
    for (a, b, c, d) in gammas:
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.6, 1.4))
        z = complex(rng.uniform(0.1, 0.6), rng.uniform(0.05, 0.25))
        m = ModuliPoint.from_tau(tau)
        j = c * tau + d
        m2 = ModuliPoint.from_tau((a * tau + b) / j)
        wp, _ = weierstrass_p(z, m)
        wp2, _ = weierstrass_p(z / j, m2)
        assert abs(wp2 - j * j * wp) <= 1e-10 * max(1.0, abs(wp2))


def test_derivative_consistency_finite_difference():
    m = ModuliPoint.from_tau(0.17 + 1.21j)
    z = 0.33 + 0.21j
    h = 1e-5
    _, wpp = weierstrass_p(z, m)
    fd = (weierstrass_p(z + h, m)[0] - weierstrass_p(z - h, m)[0]) / (2 * h)
    assert abs(fd - wpp) <= 1e-6 * max(1.0, abs(wpp))


def test_oracle_agreement_grid():
    zs = [0.31 + 0.17j, 0.11 + 0.08j, 0.42 - 0.13j, 0.27 + 0.33j, 0.49 + 0.02j]
    taus = [1j, 0.2 + 1.1j, -0.3 + 0.9j, 0.1 + 1.7j, 0.45 + 1.3j]
    for z in zs:
        for tau in taus:
            m = ModuliPoint.from_tau(tau)
            wp, _ = weierstrass_p(z, m)
            zv = weierstrass_zeta(z, m)
            assert abs(wp - oracles.wp_lattice_sum(z, tau)) < 1e-8 * max(1, abs(wp))
            assert abs(zv - oracles.zeta_lattice_sum(z, tau)) < 1e-8 * max(1, abs(zv))


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(-2.0, 2.0),
    y=st.floats(0.35, 3.0),
    zx=st.floats(0.08, 0.9),
    zy=st.floats(0.02, 0.3),
)
def test_property_ode_and_periodicity(x, y, zx, zy):
    tau = complex(x, y)
    z = complex(zx, zy)
    m = ModuliPoint.from_tau(tau)
    lat = invariants_g(m)
    wp, wpp = weierstrass_p(z, m)
    resid = wpp**2 - (4 * wp**3 - lat.g2 * wp - lat.g3)
    assert abs(resid) <= 1e-9 * max(1.0, abs(wp) ** 3)
    wp_shift, _ = weierstrass_p(z + 1.0, m)
    assert abs(wp_shift - wp) <= 1e-11 * max(1.0, abs(wp))
