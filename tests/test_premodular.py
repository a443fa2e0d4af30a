"""Hecke form, weight-3 form, cusp behaviour and the product M_N."""

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from pvilab import _kernels, oracles, premodular
from pvilab.elliptic import ModuliPoint, invariants_g
from pvilab.errors import Degenerate, DomainError, InternalError, NearLattice
from pvilab.modular import ModularMatrix, transport_pair
from pvilab.orbits import enumerate_qn, qn_size
from pvilab.premodular import (
    TorsionPair,
    cusp_asymptotic,
    hecke_Z,
    m_n,
    z2,
    z2_cusp_expansion,
    z2_stable,
    z2_stable_many,
    z2_with_derivative,
)

PI = math.pi


# --- TorsionPair ------------------------------------------------------------


def test_degenerate_pairs_flagged():
    assert TorsionPair.of(Fraction(1, 2), 0).degenerate
    assert TorsionPair.of(Fraction(1, 2), Fraction(1, 2)).degenerate
    assert TorsionPair.of(0, Fraction(1, 2)).degenerate
    assert TorsionPair.of(3, -2).degenerate
    assert not TorsionPair.of(Fraction(1, 4), 0).degenerate
    assert not TorsionPair.of(0.3, 0.2).degenerate


@pytest.mark.parametrize(
    "r,s",
    [(math.nan, 0.2), (0.3, math.inf), (-math.inf, Fraction(1, 3)),
     (complex(0.3, math.nan), 0.2), (Fraction(1, 4), complex(math.inf, 0.0))],
)
def test_non_finite_pair_rejected(r, s):
    with pytest.raises(DomainError):
        TorsionPair.of(r, s)


def test_pair_flags_are_cached_without_changing_equality(monkeypatch):
    calls = []
    half_integer = premodular._is_half_integer
    monkeypatch.setattr(
        premodular, "_is_half_integer", lambda x: calls.append(x) or half_integer(x)
    )
    for r, s in ((Fraction(1, 2), Fraction(3, 2)), (0.3 + 0.1j, 0.2)):
        a, b = TorsionPair.of(r, s), TorsionPair.of(r, s)
        before = hash(a)
        flags = (a.degenerate, a.is_real)
        n_calls = len(calls)
        assert (a.degenerate, a.is_real) == flags
        assert len(calls) == n_calls
        assert {"degenerate", "is_real"} <= vars(a).keys()
        assert hash(a) == before == hash(b) and a == b
        assert TorsionPair.of(0.25, 0.25) != a
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.r = 0.5


def test_pair_complex_form_is_cached_without_changing_equality(monkeypatch):
    calls = []
    to_complex = Fraction.__complex__
    monkeypatch.setattr(
        Fraction, "__complex__", lambda x: calls.append(x) or to_complex(x)
    )
    for r, s in ((Fraction(2, 7), Fraction(5, 7)), (0.3 + 0.1j, 0.2)):
        a, b = TorsionPair.of(r, s), TorsionPair.of(r, s)
        before = hash(a)
        form = a.as_complex()
        n_calls = len(calls)
        assert a.as_complex() is form and len(calls) == n_calls
        assert "_complex" in vars(a)
        assert form == (complex(r), complex(s))
        assert hash(a) == before == hash(b) and a == b
        assert b.as_complex() == form
    # the first pair's two Fractions converted once per pair, plus the
    # reference; the float pair converts none
    assert len(calls) == 3 * 2


def test_window_reduction():
    r, s = TorsionPair.of(0.8, 0.7).reduced_real()
    # (0.8, 0.7) ~ -(0.8, 0.7) ~ (0.2, 0.3) in the s <= 1/2 window
    assert abs(r - 0.2) < 1e-12 and abs(s - 0.3) < 1e-12


def test_exact_window_reduction_matches_fractions():
    # the integer rule against Fraction arithmetic, signs and s = 1/2 included
    for N in range(1, 13):
        for k1 in range(-2 * N, 2 * N + 1):
            for k2 in range(-2 * N, 2 * N + 1):
                r, s = Fraction(k1, N), Fraction(k2, N)
                wr, ws = r % 1, s % 1
                if 2 * ws > 1:
                    wr, ws = (-r) % 1, (-s) % 1
                window = TorsionPair.of(r, s).reduced_real()
                assert window == (float(wr), float(ws)), (r, s)


# --- hecke_Z ----------------------------------------------------------------


def test_hecke_sign_symmetry():
    m = ModuliPoint.from_tau(1.1j)
    a = hecke_Z(TorsionPair.of(0.3, 0.2), m)
    b = hecke_Z(TorsionPair.of(1 - 0.3, 1 - 0.2), m)
    assert abs(a + b) <= 1e-12 * abs(a)


def test_hecke_weight_one_translation():
    # gamma = [[1,1],[0,1]]: Z_{r',s'}(tau+1) = Z_{r,s}(tau), (s',r') = (s,r).gamma^{-1}
    tau = 0.2 + 1.4j
    r, s = 0.31, 0.22
    gamma = ModularMatrix(1, 1, 0, 1)
    r2, s2 = transport_pair(r, s, gamma)
    lhs = hecke_Z(TorsionPair.of(r2, s2), ModuliPoint.from_tau(tau + 1))
    rhs = gamma.cocycle(tau) * hecke_Z(TorsionPair.of(r, s), ModuliPoint.from_tau(tau))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_hecke_cusp_limit_against_oracle():
    # s = 0: Z_{r,0}(tau) -> pi cot(pi r) as Im tau grows; oracle at 20i
    pair = TorsionPair.of(0.25, 0)
    val = hecke_Z(pair, ModuliPoint.from_tau(20j))
    oracle = oracles.hecke_lattice_sum(0.25, 0.0, 20j)
    assert abs(val - oracle) <= 1e-6
    assert abs(val - PI / math.tan(PI * 0.25)) <= 1e-6


def test_hecke_near_lattice_raises():
    tau0 = 1.25j
    s0 = 0.25
    r = 1 + tau0 - s0 * tau0 + 1e-10  # alpha within guard distance of 1 + tau0
    with pytest.raises(NearLattice):
        hecke_Z(TorsionPair.of(r, s0), ModuliPoint.from_tau(tau0))


# --- z2 ---------------------------------------------------------------------


def test_z2_degenerate_rejected():
    with pytest.raises(Degenerate):
        z2(TorsionPair.of(Fraction(1, 2), 0), ModuliPoint.from_tau(1.3j))
    with pytest.raises(Degenerate):
        z2(TorsionPair.of(0, 0), ModuliPoint.from_tau(1.3j))


def test_z2_cusp_value_at_20i():
    val = z2(TorsionPair.of(0.1, 0.25), ModuliPoint.from_tau(20j))
    lead = 4j * PI**3 * 0.25 * 0.75 * (-0.5)  # = -0.375 pi^3 i ~ -11.6259 i
    assert abs(val - lead) <= 5e-2
    assert abs(lead + 11.62735375511243j) < 1e-10


def test_z2_against_lattice_sum_oracle():
    # Z2 = Z^3 - 3 wp Z - wp' assembled from the independent box sums, at five
    # of acceptance criterion 9's (r, s, tau) points; a sign slip in wp' or
    # in the assembly moves Z2 by O(|wp'|), far outside the tolerance.
    pairs = [(0.31, 0.17), (0.11, 0.08), (0.42, 0.13), (0.27, 0.33), (0.49, 0.02)]
    taus = [1j, 0.2 + 1.1j, -0.3 + 0.9j, 0.1 + 1.7j, 0.45 + 1.3j]
    for (r, s), tau in zip(pairs, taus):
        value = z2(TorsionPair.of(r, s), ModuliPoint.from_tau(tau))
        oracle = oracles.z2_lattice_sum(r, s, tau)
        assert abs(value - oracle) <= 1e-8 * abs(oracle)


def test_z2_weight_three_inversion():
    # gamma = [[0,-1],[1,0]]: Z2_{r',s'}(-1/tau) = tau^3 Z2_{r,s}(tau)
    tau = 0.3 + 1.2j
    r, s = 0.27, 0.14
    gamma = ModularMatrix(0, -1, 1, 0)
    r2, s2 = transport_pair(r, s, gamma)
    lhs = z2(TorsionPair.of(r2, s2), ModuliPoint.from_tau(-1 / tau))
    rhs = tau**3 * z2(TorsionPair.of(r, s), ModuliPoint.from_tau(tau))
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_z2_sign_symmetry_50_random(rng):
    for _ in range(50):
        r, s = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        if TorsionPair.of(r, s).degenerate:
            continue
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.0))
        m = ModuliPoint.from_tau(tau)
        a = z2(TorsionPair.of(r, s), m)
        b = z2(TorsionPair.of(1 - r, 1 - s), m)
        assert abs(a + b) <= 1e-11 * max(1.0, abs(a))


def test_z2_weight_three_random_gammas(rng):
    count = 0
    while count < 20:
        a = int(rng.integers(-10, 11))
        b = int(rng.integers(-10, 11))
        if math.gcd(a, b) != 1:
            continue
        g0, x, y = _xgcd(a, b)
        if g0 == -1:
            x, y = -x, -y
        gamma = ModularMatrix(a, b, -y, x)
        count += 1
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 1.8))
        r, s = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.45)
        r2, s2 = transport_pair(r, s, gamma)
        lhs = z2(TorsionPair.of(r2, s2), ModuliPoint.from_tau(gamma.moebius(tau)))
        rhs = gamma.cocycle(tau) ** 3 * z2(TorsionPair.of(r, s), ModuliPoint.from_tau(tau))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def test_z2_cusp_convergence_monotone():
    # s in (0, 1/2): |z2(iT) - leading| decreases over T in {10, 15, 20}
    pair = TorsionPair.of(0.3, 0.2)
    lead, order = cusp_asymptotic(pair)
    assert order == 0
    errs = [abs(z2(pair, ModuliPoint.from_tau(1j * T)) - lead) for T in (10, 15, 20)]
    assert errs[0] > errs[1] > errs[2]
    # decay rate consistent with exp(-2 pi s T) + exp(-2 pi (1-2s) T)
    rate = math.exp(-2 * PI * 0.2 * 5)
    assert errs[1] <= errs[0] * rate * 10


def _cauchy_derivative(pair, tau, n=48, radius=0.02):
    # dZ2/dtau as the trapezoid rule on the Cauchy integral over a circle;
    # Z2 is holomorphic in the upper half-plane, since r + s*tau meets the
    # lattice only at real tau
    total = 0j
    for k in range(n):
        w = cmath.exp(2j * PI * k / n)
        total += z2(pair, ModuliPoint.from_tau(tau + radius * w)) / w
    return total / (n * radius)


def _four_point_derivative(pair, tau, h=1e-6):
    # the 4-point central difference Newton used before the closed form
    def f(t):
        return z2(pair, ModuliPoint.from_tau(t))

    return (f(tau - 2 * h) - 8.0 * f(tau - h) + 8.0 * f(tau + h) - f(tau + 2 * h)) / (
        12.0 * h
    )


def test_z2_derivative_closed_form_against_two_oracles(rng):
    pairs = [
        TorsionPair.of(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
        for _ in range(300)
    ]
    pairs += [
        TorsionPair.of(Fraction(r), Fraction(s))
        for r, s in (("1/5", "1/5"), ("4/5", "3/10"), ("2/7", "3/7"), ("1/3", "0"),
                     ("1/5", "1/2"), ("5/12", "7/12"))
    ]
    for pair in pairs:
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.0))
        value, scale, deriv = z2_with_derivative(pair, ModuliPoint.from_tau(tau))
        assert (value, scale) == z2_stable(pair, ModuliPoint.from_tau(tau))
        bound = max(abs(deriv), scale)
        assert abs(deriv - _cauchy_derivative(pair, tau)) <= 1e-11 * bound
        assert abs(deriv - _four_point_derivative(pair, tau)) <= 1e-6 * bound


def test_cusp_rule_is_decided_before_the_kernel(monkeypatch):
    # a series point reads the carried pair's series and makes no direct
    # kernel call; an off-series point makes one; degenerate and complex
    # pairs, which no series serves, still reach the direct path's checks
    calls = []
    kernel = _kernels.premodular_at
    monkeypatch.setattr(
        _kernels, "premodular_at", lambda *args: calls.append(args[2]) or kernel(*args)
    )
    z2_with_derivative(TorsionPair.of(Fraction(1, 3), 0), ModuliPoint.from_tau(2j))
    z2_with_derivative(TorsionPair.of(0.3, 0.5), ModuliPoint.from_tau(0.1 + 1.2j))
    assert calls == []
    z2_with_derivative(TorsionPair.of(0.3, 0.2), ModuliPoint.from_tau(0.2 + 1.3j))
    z2_with_derivative(TorsionPair.of(0.3 + 0.1j, 0.2), ModuliPoint.from_tau(2j))
    assert calls == [0.2 + 1.3j, 2j]
    with pytest.raises(Degenerate):
        z2_with_derivative(TorsionPair.of(Fraction(1, 2), 0), ModuliPoint.from_tau(2j))


def test_resultant_identity_50_random(rng):
    # The cubic-elimination identity behind simultaneous-vanishing
    # exclusion.  Symbolic expansion shows the combination below equals
    # MINUS 3(g2^3 - 27 g3^2)(4x^3 - g2 x - g3); only non-vanishing of the
    # right side matters for the exclusion argument.
    for _ in range(50):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.0))
        lat = invariants_g(ModuliPoint.from_tau(tau))
        g2, g3 = lat.g2, lat.g3
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = (
            9 * (4 * x**3 - g2 * x - g3) * (2 * g2 * x + 3 * g3) ** 2
            + x * (12 * g2 * x**2 + 36 * g3 * x + g2**2) ** 2
            - (12 * x**2 - g2)
            * (2 * g2 * x + 3 * g3)
            * (12 * g2 * x**2 + 36 * g3 * x + g2**2)
        )
        rhs = -3 * (g2**3 - 27 * g3**2) * (4 * x**3 - g2 * x - g3)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


# --- cusp_asymptotic --------------------------------------------------------


def test_cusp_asymptotic_three_cases():
    lead, order = cusp_asymptotic(TorsionPair.of(0.77, 0.25))
    assert order == Fraction(0)
    assert abs(lead - 4j * PI**3 * 0.25 * 0.75 * (-0.5)) < 1e-12
    lead, order = cusp_asymptotic(TorsionPair.of(Fraction(1, 4), 0))
    assert order == Fraction(1)
    assert abs(lead + 48 * PI**3) < 1e-10  # sin(pi/2) = 1
    lead, order = cusp_asymptotic(TorsionPair.of(Fraction(1, 3), Fraction(1, 2)))
    assert order == Fraction(1, 2)
    assert abs(lead + 12 * PI**3 * math.sin(2 * PI / 3)) < 1e-10
    with pytest.raises(Degenerate):
        cusp_asymptotic(TorsionPair.of(Fraction(1, 2), Fraction(1, 2)))


def test_cusp_expansion_matches_direct_at_moderate_height():
    for (r, s) in ((Fraction(1, 4), Fraction(0)), (Fraction(1, 3), Fraction(1, 2)),
                   (Fraction(2, 7), Fraction(0))):
        pair = TorsionPair.of(r, s)
        coeffs = z2_cusp_expansion(pair)
        for tau in (1.5j, 0.3 + 1.2j):
            direct = z2(pair, ModuliPoint.from_tau(tau))
            pp = cmath.exp(1j * PI * tau)
            series = complex(np.polyval(coeffs[::-1], pp))
            assert abs(series - direct) <= 1e-9 * max(abs(direct), 1e-3)


def test_cusp_expansion_guard_raises_near_lattice_for_small_r():
    # for (r, 0) the p^0 coefficient sums terms of size 1/r^3 to zero; its
    # round-off first exceeds the guard at r = 1/1665
    z2_cusp_expansion(TorsionPair.of(Fraction(1, 1664), 0))
    with pytest.raises(NearLattice, match="failed to cancel"):
        z2_cusp_expansion(TorsionPair.of(Fraction(1, 1665), 0))


def test_z2_stable_at_large_height():
    # direct evaluation is cancellation noise at 20i for s = 0; the stable
    # path reproduces the leading coefficient to full precision
    pair = TorsionPair.of(Fraction(1, 4), 0)
    val, _ = z2_stable(pair, ModuliPoint.from_tau(20j))
    q = cmath.exp(2j * PI * 20j)
    assert abs(val / q + 48 * PI**3) <= 1e-9 * 48 * PI**3


def test_cusp_expansion_is_built_once_per_pair(monkeypatch):
    built = []
    expansion = premodular.z2_cusp_expansion
    monkeypatch.setattr(
        premodular, "z2_cusp_expansion", lambda p: built.append(p) or expansion(p)
    )
    premodular._series_of.cache_clear()
    # |Re tau| <= 1/2 and |tau| >= 1: the frame of infinity, where the pair
    # carries itself
    taus = np.array([0.1 + 2.5j, 0.4 + 3.0j, -0.3 + 6.0j])
    pair = TorsionPair.of(Fraction(1, 3), Fraction(1, 2))
    scalar = [z2_stable(pair, ModuliPoint.from_tau(complex(t)))[0] for t in taus]
    assert built == [pair]
    for _ in range(3):
        vals, scales = premodular.z2_stable_many(
            [pair], taus, [len(taus)], _kernels.reduce_tau_many(taus)
        )
        assert np.all(np.abs(vals - scalar) <= 1e-14 * scales)
    assert built == [pair]
    # a fresh object carried to the same pair builds none, nor does a pair
    # whose frame leaves s off (1/2)Z; the translate by one carries the pair
    # to (5/6, 1/2), whose series is built once
    z2_stable(TorsionPair.of(Fraction(1, 3), Fraction(1, 2)), ModuliPoint.from_tau(3j))
    z2_stable(TorsionPair.of(0.3, 0.2), ModuliPoint.from_tau(3j))
    for _ in range(2):
        z2_stable(pair, ModuliPoint.from_tau(0.7 + 6.0j))
    assert built == [pair, TorsionPair.of(Fraction(5, 6), Fraction(1, 2))]


def _horner_full(coeffs, pp, j, c):
    """The cusp series summed over all its terms by the Horner loop that the
    per-point cut replaced: the reference the cut must reproduce bit for
    bit.  One row of coefficients at a scalar pp, or a row per point; the
    magnitudes rounded as Python's abs rounds them."""
    if np.ndim(pp) == 0:
        coeffs = coeffs.tolist()
        terms = zip(coeffs[::-1], [abs(cf) for cf in coeffs][::-1])
    else:
        terms = zip(coeffs.T[::-1], np.hypot(coeffs.real, coeffs.imag).T[::-1])
    ap = abs(pp)
    val = dval = scale = 0.0
    for cf, mg in terms:
        dval = dval * pp + val
        val = val * pp + cf
        scale = scale * ap + mg
    j3 = j * j * j
    deriv = (1j * PI * pp * dval / (j * j) - 3.0 * c * val / j) / j3
    return val / j3, scale / abs(j3), deriv


def test_cut_cusp_series_is_the_full_sum_bit_for_bit():
    # every carried pair of Q_N for N <= 40 (r' = k/N, s' in {0, 1/2}), at 28
    # reduced points each from the corner rho up to Im tau' = 12, in one
    # shuffled batch and one scalar call per point
    keys = sorted(
        {
            (*Fraction(rp.k1, N).as_integer_ratio(), 2 * rp.k2 // N)
            for N in range(3, 41)
            for rp in enumerate_qn(N)
            if (2 * rp.k2) % N == 0
        }
    )
    assert len(keys) == 742
    rng = np.random.default_rng(20261019)
    per_pair = 28
    x = rng.uniform(-0.5, 0.5, (len(keys), per_pair))
    floor = np.sqrt(1.0 - x * x)
    y = floor + (12.0 - floor) * rng.uniform(0.0, 1.0, x.shape) ** 3
    x[:, :2], y[:, :2] = 0.5, math.sqrt(3.0) / 2.0  # rho itself
    x[:, 2], y[:, 2] = 0.0, 12.0
    order = rng.permutation(x.size)
    taus = (x + 1j * y).ravel()[order]
    owner = np.repeat(np.arange(len(keys)), per_pair)[order]
    rows = [np.stack(col)[owner] for col in zip(*map(premodular._series_of, *zip(*keys)))]
    pp = np.exp(1j * PI * taus)
    j, c = 2.0 * taus + 1.0, np.full(taus.size, 2)
    assert taus.size >= 20000

    # the cut is real: at most 25 of the 48 terms, and 5 from Im tau' = 8 up
    terms = premodular._terms_needed(rows[2], np.abs(pp))
    assert terms.max() <= 25 and terms[taus.imag >= 8.0].max() <= 5

    full = _horner_full(rows[0], pp, j, c)
    # with c, the derivative too, as Newton reads it; without, as the batch
    # cusp rule reads it
    for cut in (premodular._series_at(*rows, pp, j, c), premodular._series_at(*rows, pp, j)):
        for got, want in zip(cut, full):
            assert np.array_equal(got, want)
    for i in range(taus.size):
        args = complex(pp[i]), complex(j[i]), 2
        assert premodular._series_at(*(row[i] for row in rows), *args) == _horner_full(
            rows[0][i], *args
        )


def _f0_taus(rng, n):
    """n points of F0 below Im tau = 5, log-uniform in height."""
    taus = []
    while len(taus) < n:
        tau = complex(rng.uniform(0.0, 1.0), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        if abs(tau - 0.5) >= 0.5:
            taus.append(tau)
    return taus


def test_z2_mirror_identity(rng):
    # Z2_{r,s}(1 - conj tau) = conj Z2_{r+s,-s}(tau) for real pairs, through
    # the scalar and the batch cusp rule: count_mn_zeros takes the zero of
    # the mirror class (-k1 - k2, k2) from it.  The exact pairs include
    # s = 0 and s = 1/2, whose series the rule sums in the frame of infinity
    pairs = [TorsionPair.of(*rng.uniform(0.0, 1.0, 2)) for _ in range(40)]
    pairs += [
        TorsionPair.of(Fraction(k1, N), Fraction(k2, N))
        for N in (5, 8, 12)
        for k1, k2 in ((1, 0), (1, N // 2), (N - 1, 2), (2, N - 3))
    ]
    taus = _f0_taus(rng, len(pairs))
    mirrored = [TorsionPair.of(p.r + p.s, -p.s) for p in pairs]
    images = [1.0 - tau.conjugate() for tau in taus]
    counts = [1] * len(pairs)
    image_arr, tau_arr = np.array(images), np.array(taus)
    vals, scales = z2_stable_many(pairs, image_arr, counts, _kernels.reduce_tau_many(image_arr))
    mvals, mscales = z2_stable_many(mirrored, tau_arr, counts, _kernels.reduce_tau_many(tau_arr))
    assert np.all(np.abs(vals - mvals.conj()) <= 1e-13 * scales)
    assert np.all(np.abs(scales - mscales) <= 1e-13 * scales)
    for p, q, tau, image in zip(pairs, mirrored, taus, images):
        val, scale = z2_stable(p, ModuliPoint.from_tau(image))
        mval, _ = z2_stable(q, ModuliPoint.from_tau(tau))
        assert abs(val - mval.conjugate()) <= 1e-13 * scale, (p, tau)


# --- m_n --------------------------------------------------------------------


def test_mn_nonzero_at_corner_points():
    rho = cmath.exp(1j * PI / 3)
    for tau in (rho, 1j):
        v = m_n(3, ModuliPoint.from_tau(tau))
        assert math.isfinite(v)
        assert v > -math.inf


def test_mn_translation_invariance():
    # weight factor is 1 for tau -> tau+1 and the index set is permuted
    m1 = m_n(4, ModuliPoint.from_tau(0.1 + 1.3j))
    m2 = m_n(4, ModuliPoint.from_tau(1.1 + 1.3j))
    assert abs(m1 - m2) <= 1e-9 * max(1.0, abs(m1))


def _mn_fresh_pairs(N, m):
    # m_n's batch read with a new TorsionPair per factor: the reference that
    # the cached integer table must reproduce bit for bit
    pairs = [
        TorsionPair.of(Fraction(rp.k1, N), Fraction(rp.k2, N)) for rp in enumerate_qn(N)
    ]
    taus = np.full(len(pairs), m.tau)
    vals, _ = z2_stable_many(pairs, taus, [1] * len(pairs), _kernels.reduce_tau_many(taus))
    if not vals.all():
        return -math.inf
    return float(np.log(np.abs(vals)).sum())


def _mn_scalar(N, m):
    # log|M_N| from one scalar z2_stable call per factor
    log_abs = 0.0
    for rp in enumerate_qn(N):
        val, _ = z2_stable(TorsionPair.of(Fraction(rp.k1, N), Fraction(rp.k2, N)), m)
        if val == 0:
            return -math.inf
        log_abs += math.log(abs(val))
    return log_abs


_MN_TAUS = (8j, 10j, 12j, 1j, cmath.exp(1j * PI / 3))


def test_mn_matches_fresh_pairs_bit_for_bit():
    # the integer Q_N table against TorsionPairs: at the heights
    # valence_check evaluates M_N at, a third height, and the corner points
    # i and rho; and at the two heights for N = 40 and for valence's cap
    cases = [(N, tau) for N in range(3, 13) for tau in _MN_TAUS]
    cases += [(N, tau) for N in (40, 120) for tau in (8j, 12j)]
    for N, tau in cases:
        m = ModuliPoint.from_tau(tau)
        expected = _mn_fresh_pairs(N, m)
        # a repeat call reads the same cached table
        assert m_n(N, m) == expected
        assert m_n(N, m) == expected


def test_mn_matches_the_scalar_product():
    # the batch factors against scalar z2_stable calls: |M_N| agrees to
    # 1e-12 relative, expm1 of the difference of the logs
    for N in range(3, 13):
        for tau in _MN_TAUS:
            m = ModuliPoint.from_tau(tau)
            assert abs(math.expm1(m_n(N, m) - _mn_scalar(N, m))) <= 1e-12


def test_log_mn_at_both_heights_is_two_m_n_calls_bit_for_bit():
    # valence_check reads M_N at 8i and 12i from one _log_mn call; each
    # height gets the value m_n gives it alone, so cusp_order_slope and the
    # count digests do not depend on the batch
    for N in range(3, 41):
        logs = premodular._log_mn(N, [8j, 12j])
        assert logs.tolist() == [m_n(N, ModuliPoint.from_tau(tau)) for tau in (8j, 12j)]


@pytest.mark.parametrize("N", [5, 12])
def test_log_mn_reduces_each_tau_once(N, monkeypatch):
    # the reduction of the distinct taus, repeated over Q_N, is the one the
    # repeated taus get afresh, and so are the cusp rule's values, to the bit
    seen, rule = [], premodular._cusp_rule

    def recorded(taus, reduced, *cols):
        seen.append((taus, reduced, cols))
        return rule(taus, reduced, *cols)

    monkeypatch.setattr(premodular, "_cusp_rule", recorded)
    logs = premodular._log_mn(N, [8j, 12j, 0.3 + 1.1j])
    ((taus, reduced, cols),) = seen
    assert np.array_equal(taus, np.repeat([8j, 12j, 0.3 + 1.1j], qn_size(N)))
    fresh = _kernels.reduce_tau_many(taus)
    for got, want in zip(reduced, fresh, strict=True):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    vals, _ = rule(taus, fresh, *cols)
    assert logs.tolist() == [
        float(np.log(np.abs(v)).sum()) for v in vals.reshape(3, qn_size(N))
    ]


def test_mn_raises_on_a_nan_factor(monkeypatch):
    # m_n takes its factors from the cusp-rule core
    rule = premodular._cusp_rule

    def with_nan(*args):
        vals, scales = rule(*args)
        vals[-1] = complex(math.nan, 0.0)
        return vals, scales

    monkeypatch.setattr(premodular, "_cusp_rule", with_nan)
    with pytest.raises(InternalError):
        m_n(5, ModuliPoint.from_tau(1.5j))


# --- non-simultaneous vanishing (checked at a real zero) ---------------------


def test_numerator_nonzero_at_a_zero_of_z2():
    from pvilab.locator import F0, locate_zeros

    pair = TorsionPair.of(0.6, 0.3)
    cert = locate_zeros(pair, F0)[0]
    m = ModuliPoint.from_tau(cert.tau0)
    lat = invariants_g(m)
    from pvilab import _kernels

    r, s = pair.as_complex()
    zv, wp, wpp, z2v, *_ = _kernels.premodular_at(r, s, m.tau, m.frame)
    g2 = lat.g2
    num = 3 * wpp * zv**2 + (12 * wp**2 - g2) * zv + 3 * wp * wpp
    scale = 3 * abs(wpp) * abs(zv) ** 2 + abs(12 * wp**2 - g2) * abs(zv) + 3 * abs(
        wp
    ) * abs(wpp)
    assert abs(num) > 1e-6 * scale
