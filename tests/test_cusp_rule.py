"""The cusp rule of ``premodular`` against a 50-digit theta_1 oracle for Z2
and, through ``mpmath.diff``, for dZ2/dtau.

The oracle evaluates Z2 at tau itself, without any reduction: with
q = exp(pi*i*tau), u = pi*(r + s*tau) and L_k = theta_1^(k)(u)/theta_1(u),

    Z   = pi*L1 + 2*pi*i*s,
    wp  = -eta1 - pi^2 (L2 - L1^2),
    wp' = -pi^3 (L3 - 3 L1 L2 + 2 L1^3),
    eta1 = -pi^2 theta_1'''(0) / (3 theta_1'(0)),

and Z2 = Z^3 - 3 wp Z - wp'.  The points sit near the cusps infinity, 0,
1/2, 1/3, 1 and 2, where no more than ~25 of the oracle's 50 digits cancel.
"""

from fractions import Fraction

import numpy as np
import pytest

from pvilab.elliptic import ModuliPoint
from pvilab.modular import reduce_to_standard, transport_pair
from pvilab.premodular import (
    TorsionPair,
    cusp_asymptotic,
    z2_stable,
    z2_stable_many,
    z2_with_derivative,
)

mpmath = pytest.importorskip("mpmath")

ORACLE_RTOL = 1e-12
AGREE_RTOL = 1e-13
_HALF = 0.4938428317294208 + 0.03203093390467846j
_TWO = 1.9375 + 0.2420614591379635j

# (cusp, r, s, tau): exact and float pairs, by the cusp tau lies near
CASES = [
    ("inf", Fraction(1, 3), Fraction(0), 2j),
    ("inf", Fraction(1, 5), Fraction(1, 2), 0.1 + 1.2j),
    ("inf", 0.3, 0.2, 0.5 + 0.8j),
    ("inf", 0.31, 0.17, 1j),
    ("0", Fraction(1, 2), Fraction(1, 5), 0.02 + 0.05j),
    ("0", 0.5, 0.2, 0.02 + 0.05j),
    ("1/2", Fraction(3, 5), Fraction(3, 10), _HALF),
    ("1/2", Fraction(2, 5), Fraction(1, 10), _HALF),
    ("1/3", Fraction(1, 6), Fraction(1, 2), 0.34 + 0.01j),
    ("1/3", Fraction(1, 3), Fraction(1, 3), 0.34 + 0.01j),
    ("1", Fraction(3, 10), Fraction(1, 5), 1.01 + 0.04j),
    ("1", 0.3, 0.2, 1.01 + 0.04j),
    ("2", Fraction(15, 16), Fraction(1, 32), _TWO),
    ("2", Fraction(28, 29), Fraction(1, 58), _TWO),
    ("2", Fraction(2, 3), Fraction(1, 6), 1.98 + 0.1508j),
    ("2", Fraction(2, 5), Fraction(1, 5), 1.97 + 0.1j),
]


def _z2_mp(r, s, tau):
    """Z2_{r,s}(tau) from theta_1 at mpmath's working precision (module
    docstring); tau is an mpc."""
    r, s = (
        mpmath.mpf(x.numerator) / x.denominator
        if isinstance(x, Fraction)
        else mpmath.mpf(x)
        for x in (r, s)
    )
    q = mpmath.exp(1j * mpmath.pi * tau)
    u = mpmath.pi * (r + s * tau)
    th = [mpmath.jtheta(1, u, q, k) for k in range(4)]
    L1, L2, L3 = (t / th[0] for t in th[1:])
    dth0 = [mpmath.jtheta(1, 0, q, k) for k in (1, 3)]
    eta1 = -(mpmath.pi**2) * dth0[1] / (3 * dth0[0])
    z = mpmath.pi * L1 + 2j * mpmath.pi * s
    wp = -eta1 - mpmath.pi**2 * (L2 - L1**2)
    wpp = -(mpmath.pi**3) * (L3 - 3 * L1 * L2 + 2 * L1**3)
    return z**3 - 3 * wp * z - wpp


def z2_theta(r, s, tau) -> complex:
    """The 50-digit oracle's Z2_{r,s}(tau)."""
    with mpmath.workdps(50):
        return complex(_z2_mp(r, s, mpmath.mpc(tau.real, tau.imag)))


def dz2_theta(r, s, tau) -> complex:
    """The 50-digit oracle's dZ2/dtau, by ``mpmath.diff``."""
    with mpmath.workdps(50):
        tau = mpmath.mpc(tau.real, tau.imag)
        return complex(mpmath.diff(lambda t: _z2_mp(r, s, t), tau))


def _on_series(pair, tau) -> bool:
    """Whether the pair, transported by the matrix that reduces tau, has s'
    in (1/2)Z: an independent restatement of the rule's test."""
    _, g = reduce_to_standard(tau)
    return cusp_asymptotic(TorsionPair.of(*transport_pair(pair.r, pair.s, g)))[1] > 0


@pytest.fixture(scope="module")
def batch():
    """Every case in one grouped z2_stable_many call, and each alone."""
    pairs = [TorsionPair.of(r, s) for _, r, s, _ in CASES]
    taus = np.array([tau for *_, tau in CASES])
    grouped = z2_stable_many(pairs, taus, [1] * len(pairs))
    alone = [z2_stable_many(p, taus[k : k + 1]) for k, p in enumerate(pairs)]
    return grouped, alone


@pytest.mark.parametrize(
    "k", range(len(CASES)), ids=lambda k: "{}-{}-{}".format(*CASES[k][:3])
)
def test_z2_stable_matches_the_theta_oracle_near_the_cusps(k, batch):
    _, r, s, tau = CASES[k]
    pair = TorsionPair.of(r, s)
    val, scale = z2_stable(pair, ModuliPoint.from_tau(tau))
    oracle = z2_theta(r, s, tau)
    if _on_series(pair, tau):
        assert abs(val - oracle) <= ORACLE_RTOL * abs(oracle)
        # the series scale is honest: no cancellation is hidden in it
        assert abs(val) >= 1e-3 * scale
    else:
        assert abs(val - oracle) <= ORACLE_RTOL * scale
    grouped, alone = batch
    for vals, scales in (grouped, alone[k]):
        i = k if len(vals) > 1 else 0
        assert abs(vals[i] - val) <= AGREE_RTOL * scale
        assert abs(scales[i] - scale) <= AGREE_RTOL * scale


@pytest.mark.parametrize(
    "k", range(len(CASES)), ids=lambda k: "{}-{}-{}".format(*CASES[k][:3])
)
def test_newton_derivative_matches_the_theta_oracle_near_the_cusps(k):
    # z2_with_derivative is z2_stable with dZ2/dtau, from the same series on
    # the frames where the rule takes it
    _, r, s, tau = CASES[k]
    pair, m = TorsionPair.of(r, s), ModuliPoint.from_tau(tau)
    val, scale, deriv = z2_with_derivative(pair, m)
    assert (val, scale) == z2_stable(pair, m)
    oracle = dz2_theta(r, s, tau)
    bound = abs(oracle) if _on_series(pair, tau) else max(abs(oracle), scale)
    assert abs(deriv - oracle) <= ORACLE_RTOL * bound


def test_every_cusp_takes_the_series_somewhere():
    hits: dict = {}
    for cusp, r, s, tau in CASES:
        hits.setdefault(cusp, []).append(_on_series(TorsionPair.of(r, s), tau))
    assert set(hits) == {"inf", "0", "1/2", "1/3", "1", "2"}
    assert all(any(on) for on in hits.values())
    assert not all(all(on) for on in hits.values())


def test_float_pair_off_half_z_by_rounding_takes_the_rational_series():
    # in binary, 0.6 = 2 * 0.3, so near 1/2 the carried s' = -5 * 0.3 misses
    # -3/2 by 5.6e-17: within the 1e-12 band, (0.6, 0.3) is read as
    # (3/5, 3/10), whose value the direct formula misses by about 4e-6
    pair = TorsionPair.of(0.6, 0.3)
    val, _ = z2_stable(pair, ModuliPoint.from_tau(_HALF))
    oracle = z2_theta(Fraction(3, 5), Fraction(3, 10), _HALF)
    assert _on_series(pair, _HALF)
    assert abs(val - oracle) <= ORACLE_RTOL * abs(oracle)
