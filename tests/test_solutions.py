"""Cover map, closed-form solution values, pole detection, symmetries."""

import cmath
import math
from fractions import Fraction

import pytest

from pvilab import solutions
from pvilab.elliptic import ModuliPoint, invariants_g
from pvilab.errors import Degenerate, NewtonStall
from pvilab.premodular import TorsionPair, z2_stable, z2_with_scale
from pvilab.solutions import (
    _NEWTON_MAX_ITER,
    _wp_of_p_direct,
    _wp_of_p_expansion,
    lambda_rs,
    wp_of_p,
)

PI = math.pi
QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)


# --- LatticeData.t ----------------------------------------------------------


def test_t_on_imaginary_axis_is_in_unit_interval():
    t = invariants_g(ModuliPoint.from_tau(1j)).t
    assert abs(t.imag) < 1e-12
    assert 0 < t.real < 1
    for y in (0.4, 0.9, 2.3):
        t = invariants_g(ModuliPoint.from_tau(1j * y)).t
        assert abs(t.imag) < 1e-10 and 0 < t.real < 1


def test_t_level_two_periodicity():
    tau = 0.3 + 1.1j
    a = invariants_g(ModuliPoint.from_tau(tau)).t
    b = invariants_g(ModuliPoint.from_tau(tau + 2)).t
    assert abs(a - b) <= 1e-12 * abs(a)


def test_t_unit_translation_inverts():
    tau = 0.4 + 1.2j
    a = invariants_g(ModuliPoint.from_tau(tau)).t
    b = invariants_g(ModuliPoint.from_tau(tau - 1)).t
    assert abs(b - 1 / a) <= 1e-11 * abs(b)


# --- wp_of_p ----------------------------------------------------------------


def test_wp_of_p_shift_invariance():
    m = ModuliPoint.from_tau(1.3j)
    a = wp_of_p(TorsionPair.of(0.3, 0.2), m)
    b = wp_of_p(TorsionPair.of(1.3, 0.2), m)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_wp_of_p_degenerate_rejected():
    with pytest.raises(Degenerate):
        wp_of_p(TorsionPair.of(Fraction(1, 2), 0), ModuliPoint.from_tau(1.2j))


def test_wp_of_p_divergence_near_lattice_hit():
    # complex pair built so alpha(tau0) = 1 + tau0 exactly (dyadic data);
    # wp(p) - (-c0/(3 alpha~)) stays bounded along a ray into the hit.
    tau0 = 1.25j
    s0 = 0.25
    m = ModuliPoint.from_tau(tau0)
    from pvilab import _kernels

    _, _, _, _, eta1, eta2, *_ = m.frame
    deviations = []
    for k in (12, 20, 28):
        eps = 2.0**-k
        r = eps + 1 + tau0 - s0 * tau0
        c0 = (r - 1) * eta1 + (s0 - 1) * eta2
        val = wp_of_p(TorsionPair.of(r, s0), m)
        deviations.append(abs(val - (-c0 / (3 * eps))))
    assert max(deviations) < 10.0


def test_wp_of_p_exact_hit_is_pole():
    tau0 = 1.25j
    s0 = 0.25
    r = 1 + tau0 - s0 * tau0
    val = wp_of_p(TorsionPair.of(r, s0), ModuliPoint.from_tau(tau0))
    assert math.isinf(val.real)


def test_wp_of_p_two_paths_agree_on_overlap_annulus():
    # both evaluation paths are good to better than 1e-6 relative on the
    # annulus [8e-4, 6e-3] around a lattice hit
    tau0 = 1.25j
    s0 = 0.25
    m = ModuliPoint.from_tau(tau0)
    for mag in (8e-4, 1.5e-3, 3e-3, 6e-3):
        eps = mag * cmath.exp(0.7j)
        r = eps + 1 + tau0 - s0 * tau0
        pair = TorsionPair.of(r, s0)
        d = _wp_of_p_direct(pair, m)
        e = _wp_of_p_expansion(pair, m)
        assert abs(d - e) <= 1e-6 * abs(d)


# --- lambda_rs: the four algebraic solutions --------------------------------


def test_lambda_quarter_zero_square_root_relation():
    for tau in (1.2j, 1.5j):
        sv = lambda_rs(TorsionPair.of(QUARTER, 0), ModuliPoint.from_tau(tau))
        assert abs(9 * sv.lam**2 - sv.t) <= 1e-9
        # one square-root branch of -t^{1/2}/3 (t in (0,1) on the axis)
        assert abs(sv.lam + math.sqrt(sv.t.real) / 3) <= 1e-9


def test_lambda_zero_quarter_relation():
    sv = lambda_rs(TorsionPair.of(0, QUARTER), ModuliPoint.from_tau(1.5j))
    assert abs(9 * (sv.lam - 1) ** 2 - (1 - sv.t)) <= 1e-9


def test_lambda_quarter_quarter_relation():
    sv = lambda_rs(TorsionPair.of(QUARTER, QUARTER), ModuliPoint.from_tau(1.5j))
    assert abs(9 * (sv.lam - sv.t) ** 2 - sv.t * (sv.t - 1)) <= 1e-9


def test_lambda_third_zero_quartic():
    sv = lambda_rs(TorsionPair.of(THIRD, 0), ModuliPoint.from_tau(0.3 + 1.4j))
    lam, t = sv.lam, sv.t
    resid = 3 * lam**4 - 4 * t * lam**3 - 4 * lam**3 + 6 * t * lam**2 - t**2
    assert abs(resid) <= 1e-8 * max(1.0, abs(t) ** 2)


def test_lambda_linear_relation_with_wp():
    from pvilab.elliptic import invariants_g

    m = ModuliPoint.from_tau(0.2 + 1.3j)
    sv = lambda_rs(TorsionPair.of(0.3, 0.15), m)
    lat = invariants_g(m)
    lhs = sv.lam * (lat.e2 - lat.e1) + lat.e1
    assert abs(lhs - sv.wp_p) <= 1e-10 * max(1.0, abs(sv.wp_p))
    assert not sv.is_pole
    assert sv.branch_note in ("I", "S", "ST", "S2T", "TS-1", "STS-1")


def test_lambda_branch_parameter_equivalence(rng):
    # lambda_{r,s} = lambda_{r',s'} for (r',s') = +-(r,s) + Z^2
    for _ in range(20):
        r, s = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.45)
        tau = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.5, 1.8))
        m = ModuliPoint.from_tau(tau)
        base = lambda_rs(TorsionPair.of(r, s), m).lam
        sign = 1 if rng.uniform() < 0.5 else -1
        dr, ds = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        other = lambda_rs(TorsionPair.of(sign * r + dr, sign * s + ds), m).lam
        assert abs(base - other) <= 1e-10 * max(1.0, abs(base))


# --- is_pole ----------------------------------------------------------------


def test_pole_test_no_pole_in_d0():
    sv = lambda_rs(TorsionPair.of(0.3, 0.3), ModuliPoint.from_tau(0.4 + 1.1j))
    assert not sv.is_pole and math.isfinite(abs(sv.lam))


def test_pole_test_q3_scan_no_poles(rng):
    # torsion parameters of order 3 never produce poles anywhere
    pairs = [(Fraction(k1, 3), Fraction(k2, 3)) for k1 in range(3) for k2 in range(3)
             if (k1, k2) != (0, 0)]
    for _ in range(200):
        tau = complex(rng.uniform(0.0, 2.0), rng.uniform(0.25, 3.0))
        r, s = pairs[int(rng.integers(0, len(pairs)))]
        assert not lambda_rs(TorsionPair.of(r, s), ModuliPoint.from_tau(tau)).is_pole


def test_pole_test_lattice_kind():
    # alpha = r + s0*tau0 = 1 + tau0 lies on the lattice
    tau0 = 1.2j
    s0 = 0.25
    n, mm = 1, 1
    r = mm + n * tau0 - s0 * tau0
    sv = lambda_rs(TorsionPair.of(r, s0), ModuliPoint.from_tau(tau0))
    assert sv.is_pole and math.isinf(abs(sv.lam))


def test_pole_test_z2_zero_kind():
    # the located zero of Z2 in F0 is a pole of lambda
    from pvilab.locator import F0, locate_zeros

    for r, s in ((0.6, 0.3), (Fraction(3, 5), Fraction(1, 5)),
                 (Fraction(4, 7), Fraction(1, 7)), (Fraction(5, 6), Fraction(1, 12))):
        pair = TorsionPair.of(r, s)
        cert = locate_zeros(pair, F0)[0]
        sv = lambda_rs(pair, ModuliPoint.from_tau(cert.tau0))
        assert sv.is_pole and math.isinf(abs(sv.lam)), (r, s)


@pytest.mark.xfail(
    strict=True,
    reason="lambda_rs reads the direct kernel Z2, not the cusp rule, in its pole "
    "decision; on cusp-series frames that value is cancellation noise",
)
@pytest.mark.parametrize(
    "r,s,tau",
    [
        (QUARTER, 0, 5j),
        (THIRD, 0, 1 / 3 + 0.02j),
        (QUARTER, QUARTER, 1 / 3 + 0.02j),
    ],
    ids=str,
)
def test_pole_free_solutions_report_no_pole_near_a_cusp(r, s, tau):
    # result (ii): the solutions of N = 3 and 4 have no poles; by the cusp
    # rule |Z2|/scale is 1 at each of these points
    pair, m = TorsionPair.of(r, s), ModuliPoint.from_tau(tau)
    value, scale = z2_stable(pair, m)
    assert abs(value) > 0.5 * scale
    assert not lambda_rs(pair, m).is_pole


# --- reflection symmetries --------------------------------------------------


def _symmetry_residuals(N, tau):
    """Residuals of the two reflection identities tying the three basic
    N-torsion solutions together.

    Identity 1 (via tau' = -1/tau, where t -> 1 - t):
        lambda_{1/N,0}(1 - t) = 1 - lambda_{0,1/N}(t)
    Identity 2 (via tau' = tau - 1, where t -> 1/t):
        lambda_{1/N,1/N}(1/t) = lambda_{0,1/N}(t) / t
    """
    k = Fraction(1, N)
    base = lambda_rs(TorsionPair.of(0, k), ModuliPoint.from_tau(tau))
    t = base.t
    left1 = lambda_rs(TorsionPair.of(k, 0), ModuliPoint.from_tau(-1.0 / tau))
    left2 = lambda_rs(TorsionPair.of(k, k), ModuliPoint.from_tau(tau - 1.0))
    return (
        abs(left1.lam - (1.0 - base.lam)),
        abs(left2.lam - base.lam / t),
        abs(left1.t - (1.0 - t)),
        abs(left2.t - 1.0 / t),
    )


@pytest.mark.parametrize(
    "N,tau",
    [(4, 1.1j), (5, 0.2 + 1.3j), (3, 1j)],
)
def test_symmetry_identities(N, tau):
    assert max(_symmetry_residuals(N, tau)) <= 1e-9


def test_unitary_boundary_clearance_sampled(rng):
    # |Z2| bounded away from zero on the three curves carrying real t
    import numpy as np

    from pvilab.premodular import z2_stable

    ys = np.linspace(0.2, 5.0, 17)
    curves = (
        [complex(0, y) for y in ys]
        + [0.5 + 0.5 * cmath.exp(1j * th) for th in np.linspace(0.15, PI - 0.15, 16)]
        + [complex(1, y) for y in ys]
    )
    for _ in range(8):
        r, s = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.45)
        pair = TorsionPair.of(r, s)
        for tau in curves:
            val, scale = z2_stable(pair, ModuliPoint.from_tau(tau))
            assert abs(val) > 1e-6 * scale


# --- _newton_z2 exits, on synthetic functions of tau -------------------------


def _patch_z2(monkeypatch, f, fp, scale=1.0):
    """Replace Z2 and its tau-derivative inside ``solutions`` by f(tau) and
    fp(tau) with a fixed scale; returns the list of taus it is called at."""
    calls = []

    def fake(pair, m):
        calls.append(m.tau)
        return f(m.tau), scale, fp(m.tau)

    monkeypatch.setattr(solutions, "z2_with_derivative", fake)
    return calls


_PAIR = TorsionPair.of(0.6, 0.3)


def _newton_cycle(c):
    # Newton on x^3 - 2x + 2 cycles 0 -> 1 -> 0 (superattracting), here on
    # the line Im tau = 1 and scaled by c; returns (f, f')
    return (
        lambda tau: c * ((tau - 1j) ** 3 - 2 * (tau - 1j) + 2),
        lambda tau: c * (3 * (tau - 1j) ** 2 - 2),
    )


def test_newton_zero_derivative_stalls_at_once(monkeypatch):
    calls = _patch_z2(monkeypatch, lambda tau: 1.0 + 0j, lambda tau: 0j)
    with pytest.raises(NewtonStall):
        solutions._newton_z2(_PAIR, 0.3 + 1j)
    # one value with its derivative, one for the final check
    assert len(calls) == 2


def test_newton_zero_derivative_accepts_a_small_residual(monkeypatch):
    c = 2.0**-40  # ~9e-13, above the 1e-13 acceptance, below the 1e-10 one
    _patch_z2(monkeypatch, lambda tau: complex(c), lambda tau: 0j)
    tau, resid, dz, iters, scale = solutions._newton_z2(_PAIR, 0.3 + 1j)
    assert (tau, resid, dz, iters, scale) == (0.3 + 1j, c, 0.0, _NEWTON_MAX_ITER, 1.0)


def test_newton_small_step_returns_before_the_budget(monkeypatch):
    # the root of f sits below the float spacing of tau, so |f| never drops
    # under 1e-13 * scale and the step size ends the iteration
    t0 = 0.4 + 1.1j

    def f(tau):
        return (tau - t0) + 1e-30

    _patch_z2(monkeypatch, f, lambda tau: 1.0 + 0j, scale=1e-20)
    tau, resid, dz, iters, scale = solutions._newton_z2(_PAIR, t0 + 0.1)
    assert abs(tau - t0) < 1e-15
    assert iters < _NEWTON_MAX_ITER and resid == abs(f(tau)) and scale == 1e-20
    assert abs(dz - 1.0) < 1e-6


def test_newton_budget_accepts_a_residual_below_1e_10(monkeypatch):
    _patch_z2(monkeypatch, *_newton_cycle(1e-11))
    tau, resid, dz, iters, scale = solutions._newton_z2(_PAIR, 1j)
    # an even number of steps brings the cycle back to its start
    assert abs(tau - 1j) < 1e-6 and iters == _NEWTON_MAX_ITER
    assert 1e-13 < resid <= 1e-10


def test_newton_budget_raises_newton_stall(monkeypatch):
    _patch_z2(monkeypatch, *_newton_cycle(1.0))
    with pytest.raises(NewtonStall, match="Newton failed to converge"):
        solutions._newton_z2(_PAIR, 1j)


@pytest.mark.parametrize(
    "r,s",
    [(Fraction(2, 3), Fraction(1, 6)), (Fraction(5, 6), Fraction(1, 12)),
     (Fraction(4, 7), Fraction(3, 14))],
    ids=str,
)
def test_newton_does_not_take_cusp_noise_for_a_zero(r, s):
    # at 1.98+0.1508i, next to the cusp 2, the direct Z2 is cancellation
    # noise that passes Newton's own 1e-13 test; the cusp rule reads the
    # carried pair's series there, whose value is far from zero, so Newton
    # must not return its start as a zero
    pair, start = TorsionPair.of(r, s), 1.98 + 0.1508j
    direct, direct_scale = z2_with_scale(pair, ModuliPoint.from_tau(start))
    assert abs(direct) <= 1e-13 * direct_scale
    val, scale = z2_stable(pair, ModuliPoint.from_tau(start))
    assert abs(val) >= 1e-3 * scale
    with pytest.raises(NewtonStall):
        solutions._newton_z2(pair, start)
