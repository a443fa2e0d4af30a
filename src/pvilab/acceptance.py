"""The acceptance suite: nine numbered criteria, each a pure function
returning the list of its failure messages (empty when it passes).

``ALL_CRITERIA`` is the one table of (name, check) pairs, in criterion
order.  ``run(number)`` runs one check and builds its CriterionResult:
number, name, runtime and verdict are decided there and nowhere else.  The
test module calls ``run`` per criterion; the ``verify`` CLI subcommand
calls ``run_all`` and exits non-zero when any criterion fails.  Random
samples use fixed seeds so the suite is reproducible run to run.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .elliptic import ModuliPoint, invariants_g, weierstrass_p, weierstrass_zeta
from .errors import PviLabError
from .locator import (
    F0,
    classify_triangle,
    locate_zeros,
    valence_check,
    winding_count,
)
from .modular import ModularMatrix, transport_pair
from .orbits import (
    _xgcd,
    classify_orbit,
    enumerate_qn,
    orbit_brute_force,
    p_of_n,
    pole_count,
)
from .premodular import TorsionPair, cusp_asymptotic, hecke_Z, z2, z2_stable, z2_stable_many
from .solutions import lambda_rs

_PI = math.pi


@dataclass
class CriterionResult:
    number: int
    name: str
    runtime: float
    details: list[str]

    @property
    def passed(self) -> bool:
        return not self.details

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name} ({self.runtime:.2f}s)"


def _random_tau(rng, low=0.3, high=2.5) -> complex:
    return complex(rng.uniform(-1.5, 1.5), rng.uniform(low, high))


def criterion_1() -> list[str]:
    """Elliptic identity suite: Legendre, wp-ODE, discriminant,
    quasi-periodicity; >= 100 samples each, 1e-10 relative."""
    rng = np.random.default_rng(101)
    details = []
    for _ in range(100):
        tau = _random_tau(rng)
        m = ModuliPoint.from_tau(tau)
        lat = invariants_g(m)
        scale_eta = 1.0 + abs(lat.eta1) + abs(lat.eta2)
        if abs(tau * lat.eta1 - lat.eta2 - 2j * _PI) > 1e-10 * scale_eta:
            details.append(f"Legendre failed at tau={tau}")
        disc_lhs = lat.g2**3 - 27.0 * lat.g3**2
        disc_rhs = (
            16.0
            * (lat.e1 - lat.e2) ** 2
            * (lat.e2 - lat.e3) ** 2
            * (lat.e3 - lat.e1) ** 2
        )
        if abs(disc_lhs - disc_rhs) > 1e-10 * max(1.0, abs(disc_lhs)):
            details.append(f"discriminant failed at tau={tau}")
        z = complex(rng.uniform(0.05, 0.9), rng.uniform(0.02, 0.4))
        wp, wpp = weierstrass_p(z, m)
        resid = wpp**2 - (4.0 * wp**3 - lat.g2 * wp - lat.g3)
        if abs(resid) > 1e-10 * max(1.0, abs(wp) ** 3):
            details.append(f"ODE residual failed at z={z}, tau={tau}")
        zv = weierstrass_zeta(z, m)
        if abs(weierstrass_zeta(z + 1.0, m) - zv - lat.eta1) > 1e-10 * scale_eta:
            details.append(f"eta1 quasi-periodicity failed at z={z}, tau={tau}")
        if abs(weierstrass_zeta(z + tau, m) - zv - lat.eta2) > 1e-10 * scale_eta:
            details.append(f"eta2 quasi-periodicity failed at z={z}, tau={tau}")
    return details


def criterion_2() -> list[str]:
    """Weight-1 law for Z and weight-3 law for Z2 under 20 random group
    elements, 1e-9 relative."""
    rng = np.random.default_rng(202)
    details = []
    count = 0
    while count < 20:
        a, b = int(rng.integers(-10, 11)), int(rng.integers(-10, 11))
        # extend (a, b) to a unimodular matrix when possible
        if math.gcd(a, b) != 1:
            continue
        g, x, y = _xgcd(a, b)
        if g == -1:
            x, y = -x, -y
        gamma = ModularMatrix(a, b, -y, x)
        count += 1
        tau = _random_tau(rng, low=0.5, high=2.0)
        r, s = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.45)
        pair = TorsionPair.of(r, s)
        m = ModuliPoint.from_tau(tau)
        tau2 = gamma.moebius(tau)
        j = gamma.cocycle(tau)
        r2, s2 = transport_pair(r, s, gamma)
        pair2 = TorsionPair.of(r2, s2)
        m2 = ModuliPoint.from_tau(tau2)
        z_lhs = hecke_Z(pair2, m2)
        z_rhs = j * hecke_Z(pair, m)
        if abs(z_lhs - z_rhs) > 1e-9 * max(1.0, abs(z_lhs)):
            details.append(f"weight-1 law failed for gamma={gamma.as_tuple()}")
        z2_lhs = z2(pair2, m2)
        z2_rhs = j**3 * z2(pair, m)
        if abs(z2_lhs - z2_rhs) > 1e-9 * max(1.0, abs(z2_lhs)):
            details.append(f"weight-3 law failed for gamma={gamma.as_tuple()}")
    return details


def criterion_3() -> list[str]:
    """Cusp asymptotics at tau = 20i: 10 pairs per case of the leading-term
    table; 5e-2 absolute for generic s, 10% of the leading q-coefficient
    after dividing by q^ord for s in {0, 1/2}."""
    rng = np.random.default_rng(303)
    details = []
    m20 = ModuliPoint.from_tau(20j)
    q20 = cmath.exp(2j * _PI * 20j)
    p20 = cmath.exp(1j * _PI * 20j)
    # generic s: keep s away from {0, 1/2} so the o(1) remainder has decayed
    for _ in range(10):
        r = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.1, 0.4)
        pair = TorsionPair.of(r, s)
        lead, order = cusp_asymptotic(pair)
        val = z2(pair, m20)
        if abs(val - lead) > 5e-2:
            details.append(f"generic-s asymptotic failed at (r,s)=({r},{s})")
    # s = 0 (order 1 in q)
    for _ in range(10):
        r = rng.uniform(0.1, 0.9)
        if abs(r - 0.5) < 0.05:
            r += 0.1
        pair = TorsionPair.of(r, 0)
        lead, order = cusp_asymptotic(pair)
        if order != Fraction(1):
            details.append(f"s=0 cusp order {order} != 1 at r={r}")
            continue
        val, _ = z2_stable(pair, m20)
        coeff = val / q20
        if abs(coeff - lead) > 0.1 * abs(lead):
            details.append(f"s=0 q-coefficient failed at r={r}")
    # s = 1/2 (order 1/2 in q)
    for _ in range(10):
        r = rng.uniform(0.1, 0.9)
        if abs(r - 0.5) < 0.05:
            r += 0.1
        pair = TorsionPair.of(r, 0.5)
        lead, order = cusp_asymptotic(pair)
        if order != Fraction(1, 2):
            details.append(f"s=1/2 cusp order {order} != 1/2 at r={r}")
            continue
        val, _ = z2_stable(pair, m20)
        coeff = val / p20
        if abs(coeff - lead) > 0.1 * abs(lead):
            details.append(f"s=1/2 q-coefficient failed at r={r}")
    return details


def criterion_4() -> list[str]:
    """Triangle dichotomy over a 15x15 parameter grid: winding over F0 is 1
    exactly on the three pole triangles and 0 on the non-pole triangle;
    every located zero is interior and simple."""
    details = []
    checked = 0
    for i in range(1, 16):
        for jj in range(1, 16):
            r = Fraction(i, 16)
            s = Fraction(jj, 32)
            pair = TorsionPair.of(r, s)
            tag = classify_triangle(pair).tag
            if tag in ("boundary", "outside"):
                continue
            checked += 1
            w = winding_count(pair, F0)
            expect = 0 if tag == "D0" else 1
            if w != expect:
                details.append(f"winding {w} != {expect} at (r,s)=({r},{s}) [{tag}]")
                continue
            if w == 1:
                cert = locate_zeros(pair, F0, expected=1)[0]
                interior = F0.contains(cert.tau0, margin=1e-6)
                simple = cert.dz_mag > 1e-6 * cert.scale
                if not (interior and simple):
                    details.append(
                        f"zero at {cert.tau0} for ({r},{s}): interior={interior}, "
                        f"dz={cert.dz_mag:.3e}"
                    )
    # 49 pairs off the edges in each of D0, D1, D2 and D3
    if checked != 196:
        details.append(f"{checked} interior grid samples checked, expected 196")
    return details


def criterion_5() -> list[str]:
    """Algebraic-solution residuals for the four pole-free solutions at 25
    points across the level-2 domain, 1e-8 relative."""
    details = []
    taus = [
        complex(x, y)
        for x in (0.05, 0.45, 0.95, 1.35, 1.85)
        for y in (0.55, 0.8, 1.1, 1.6, 2.4)
    ]
    quarter = Fraction(1, 4)
    third = Fraction(1, 3)
    for tau in taus:
        m = ModuliPoint.from_tau(tau)
        sv = lambda_rs(TorsionPair.of(quarter, 0), m)
        lam, t = sv.lam, sv.t
        scale = max(1.0, 9 * abs(lam) ** 2 + abs(t))
        if abs(9 * lam**2 - t) > 1e-8 * scale:
            details.append(f"(1/4,0) residual failed at tau={tau}")
        sv = lambda_rs(TorsionPair.of(0, quarter), m)
        lam, t = sv.lam, sv.t
        scale = max(1.0, 9 * abs(lam - 1) ** 2 + abs(1 - t))
        if abs(9 * (lam - 1) ** 2 - (1 - t)) > 1e-8 * scale:
            details.append(f"(0,1/4) residual failed at tau={tau}")
        sv = lambda_rs(TorsionPair.of(quarter, quarter), m)
        lam, t = sv.lam, sv.t
        scale = max(1.0, 9 * abs(lam - t) ** 2 + abs(t) * abs(t - 1))
        if abs(9 * (lam - t) ** 2 - t * (t - 1)) > 1e-8 * scale:
            details.append(f"(1/4,1/4) residual failed at tau={tau}")
        sv = lambda_rs(TorsionPair.of(third, 0), m)
        lam, t = sv.lam, sv.t
        resid = 3 * lam**4 - 4 * t * lam**3 - 4 * lam**3 + 6 * t * lam**2 - t**2
        scale = max(
            1.0,
            3 * abs(lam) ** 4
            + 8 * abs(t) * abs(lam) ** 3
            + 6 * abs(t) * abs(lam) ** 2
            + abs(t) ** 2,
        )
        if abs(resid) > 1e-8 * scale:
            details.append(f"(1/3,0) residual failed at tau={tau}")
    return details


# The pole-count table recomputed from the formulas.  The N = 8 row of the
# as-published target table reads P = 5, but |Q_8|/4 - phi(8) - phi(4)
# = 12 - 4 - 2 = 6; the exact-arithmetic value is asserted here.
POLE_TABLE = {
    3: (0, 1, 0),
    4: (0, 3, 0),
    5: (2, 1, 6),
    6: (2, 3, 2),
    8: (6, 3, 6),
}


def criterion_6() -> list[str]:
    """Pole-count formulas for N in {3,4,5,6,8} plus locator agreement
    (interior count over the modular domain equals P(N)) and exact valence
    balance for N in {3,4,5,6}."""
    details = []
    for N, (P, nsol, per) in POLE_TABLE.items():
        # independent recomputation: enumerate Q_N, count totients directly
        qn = len(enumerate_qn(N))
        phi = sum(1 for k in range(N) if math.gcd(k, N) == 1)
        phi_half = (
            sum(1 for k in range(N // 2) if math.gcd(k, N // 2) == 1)
            if N % 2 == 0
            else 0
        )
        p_direct = qn // 4 - phi - phi_half
        if p_of_n(N) != P or p_direct != P:
            details.append(f"P({N}) = {p_of_n(N)}, direct {p_direct}, expected {P}")
        if pole_count(N) != (nsol, per):
            details.append(f"pole_count({N}) = {pole_count(N)} != {(nsol, per)}")
    for N in (3, 4, 5, 6):
        v = valence_check(N)  # counts the zeros of M_N over F
        if v["interior"] != p_of_n(N):
            details.append(f"locator count {v['interior']} != P({N}) = {p_of_n(N)}")
        if not v["balance_exact"]:
            details.append(f"valence balance failed for N={N}: {v}")
        if abs(v["cusp_order_slope"] - v["cusp"]) > 0.1:
            details.append(
                f"cusp-order slope {v['cusp_order_slope']:.3f} vs {v['cusp']}"
            )
    return details


def criterion_7() -> list[str]:
    """Orbit classification of every element of Q_N for all N <= 24, with
    class counts matching the BFS oracle; ``classify_orbit`` re-verifies
    each witness exactly and raises InternalError otherwise."""
    details = []
    for N in range(3, 25):
        classes = orbit_brute_force(N)
        expected = 1 if N % 2 == 1 else 3
        if len(classes) != expected:
            details.append(f"N={N}: {len(classes)} classes, expected {expected}")
            continue
        index_of = {}
        for idx, cls in enumerate(classes):
            for row in cls:
                index_of[row] = idx
        for pr in enumerate_qn(N):
            rep = classify_orbit(pr)
            if (
                index_of[pr.pm_canonical().row()]
                != index_of[rep.representative.pm_canonical().row()]
            ):
                details.append(f"N={N}: classify disagrees with BFS for {pr}")
    return details


def criterion_8() -> list[str]:
    """No real poles for unitary parameters: |Z2| stays above 1e-6 of its
    local scale on the three boundary curves carrying real t."""
    rng = np.random.default_rng(808)
    details = []
    ys = np.linspace(0.2, 5.0, 50)
    curves = [
        [complex(0.0, y) for y in ys],
        [0.5 + 0.5 * cmath.exp(1j * th) for th in np.linspace(0.12, _PI - 0.12, 50)],
        [complex(1.0, y) for y in ys],
    ]
    samples = np.array([tau for curve in curves for tau in curve])
    for _ in range(20):
        r = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.05, 0.45)
        vals, scales = z2_stable_many([TorsionPair.of(r, s)], samples, [len(samples)])
        # np.min keeps a NaN, which fails the test below
        worst = float(np.min(np.abs(vals) / scales))
        if not worst > 1e-6:
            details.append(f"(r,s)=({r:.4f},{s:.4f}) min |Z2|/scale = {worst:.3e}")
    return details


def criterion_9() -> list[str]:
    """Oracle equivalence: wp, zeta and the Hecke form against truncated
    lattice sums on a fixed 5x5 grid, 1e-8."""
    from .oracles import hecke_lattice_sum, wp_lattice_sum, zeta_lattice_sum

    details = []
    zs = [0.31 + 0.17j, 0.11 + 0.08j, 0.42 - 0.13j, 0.27 + 0.33j, 0.49 + 0.02j]
    taus = [1j, 0.2 + 1.1j, -0.3 + 0.9j, 0.1 + 1.7j, 0.45 + 1.3j]
    for z in zs:
        for tau in taus:
            m = ModuliPoint.from_tau(tau)
            wp, wpp = weierstrass_p(z, m)
            zeta = weierstrass_zeta(z, m)
            wp_or = wp_lattice_sum(z, tau)
            zt_or = zeta_lattice_sum(z, tau)
            if abs(wp - wp_or) > 1e-8 * max(1.0, abs(wp)):
                details.append(f"wp oracle mismatch at z={z}, tau={tau}")
            if abs(zeta - zt_or) > 1e-8 * max(1.0, abs(zeta)):
                details.append(f"zeta oracle mismatch at z={z}, tau={tau}")
    pairs = [(0.31, 0.17), (0.11, 0.08), (0.42, 0.13), (0.27, 0.33), (0.49, 0.02)]
    for (r, s) in pairs:
        for tau in taus:
            pair = TorsionPair.of(r, s)
            m = ModuliPoint.from_tau(tau)
            zv = hecke_Z(pair, m)
            zv_or = hecke_lattice_sum(r, s, tau)
            if abs(zv - zv_or) > 1e-8 * max(1.0, abs(zv)):
                details.append(f"Hecke oracle mismatch at (r,s)=({r},{s}), tau={tau}")
    return details


# The one table of the suite, in criterion order: a criterion's number is
# its position here, counted from 1.
ALL_CRITERIA = [
    ("elliptic identity suite", criterion_1),
    ("modularity suite", criterion_2),
    ("cusp asymptotics", criterion_3),
    ("triangle dichotomy (15x15 grid)", criterion_4),
    ("algebraic-solution residuals", criterion_5),
    ("pole-count tables and valence", criterion_6),
    ("orbit classification (N <= 24)", criterion_7),
    ("no-real-pole boundary clearance", criterion_8),
    ("lattice-sum oracle equivalence", criterion_9),
]


def run(number: int) -> CriterionResult:
    """Criterion ``number`` of ``ALL_CRITERIA``, timed: its failures are the
    result's details, and a PviLabError or ArithmeticError it raises is its
    one failure."""
    name, check = ALL_CRITERIA[number - 1]
    t0 = time.perf_counter()
    try:
        failures = check()
    except (PviLabError, ArithmeticError) as exc:
        failures = [f"{type(exc).__name__}: {exc}"]
    return CriterionResult(number, name, time.perf_counter() - t0, failures)


def run_all() -> list[CriterionResult]:
    """Run the whole suite, printing one pass/fail line per criterion and
    the first 8 failures of each criterion that fails."""
    results = []
    for number in range(1, len(ALL_CRITERIA) + 1):
        res = run(number)
        print(res.line())
        for d in res.details[:8]:
            print(f"    {d}")
        results.append(res)
    return results
