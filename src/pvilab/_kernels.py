"""Numeric kernels: Fourier (q-) series for Weierstrass functions.

Two paths share one evaluation strategy.  The scalar kernels
(``premodular_at``, ``lattice_values`` and the helpers they call) are
nopython-compatible and wrapped by ``@njit``, which compiles them when
numba is installed and is the identity otherwise (see ``_backend``); Newton
steps, ``m_n`` and ``lambda_rs`` use them.  ``premodular_at`` is the
tau-only prologue ``lattice_constants`` followed by the per-pair part
``premodular_from``, so a caller with many pairs at one tau, such as
``m_n``, runs the prologue once.  The batch kernel ``z2_many`` is NumPy
code under either backend: it runs the same steps on arrays of tau, in
blocks of at most ``_BLOCK`` points, with r and s shared by the batch or
given per point.  Each point leaves ``reduce_tau_many`` where ``reduce_tau``
stops.  The series loops run until every point of the block passes the
scalar kernel's stop test; past that test a term is below 1e-19 and falls
geometrically with the ones after it, far under half an ulp of the sums it
joins, so a point's result does not depend on what shares its batch.  The
strategy for a point tau in the upper half-plane:

1. reduce tau to the standard fundamental domain {|Re| <= 1/2, |tau| >= 1}
   with an integer matrix, so the nome q = exp(2*pi*i*tau_red) satisfies
   |q| <= exp(-pi*sqrt(3)) ~ 4.33e-3 and ~20 series terms give full double
   precision;
2. reduce the argument z by lattice translations into the centred cell,
   tracking the integer shifts exactly (they re-enter zeta through the
   quasi-periods);
3. sum the trigonometric q-series for wp, wp', zeta and the Eisenstein
   series E2, E4, E6;
4. undo both reductions through the weight laws (wp ~ weight 2, wp' ~ 3,
   zeta ~ 1, g2 ~ 4, g3 ~ 6; eta1 picks up the quasi-modular 2*pi*i*c/j
   shift).

All exponentials are arranged so their arguments have non-negative decay:
the series run in A_k = exp(2*pi*i*(tau+z))^k and B_k = exp(2*pi*i*(tau-z))^k,
both of modulus <= exp(-pi*Im(tau_red)) after reduction, so nothing
overflows even for very large Im(tau).
"""

import cmath
import math

import numpy as np

from ._backend import njit

_PI = math.pi
_EPS = 2.220446049250313e-16

# Series iteration cap; after fundamental-domain reduction ~20 terms reach
# double precision, the cap only matters for pathological inputs.
_KMAX = 400


@njit
def reduce_tau(tau):
    """Reduce tau into {|Re| <= 1/2, |tau| >= 1}.

    Returns (tau_red, a, b, c, d) with tau_red = (a*tau + b)/(c*tau + d)
    and a*d - b*c = 1.
    """
    a = 1
    b = 0
    c = 0
    d = 1
    t = tau
    for _ in range(512):
        n = int(math.floor(t.real + 0.5))
        if n != 0:
            t = t - n
            a -= n * c
            b -= n * d
        if (t.real * t.real + t.imag * t.imag) < 1.0 - 1e-14:
            t = -1.0 / t
            na = -c
            nb = -d
            c, d = a, b
            a, b = na, nb
        else:
            break
    return t, a, b, c, d


@njit
def reduce_z(z, tau):
    """Translate z by the lattice Z + Z*tau into the centred cell.

    Returns (z0, m, n, dist, em, en) with z = z0 + m + n*tau,
    |Im z0| <= Im(tau)/2, and em + en*tau (em, en in {-1, 0, 1}) the lattice
    point nearest to z0, at distance dist; (0, 0) wins ties.
    """
    y = z.imag / tau.imag
    x = z.real - y * tau.real
    m = int(math.floor(x + 0.5))
    n = int(math.floor(y + 0.5))
    z0 = z - m - n * tau
    dist = abs(z0)
    bm = 0
    bn = 0
    for em in (-1, 0, 1):
        for en in (-1, 0, 1):
            dw = abs(z0 - em - en * tau)
            if dw < dist:
                dist = dw
                bm = em
                bn = en
    return z0, m, n, dist, bm, bn


@njit
def wz_series(z, tau, q):
    """wp, wp', and the eta1-free part of zeta at reduced (z, tau).

    Requires |Im z| <= Im(tau)/2 and z not too close to the lattice.  The
    returned third value is zeta(z|tau) - eta1(tau)*z; the caller adds the
    quasi-period term.  Fourth value is a truncation-tail estimate.
    """
    # Trigonometric parts through u = exp(+-2*pi*i*z) with |u| <= 1.
    if z.imag >= 0.0:
        u = cmath.exp(2j * _PI * z)
        cot = -1j * (1.0 + u) / (1.0 - u)
    else:
        u = cmath.exp(-2j * _PI * z)
        cot = 1j * (1.0 + u) / (1.0 - u)
    one_m_u = 1.0 - u
    inv_sin2 = -4.0 * u / (one_m_u * one_m_u)  # 1/sin^2(pi z)

    pi2 = _PI * _PI
    wp = pi2 * (-1.0 / 3.0) + pi2 * inv_sin2
    wpp = -2.0 * _PI * pi2 * cot * inv_sin2  # -2 pi^3 cos/sin^3
    zt = _PI * cot

    a1 = cmath.exp(2j * _PI * (tau + z))
    b1 = cmath.exp(2j * _PI * (tau - z))
    ak = 1.0 + 0j
    bk = 1.0 + 0j
    qk = 1.0 + 0j
    s_wp = 0.0 + 0j
    s_wpp = 0.0 + 0j
    s_zt = 0.0 + 0j
    tail = 0.0
    for k in range(1, _KMAX):
        ak = ak * a1
        bk = bk * b1
        qk = qk * q
        inv = 1.0 / (1.0 - qk)
        kf = float(k)
        half = 0.5 * (ak + bk)
        s_wp += kf * (half - qk) * inv  # k q^k (cos(2 pi k z) - 1)/(1-q^k)
        s_wpp += (kf * kf) * (-0.5j) * (ak - bk) * inv
        s_zt += (ak - bk) * inv
        m = abs(ak) + abs(bk) + abs(qk)
        if (kf * kf * m) < 1e-19 and k >= 6:
            tail = kf * kf * m
            break
    wp += -8.0 * pi2 * s_wp
    wpp += 16.0 * _PI * pi2 * s_wpp
    zt += -2j * _PI * s_zt
    return wp, wpp, zt, tail


@njit
def lattice_constants(tau):
    """Reduce tau and carry the lattice constants back through the weight laws.

    Returns (tau_red, q_red, j, eta1_red, eta1, eta2, g2, g3, tail, gamma):
    the reduced point, its nome, j = c*tau + d of the reducing matrix
    gamma = (a, b, c, d), eta1 at tau_red, then eta1, eta2, g2, g3 at tau
    itself and the truncation-tail bound of the Eisenstein series behind them.
    """
    tred, a, b, c, d = reduce_tau(tau)
    qred = cmath.exp(2j * _PI * tred)
    # Eisenstein series E2, E4, E6 at the reduced nome
    e2 = 1.0 + 0j
    e4 = 1.0 + 0j
    e6 = 1.0 + 0j
    qk = 1.0 + 0j
    tail = 0.0
    for k in range(1, _KMAX):
        qk = qk * qred
        f = qk / (1.0 - qk)
        kf = float(k)
        k3 = kf * kf * kf
        e2 -= 24.0 * kf * f
        e4 += 240.0 * k3 * f
        e6 -= 504.0 * k3 * kf * kf * f
        m = 504.0 * k3 * kf * kf * abs(qk)
        if m < 1e-18 and k >= 6:
            tail = 2.0 * m
            break
    pi2 = _PI * _PI
    eta1_r = pi2 / 3.0 * e2
    g2_r = 4.0 * pi2 * pi2 / 3.0 * e4
    g3_r = 8.0 * pi2 * pi2 * pi2 / 27.0 * e6

    j = c * tau + d
    j2 = j * j
    eta1 = eta1_r / j2 + 2j * _PI * c / j
    eta2 = tau * eta1 - 2j * _PI
    g2 = g2_r / (j2 * j2)
    g3 = g3_r / (j2 * j2 * j2)
    return tred, qred, j, eta1_r, eta1, eta2, g2, g3, tail, (a, b, c, d)


@njit
def elliptic_from(z, tau, consts):
    """``elliptic_at`` with its lattice prologue given: consts is
    ``lattice_constants(tau)``, which depends on tau alone."""
    tred, qred, j, eta1_r, eta1, eta2, g2, g3, tail_e, _ = consts
    eta2_r = tred * eta1_r - 2j * _PI
    j2 = j * j

    zr = z / j
    z0, m, n, dist, _, _ = reduce_z(zr, tred)
    if dist < 1e-12:
        nan = complex(math.nan, math.nan)
        return nan, nan, nan, eta1, eta2, g2, g3, dist, math.nan

    wp_r, wpp_r, zt_part, tail = wz_series(z0, tred, qred)
    zeta_r = zt_part + eta1_r * (z0 + m) + eta2_r * n
    wp = wp_r / j2
    wpp = wpp_r / (j2 * j)
    zeta = zeta_r / j

    amp = abs(wp_r) + abs(wpp_r) + abs(zeta_r) + 1.0
    err = (tail + tail_e + 10.0 * _EPS * amp) / max(1.0, abs(j))
    return wp, wpp, zeta, eta1, eta2, g2, g3, dist, err


@njit
def elliptic_at(z, tau):
    """Full evaluation bundle at arbitrary (z, tau), Im tau > 0.

    Returns (wp, wp', zeta, eta1, eta2, g2, g3, dist, err) where dist is the
    reduced-cell distance of z from the lattice and err is a crude absolute
    error estimate (truncation tail + 10 eps amplification).  When
    dist < 1e-12 the series values are returned as NaN; callers must check
    dist before trusting them.
    """
    return elliptic_from(z, tau, lattice_constants(tau))


@njit
def lattice_values(tau):
    """Quasi-periods, invariants and half-period values at tau.

    Returns (eta1, eta2, g2, g3, e1, e2, e3, err).
    """
    tred, qred, j, eta1_r, eta1, eta2, g2, g3, tail_e, _ = lattice_constants(tau)
    j2 = j * j

    e1 = complex(0.0, 0.0)
    e2v = complex(0.0, 0.0)
    e3v = complex(0.0, 0.0)
    tails = 0.0
    for idx in range(3):
        if idx == 0:
            zk = complex(0.5, 0.0)
        elif idx == 1:
            zk = 0.5 * tau
        else:
            zk = 0.5 * (1.0 + tau)
        zr = zk / j
        z0, m, n, dist, _, _ = reduce_z(zr, tred)
        wp_r, wpp_r, zt_part, tail = wz_series(z0, tred, qred)
        tails += tail
        val = wp_r / j2
        if idx == 0:
            e1 = val
        elif idx == 1:
            e2v = val
        else:
            e3v = val

    amp = abs(e1) + abs(e2v) + abs(e3v) + abs(g2) + abs(eta1) + 1.0
    err = tails + tail_e + 10.0 * _EPS * amp
    return eta1, eta2, g2, g3, e1, e2v, e3v, err


@njit
def premodular_from(r, s, tau, consts):
    """``premodular_at`` with its lattice prologue given: consts is
    ``lattice_constants(tau)``, so a caller evaluating many pairs at one tau
    computes it once."""
    alpha = r + s * tau
    wp, wpp, zeta, eta1, eta2, g2, g3, dist, err = elliptic_from(alpha, tau, consts)
    z = zeta - r * eta1 - s * eta2
    z2 = z * z * z - 3.0 * wp * z - wpp
    scale = abs(z) ** 3 + 3.0 * abs(wp) * abs(z) + abs(wpp)
    return z, wp, wpp, z2, g2, g3, eta1, eta2, scale, dist, err, consts


@njit
def premodular_at(r, s, tau):
    """Hecke form and premodular form for torsion parameters (r, s) at tau.

    Returns (Z, wp, wpp, z2, g2, g3, eta1, eta2, scale, dist, err, consts)
    where z2 = Z^3 - 3*wp*Z - wpp, scale = |Z|^3 + 3|wp||Z| + |wpp| (the
    three-term combination's natural magnitude), dist is the reduced-cell
    distance of alpha = r + s*tau from the lattice and consts the
    ``lattice_constants(tau)`` used.  NaN values when dist < 1e-12.
    """
    return premodular_from(r, s, tau, lattice_constants(tau))


# ---------------------------------------------------------------------------
# The batch kernel: NumPy, array at a time, whatever the backend
# ---------------------------------------------------------------------------

# Points per block of ``z2_many``; bounds the kernel's working set.
_BLOCK = 1024


def reduce_tau_many(tau):
    """``reduce_tau`` for an array: (tau_red, a, b, c, d), the reduced points
    and the entries of each reducing matrix.  A point leaves the masked loop
    once it lies in the standard domain, so it takes reduce_tau's steps."""
    t = tau.copy()
    a = np.ones(tau.shape, dtype=np.int64)
    b = np.zeros_like(a)
    c = np.zeros_like(a)
    d = np.ones_like(a)
    live = np.arange(tau.size)
    for _ in range(512):
        if live.size == 0:
            break
        tl = t[live]
        n = np.floor(tl.real + 0.5)
        tl = tl - n
        ni = n.astype(np.int64)
        a[live] -= ni * c[live]
        b[live] -= ni * d[live]
        flip = (tl.real * tl.real + tl.imag * tl.imag) < 1.0 - 1e-14
        tl[flip] = -1.0 / tl[flip]
        t[live] = tl
        live = live[flip]
        a[live], b[live], c[live], d[live] = -c[live], -d[live], a[live], b[live]
    return t, a, b, c, d


def _e2_many(q):
    """E2 at reduced nomes q, summed until every point passes the stop test
    of ``lattice_constants``'s Eisenstein series."""
    e2 = np.ones_like(q)
    qk = np.ones_like(q)
    for k in range(1, _KMAX):
        qk = qk * q
        kf = float(k)
        e2 -= 24.0 * kf * (qk / (1.0 - qk))
        if k >= 6 and np.all(504.0 * kf**5 * np.abs(qk) < 1e-18):
            break
    return e2


def _wz_series_many(z, tau, q):
    """``wz_series`` for arrays: (wp, wp', zeta - eta1*z) at reduced
    (z, tau), summed until every point passes wz_series's stop test."""
    up = z.imag >= 0.0
    u = np.exp(2j * _PI * np.where(up, z, -z))
    one_m_u = 1.0 - u
    cot = 1j * (1.0 + u) / one_m_u
    cot = np.where(up, -cot, cot)
    inv_sin2 = -4.0 * u / (one_m_u * one_m_u)

    pi2 = _PI * _PI
    wp = pi2 * (-1.0 / 3.0) + pi2 * inv_sin2
    wpp = -2.0 * _PI * pi2 * cot * inv_sin2
    zt = _PI * cot

    a1 = np.exp(2j * _PI * (tau + z))
    b1 = np.exp(2j * _PI * (tau - z))
    ak = np.ones_like(z)
    bk = np.ones_like(z)
    qk = np.ones_like(z)
    s_wp = np.zeros_like(z)
    s_wpp = np.zeros_like(z)
    s_zt = np.zeros_like(z)
    for k in range(1, _KMAX):
        ak = ak * a1
        bk = bk * b1
        qk = qk * q
        inv = 1.0 / (1.0 - qk)
        kf = float(k)
        diff = ak - bk
        s_wp += kf * (0.5 * (ak + bk) - qk) * inv
        s_wpp += (kf * kf) * (-0.5j) * diff * inv
        s_zt += diff * inv
        if k >= 6:
            m = np.abs(ak) + np.abs(bk) + np.abs(qk)
            if np.all(kf * kf * m < 1e-19):
                break
    wp += -8.0 * pi2 * s_wp
    wpp += 16.0 * _PI * pi2 * s_wpp
    zt += -2j * _PI * s_zt
    return wp, wpp, zt


def _z2_block(r, s, tau, reduced):
    """(Z2, scale) of ``premodular_at`` at each point of a reduced block."""
    tred, _, _, c, d = reduced
    qred = np.exp(2j * _PI * tred)
    eta1_r = _PI * _PI / 3.0 * _e2_many(qred)
    j = c * tau + d
    j2 = j * j
    eta1 = eta1_r / j2 + 2j * _PI * c / j
    eta2 = tau * eta1 - 2j * _PI
    eta2_r = tred * eta1_r - 2j * _PI

    # reduce_z of alpha/j; after the tau reduction a point within 1e-12 of
    # the lattice can only be near the cell's centre 0, so |z0| is the
    # distance reduce_z's 3x3 search would find below that threshold.
    zr = (r + s * tau) / j
    y = zr.imag / tred.imag
    x = zr.real - y * tred.real
    m = np.floor(x + 0.5)
    n = np.floor(y + 0.5)
    z0 = zr - m - n * tred
    hit = np.abs(z0) < 1e-12

    wp_r, wpp_r, zt_part = _wz_series_many(z0, tred, qred)
    zeta_r = zt_part + eta1_r * (z0 + m) + eta2_r * n
    wp = wp_r / j2
    wpp = wpp_r / (j2 * j)
    z = zeta_r / j - r * eta1 - s * eta2
    z2 = z * z * z - 3.0 * wp * z - wpp
    az = np.abs(z)
    scale = az**3 + 3.0 * np.abs(wp) * az + np.abs(wpp)
    z2[hit] = complex(math.nan, math.nan)
    scale[hit] = math.nan
    return z2, scale


def z2_many(r, s, taus, reduced=None):
    """Z2 and its scale, as ``premodular_at`` returns them, at every tau of
    an array: two new arrays (NaN at lattice hits).

    r and s are both scalars, shared by every point, or both arrays with one
    value per point, so one call can serve many pairs; ``reduced`` is a
    caller's ``reduce_tau_many(taus)``.  NumPy code under either backend.  A
    point's result depends on its own (r, s, tau) alone: it is the same in
    any batch, and the same whether r and s come as scalars or as arrays.
    """
    n = taus.shape[0]
    per_point = isinstance(r, np.ndarray)
    reduced = reduce_tau_many(taus) if reduced is None else reduced
    vals = np.empty(n, dtype=np.complex128)
    scales = np.empty(n, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = lo + _BLOCK
            rb, sb = (r[lo:hi], s[lo:hi]) if per_point else (r, s)
            block = [x[lo:hi] for x in reduced]
            vals[lo:hi], scales[lo:hi] = _z2_block(rb, sb, taus[lo:hi], block)
    return vals, scales


def warmup():
    """Force JIT compilation of every scalar kernel (no-op without numba)."""
    tau = complex(0.1, 1.3)
    reduce_tau(tau)
    reduce_z(complex(0.3, 0.2), tau)
    lattice_constants(tau)
    elliptic_at(complex(0.3, 0.2), tau)
    lattice_values(tau)
    premodular_at(complex(0.3, 0.0), complex(0.2, 0.0), tau)
    premodular_from(complex(0.3, 0.0), complex(0.2, 0.0), tau, lattice_constants(tau))
