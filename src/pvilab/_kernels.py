"""Numeric kernels: Fourier (q-) series for Weierstrass functions.

Two paths share one evaluation strategy.  The scalar kernels
(``premodular_at``, ``lattice_values`` and the helpers they call) are plain
Python on complex floats; Newton steps and ``lambda_rs`` use them.  Every
scalar value of wp runs one path: the tau-only prologue
``lattice_constants`` followed by the per-argument part ``elliptic_from``
(steps 2-4 below).  ``elliptic_at`` is that pair at one z,
``lattice_values`` takes e1, e2, e3 from it at the three half-periods on
one prologue, and ``premodular_at`` builds Z and Z2 on it.  The batch
kernel ``z2_many`` is NumPy code: it runs the same steps on arrays of tau,
in blocks of at most ``_BLOCK`` points, with r and s given per point.  Each
point leaves ``reduce_tau_many`` where ``reduce_tau`` stops.  A block's
series are not summed term by term: the powers of its three bases fill the
rows k of one table, one multiply per row, every term of both series is a
table operation, and the rows are added in k order, each series up to a
row read off a bound: the first k >= 6 at which the scalar kernel's stop
test passes with rho**k in place of every power's modulus, rho the block's
largest base modulus raised past rounding.  No point of the block passes
its stop test later, so a call costs a few dozen NumPy operations whatever
its size, and every value is the one the row-by-row loop gives, bit for
bit.  Past its stop test a term is below 1e-19 and falls geometrically
with the ones after it, far under half an ulp of the sums it joins, so a
point's result does not depend on what shares its batch.  The strategy for
a point tau in the upper half-plane:

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

_PI = math.pi
_EPS = 2.220446049250313e-16

# Series iteration cap; after fundamental-domain reduction ~20 terms reach
# double precision, the cap only matters for pathological inputs.
_KMAX = 400

# The stop rule of both series: wp, wp' and zeta stop at the first k with
# k*k*(|a_k| + |b_k| + |q_k|) < _WZ_BELOW, E2 at the first with
# 504*k**5*|q_k| < _E2_BELOW, neither before _MIN_TERMS terms.
_WZ_BELOW = 1e-19
_E2_BELOW = 1e-18
_MIN_TERMS = 6


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
        if (kf * kf * m) < _WZ_BELOW and k >= _MIN_TERMS:
            tail = kf * kf * m
            break
    wp += -8.0 * pi2 * s_wp
    wpp += 16.0 * _PI * pi2 * s_wpp
    zt += -2j * _PI * s_zt
    return wp, wpp, zt, tail


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
        if m < _E2_BELOW and k >= _MIN_TERMS:
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


def elliptic_from(z, tau, consts):
    """``elliptic_at`` with its lattice prologue given: consts is
    ``lattice_constants(tau)``, which depends on tau alone.  Slot 8 of the
    bundle is the ``wz_series`` tail, which ``lattice_values`` sums into its
    err."""
    tred, qred, j, eta1_r, eta1, eta2, g2, g3, _, _ = consts
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
    return wp, wpp, zeta, eta1, eta2, g2, g3, dist, tail


def elliptic_at(z, tau):
    """Full evaluation bundle at arbitrary (z, tau), Im tau > 0.

    Returns (wp, wp', zeta, eta1, eta2, g2, g3, dist, tail) where dist is the
    reduced-cell distance of z from the lattice and tail the truncation tail
    of ``wz_series`` at the reduced argument.  When dist < 1e-12 the series
    values (and tail) are NaN; callers must check dist before trusting them.
    """
    return elliptic_from(z, tau, lattice_constants(tau))


def lattice_values(tau):
    """Quasi-periods, invariants and half-period values at tau.

    Returns (eta1, eta2, g2, g3, e1, e2, e3, err): e1, e2, e3 are wp at the
    half-periods 1/2, tau/2, (1 + tau)/2 from ``elliptic_from`` on one
    ``lattice_constants(tau)``, and err sums the three series tails, the
    Eisenstein tail and a 10 eps amplification term.
    """
    consts = lattice_constants(tau)
    _, _, _, _, eta1, eta2, g2, g3, tail_e, _ = consts
    e1, _, _, _, _, _, _, _, t1 = elliptic_from(complex(0.5, 0.0), tau, consts)
    e2, _, _, _, _, _, _, _, t2 = elliptic_from(0.5 * tau, tau, consts)
    e3, _, _, _, _, _, _, _, t3 = elliptic_from(0.5 * (1.0 + tau), tau, consts)
    amp = abs(e1) + abs(e2) + abs(e3) + abs(g2) + abs(eta1) + 1.0
    err = t1 + t2 + t3 + tail_e + 10.0 * _EPS * amp
    return eta1, eta2, g2, g3, e1, e2, e3, err


def premodular_at(r, s, tau):
    """Hecke form and premodular form for torsion parameters (r, s) at tau.

    Returns (Z, wp, wpp, z2, g2, g3, eta1, eta2, scale, dist, consts)
    where z2 = Z^3 - 3*wp*Z - wpp, scale = |Z|^3 + 3|wp||Z| + |wpp| (the
    three-term combination's natural magnitude), dist is the reduced-cell
    distance of alpha = r + s*tau from the lattice and consts the
    ``lattice_constants(tau)`` used.  NaN values when dist < 1e-12.
    """
    consts = lattice_constants(tau)
    wp, wpp, zeta, eta1, eta2, g2, g3, dist, _ = elliptic_from(r + s * tau, tau, consts)
    z = zeta - r * eta1 - s * eta2
    z2 = z * z * z - 3.0 * wp * z - wpp
    scale = abs(z) ** 3 + 3.0 * abs(wp) * abs(z) + abs(wpp)
    return z, wp, wpp, z2, g2, g3, eta1, eta2, scale, dist, consts


# ---------------------------------------------------------------------------
# The batch kernel: NumPy, array at a time
# ---------------------------------------------------------------------------

# Points per block of ``z2_many``; bounds the kernel's working set, whose
# largest part is one table of K rows by 6 * _BLOCK complex values.
_BLOCK = 512

# Per-row constants of the series, k = 1 .. _KMAX - 1, formed with Python
# floats exactly as the scalar kernels form them: the wp weight k, the wp'
# weight k*k*(-1/2)i and the E2 weight -24k (E2's terms are added negated).
_KS = [float(k) for k in range(1, _KMAX)]
_W_WP = np.array([complex(k) for k in _KS])[:, None]
_W_WPP = np.array([(k * k) * (-0.5j) for k in _KS])[:, None]
_W_E2 = np.array([complex(-24.0 * k) for k in _KS])[:, None]
# Row 0 of the term table: the starts of the wp, wp', zeta and E2 sums.
_SUM_START = np.array([0.0, 0.0, 0.0, 1.0])[:, None]


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


def _first_row(weight, rho, below):
    """First k >= _MIN_TERMS at which weight(k) * rho**k < below; _KMAX - 1
    if none comes, or rho is NaN or at least 1."""
    if rho < 1.0:
        for k in range(_MIN_TERMS, _KMAX - 1):
            if weight(k) * rho**k < below:
                return k
    return _KMAX - 1


def _stop_rows(base):
    """The stop rows (k_wz, k_e2) of a block's two series from its (3, n)
    bases a1, b1, q: the scalar stop tests with rho**k in place of the
    powers' moduli, 3 rho**k for |a_k| + |b_k| + |q_k|, rho the largest
    modulus of the bases and, for E2, of the q row.

    Each rho is raised by 1e-12 of itself, so rho**k bounds the moduli of
    the rounded running products for every k < _KMAX: no point of the block
    passes its stop test after the row returned.  For reduced bases, all of
    modulus at most exp(-pi*sqrt(3)/2), that row is at most one past the
    first at which every point passes.
    """
    mod = np.abs(base)
    rho, rho_q = (float(x) * (1.0 + 1e-12) for x in (mod.max(), mod[2].max()))
    return (
        _first_row(lambda k: 3.0 * k * k, rho, _WZ_BELOW),
        _first_row(lambda k: 504.0 * k**5, rho_q, _E2_BELOW),
    )


def _series_many(z, tau, q):
    """``wz_series`` and E2 of ``lattice_constants`` for arrays: (wp, wp',
    zeta - eta1*z, E2) at reduced (z, tau) and nome q.

    Both series come from one (6, K + 1, n) table: slots 0-2 of row k hold
    the running products a_k, b_k, q_k, row k - 1 times the bases, one
    multiply per row up to the larger stop row K of ``_stop_rows``, so every
    entry is the scalar kernels' running product.  Those power rows are
    turned into term rows in place, by table operations with the operands
    and order of the scalar loops, and the term rows are added in k order,
    so each sum is the one the scalar loop forms.  E2's terms are negated
    and added, which rounds exactly as subtracting them.
    """
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

    # A one-point block gets a second, equal column, so that no table
    # operation or sum runs along k: NumPy's strided loops round complex
    # products unlike the contiguous ones the loop form's arrays ran, and
    # its sums along a contiguous axis are pairwise.
    n = q.shape[0]
    base = np.empty((3, n), dtype=np.complex128)
    np.exp(2j * _PI * (tau + z), out=base[0])
    np.exp(2j * _PI * (tau - z), out=base[1])
    base[2] = q
    base = np.repeat(base, 2, axis=1) if n == 1 else base
    k_wz, k_e2 = _stop_rows(base)
    rows = max(k_wz, k_e2)
    tab = np.empty((6, rows + 1, base.shape[1]), dtype=np.complex128)
    tab[:3, 0] = 1.0
    for k in range(1, rows + 1):
        np.multiply(tab[:3, k - 1], base, out=tab[:3, k])

    # rows 1..rows of the slots: a_k, b_k, q_k become the wp, wp', zeta
    # terms, slot 3 the negated E2 term, slot 4 1/(1 - q_k), slot 5 a_k - b_k
    t_wp, t_wpp, t_zt, t_e2, inv, diff = tab[:, 1 : rows + 1]
    ak, bk, qk = t_wp[:k_wz], t_wpp[:k_wz], t_zt
    np.subtract(1.0, qk, out=inv)
    np.divide(qk[:k_e2], inv[:k_e2], out=t_e2[:k_e2])
    np.multiply(_W_E2[:k_e2], t_e2[:k_e2], out=t_e2[:k_e2])
    inv, diff = inv[:k_wz], diff[:k_wz]
    np.divide(1.0, inv, out=inv)
    np.subtract(ak, bk, out=diff)
    np.add(ak, bk, out=ak)
    np.multiply(0.5, ak, out=ak)
    np.subtract(ak, qk[:k_wz], out=ak)
    np.multiply(_W_WP[:k_wz], ak, out=ak)
    np.multiply(ak, inv, out=ak)
    np.multiply(_W_WPP[:k_wz], diff, out=bk)
    np.multiply(bk, inv, out=bk)
    np.multiply(diff, inv, out=qk[:k_wz])

    # row 0 holds the sums' starts and a series' rows past its stop add 0;
    # with the points as the inner axis, NumPy reduces along k by adding
    # whole rows in k order, as the loop form did
    tab[:4, 0] = _SUM_START
    tab[:3, k_wz + 1 :] = 0.0
    tab[3, k_e2 + 1 :] = 0.0
    s_wp, s_wpp, s_zt, e2 = np.add.reduce(tab[:4, : rows + 1], axis=1)[:, :n]
    wp += -8.0 * pi2 * s_wp
    wpp += 16.0 * _PI * pi2 * s_wpp
    zt += -2j * _PI * s_zt
    return wp, wpp, zt, e2


def _z2_block(r, s, tau, reduced):
    """(Z2, scale) of ``premodular_at`` at each point of a reduced block: the
    scalar path's steps on arrays, with wp, wp', zeta and E2 summed from one
    table of powers and terms (``_series_many``)."""
    tred, _, _, c, d = reduced
    qred = np.exp(2j * _PI * tred)
    j = c * tau + d
    j2 = j * j

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

    wp_r, wpp_r, zt_part, e2 = _series_many(z0, tred, qred)
    eta1_r = _PI * _PI / 3.0 * e2
    eta1 = eta1_r / j2 + 2j * _PI * c / j
    eta2 = tau * eta1 - 2j * _PI
    eta2_r = tred * eta1_r - 2j * _PI
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


def z2_many(r, s, taus, reduced):
    """Z2 and its scale, as ``premodular_at`` returns them, at every tau of
    an array: two new arrays (NaN at lattice hits).

    r and s are arrays with one value per point, so one call can serve many
    pairs; ``reduced`` is the caller's ``reduce_tau_many(taus)``.  A point's
    result depends on its own (r, s, tau) alone: it is the same in any
    batch.
    """
    n = taus.shape[0]
    vals = np.empty(n, dtype=np.complex128)
    scales = np.empty(n, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = lo + _BLOCK
            block = [x[lo:hi] for x in reduced]
            vals[lo:hi], scales[lo:hi] = _z2_block(r[lo:hi], s[lo:hi], taus[lo:hi], block)
    return vals, scales


def backend_name() -> str:
    """The kernels' label in benchmark records: always "numpy", the one
    path there is.  Its only caller is ``perfbench/run.py``."""
    return "numpy"


def warmup():
    """Nothing to prepare: the kernels are ready on import.  Its only
    caller is ``perfbench/run.py``, which calls it before timing."""
