"""High-precision mpmath oracles shared by the tests.

Each evaluates at tau itself, with no reduction of tau, so it shares nothing
with the library's frames.

Z2 from theta_1: with q = exp(pi*i*tau), u = pi*(r + s*tau) and
L_k = theta_1^(k)(u)/theta_1(u),

    Z   = pi*L1 + 2*pi*i*s,
    wp  = -eta1 - pi^2 (L2 - L1^2),
    wp' = -pi^3 (L3 - 3 L1 L2 + 2 L1^3),
    eta1 = -pi^2 theta_1'''(0) / (3 theta_1'(0)),

and Z2 = Z^3 - 3 wp Z - wp', at 50 digits; dZ2/dtau through
``mpmath.diff``.  The half-period values e1, e2, e3 from theta constants
(DLMF 23.6.2-4), at 30 digits.  wp(p_{r,s}) from the same theta_1
quantities, with g2 = 2 (e1^2 + e2^2 + e3^2), at 50 digits:

    wp(p) = wp + (3 wp' Z^2 + (12 wp^2 - g2) Z + 3 wp wp') / (2 Z2).

mpmath is imported on first use, so a test module that imports this one
collects without it; a test that calls an oracle skips first with
``pytest.importorskip("mpmath")``.
"""

from fractions import Fraction


def _hecke_mp(r, s, tau):
    """(Z, wp, wp') of (r, s) at tau from theta_1 at mpmath's working
    precision (module docstring); tau is an mpc."""
    import mpmath

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
    return z, wp, wpp


def _z2_mp(r, s, tau):
    """Z2_{r,s}(tau) from ``_hecke_mp``; tau is an mpc."""
    z, wp, wpp = _hecke_mp(r, s, tau)
    return z**3 - 3 * wp * z - wpp


def _half_periods_mp(tau):
    """e1, e2, e3 at tau (an mpc) from theta constants, DLMF 23.6.2-4."""
    import mpmath

    q = mpmath.exp(1j * mpmath.pi * tau)
    th2 = mpmath.jtheta(2, 0, q) ** 4
    th4 = mpmath.jtheta(4, 0, q) ** 4
    c = mpmath.pi**2 / 3
    return c * (th2 + 2 * th4), -c * (2 * th2 + th4), c * (th2 - th4)


def z2_theta(r, s, tau) -> complex:
    """The 50-digit oracle's Z2_{r,s}(tau)."""
    import mpmath

    with mpmath.workdps(50):
        return complex(_z2_mp(r, s, mpmath.mpc(tau.real, tau.imag)))


def dz2_theta(r, s, tau) -> complex:
    """The 50-digit oracle's dZ2/dtau, by ``mpmath.diff``."""
    import mpmath

    with mpmath.workdps(50):
        tau = mpmath.mpc(tau.real, tau.imag)
        return complex(mpmath.diff(lambda t: _z2_mp(r, s, t), tau))


def half_period_values_mp(tau) -> list[complex]:
    """e1, e2, e3 at tau itself, from 30-digit theta constants at
    q = exp(i*pi*tau) (DLMF 23.6.2-4), with no reduction of tau."""
    import mpmath

    with mpmath.workdps(30):
        return [complex(v) for v in _half_periods_mp(mpmath.mpc(tau.real, tau.imag))]


def wp_of_p_theta(r, s, tau) -> complex:
    """The 50-digit oracle's wp(p_{r,s}(tau)|tau) (module docstring)."""
    import mpmath

    with mpmath.workdps(50):
        tau = mpmath.mpc(tau.real, tau.imag)
        z, wp, wpp = _hecke_mp(r, s, tau)
        g2 = 2 * sum(e * e for e in _half_periods_mp(tau))
        z2 = z**3 - 3 * wp * z - wpp
        num = 3 * wpp * z * z + (12 * wp * wp - g2) * z + 3 * wp * wpp
        return complex(wp + num / (2 * z2))
