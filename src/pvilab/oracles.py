"""Independent truncated-lattice-sum oracles.

Brute-force evaluation of wp, zeta and the Hecke form straight from their
lattice definitions, with no Fourier series, no argument reduction and no
modular transformations -- deliberately sharing nothing with the production
path.  Symmetric box sums over |m|, |n| <= M converge like C/M^2 + D/M^3
(the odd tail terms cancel in pairs); the tail is estimated by evaluating
three box sizes and eliminating those two powers, leaving O(M^-4).  The
three grids of the last tau and its quasi-periods are memoised, so sums at
one tau build them once; the same operations run in the same order, so
every value is the one its sum gets alone.
"""

from __future__ import annotations

import functools

import numpy as np

_BOXES = (50, 100, 200)


@functools.lru_cache(maxsize=len(_BOXES))
def _box_grid(M: int, tau: complex) -> np.ndarray:
    """The lattice points m + n tau, 0 < max(|m|, |n|) <= M; memoised for
    the three boxes of the last tau, read-only."""
    ms, ns = np.meshgrid(
        np.arange(-M, M + 1, dtype=np.float64),
        np.arange(-M, M + 1, dtype=np.float64),
        indexing="ij",
    )
    w = ms + ns * tau
    mask = (ms != 0) | (ns != 0)
    w = w[mask]
    w.flags.writeable = False
    return w


def _extrapolate(values: list[complex]) -> complex:
    """Eliminate the 1/M^2 and 1/M^3 tail terms from three box sums."""
    m = np.array(_BOXES, dtype=np.float64)
    A = np.vstack([np.ones(3), m**-2.0, m**-3.0]).T
    coef = np.linalg.solve(A, np.array(values, dtype=np.complex128))
    return complex(coef[0])


def wp_lattice_sum(z: complex, tau: complex) -> complex:
    """wp(z|tau) = 1/z^2 + sum' [1/(z-w)^2 - 1/w^2]."""
    vals = []
    for M in _BOXES:
        w = _box_grid(M, tau)
        s = np.sum(1.0 / (z - w) ** 2 - 1.0 / w**2)
        vals.append(1.0 / z**2 + s)
    return _extrapolate(vals)


def wp_prime_lattice_sum(z: complex, tau: complex) -> complex:
    """wp'(z|tau) = -2 sum 1/(z-w)^3 over the full lattice."""
    vals = []
    for M in _BOXES:
        w = _box_grid(M, tau)
        s = np.sum(1.0 / (z - w) ** 3)
        vals.append(-2.0 / z**3 - 2.0 * s)
    return _extrapolate(vals)


def zeta_lattice_sum(z: complex, tau: complex) -> complex:
    """zeta(z|tau) = 1/z + sum' [1/(z-w) + 1/w + z/w^2]."""
    vals = []
    for M in _BOXES:
        w = _box_grid(M, tau)
        s = np.sum(1.0 / (z - w) + 1.0 / w + z / w**2)
        vals.append(1.0 / z + s)
    return _extrapolate(vals)


@functools.lru_cache(maxsize=1)
def quasi_periods_lattice_sum(tau: complex) -> tuple[complex, complex]:
    """eta1 = 2 zeta(1/2), eta2 = 2 zeta(tau/2), straight from the sums;
    memoised for the last tau."""
    return 2.0 * zeta_lattice_sum(0.5 + 0j, tau), 2.0 * zeta_lattice_sum(0.5 * tau, tau)


def invariants_lattice_sum(tau: complex) -> tuple[complex, complex]:
    """g2 = 60 sum' w^-4, g3 = 140 sum' w^-6."""
    g2_vals = []
    g3_vals = []
    for M in _BOXES:
        w = _box_grid(M, tau)
        g2_vals.append(60.0 * np.sum(w**-4.0))
        g3_vals.append(140.0 * np.sum(w**-6.0))
    return _extrapolate(g2_vals), _extrapolate(g3_vals)


def hecke_lattice_sum(r: float, s: float, tau: complex) -> complex:
    """Z_{r,s}(tau) = zeta(r + s*tau) - r*eta1 - s*eta2, all by lattice sums."""
    eta1, eta2 = quasi_periods_lattice_sum(tau)
    return zeta_lattice_sum(r + s * tau, tau) - r * eta1 - s * eta2


def z2_lattice_sum(r: float, s: float, tau: complex) -> complex:
    """Z2_{r,s} assembled entirely from lattice sums."""
    alpha = r + s * tau
    zv = hecke_lattice_sum(r, s, tau)
    wp = wp_lattice_sum(alpha, tau)
    wpp = wp_prime_lattice_sum(alpha, tau)
    return zv**3 - 3.0 * wp * zv - wpp
