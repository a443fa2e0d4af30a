"""Independent truncated-lattice-sum oracles.

Brute-force evaluation of wp, zeta and the Hecke form straight from their
lattice definitions, with no Fourier series, no argument reduction and no
modular transformations -- deliberately sharing nothing with the production
path.  Symmetric box sums over |m|, |n| <= M converge like C/M^2 + D/M^3
(the odd tail terms cancel in pairs); the tail is estimated by evaluating
three box sizes and eliminating those two powers, leaving O(M^-4).  Sums at
one tau may share its three grids (``box_grids``) and, for the Hecke form,
its quasi-periods: the same operations run in the same order, so the values
are the ones each sum gets alone.
"""

from __future__ import annotations

import numpy as np

_BOXES = (50, 100, 200)


def _box_grid(M: int, tau: complex):
    ms, ns = np.meshgrid(
        np.arange(-M, M + 1, dtype=np.float64),
        np.arange(-M, M + 1, dtype=np.float64),
        indexing="ij",
    )
    w = ms + ns * tau
    mask = (ms != 0) | (ns != 0)
    return w[mask]


def box_grids(tau: complex) -> list[np.ndarray]:
    """The grids of every box size at tau, for sums at one tau to share."""
    return [_box_grid(M, tau) for M in _BOXES]


def _boxes(tau: complex, grids):
    """The grids of every box size at tau: ``grids`` when given, else each
    built in turn."""
    return (_box_grid(M, tau) for M in _BOXES) if grids is None else grids


def _extrapolate(values: list[complex]) -> complex:
    """Eliminate the 1/M^2 and 1/M^3 tail terms from three box sums."""
    m = np.array(_BOXES, dtype=np.float64)
    A = np.vstack([np.ones(3), m**-2.0, m**-3.0]).T
    coef = np.linalg.solve(A, np.array(values, dtype=np.complex128))
    return complex(coef[0])


def wp_lattice_sum(z: complex, tau: complex, grids=None) -> complex:
    """wp(z|tau) = 1/z^2 + sum' [1/(z-w)^2 - 1/w^2]."""
    vals = []
    for w in _boxes(tau, grids):
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


def zeta_lattice_sum(z: complex, tau: complex, grids=None) -> complex:
    """zeta(z|tau) = 1/z + sum' [1/(z-w) + 1/w + z/w^2]."""
    vals = []
    for w in _boxes(tau, grids):
        s = np.sum(1.0 / (z - w) + 1.0 / w + z / w**2)
        vals.append(1.0 / z + s)
    return _extrapolate(vals)


def quasi_periods_lattice_sum(tau: complex, grids=None) -> tuple[complex, complex]:
    """eta1 = 2 zeta(1/2), eta2 = 2 zeta(tau/2), straight from the sums."""
    return (
        2.0 * zeta_lattice_sum(0.5 + 0j, tau, grids),
        2.0 * zeta_lattice_sum(0.5 * tau, tau, grids),
    )


def invariants_lattice_sum(tau: complex) -> tuple[complex, complex]:
    """g2 = 60 sum' w^-4, g3 = 140 sum' w^-6."""
    g2_vals = []
    g3_vals = []
    for M in _BOXES:
        w = _box_grid(M, tau)
        g2_vals.append(60.0 * np.sum(w**-4.0))
        g3_vals.append(140.0 * np.sum(w**-6.0))
    return _extrapolate(g2_vals), _extrapolate(g3_vals)


def hecke_lattice_sum(r: float, s: float, tau: complex, grids=None, eta=None) -> complex:
    """Z_{r,s}(tau) = zeta(r + s*tau) - r*eta1 - s*eta2, all by lattice sums;
    ``eta`` is (eta1, eta2) when already summed."""
    eta1, eta2 = quasi_periods_lattice_sum(tau, grids) if eta is None else eta
    return zeta_lattice_sum(r + s * tau, tau, grids) - r * eta1 - s * eta2


def z2_lattice_sum(r: float, s: float, tau: complex) -> complex:
    """Z2_{r,s} assembled entirely from lattice sums."""
    alpha = r + s * tau
    zv = hecke_lattice_sum(r, s, tau)
    wp = wp_lattice_sum(alpha, tau)
    wpp = wp_prime_lattice_sum(alpha, tau)
    return zv**3 - 3.0 * wp * zv - wpp
