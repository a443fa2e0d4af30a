"""Closed-form solution values: wp(p_{r,s}(tau)|tau) and lambda_{r,s}(t),
whose ``is_pole`` flag is the one pole decision.

wp(p) = wp(alpha) + [3 wp'(alpha) Z^2 + (12 wp(alpha)^2 - g2) Z
                       + 3 wp(alpha) wp'(alpha)] / (2 Z2),
with alpha = r + s*tau, Z the Hecke form and Z2 its weight-3 cube
combination.  The map to the t-plane, t from ``LatticeData.t``, is

    t = (e3 - e1)/(e2 - e1),    lambda = (wp(p) - e1)/(e2 - e1).

Poles of lambda are exactly the tau where alpha hits the lattice or Z2
vanishes, which ``lambda_rs`` flags as ``is_pole`` by
``_kernels.LATTICE_HIT`` and Z2_ZERO_RTOL.  Near a lattice hit the direct
formula cancels catastrophically and evaluation switches to a Laurent
expansion in the small shifted argument whose 1/alpha cancellation is done
symbolically.  Both tests read alpha's lattice distance in the reduced
frame, as the kernels do, so all three agree near a cusp too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .elliptic import ModuliPoint, _as_point, invariants_g
from .errors import Degenerate, NewtonStall
from .modular import branch_copy
from .premodular import TorsionPair, z2_with_derivative

# |z0| of ``_lattice_shift`` below which the direct formula for wp(p) is
# abandoned for the Laurent expansion.  The direct path loses ~eps/|z0|^3
# through three nested cancellations (numerator, denominator, final
# subtraction) while the expansion truncates at O(z0^4) relative; the error
# curves cross near 1e-3, leaving [8e-4, 6e-3] as the annulus where both
# paths are good to 1e-6 relative.
EXPANSION_SWITCH = 2e-3
# |Z2| below this multiple of its natural scale counts as a zero of the
# denominator (a pole of lambda).
Z2_ZERO_RTOL = 1e-12
# Newton steps allowed before a zero search is declared stalled.
_NEWTON_MAX_ITER = 50

_INF = complex(math.inf, 0.0)


def _is_inf(x: Optional[complex]) -> bool:
    return x is not None and (math.isinf(x.real) or math.isinf(x.imag))


@dataclass(frozen=True)
class SolutionValue:
    """lambda_{r,s} at one tau, with t, wp(p), alpha and the branch copy
    used to compute it and the ``est_error`` of its lattice values."""

    t: complex
    wp_p: complex
    lam: complex
    is_pole: bool
    branch_note: str
    alpha: complex
    est_error: float


def _lattice_shift(pair: TorsionPair, m: ModuliPoint):
    """(r~, s~, alpha~, |z0|), alpha~ = r~ + s~*tau = j*z0 the representative
    of alpha = r + s*tau nearest 0: the kernels' alpha/j = z0 + k + l*tau_red
    on the frame, gamma = (a, b, c, d), with j*(k + l*tau_red) mapped back to
    (k*d + l*b) + (k*c + l*a)*tau."""
    r, s = pair.as_complex()
    tred, _, j, *_, (a, b, c, d) = m.frame
    z0, k, l = _kernels.reduce_z((r + s * m.tau) / j, tred)
    return r - (k * d + l * b), s - (k * c + l * a), j * z0, abs(z0)


def _wp_of_p_direct(pair: TorsionPair, m: ModuliPoint) -> complex:
    r, s = pair.as_complex()
    z, wp, wpp, z2v, scale, _ = _kernels.premodular_at(r, s, m.tau, m.frame)
    g2 = m.frame[6]
    if abs(z2v) <= Z2_ZERO_RTOL * scale:
        return _INF
    num = 3.0 * wpp * z * z + (12.0 * wp * wp - g2) * z + 3.0 * wp * wpp
    return wp + num / (2.0 * z2v)


def _wp_of_p_expansion(m: ModuliPoint, shift) -> complex:
    """Laurent evaluation for alpha within EXPANSION_SWITCH of the lattice,
    from the pair's ``_lattice_shift`` at m.

    With a = alpha~ and c0 = r~ eta1 + s~ eta2 (everything at the current
    tau), the symbolically cancelled series reads

        wp(p) = -c0/(3a) - c0^2/9 - (g2/(9 c0) + c0^3/27) a
                + (g2/20 + 2 g2/135 + g3/(6 c0^2) - c0^4/81) a^2 + O(a^3).
    """
    rt, st, a, dist = shift
    _, _, _, _, eta1, eta2, g2, g3, _, _ = m.frame
    c0 = rt * eta1 + st * eta2
    if abs(c0) < 1e-10:
        raise Degenerate(
            "vanishing c0 in the lattice expansion: the pair degenerates"
        )
    if dist < _kernels.LATTICE_HIT:
        return _INF
    return (
        -c0 / (3.0 * a)
        - c0 * c0 / 9.0
        - (g2 / (9.0 * c0) + c0**3 / 27.0) * a
        + (g2 / 20.0 + 2.0 * g2 / 135.0 + g3 / (6.0 * c0 * c0) - c0**4 / 81.0) * a * a
    )


def wp_of_p(p: TorsionPair, m) -> complex:
    """wp(p_{r,s}(tau)|tau); complex infinity when tau is a pole of lambda."""
    if p.degenerate:
        raise Degenerate(f"(r, s) = {p.r, p.s} is degenerate")
    m = _as_point(m)
    shift = _lattice_shift(p, m)
    if shift[3] < EXPANSION_SWITCH:
        return _wp_of_p_expansion(m, shift)
    return _wp_of_p_direct(p, m)


def lambda_rs(p: TorsionPair, m) -> SolutionValue:
    """Full solution value at tau: t, wp(p), lambda and pole flag."""
    m = _as_point(m)
    lat = invariants_g(m)
    wpp_val = wp_of_p(p, m)
    if _is_inf(wpp_val):
        lam = _INF
        pole = True
    else:
        lam = (wpp_val - lat.e1) / (lat.e2 - lat.e1)
        pole = False
    r, s = p.as_complex()
    return SolutionValue(
        t=lat.t,
        wp_p=wpp_val,
        lam=lam,
        is_pole=pole,
        branch_note=branch_copy(m),
        alpha=r + s * m.tau,
        est_error=lat.est_error,
    )


def _newton_z2(pair: TorsionPair, tau0: complex):
    """Newton refinement of a zero of Z2 in tau, with the closed-form
    derivative of ``z2_with_derivative`` (one kernel call per step).

    Returns (tau, |Z2|, |Z2'|, iterations, scale), all at the returned tau;
    scale is that of ``z2_stable``.
    """
    tau = tau0
    for it in range(1, _NEWTON_MAX_ITER + 1):
        f, scale, fp = z2_with_derivative(pair, ModuliPoint.from_tau(tau))
        if abs(f) <= 1e-13 * scale:
            return tau, abs(f), abs(fp), it, scale
        if fp == 0:
            break
        step = f / fp
        tau = tau - step
        if tau.imag <= 1e-6:
            break
        if abs(step) < 1e-14 * max(1.0, abs(tau)):
            f2, scale2, fp2 = z2_with_derivative(pair, ModuliPoint.from_tau(tau))
            return tau, abs(f2), abs(fp2), it, scale2
    f, scale, fp = z2_with_derivative(pair, ModuliPoint.from_tau(tau))
    if abs(f) <= 1e-10 * scale:
        return tau, abs(f), abs(fp), _NEWTON_MAX_ITER, scale
    raise NewtonStall(
        f"Newton failed to converge for {pair} from {tau0}: |Z2| = {abs(f):.3e}"
    )
