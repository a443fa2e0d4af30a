"""The Hecke form Z_{r,s}, the weight-3 form Z2_{r,s}, and the product M_N.

Z_{r,s}(tau)  = zeta(r + s*tau | tau) - r*eta1(tau) - s*eta2(tau)
Z2_{r,s}(tau) = Z^3 - 3*wp(r + s*tau)*Z - wp'(r + s*tau)

Z transforms with weight 1 and Z2 with weight 3 under tau -> gamma.tau with
(s', r') = (s, r).gamma^{-1} (see ``modular.transport_pair``).  Both are
identically zero on the three half-period parameter pairs and identically
infinite on integer pairs; those are rejected as Degenerate.

One cusp rule (``z2_stable``, ``z2_stable_many``, ``z2_with_derivative``,
``m_n``) reads Z2; ``z2`` and ``z2_with_scale`` are the direct kernel.  The
kernels reduce tau to tau' = gamma.tau, gamma = [[a, b], [c, d]]; with
j = c*tau + d the pair rides along as r' = a*r - b*s, s' = d*s - c*r, and
Z2_{r,s}(tau) = j^-3 Z2_{r',s'}(tau').  Where s' is in (1/2)Z the direct
value is cancellation noise and Z2 is S(p')/j^3, S the carried pair's
``cusp_series`` at p' = exp(pi*i*tau'), |p'| <= exp(-pi*sqrt(3)/2), with
scale sum |c_n||p'|^n / |j|^3 (reduce, then sum the q-series: Johansson,
arXiv:1806.06725); elsewhere the kernel's direct value stands.

Off the series, ``z2_with_derivative`` gives dZ2/dtau in closed form from
one kernel call.  The derivative is total along z = r + s*tau with (r, s)
fixed; with k = 4*pi*i,

    dZ   = -(wp' + 2 Z (wp + eta1)) / k
    dwp  = (4 wp^2 - 4 eta1 wp - 2 g2/3 + 2 Z wp') / k
    dwp' = (6 wp wp' - 6 eta1 wp' + 2 Z (6 wp^2 - g2/2)) / k
    dZ2  = 3 (Z^2 - wp) dZ - 3 Z dwp - dwp'.

They follow from the heat equation of theta_1, which gives d(log sigma)/dtau
at fixed z, and Ramanujan's E2' = (E2^2 - E4)/12 for eta1 = pi^2 E2/3.  By
Legendre's relation eta2 = tau*eta1 - 2*pi*i, so Z = zeta(z) - z*eta1 +
2*pi*i*s, and the s*d/dz terms from z = r + s*tau are absorbed into Z: no
s appears explicitly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from . import _kernels
from .elliptic import _as_point
from .errors import Degenerate, NearLattice
from .orbits import enumerate_qn

_PI = math.pi
_FOUR_PI_I = 4j * math.pi
NEAR_LATTICE_DIST = 1e-8
# Terms of the cusp series; at |p'| <= exp(-pi*sqrt(3)/2) ~ 0.066 the last
# is far below round-off.
_CUSP_TERMS = 48

Rational = Union[int, Fraction]


def _is_half_integer(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return x.denominator <= 2
    if isinstance(x, complex):
        if abs(x.imag) > 1e-12:
            return False
        x = x.real
    return abs(2.0 * x - round(2.0 * x)) < 1e-12


@dataclass(frozen=True)
class TorsionPair:
    """An ordered parameter pair (r, s) labelling a solution branch.

    r, s may be complex; in the exact (algebraic) case they are Fractions
    k1/N, k2/N and arithmetic on them stays exact.
    """

    r: Union[complex, Fraction]
    s: Union[complex, Fraction]

    @property
    def exact(self) -> bool:
        return isinstance(self.r, Fraction) and isinstance(self.s, Fraction)

    # is_real and degenerate are cached: Newton asks for them on every step,
    # and for Fraction pairs the half-integer test is exact arithmetic.
    @cached_property
    def is_real(self) -> bool:
        if self.exact:
            return True
        return abs(complex(self.r).imag) < 1e-14 and abs(complex(self.s).imag) < 1e-14

    @cached_property
    def degenerate(self) -> bool:
        """True when (r, s) is in (1/2)Z^2."""
        return _is_half_integer(self.r) and _is_half_integer(self.s)

    @cached_property
    def cusp(self) -> tuple[complex, Fraction]:
        """(leading coefficient, q-power) of Z2_{r,s} as Im(tau) -> infinity,
        for a real usable pair; the table is in ``cusp_asymptotic``."""
        _check_usable(self)
        if not self.is_real:
            raise Degenerate("cusp asymptotics are stated for real parameter pairs")
        carried = _carried(self, 1, 0, 0, 1)
        if carried is None:
            _, s = self.reduced_real()
            return 4j * _PI**3 * s * (1.0 - s) * (2.0 * s - 1.0), Fraction(0)
        r, s = float(carried[0]), carried[1]
        if s == 0:
            return complex(-48.0 * _PI**3 * math.sin(2.0 * _PI * r)), Fraction(1)
        return complex(-12.0 * _PI**3 * math.sin(2.0 * _PI * r)), Fraction(1, 2)

    @cached_property
    def cusp_series(self) -> Optional[np.ndarray]:
        """The read-only ``z2_cusp_expansion`` if the pair is real, usable and
        of positive order at infinity, else None: the series the cusp rule
        sums (through the bounded cache ``_series_of``) for a carried pair."""
        if not self.is_real or self.degenerate or self.cusp[1] == 0:
            return None
        coeffs = z2_cusp_expansion(self)
        coeffs.flags.writeable = False
        return coeffs

    @cached_property
    def cusp_orders(self) -> tuple[Fraction, ...]:
        """Orders at the real cusps x_c = 0, 1, 2, indexed by x_c: 1 - s' when
        the cusp rule's test at [[0, -1], [1, -x_c]] carries the pair to
        (s, -(r + x_c s)) with s' in (1/2)Z, else 0; empty for complex or
        degenerate pairs."""
        if self._carry is None:
            return ()
        carried = (_carried(self, 0, -1, 1, -x_c) for x_c in (0, 1, 2))
        return tuple(Fraction(0) if c is None else 1 - Fraction(c[1]) for c in carried)

    @cached_property
    def _carry(self) -> Optional[tuple]:
        """(x, y, n) with (r, s) = (x, y)/n, in integers when exact, else floats
        and n = 1; None for the complex and degenerate pairs no series serves."""
        if not self.is_real or self.degenerate:
            return None
        if self.exact:
            n = math.lcm(self.r.denominator, self.s.denominator)
            return (
                self.r.numerator * (n // self.r.denominator),
                self.s.numerator * (n // self.s.denominator),
                n,
            )
        return complex(self.r).real, complex(self.s).real, 1

    def as_complex(self) -> tuple[complex, complex]:
        return complex(self.r), complex(self.s)

    def alpha(self, tau: complex) -> complex:
        r, s = self.as_complex()
        return r + s * tau

    def reduced_real(self) -> tuple[float, float]:
        """Representative of +-(r, s) mod Z^2 in the window [0,1) x [0,1/2].

        Only meaningful for real pairs.
        """
        if self.exact:
            r = Fraction(self.r) % 1
            s = Fraction(self.s) % 1
            if 2 * s > 1:
                r, s = (-r) % 1, (-s) % 1
            return float(r), float(s)
        r, s = self.as_complex()
        r, s = r.real % 1.0, s.real % 1.0
        if s > 0.5 + 1e-15:
            r, s = (-r) % 1.0, (-s) % 1.0
        return r, s

    @classmethod
    def of(cls, r, s) -> "TorsionPair":
        def norm(x):
            if isinstance(x, (Fraction, int)):
                return Fraction(x)
            return complex(x)

        return cls(norm(r), norm(s))


def _carried(p: TorsionPair, a, b, c, d):
    """(r', s') mod 1 of p carried by [[a, b], [c, d]], r' = a*r - b*s and
    s' = d*s - c*r, if s' is in (1/2)Z, else None: the cusp rule's test, in
    integers k/N for an exact pair and, for a float one, within the 1e-12
    guard band of ``degenerate`` and ``locator.classify_triangle``."""
    carry = p._carry
    if carry is None:
        return None
    x, y, n = carry
    t = d * y - c * x
    if p.exact:
        if (2 * t) % n:
            return None
        return Fraction((a * x - b * y) % n, n), Fraction(t % n, n)
    if abs(2.0 * t - round(2.0 * t)) >= 2e-12:
        return None
    return (a * x - b * y) % 1.0, round(2.0 * t) % 2 / 2


def _check_usable(p: TorsionPair):
    if p.degenerate:
        r, s = p.as_complex()
        if abs(r - round(r.real)) < 1e-12 and abs(s - round(s.real)) < 1e-12:
            raise Degenerate(f"(r, s) = {p.r, p.s} is an integer pair: Z2 == inf")
        raise Degenerate(f"(r, s) = {p.r, p.s} is a half-period pair: Z2 == 0")


def _premodular_at(p: TorsionPair, m) -> tuple:
    """The ``premodular_at`` bundle for a usable pair, refusing alpha within
    NEAR_LATTICE_DIST of the lattice."""
    _check_usable(p)
    m = _as_point(m)
    r, s = p.as_complex()
    return _off_lattice(_kernels.premodular_at(r, s, m.tau))


def _off_lattice(values: tuple) -> tuple:
    """A ``premodular_at`` bundle, unless its alpha lies within
    NEAR_LATTICE_DIST of the lattice."""
    dist = values[9]
    if dist < NEAR_LATTICE_DIST:
        raise NearLattice(
            f"alpha = r + s*tau is within {dist:.3e} of the lattice; "
            "use the Laurent-expansion path"
        )
    return values


def hecke_Z(p: TorsionPair, m) -> complex:
    """Z_{r,s}(tau) = zeta(r + s*tau) - r*eta1 - s*eta2."""
    return _premodular_at(p, m)[0]


def z2(p: TorsionPair, m) -> complex:
    """Z2_{r,s}(tau) = Z^3 - 3 wp(alpha) Z - wp'(alpha)."""
    value, scale = z2_with_scale(p, m)
    return value


def z2_with_scale(p: TorsionPair, m) -> tuple[complex, float]:
    """The kernel's direct Z2 and its natural magnitude |Z|^3+3|wp Z|+|wp'|."""
    values = _premodular_at(p, m)
    return values[3], values[8]


def z2_with_derivative(p: TorsionPair, m) -> tuple[complex, float, complex]:
    """``z2_stable`` together with dZ2/dtau: from the same cusp series where
    the rule takes it, else in closed form from the one kernel call (module
    docstring).  Newton's step reads it instead of differencing Z2."""
    z, wp, wpp, z2v, g2, _, eta1, _, scale, _, _, consts = _premodular_at(p, m)
    series = _on_series(p, consts)
    if series is not None:
        return series
    dz = -(wpp + 2.0 * z * (wp + eta1)) / _FOUR_PI_I
    dwp = (4.0 * wp * wp - 4.0 * eta1 * wp - 2.0 * g2 / 3.0 + 2.0 * z * wpp) / _FOUR_PI_I
    dwpp = (
        6.0 * wp * wpp - 6.0 * eta1 * wpp + 2.0 * z * (6.0 * wp * wp - g2 / 2.0)
    ) / _FOUR_PI_I
    return z2v, scale, 3.0 * (z * z - wp) * dz - 3.0 * z * dwp - dwpp


def cusp_asymptotic(p: TorsionPair) -> tuple[complex, Fraction]:
    """Leading behaviour of Z2_{r,s} as Im(tau) -> infinity, for real (r, s).

    Returns (leading coefficient, q-power):
      s in (0,1/2) u (1/2,1):  (4 pi^3 i s(1-s)(2s-1), 0)
      s = 0:                   (-48 pi^3 sin(2 pi r), 1)
      s = 1/2:                 (-12 pi^3 sin(2 pi r), 1/2)
    """
    return p.cusp


# ---------------------------------------------------------------------------
# The cusp series in p = q^(1/2) for s in {0, 1/2}, and the cusp rule
# ---------------------------------------------------------------------------


def _cusp_coeff_arrays(r: float, half: bool, terms: int):
    """p-series coefficient arrays of Z, wp, wp' for s = 0 or s = 1/2.

    Index n holds the coefficient of p^n, p = exp(pi*i*tau).  Built from the
    same trigonometric series as the kernels, but ordered by powers of p so
    the constant-term cancellation in Z^3 - 3 wp Z - wp' happens between
    O(1) coefficients instead of catastrophically at evaluation time.
    """
    M = terms
    zc = np.zeros(M, dtype=np.complex128)
    wc = np.zeros(M, dtype=np.complex128)
    dc = np.zeros(M, dtype=np.complex128)
    pi2 = _PI * _PI
    pi3 = _PI * pi2
    if not half:
        # s = 0: everything is a series in q = p^2 with real-trig coefficients.
        sin_pr = math.sin(_PI * r)
        cos_pr = math.cos(_PI * r)
        cot = cos_pr / sin_pr
        zc[0] = _PI * cot
        wc[0] = pi2 * (-1.0 / 3.0 + 1.0 / (sin_pr * sin_pr))
        dc[0] = -2.0 * pi3 * cos_pr / sin_pr**3
        for k in range(1, M // 2 + 1):
            s2k = math.sin(2.0 * _PI * k * r)
            c2k = math.cos(2.0 * _PI * k * r)
            for mth in range(1, M // (2 * k) + 1):
                n = 2 * k * mth
                if n >= M:
                    break
                zc[n] += 4.0 * _PI * s2k
                wc[n] += -8.0 * pi2 * k * (c2k - 1.0)
                dc[n] += 16.0 * pi3 * (k * k) * s2k
    else:
        # s = 1/2: z = r + tau/2, U = exp(2 pi i z) = e^{2 pi i r} p.
        # The constant 2*pi*i*s = i*pi cancels the -i*pi limit of pi*cot(pi z).
        w = cmath.exp(2j * _PI * r)
        zc[0] = 0.0
        wc[0] = -pi2 / 3.0
        dc[0] = 0.0
        for n in range(1, M):
            wn = w**n
            zc[n] += -2j * _PI * wn          # pi*cot(pi z) tail
            wc[n] += -4.0 * pi2 * n * wn     # pi^2/sin^2 tail
            dc[n] += -8j * pi3 * (n * n) * wn  # -2 pi^3 cos/sin^3 tail
        for k in range(1, M + 1):
            wk = w**k
            wkc = wk.conjugate()  # |w| = 1 so conj = inverse
            for mth in range(0, M):
                nA = 3 * k + 2 * k * mth      # A_k q^{k m}: p^{3k + 2km}
                nB = k + 2 * k * mth          # B_k q^{k m}: p^{k + 2km}
                nQ = 2 * k + 2 * k * mth      # q^k q^{k m}: p^{2k + 2km}
                if nB >= M and nQ >= M and nA >= M:
                    break
                if nA < M:
                    zc[nA] += -2j * _PI * wk
                    wc[nA] += -4.0 * pi2 * k * wk
                    dc[nA] += -8j * pi3 * (k * k) * wk
                if nB < M:
                    zc[nB] += 2j * _PI * wkc
                    wc[nB] += -4.0 * pi2 * k * wkc
                    dc[nB] += 8j * pi3 * (k * k) * wkc
                if nQ < M:
                    wc[nQ] += 8.0 * pi2 * k
    return zc, wc, dc


def _poly_mul(a: np.ndarray, b: np.ndarray, M: int) -> np.ndarray:
    return np.convolve(a, b)[:M]


def z2_cusp_expansion(p: TorsionPair) -> np.ndarray:
    """Coefficients of Z2_{r,s} as a series in p = q^(1/2), for s in {0, 1/2}.

    Coefficients below the leading power (p^2 for s = 0, p^1 for s = 1/2)
    vanish identically; their numerical residue is round-off from the
    coefficient-level cancellation and is zeroed after a sanity check, so
    evaluating the series near the cusp never sees it.
    """
    order = p.cusp[1]
    if order == 0:
        raise ValueError("cusp expansion only applies to s in {0, 1/2}")
    half = order == Fraction(1, 2)
    r, _ = p.reduced_real()
    M = _CUSP_TERMS
    zc, wc, dc = _cusp_coeff_arrays(r, half, M)
    z2c = _poly_mul(_poly_mul(zc, zc, M), zc, M) - 3.0 * _poly_mul(wc, zc, M) - dc
    lead = 1 if half else 2
    floor_scale = float(np.max(np.abs(z2c))) + 1.0
    for n in range(lead):
        if abs(z2c[n]) > 1e-9 * floor_scale:  # pragma: no cover - sanity guard
            raise ValueError(
                f"sub-leading cusp coefficient p^{n} failed to cancel: {z2c[n]}"
            )
        z2c[n] = 0.0
    return z2c


@lru_cache(maxsize=1024)
def _series_of(r, s) -> tuple[tuple, tuple]:
    """Horner-ordered coefficients of the carried pair's ``cusp_series`` and
    their magnitudes, once per carried pair (r, s) in a bounded cache."""
    coeffs = TorsionPair.of(r, s).cusp_series[::-1]
    return tuple(coeffs.tolist()), tuple(np.abs(coeffs).tolist())


def _series_at(series, pp, j, c):
    """(Z2, scale, dZ2/dtau) = (S/j^3, sum |c_n||p'|^n / |j|^3,
    (pi*i*p'*S'/j^2 - 3*c*S/j)/j^3) from a ``_series_of`` S at p' = pp, for
    j = c*tau + d; on scalars, or on arrays with a coefficient row per point."""
    coeffs, mags = series
    ap = abs(pp)
    val = dval = scale = 0.0
    for cf, mg in zip(coeffs, mags):
        dval = dval * pp + val
        val = val * pp + cf
        scale = scale * ap + mg
    j3 = j * j * j
    deriv = (1j * _PI * pp * dval / (j * j) - 3.0 * c * val / j) / j3
    return val / j3, scale / abs(j3), deriv


def _on_series(p: TorsionPair, consts):
    """``_series_at`` for p at the tau whose ``lattice_constants`` are
    consts, when the cusp rule takes the series there; else None."""
    tred, _, j, *_, gamma = consts
    carried = _carried(p, *gamma)
    if carried is None:
        return None
    return _series_at(_series_of(*carried), cmath.exp(1j * _PI * tred), j, gamma[2])


def z2_stable(p: TorsionPair, m) -> tuple[complex, float]:
    """Z2 and its scale by the cusp rule (module docstring): the carried
    pair's series where the rule applies, else the kernel's direct value."""
    values = _premodular_at(p, m)
    series = _on_series(p, values[11])
    return series[:2] if series is not None else (values[3], values[8])


def z2_stable_many(p, taus, counts=None) -> tuple[np.ndarray, np.ndarray]:
    """``z2_stable`` at every tau of an array, as (values, scales).

    p is one TorsionPair for every tau, or, with ``counts``, a sequence of
    pairs that own consecutive runs of taus: ``counts[k]`` of them for
    ``p[k]``.  The taus are reduced once, for one kernel call and for
    ``_carried``'s test as array arithmetic, whose points take their carried
    pair's series.  Lattice hits give NaN instead of raising.
    """
    taus = np.ascontiguousarray(taus, dtype=np.complex128)
    pairs, counts = ([p], [len(taus)]) if counts is None else (p, counts)
    reduced = tred, a, b, c, d = _kernels.reduce_tau_many(taus)
    # a pair no series serves carries NaN, which the test below never picks
    rows = [(*q.as_complex(), *(q._carry or (math.nan, math.nan, 1))) for q in pairs]
    r, s, x, y, n = (np.repeat(col, counts) for col in zip(*rows))
    vals, scales = _kernels.z2_many(r, s, taus, reduced)
    t = d * y - c * x
    if all(q.exact and q._carry for q in pairs):
        on = (2 * t) % n == 0
    else:
        on = np.abs(2.0 * t / n - np.rint(2.0 * t / n)) < 2e-12
    if on.any():
        idx = np.flatnonzero(on)
        owners = np.searchsorted(np.cumsum(counts), idx, side="right")
        series = [
            _series_of(*_carried(pairs[o], *(int(v[i]) for v in (a, b, c, d))))
            for o, i in zip(owners, idx)
        ]
        coeffs = tuple(np.array(col).T for col in zip(*series))
        pp, j = np.exp(1j * _PI * tred[on]), c[on] * taus[on] + d[on]
        vals[on], scales[on], _ = _series_at(coeffs, pp, j, c[on])
    return vals, scales


# ---------------------------------------------------------------------------
# The modular product M_N
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MnValue:
    """M_N(tau) in log-magnitude form: value = exp(log_abs + i*arg)."""

    log_abs: float
    arg: float
    raw: Optional[complex]

    def magnitude(self) -> float:
        return math.exp(self.log_abs) if self.log_abs < 700.0 else math.inf


# Bounded: each N holds |Q_N| pairs for the process.
@lru_cache(maxsize=32)
def _qn_pairs(N: int) -> tuple[TorsionPair, ...]:
    """Q_N as exact TorsionPairs in ``enumerate_qn`` order, built once per N
    so that each pair's cached properties are computed once, not per call."""
    return tuple(
        TorsionPair.of(Fraction(rp.k1, rp.N), Fraction(rp.k2, rp.N))
        for rp in enumerate_qn(N)
    )


def m_n(N: int, m) -> MnValue:
    """Product of Z2_{r,s} over all (r, s) in Q_N, accumulated in log space.

    Factors are visited in sorted index order, so the reduction is
    deterministic.  Each factor is ``z2_stable``'s value by the cusp rule,
    with the tau-only lattice prologue, and with it the reduction, computed
    once for all factors.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    tau = _as_point(m).tau
    consts = _kernels.lattice_constants(tau)
    log_abs = 0.0
    arg = 0.0
    for pair in _qn_pairs(N):
        series = _on_series(pair, consts)
        if series is not None:
            val = series[0]
        else:
            _check_usable(pair)
            r, s = pair.as_complex()
            val = _off_lattice(_kernels.premodular_from(r, s, tau, consts))[3]
        av = abs(val)
        if av == 0.0:
            return MnValue(log_abs=-math.inf, arg=0.0, raw=0.0 + 0j)
        log_abs += math.log(av)
        arg = math.remainder(arg + cmath.phase(val), 2.0 * _PI)
    raw: Optional[complex] = None
    if abs(log_abs) < 700.0:
        raw = cmath.exp(complex(log_abs, arg))
    return MnValue(log_abs=log_abs, arg=arg, raw=raw)
