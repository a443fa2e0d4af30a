"""The Hecke form Z_{r,s}, the weight-3 form Z2_{r,s}, and log|M_N|, M_N the
product of Z2 over Q_N.

Z_{r,s}(tau)  = zeta(r + s*tau | tau) - r*eta1(tau) - s*eta2(tau)
Z2_{r,s}(tau) = Z^3 - 3*wp(r + s*tau)*Z - wp'(r + s*tau)

Z transforms with weight 1 and Z2 with weight 3 under tau -> gamma.tau with
(s', r') = (s, r).gamma^{-1} (see ``modular.transport_pair``).  Both are
identically zero on the three half-period parameter pairs and identically
infinite on integer pairs; those are rejected as Degenerate.

One cusp rule (``z2_stable``, ``z2_stable_many``, ``z2_with_derivative``)
reads Z2; ``z2`` and ``z2_with_scale`` are the direct kernel.  The kernels
reduce tau to tau' = gamma.tau, gamma = [[a, b], [c, d]]; with
j = c*tau + d the pair rides along as r' = a*r - b*s, s' = d*s - c*r, and
Z2_{r,s}(tau) = j^-3 Z2_{r',s'}(tau').  Where s' is in (1/2)Z the direct
value is cancellation noise and Z2 is S(p')/j^3, S the carried pair's
``z2_cusp_expansion`` at p' = exp(pi*i*tau'), |p'| <= exp(-pi*sqrt(3)/2),
with scale sum |c_n||p'|^n / |j|^3 (reduce, then sum the q-series:
Johansson, arXiv:1806.06725); elsewhere the kernel's direct value stands.

Each point sums only the terms of S that its own |p'| needs: the first K at
which a bound on the dropped tail sum_{n >= K} |c_n||p'|^n is at most 1e-24
of the scale, so far below half an ulp that the cut sum is the full one bit
for bit (K is at most 25 at Im tau' = sqrt(3)/2 and at most 5 at
Im tau' >= 8).  The bound's limits on |p'| are cached with each carried
pair's coefficients, so a point's K is a count of comparisons.  In a batch
the shorter coefficient rows are padded with zeros at the top, so a point's
value does not depend on what shares its batch.

The batch path is one array core, ``_cusp_rule``: the test s' in (1/2)Z and
the carried pair are array arithmetic on the pairs' carries, in integers
for exact pairs.  ``z2_stable_many`` feeds it from ``TorsionPair``s, and
``_log_mn`` (behind ``m_n``) from Q_N as integer arrays (k1, k2), cached per
N, at any number of taus in one call.  Like ``_kernels.z2_many``, both take
the caller's ``_kernels.reduce_tau_many`` of their taus, so points that
recur are reduced once: ``_log_mn`` reduces each distinct tau and repeats
the reduction over Q_N, and ``locator`` keeps the reductions of its start
grids and of its contours' first rounds.

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
from .elliptic import ModuliPoint, _as_point
from .errors import Degenerate, DomainError, InternalError, NearLattice
from .orbits import enumerate_qn

_PI = math.pi
_FOUR_PI_I = 4j * math.pi
NEAR_LATTICE_DIST = 1e-8
# The cap on the terms of the cusp series: at |p'| <= exp(-pi*sqrt(3)/2)
# ~ 0.066 the 48th is far below round-off.  Each point sums fewer, as many as
# its own |p'| needs (``_term_limits``).
_CUSP_TERMS = 48
# |p'| at the lowest reduced points, Im tau' = sqrt(3)/2.
_P_MAX = math.exp(-_PI * math.sqrt(3.0) / 2.0)
# A point's series is cut where the dropped tail is at most this fraction of
# its scale.  The cut must sit far below half an ulp, not near it: at 1e-17,
# up to a third of the carried pairs' values at one tau moved in their last
# bits.
_CUT_TAIL = 1e-24

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

    # z2_stable_many reads the complex form of every pair on every call, and
    # for Fraction pairs each conversion is a Fraction division.
    @cached_property
    def _complex(self) -> tuple[complex, complex]:
        return complex(self.r), complex(self.s)

    def as_complex(self) -> tuple[complex, complex]:
        return self._complex

    def reduced_real(self) -> tuple[float, float]:
        """Representative of +-(r, s) mod Z^2 in the window [0,1) x [0,1/2].

        Only meaningful for real pairs.
        """
        if self.exact:
            # in the integers of each lowest-terms Fraction: k/n mod 1 is
            # (k mod n)/n, and int / int is correctly rounded like float()
            (a, m), (b, n) = self.r.as_integer_ratio(), self.s.as_integer_ratio()
            if 2 * (b % n) > n:
                a, b = -a, -b
            return a % m / m, b % n / n
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
            x = complex(x)
            if not cmath.isfinite(x):
                raise DomainError(f"r and s must be finite, got {x}")
            return x

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


def _premodular_at(p: TorsionPair, m: ModuliPoint) -> tuple:
    """The ``premodular_at`` bundle for a usable pair at a point, refusing
    alpha within NEAR_LATTICE_DIST of the lattice."""
    _check_usable(p)
    r, s = p.as_complex()
    values = _kernels.premodular_at(r, s, m.tau, m.frame)
    dist = values[5]
    if dist < NEAR_LATTICE_DIST:
        raise NearLattice(
            f"alpha = r + s*tau is within {dist:.3e} of the lattice; "
            "use the Laurent-expansion path"
        )
    return values


def hecke_Z(p: TorsionPair, m) -> complex:
    """Z_{r,s}(tau) = zeta(r + s*tau) - r*eta1 - s*eta2."""
    return _premodular_at(p, _as_point(m))[0]


def z2(p: TorsionPair, m) -> complex:
    """Z2_{r,s}(tau) = Z^3 - 3 wp(alpha) Z - wp'(alpha)."""
    value, scale = z2_with_scale(p, m)
    return value


def z2_with_scale(p: TorsionPair, m) -> tuple[complex, float]:
    """The kernel's direct Z2 and its natural magnitude |Z|^3+3|wp Z|+|wp'|."""
    values = _premodular_at(p, _as_point(m))
    return values[3], values[4]


def z2_with_derivative(p: TorsionPair, m) -> tuple[complex, float, complex]:
    """Z2, its scale and dZ2/dtau by the cusp rule (module docstring): the
    carried pair's series where the rule applies, else the kernel's direct
    value with dZ2/dtau in closed form from the one kernel call.  Newton's
    step reads it instead of differencing Z2."""
    m = _as_point(m)
    z, wp, wpp, z2v, scale, _ = _premodular_at(p, m)
    tred, _, j, _, eta1, _, g2, _, _, gamma = m.frame
    carried = _carried(p, *gamma)
    if carried is not None:
        rc, sc = carried
        row = _series_of(*(rc.as_integer_ratio() if p.exact else (rc, 1)), int(2 * sc))
        return _series_at(*row, cmath.exp(1j * _PI * tred), j, gamma[2])
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
    evaluating the series near the cusp never sees it.  The check raises
    NearLattice for (r, 0) with small r (from 1/1665): its terms grow like 1/r^3.
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
        if abs(z2c[n]) > 1e-9 * floor_scale:
            raise NearLattice(
                f"sub-leading cusp coefficient p^{n} failed to cancel: {z2c[n]}"
            )
        z2c[n] = 0.0
    return z2c


@lru_cache(maxsize=1024)
def _series_of(k, n, half) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``z2_cusp_expansion`` of the carried pair (k/n, half/2) by
    ascending power, its magnitudes and its ``_term_limits``, as read-only
    arrays, once per carried pair in a bounded cache: exact, k/n in lowest
    terms, for integers k and n; in floats, (k, half/2), for a float pair,
    which has n = 1."""
    if n == 1:
        pair = TorsionPair.of(k, half / 2)
    else:
        pair = TorsionPair.of(Fraction(k, n), Fraction(half, 2))
    coeffs = z2_cusp_expansion(pair)
    # hypot rounds as Python's abs does; NumPy's complex abs of a contiguous
    # array may round otherwise
    mags = np.hypot(coeffs.real, coeffs.imag)
    row = coeffs, mags, _term_limits(mags)
    for part in row:
        part.flags.writeable = False
    return row


def _term_limits(mags) -> np.ndarray:
    """Nondecreasing limits[K], K < _CUSP_TERMS, such that a point with
    |p'| = a sums the first #{K : limits[K] < a} terms of the series whose
    coefficient magnitudes are ``mags``.

    For a <= _P_MAX the tail from power K is at most a^K B_K, with
    B_K = sum_{n >= K} mags[n] _P_MAX^(n - K), and the scale is at least its
    lead term mags[L] a^L.  So K terms leave a tail of at most _CUT_TAIL of
    the scale once a^(K - L) <= _CUT_TAIL mags[L] / B_K, that is below a
    limit for each K > L; the running maximum of those limits makes the
    count of limits below a the first K that suffices."""
    powers = _P_MAX ** np.arange(_CUSP_TERMS)
    bound = np.cumsum((mags * powers)[::-1])[::-1] / powers
    lead = int(np.flatnonzero(mags)[0])
    limits = np.zeros(_CUSP_TERMS)
    with np.errstate(divide="ignore"):
        # an empty tail (zero bound) has no limit
        limits[lead + 1 :] = (_CUT_TAIL * mags[lead] / bound[lead + 1 :]) ** (
            1.0 / np.arange(1, _CUSP_TERMS - lead)
        )
    return np.maximum.accumulate(limits)


def _terms_needed(limits, ap) -> np.ndarray:
    """The terms each point sums, from its row of ``_term_limits`` and its
    |p'| = ap."""
    return np.add.reduce(limits < ap[:, None], axis=1)


def _series_at(coeffs, mags, limits, pp, j, c=None):
    """(Z2, scale) = (S/j^3, sum |c_n||p'|^n / |j|^3) for j = c*tau + d, S
    the series with coefficients ``coeffs`` by ascending power, their
    magnitudes ``mags`` and term limits ``limits``: a ``_series_of`` row at
    a scalar p' = pp, or arrays with a row per point.  Given c, also
    dZ2/dtau = (pi*i*p'*S'/j^2 - 3*c*S/j)/j^3.

    Each point's Horner sum runs over its first ``_terms_needed`` terms.  In
    a batch the loop runs the largest count, with each shorter row padded
    with zeros at the top: the steps before a point's own terms leave its
    sums exactly zero, so its value is the one it has alone."""
    ap = abs(pp)
    if isinstance(pp, np.ndarray):
        keep = _terms_needed(limits, ap)
        top = np.arange(keep.max()) < keep[:, None]
        coeffs = np.where(top, coeffs[:, : top.shape[1]], 0.0).T
        mags = np.where(top, mags[:, : top.shape[1]], 0.0).T
    else:
        # the count of limits below ap, as _terms_needed counts them
        keep = np.searchsorted(limits, ap)
        coeffs, mags = coeffs[:keep].tolist(), mags[:keep].tolist()
    val = dval = scale = 0.0
    for cf, mg in zip(coeffs[::-1], mags[::-1]):
        if c is not None:
            dval = dval * pp + val
        val = val * pp + cf
        scale = scale * ap + mg
    j3 = j * j * j
    if c is None:
        return val / j3, scale / abs(j3)
    deriv = (1j * _PI * pp * dval / (j * j) - 3.0 * c * val / j) / j3
    return val / j3, scale / abs(j3), deriv


def z2_stable(p: TorsionPair, m) -> tuple[complex, float]:
    """Z2 and its scale by the cusp rule: ``z2_with_derivative`` without
    the derivative."""
    return z2_with_derivative(p, m)[:2]


def _cusp_rule(taus, reduced, r, s, x, y, n) -> tuple[np.ndarray, np.ndarray]:
    """Z2 and its scale at every tau of an array by the cusp rule, as
    (values, scales).

    ``reduced`` is the caller's ``_kernels.reduce_tau_many(taus)``, which
    serves both the kernel call and the test.  Point i evaluates the pair
    (r[i], s[i]) whose ``TorsionPair._carry`` is (x[i], y[i], n[i]), so that
    s' = t/n with t = d*y - c*x.  An exact pair carries integers, and s' is
    in (1/2)Z when n divides 2t; a float pair carries floats with n = 1, and
    2t must lie within the 1e-12 guard band of ``_carried``; a pair no
    series serves carries NaN.  The points the test passes take their
    carried pair's series, whose rows are fetched once per carried pair and
    gathered as arrays.  Lattice hits give NaN instead of raising.
    """
    tred, a, b, c, d = reduced
    vals, scales = _kernels.z2_many(r, s, taus, reduced)
    t = d * y - c * x
    on = (2 * t) % n == 0
    if t.dtype.kind == "f":
        on = np.where(n == 1, np.abs(2.0 * t - np.rint(2.0 * t)) < 2e-12, on)
    if not on.any():
        return vals, scales
    idx = np.flatnonzero(on)
    n, t = n[idx], t[idx]
    # the carried pair (r', s') = (k/n, half/2), k = (a*x - b*y) mod n (mod 1
    # for a float pair, whose n is 1), grouped by its value
    k = (a[idx] * x[idx] - b[idx] * y[idx]) % n
    half = np.rint(2 * (t % n) / n) % 2
    _, first, owner = np.unique(
        k / n + 1j * (half + 2 * (n == 1)), return_index=True, return_inverse=True
    )
    rows = []
    for kc, nc, hc in zip(k[first].tolist(), n[first].tolist(), half[first].tolist()):
        # an exact pair's key is in lowest terms; a float pair's k stays
        g = 1 if nc == 1 else math.gcd(int(kc), nc)
        rows.append(_series_of(kc if nc == 1 else int(kc) // g, nc // g, int(hc)))
    coeffs, mags, limits = (np.stack(col)[owner.reshape(-1)] for col in zip(*rows))
    pp = np.exp(1j * _PI * tred[idx])
    vals[idx], scales[idx] = _series_at(
        coeffs, mags, limits, pp, c[idx] * taus[idx] + d[idx]
    )
    return vals, scales


def z2_stable_many(pairs, taus, counts, reduced) -> tuple[np.ndarray, np.ndarray]:
    """``z2_stable`` at every tau of an array, as (values, scales), by
    ``_cusp_rule``.

    The pairs own consecutive runs of taus: ``counts[k]`` of them for
    ``pairs[k]``.  ``reduced`` is the caller's
    ``_kernels.reduce_tau_many(taus)``: a caller that meets the same taus
    again reduces them once and hands the reduction over.  Lattice hits give
    NaN instead of raising.
    """
    taus = np.ascontiguousarray(taus, dtype=np.complex128)
    # a pair no series serves carries NaN, which the rule's test never picks
    rs = np.array([q.as_complex() for q in pairs], dtype=np.complex128).reshape(-1, 2)
    carries = np.array([q._carry or (math.nan, math.nan, 1) for q in pairs]).reshape(-1, 3)
    r, s = np.repeat(rs.T, counts, axis=1)
    x, y, n = np.repeat(carries.T, counts, axis=1)
    if n.dtype.kind == "f":
        # a float or NaN carry makes x and y floats; n stays an integer
        n = n.astype(np.int64)
    return _cusp_rule(taus, reduced, r, s, x, y, n)


# ---------------------------------------------------------------------------
# The modular product M_N, in log-magnitude
# ---------------------------------------------------------------------------


# Bounded: each N holds two integer arrays of |Q_N| entries for the process.
@lru_cache(maxsize=32)
def _qn_table(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Q_N as read-only integer arrays (k1, k2), in ``enumerate_qn`` order."""
    k1, k2 = np.array([(rp.k1, rp.k2) for rp in enumerate_qn(N)], dtype=np.int64).T.copy()
    k1.flags.writeable = k2.flags.writeable = False
    return k1, k2


def m_n(N: int, m) -> float:
    """log|M_N(tau)|, M_N the product of Z2_{r,s} over all (r, s) in Q_N;
    -inf when a factor is exactly 0: ``_log_mn`` at the one tau."""
    return float(_log_mn(N, [_as_point(m).tau])[0])


def _log_mn(N: int, taus) -> np.ndarray:
    """log|M_N| at every tau of a sequence, from one ``_cusp_rule`` call over
    Q_N at all of them.

    Each pair (k1/N, k2/N) carries (k1, k2, N) in integers, and the logs of
    the factors at one tau are summed as one array in ``enumerate_qn``
    order, so each sum is deterministic and is the one that tau gets alone.
    No pair of Q_N is degenerate or near the lattice: a primitive pair with
    N >= 3 is not in (1/2)Z^2, and r + s*tau stays at least sqrt(3)/(2N)
    from the lattice in the reduced cell.  So a NaN factor is a fault, and
    raises InternalError.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    taus = np.asarray(taus, dtype=np.complex128)
    k1, k2 = _qn_table(N)
    size, count = k1.size, taus.size
    r, s = ((np.tile(k, count) / N).astype(np.complex128) for k in (k1, k2))
    # each distinct tau is reduced once, and its reduction repeated over Q_N
    reduced = tuple(np.repeat(col, size) for col in _kernels.reduce_tau_many(taus))
    vals, _ = _cusp_rule(
        np.repeat(taus, size), reduced, r, s, np.tile(k1, count), np.tile(k2, count),
        np.full(size * count, N),
    )
    logs = np.empty(count)
    for i, mags in enumerate(np.abs(vals).reshape(count, size)):
        if np.isnan(mags).any():
            raise InternalError(f"a factor of M_{N} is NaN at tau = {taus[i]}")
        logs[i] = np.log(mags).sum() if mags.all() else -math.inf
    return logs
