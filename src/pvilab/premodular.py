"""The Hecke form Z_{r,s}, the weight-3 form Z2_{r,s}, and the product M_N.

Z_{r,s}(tau)  = zeta(r + s*tau | tau) - r*eta1(tau) - s*eta2(tau)
Z2_{r,s}(tau) = Z^3 - 3*wp(r + s*tau)*Z - wp'(r + s*tau)

Z transforms with weight 1 and Z2 with weight 3 under tau -> gamma.tau with
(s', r') = (s, r).gamma^{-1} (see ``modular.transport_pair``).  Both are
identically zero on the three half-period parameter pairs and identically
infinite on integer pairs; those are rejected as Degenerate.

For s in {0, 1/2} the form vanishes at the cusp and a direct evaluation at
large Im(tau) loses everything to cancellation; ``z2_cusp_expansion``
assembles the Fourier expansion in p = q^(1/2) with the cancellation done at
the coefficient level.  ``TorsionPair`` owns what (r, s) determines: its
``cusp`` term (of positive q-power exactly when s is in {0, 1/2}), its
``cusp_series`` and its ``cusp_orders``.  ``z2_stable`` and its batch sibling
``z2_stable_many`` switch to ``cusp_series`` above ``SERIES_HEIGHT``.

``z2_with_derivative`` gives dZ2/dtau in closed form from one kernel call.
The derivative is total along z = r + s*tau with (r, s) fixed; with
k = 4*pi*i,

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
from .modular import ModularMatrix, transport_pair
from .orbits import enumerate_qn

_PI = math.pi
_FOUR_PI_I = 4j * math.pi
NEAR_LATTICE_DIST = 1e-8
# Height above which Z2 of a pair with s in {0, 1/2} is evaluated through the
# cusp series: the direct formula cancels to noise there, while p = q^(1/2)
# is below exp(-2 pi) and _CUSP_TERMS coefficients are fully converged.
SERIES_HEIGHT = 2.0
_CUSP_TERMS = 48

Rational = Union[int, Fraction]


def _is_half_integer(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return Fraction(2) * Fraction(x) == int(Fraction(2) * Fraction(x))
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
        r, s = self.reduced_real()
        # classify s against {0, 1/2} with a guard band
        if abs(s) < 1e-12:
            return complex(-48.0 * _PI**3 * math.sin(2.0 * _PI * r)), Fraction(1)
        if abs(s - 0.5) < 1e-12:
            return complex(-12.0 * _PI**3 * math.sin(2.0 * _PI * r)), Fraction(1, 2)
        return 4j * _PI**3 * s * (1.0 - s) * (2.0 * s - 1.0), Fraction(0)

    @cached_property
    def cusp_series(self) -> Optional[np.ndarray]:
        """The read-only ``z2_cusp_expansion`` if the pair is real, usable and
        of positive order at infinity, else None: the one test of whether Z2
        is taken from the series above SERIES_HEIGHT."""
        if not self.is_real or self.degenerate or self.cusp[1] == 0:
            return None
        coeffs = z2_cusp_expansion(self)
        coeffs.flags.writeable = False
        return coeffs

    @cached_property
    def cusp_orders(self) -> tuple[Fraction, ...]:
        """Orders at the real cusps x_c = 0, 1, 2, indexed by x_c: the order at
        infinity of the pair transported by tau -> -1/(tau - x_c), i.e. of
        (s, -(r + x_c s)).  Empty unless the pair is real and usable."""
        if not self.is_real or self.degenerate:
            return ()
        to_inf = (ModularMatrix(0, -1, 1, -x_c) for x_c in (0, 1, 2))
        return tuple(
            TorsionPair.of(*transport_pair(self.r, self.s, g)).cusp[1] for g in to_inf
        )

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
    """Z2 value together with its natural magnitude |Z|^3+3|wp Z|+|wp'|.

    The scale is what residual and boundary-clearance thresholds are
    measured against.
    """
    values = _premodular_at(p, m)
    return values[3], values[8]


def z2_with_derivative(p: TorsionPair, m) -> tuple[complex, float, complex]:
    """``z2_with_scale`` together with dZ2/dtau, from one kernel call.

    The derivative is the closed form in the module docstring; Newton's
    step reads it instead of differencing Z2.
    """
    z, wp, wpp, z2v, g2, _, eta1, _, scale, _, _ = _premodular_at(p, m)
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
# Stable Fourier expansion in p = q^(1/2) for s in {0, 1/2}
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


def z2_stable(p: TorsionPair, m) -> tuple[complex, float]:
    """Z2 with automatic switch to the cusp series for s in {0, 1/2}.

    Direct evaluation cancels to noise once the surviving term drops below
    round-off of the O(1) pieces; above SERIES_HEIGHT the p-series is both
    stable and fully converged.
    """
    m = _as_point(m)
    if m.tau.imag > SERIES_HEIGHT and p.cusp_series is not None:
        pp = cmath.exp(1j * _PI * m.tau)
        val = complex(np.polyval(p.cusp_series[::-1], pp))
        # natural magnitude of the would-be cancelling combination
        r, s = p.as_complex()
        return val, _kernels.premodular_at(r, s, m.tau)[8]
    return z2_with_scale(p, m)


def z2_stable_many(
    p, taus, counts=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``z2_stable`` at every tau of an array, as (values, scales, on_series).

    p is one TorsionPair for every tau, or, with ``counts``, a sequence of
    pairs that own consecutive runs of taus: ``counts[k]`` of them for
    ``p[k]``.  All taus go to the kernel in one call, with scalar r and s
    when there is one pair.  on_series marks the samples taken from the
    cusp series, whose tiny magnitudes are trustworthy.  Lattice hits give
    NaN instead of raising.
    """
    taus = np.ascontiguousarray(taus, dtype=np.complex128)
    pairs, counts = ([p], [len(taus)]) if counts is None else (p, counts)
    if len(pairs) == 1:
        r, s = pairs[0].as_complex()
    else:
        rs = [q.as_complex() for q in pairs]
        r, s = (np.repeat(np.array(c), counts) for c in zip(*rs))
    vals, scales = _kernels.z2_many(r, s, taus)
    on_series = np.zeros(len(taus), dtype=bool)
    hi = 0
    for q, n in zip(pairs, counts):
        lo, hi = hi, hi + n
        if q.cusp_series is not None:
            high = taus[lo:hi].imag > SERIES_HEIGHT
            if high.any():
                on_series[lo:hi] = high
                pp = np.exp(1j * _PI * taus[lo:hi][high])
                vals[lo:hi][high] = np.polyval(q.cusp_series[::-1], pp)
    return vals, scales, on_series


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


# Bounded: each N holds |Q_N| pairs and their cusp series for the process.
@lru_cache(maxsize=32)
def _qn_pairs(N: int) -> tuple[TorsionPair, ...]:
    """Q_N as exact TorsionPairs in ``enumerate_qn`` order, built once per N
    so that each pair's ``cusp_series`` is built once, not once per call."""
    return tuple(
        TorsionPair.of(Fraction(rp.k1, rp.N), Fraction(rp.k2, rp.N))
        for rp in enumerate_qn(N)
    )


def m_n(N: int, m) -> MnValue:
    """Product of Z2_{r,s} over all (r, s) in Q_N, accumulated in log space.

    Factors are visited in sorted index order, so the reduction is
    deterministic.  Each factor is ``z2_stable``'s value: the stable cusp
    series for s in {0, 1/2} above SERIES_HEIGHT, otherwise the kernel's,
    with the tau-only lattice prologue computed once for all factors.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    tau = _as_point(m).tau
    consts = _kernels.lattice_constants(tau)
    pp = cmath.exp(1j * _PI * tau) if tau.imag > SERIES_HEIGHT else None
    log_abs = 0.0
    arg = 0.0
    for pair in _qn_pairs(N):
        if pp is not None and pair.cusp_series is not None:
            val = complex(np.polyval(pair.cusp_series[::-1], pp))
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
