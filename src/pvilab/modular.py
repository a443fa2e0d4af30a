"""Integer SL(2,Z) machinery: matrices, Moebius action, pair transport.

The one convention that everything downstream depends on lives here:
torsion parameters ride along the group action as row vectors (s, r).  For
tau' = gamma.tau the transported pair is (s', r') = (s, r) . gamma^{-1}, so
that (r + s*tau)/(c*tau + d) = r' + s'*tau'.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import DomainError


@dataclass(frozen=True)
class ModularMatrix:
    """An element [[a, b], [c, d]] of SL(2, Z)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise DomainError(f"determinant is {det}, expected 1")

    @property
    def in_gamma2(self) -> bool:
        """Principal congruence subgroup of level 2: diagonal odd, off even."""
        return (
            self.a % 2 == 1
            and self.d % 2 == 1
            and self.b % 2 == 0
            and self.c % 2 == 0
        )

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ModularMatrix":
        return ModularMatrix(self.d, -self.b, -self.c, self.a)

    def moebius(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def cocycle(self, tau: complex) -> complex:
        """The automorphy factor j(gamma, tau) = c*tau + d."""
        return self.c * tau + self.d

    def act_rows(self, v: tuple) -> tuple:
        """Row vector times matrix: (x, y) . M."""
        x, y = v
        return (x * self.a + y * self.c, x * self.b + y * self.d)

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)


IDENTITY = ModularMatrix(1, 0, 0, 1)


def transport_pair(r, s, gamma: ModularMatrix):
    """Parameters carried along tau -> gamma.tau.

    Returns (r', s') with (s', r') = (s, r) . gamma^{-1}; then
    Z^(2)_{r',s'}(gamma.tau) = (c*tau+d)^3 Z^(2)_{r,s}(tau).
    """
    inv = gamma.inverse()
    s2, r2 = inv.act_rows((s, r))
    return r2, s2


def reduce_to_standard(tau: complex) -> tuple[complex, ModularMatrix]:
    """Reduce tau into {|Re| <= 1/2, |tau| >= 1}; returns (tau_red, gamma)
    with gamma.tau = tau_red.  This is the reduction every kernel applies."""
    if tau.imag <= 0:
        raise DomainError("tau must satisfy Im tau > 0")
    t, a, b, c, d = _kernels.reduce_tau(tau)
    return t, ModularMatrix(a, b, c, d)


# Float fuzz absorbed on the edges of F by ``reduce_to_shifted_domain``.
_SNAP = 1e-9


def reduce_to_shifted_domain(tau: complex) -> tuple[complex, ModularMatrix]:
    """Reduce tau into F = {0 <= Re < 1, |tau| >= 1, |tau - 1| > 1} + {rho}:
    ``reduce_to_standard``, then ``_shift_into_f``."""
    return _shift_into_f(*reduce_to_standard(tau))


def _shift_into_f(t: complex, g: ModularMatrix) -> tuple[complex, ModularMatrix]:
    """Move t = g.tau from the standard domain into F; returns (t', g') with
    g'.tau = t'.

    Points with Re < 0 are translated by one.  ``_SNAP`` absorbs float fuzz
    on the circular edges; ownership follows the domain definition (left arc
    in, right arc out).
    """
    if t.real >= -_SNAP:
        return t, g
    if abs(abs(t) - 1.0) <= _SNAP:
        # t on the unit circle with Re < 0 would land on the excluded right
        # arc |tau - 1| = 1; invert instead: -1/t = -conj(t) lies on the left
        # arc with Re > 0.
        return -1.0 / t, _T @ g
    return t + 1.0, _S @ g


# Coset labels of SL(2,Z)/Gamma(2); S is the unit translation and T the
# inversion, matching the six-copy decomposition of the level-2 domain.
_S = ModularMatrix(1, 1, 0, 1)
_T = ModularMatrix(0, -1, 1, 0)
_COSET_REPS = {
    "I": IDENTITY,
    "S": _S,
    "ST": _S @ _T,
    "S2T": _S @ _S @ _T,
    "TS-1": _T @ ModularMatrix(1, -1, 0, 1),
    "STS-1": _S @ _T @ ModularMatrix(1, -1, 0, 1),
}


def _mod2_key(g: ModularMatrix) -> tuple:
    return (g.a % 2, g.b % 2, g.c % 2, g.d % 2)


_MOD2_TO_LABEL = {_mod2_key(m): lbl for lbl, m in _COSET_REPS.items()}


def gamma2_coset_label(g: ModularMatrix) -> str:
    """Which of the six level-2 cosets g belongs to (mod Gamma(2))."""
    return _MOD2_TO_LABEL[_mod2_key(g)]


def branch_copy(m) -> str:
    """Label of the Gamma(2) fundamental-domain copy containing the
    ``elliptic.ModuliPoint`` m.

    With F_2 = union of rep.F over the six coset representatives, tau lies in
    the copy labelled by the coset of g^{-1}, where g.tau is in F.  The
    point's frame already holds its reduction into the standard domain, so
    only the shift into F is left.
    """
    frame = m.frame
    _, g = _shift_into_f(frame[0], ModularMatrix(*frame[9]))
    return gamma2_coset_label(g.inverse())
