"""Weierstrass functions on the lattice Z + Z*tau.

High-accuracy wp, wp', zeta, quasi-periods eta1/eta2, half-period values
e_k and invariants g2/g3 for tau in the upper half-plane.  Evaluation always
reduces tau to the standard fundamental domain (so the nome stays tiny) and
the argument into the centred lattice cell, then undoes both reductions
through the weight laws; see ``_kernels`` for the series.

All functions are pure; ModuliPoint and LatticeData are frozen.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import _kernels
from .errors import DomainError, NearSingular

NEAR_SINGULAR_DIST = 1e-8


class _Frame:
    """``ModuliPoint.frame``: having no __set__, it runs once per point, and
    the frame it stores in ``__dict__`` answers later reads.  Before Python
    3.12 functools.cached_property also takes a lock, once per Newton step."""

    def __get__(self, m, owner=None):
        if m is None:
            return self
        frame = m.__dict__["frame"] = _kernels.lattice_constants(m.tau)
        return frame


@dataclass(frozen=True)
class ModuliPoint:
    """A point tau in the upper half-plane.  Its ``frame`` is the prologue
    ``_kernels.lattice_constants(tau)`` of every scalar read at the point; it
    is not a field, so ==, hash and repr see tau alone."""

    tau: complex
    frame = _Frame()

    @classmethod
    def from_tau(cls, tau: complex) -> "ModuliPoint":
        tau = complex(tau)
        if not (tau.imag > 0.0 and cmath.isfinite(tau)):
            raise DomainError(f"tau must be finite with Im tau > 0, got tau = {tau}")
        return cls(tau=tau)


@dataclass(frozen=True)
class LatticeData:
    """Per-tau bundle of quasi-periods, half-period values and invariants."""

    eta1: complex
    eta2: complex
    e1: complex
    e2: complex
    e3: complex
    g2: complex
    g3: complex
    est_error: float

    @property
    def t(self) -> complex:
        """The Gamma(2)-invariant cover map t = (e3 - e1)/(e2 - e1)."""
        return (self.e3 - self.e1) / (self.e2 - self.e1)


def _as_point(m) -> ModuliPoint:
    if isinstance(m, ModuliPoint):
        return m
    return ModuliPoint.from_tau(m)


def _elliptic_at(z: complex, m) -> tuple:
    """The ``elliptic_from`` bundle on the point's frame, refusing z within
    NEAR_SINGULAR_DIST of the lattice after reduction."""
    m = _as_point(m)
    z = complex(z)
    values = _kernels.elliptic_from(z, m.frame)
    dist = values[3]
    if dist < NEAR_SINGULAR_DIST:
        raise NearSingular(
            f"z = {z} is within {dist:.3e} of the lattice for tau = {m.tau}"
        )
    return values


def weierstrass_p(z: complex, m) -> tuple[complex, complex]:
    """wp(z|tau) and wp'(z|tau).

    Raises NearSingular when z is within the guard distance of the lattice
    after reduction; callers handle lattice-point behaviour explicitly.
    """
    return _elliptic_at(z, m)[:2]


def weierstrass_zeta(z: complex, m) -> complex:
    """zeta(z|tau), principal determination with zeta(z) = 1/z + O(z^3).

    Lattice translations used during reduction are undone exactly through
    the quasi-periods.
    """
    return _elliptic_at(z, m)[2]


def invariants_g(m) -> LatticeData:
    """Invariants g2, g3, half-period values e_k and quasi-periods at tau."""
    m = _as_point(m)
    _, _, _, _, eta1, eta2, g2, g3, _, _ = m.frame
    e1, e2, e3, err = _kernels.lattice_values(m.tau, m.frame)
    return LatticeData(
        eta1=eta1, eta2=eta2, e1=e1, e2=e2, e3=e3, g2=g2, g3=g3, est_error=err
    )

