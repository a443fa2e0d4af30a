"""Exception types shared across the library.

Numerical failure modes are first-class here: callers distinguish "the input
is outside the contract" (DomainError, Degenerate) from "the computation
cannot decide at this precision" (BoundaryTooClose, IncoherentWinding,
NewtonStall).
"""


class PviLabError(Exception):
    """Base class for all library errors."""


class DomainError(PviLabError):
    """Input outside the mathematical domain (e.g. Im tau <= 0)."""


class NearSingular(PviLabError):
    """z is within the guard distance of a lattice point after reduction."""


class NearLattice(PviLabError):
    """r + s*tau is within the guard distance of the lattice; callers must
    switch to the Laurent-expansion path."""


class Degenerate(PviLabError):
    """(r, s) lies in (1/2)Z^2: the premodular form is identically 0 or
    identically infinite and carries no information."""


class BoundaryTooClose(PviLabError):
    """A contour sample came too close to a zero of the integrand."""


class IncoherentWinding(PviLabError):
    """Accumulated phase is not within tolerance of an integer multiple of
    2*pi, or located zeros do not account for the winding number."""


class NewtonStall(PviLabError):
    """Newton refinement failed to converge within the iteration budget."""


class DepthExceeded(PviLabError):
    """Orbit BFS failed to stabilise within the requested depth."""


class InternalError(PviLabError):
    """Exact verification of a constructed witness failed; indicates an
    implementation bug, never expected on valid inputs."""
