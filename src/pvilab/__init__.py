"""Premodular forms, Weierstrass elliptic machinery and pole counting for a
completely reducible Painlevé VI parameter family.

The library evaluates the closed-form solution values lambda_{r,s}(t)
through the elliptic cover t(tau), locates and counts the poles via zeros
of the weight-3 form Z2_{r,s} in modular fundamental domains, and carries
the exact torsion-orbit combinatorics behind the pole-count formulas.
"""

__version__ = "0.1.0"

from ._kernels import backend_name
from .elliptic import (
    LatticeData,
    ModuliPoint,
    invariants_g,
    weierstrass_p,
    weierstrass_zeta,
)
from .errors import (
    BoundaryTooClose,
    Degenerate,
    DepthExceeded,
    DomainError,
    IncoherentWinding,
    InternalError,
    NearLattice,
    NearSingular,
    NewtonStall,
    PviLabError,
)
from .locator import (
    F,
    F0,
    F2,
    DomainSpec,
    TrianglePosition,
    ZeroCertificate,
    classify_triangle,
    count_mn_zeros,
    locate_zeros,
    valence_check,
    winding_count,
)
from .modular import ModularMatrix, transport_pair
from .orbits import (
    OrbitReport,
    RationalPair,
    classify_orbit,
    enumerate_qn,
    euler_phi,
    orbit_brute_force,
    p_of_n,
    pole_count,
    qn_size,
)
from .premodular import (
    TorsionPair,
    cusp_asymptotic,
    hecke_Z,
    m_n,
    z2,
    z2_cusp_expansion,
    z2_stable,
)
from .solutions import (
    SolutionValue,
    lambda_rs,
    wp_of_p,
)

__all__ = [
    "__version__",
    "backend_name",
    "BoundaryTooClose",
    "classify_orbit",
    "classify_triangle",
    "count_mn_zeros",
    "cusp_asymptotic",
    "Degenerate",
    "DepthExceeded",
    "DomainError",
    "DomainSpec",
    "enumerate_qn",
    "euler_phi",
    "F",
    "F0",
    "F2",
    "hecke_Z",
    "IncoherentWinding",
    "InternalError",
    "invariants_g",
    "lambda_rs",
    "LatticeData",
    "locate_zeros",
    "m_n",
    "ModularMatrix",
    "ModuliPoint",
    "NearLattice",
    "NearSingular",
    "NewtonStall",
    "OrbitReport",
    "orbit_brute_force",
    "p_of_n",
    "pole_count",
    "PviLabError",
    "qn_size",
    "RationalPair",
    "SolutionValue",
    "TorsionPair",
    "transport_pair",
    "TrianglePosition",
    "valence_check",
    "weierstrass_p",
    "weierstrass_zeta",
    "winding_count",
    "wp_of_p",
    "z2",
    "z2_cusp_expansion",
    "z2_stable",
    "ZeroCertificate",
]
