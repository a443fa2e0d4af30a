"""SL(2,Z) reduction: the matrix returned with a reduced point is exact, and
the branch copy read off a point's frame is the one its own reduction gives."""

import cmath
import math

import numpy as np

from pvilab.elliptic import ModuliPoint
from pvilab.modular import (
    branch_copy,
    gamma2_coset_label,
    reduce_to_shifted_domain,
    reduce_to_standard,
)


def test_reduce_to_standard_roundtrip():
    rng = np.random.default_rng(5)
    taus = [
        complex(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        for _ in range(500)
    ]
    # within 1e-14 of |tau| = 1, where the |tau| < 1 test decides an inversion
    taus += [
        (1.0 + rng.uniform(-1e-14, 1e-14)) * cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05))
        + int(rng.integers(-2, 3))
        for _ in range(500)
    ]
    for tau in taus:
        tred, g = reduce_to_standard(tau)
        assert g.a * g.d - g.b * g.c == 1
        assert abs(g.moebius(tau) - tred) <= 1e-14 * abs(tred)
        assert abs(tred.real) <= 0.5


def test_branch_copy_reads_the_point_frame():
    # the label from the frame's reduction equals the one from reducing tau
    # afresh, over the point_eval benchmark's distribution of tau and points
    # within 1e-9 of the unit circle, where the shift into F inverts
    rng = np.random.default_rng(29)
    lo, hi = math.log(0.05), math.log(5.0)
    taus = [
        complex(rng.uniform(-2.0, 2.0), math.exp(rng.uniform(lo, hi)))
        for _ in range(10_000)
    ]
    taus += [
        (1.0 + rng.uniform(-1e-9, 1e-9)) * cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05))
        + int(rng.integers(-2, 3))
        for _ in range(500)
    ]
    for tau in taus:
        expected = gamma2_coset_label(reduce_to_shifted_domain(tau)[1].inverse())
        assert branch_copy(ModuliPoint.from_tau(tau)) == expected, tau
