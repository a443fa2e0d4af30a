"""SL(2,Z) reduction: the matrix returned with a reduced point is exact."""

import cmath
import math

import numpy as np

from pvilab.modular import reduce_to_standard


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
