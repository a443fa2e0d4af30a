"""The NumPy batch kernel ``z2_many`` against the scalar ``premodular_at``,
and its per-point (r, s) batches against per-pair calls."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pvilab import _kernels
from pvilab.locator import F, F0, F2, _interior_grid
from pvilab.modular import reduce_to_standard, transport_pair
from pvilab.premodular import TorsionPair, cusp_asymptotic, z2_stable_many

GRID_SIZES = ((29, 25), (57, 49), (113, 97))
# generic pairs in D2 and D1, s = 0, s = 1/2 and r = 1/2
PAIRS = [
    (0.6, 0.3),
    (0.9, 0.05),
    (Fraction(1, 3), Fraction(0)),
    (0.2, 0.5),
    (Fraction(1, 2), Fraction(1, 5)),
]
AGREE_RTOL = 1e-13
# Below this expected |Z2|/scale suppression both kernels return
# cancellation noise, and they differ by up to 1e-8 relative there.
ATTENUATION_FLOOR = 1e-3


def _batch(pair, taus):
    r, s = pair.as_complex()
    return _kernels.z2_many(r, s, np.ascontiguousarray(taus, dtype=np.complex128))


def _scalar(pair, taus):
    r, s = pair.as_complex()
    out = [_kernels.premodular_at(r, s, complex(t)) for t in taus]
    return np.array([o[3] for o in out]), np.array([o[8] for o in out])


def _reduced_cusp_attenuation(pair, taus):
    """exp(-2 pi ord Im tau_red) per tau, ord the cusp order of the pair
    transported by the matrix that reduces tau: the expected |Z2|/scale
    suppression of the kernels' direct value, which the cusp rule replaces
    by the transported pair's series wherever ord > 0."""
    att = np.ones(len(taus))
    for i, tau in enumerate(taus):
        tau_red, g = reduce_to_standard(complex(tau))
        order = cusp_asymptotic(TorsionPair.of(*transport_pair(pair.r, pair.s, g)))[1]
        att[i] = math.exp(-2.0 * math.pi * float(order) * tau_red.imag)
    return att


def _random_taus(rng, n):
    im = np.exp(rng.uniform(math.log(0.03), math.log(10.0), n))
    return rng.uniform(-2.0, 2.0, n) + 1j * im


def _trusted(pair, taus):
    """Points where the scalar value is not cancellation noise: those whose
    reduced frame does not attenuate Z2 below ATTENUATION_FLOOR, near any
    cusp."""
    return _reduced_cusp_attenuation(pair, taus) >= ATTENUATION_FLOOR


def _assert_agrees(pair, taus, vals, scales, trusted):
    ref_vals, ref_scales = _scalar(pair, taus)
    assert np.array_equal(np.isnan(vals), np.isnan(ref_vals))
    assert np.array_equal(np.isnan(scales), np.isnan(ref_scales))
    ok = trusted & ~np.isnan(ref_vals)
    assert np.all(np.abs(vals - ref_vals)[ok] <= AGREE_RTOL * ref_scales[ok])
    assert np.all(np.abs(scales - ref_scales)[ok] <= AGREE_RTOL * ref_scales[ok])
    # the comparison is not vacuous
    assert ok.sum() >= 0.2 * len(taus)


@pytest.mark.parametrize("r,s", PAIRS)
def test_batch_matches_scalar_on_locator_grids(r, s):
    pair = TorsionPair.of(r, s)
    grids = [_interior_grid(d, nx, ny) for d in (F0, F, F2) for nx, ny in GRID_SIZES]
    taus = np.concatenate(grids)
    _assert_agrees(pair, taus, *_batch(pair, taus), _trusted(pair, taus))


@pytest.mark.parametrize("r,s", PAIRS)
def test_batch_matches_scalar_at_random_tau(r, s, rng):
    pair = TorsionPair.of(r, s)
    taus = _random_taus(rng, 1000)
    _assert_agrees(pair, taus, *_batch(pair, taus), _trusted(pair, taus))


def test_nan_exactly_at_lattice_hits():
    # alpha = r + s*tau is 0 at tau0 and 1 at tau0 + 2
    tau0 = 0.3 + 0.8j
    pair = TorsionPair.of(-0.5 * tau0, 0.5)
    taus = np.array([tau0, tau0 + 2.0, tau0 + 1e-3, tau0 + 1.0, 1.7 + 0.05j])
    vals, scales = _batch(pair, taus)
    ref_vals, ref_scales = _scalar(pair, taus)
    hits = [True, True, False, False, False]
    assert np.isnan(vals).tolist() == np.isnan(ref_vals).tolist() == hits
    assert np.isnan(scales).tolist() == np.isnan(ref_scales).tolist() == hits
    for i in range(len(taus)):
        single = _batch(pair, taus[i : i + 1])
        assert np.array_equal(single[0], vals[i : i + 1], equal_nan=True)


@pytest.fixture(scope="module")
def pool():
    """1025 points mixed from the F2 grid and random tau, each evaluated
    alone."""
    rng = np.random.default_rng(1025)
    grid = np.array(_interior_grid(F2, 57, 49))
    taus = np.concatenate([grid, _random_taus(rng, 1025)])
    taus = taus[rng.permutation(len(taus))[:1025]]
    pair = TorsionPair.of(0.9, 0.05)
    singles = [_batch(pair, taus[i : i + 1]) for i in range(len(taus))]
    vals = np.concatenate([v for v, _ in singles])
    scales = np.concatenate([sc for _, sc in singles])
    return pair, taus, vals, scales


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025])
def test_every_size_is_batch_invariant_and_matches_scalar(n, pool):
    pair, taus, single_vals, single_scales = pool
    vals, scales = _batch(pair, taus[:n])
    assert vals.shape == scales.shape == (n,)
    assert np.array_equal(vals, single_vals[:n], equal_nan=True)
    assert np.array_equal(scales, single_scales[:n], equal_nan=True)
    if n:
        _assert_agrees(pair, taus[:n], vals, scales, _trusted(pair, taus[:n]))


def test_result_does_not_depend_on_batch_order(pool):
    pair, taus, single_vals, single_scales = pool
    perm = np.random.default_rng(7).permutation(len(taus))
    vals, scales = _batch(pair, taus[perm])
    assert np.array_equal(vals, single_vals[perm])
    assert np.array_equal(scales, single_scales[perm])


def _seeded_pairs(n, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        N = int(rng.integers(5, 30))
        k1, k2 = (int(k) for k in rng.integers(0, N, size=2))
        pair = TorsionPair.of(Fraction(k1, N), Fraction(k2, N))
        if not pair.degenerate:
            pairs.append(pair)
    return pairs


def test_per_point_pairs_match_per_pair_calls():
    # seeded pairs on the F0, F and F2 grids, then a pair whose alpha hits
    # the lattice at tau0; each group is checked against its own call with
    # scalar r, s
    tau0 = 0.3 + 0.8j
    groups = [
        (pair, _interior_grid(d, 29, 25))
        for pair, d in zip(_seeded_pairs(6, 20261017), (F0, F, F2) * 2)
    ]
    groups.append((TorsionPair.of(-0.5 * tau0, 0.5), np.array([tau0, tau0 + 1e-3])))
    taus = np.concatenate([g for _, g in groups])
    r = np.concatenate([np.full(len(g), p.as_complex()[0]) for p, g in groups])
    s = np.concatenate([np.full(len(g), p.as_complex()[1]) for p, g in groups])
    assert len(taus) > _kernels._BLOCK
    vals, scales = _kernels.z2_many(r, s, taus)
    ref = [_batch(pair, g) for pair, g in groups]
    assert np.array_equal(vals, np.concatenate([v for v, _ in ref]), equal_nan=True)
    assert np.array_equal(scales, np.concatenate([sc for _, sc in ref]), equal_nan=True)
    assert np.isnan(vals[-2]) and not np.isnan(vals[-1])


def test_grouped_stable_batch_matches_per_pair_calls():
    # pairs with s = 0 and s = 1/2 take their cusp series on the frames
    # where the cusp rule applies inside a grouped batch as they do alone
    pairs = [
        TorsionPair.of(Fraction(1, 3), Fraction(0)),
        TorsionPair.of(0.6, 0.3),
        TorsionPair.of(Fraction(1, 5), Fraction(1, 2)),
    ]
    taus = [_interior_grid(F0, 29, 25)[k::3] for k in range(3)]
    sizes = [len(t) for t in taus]
    vals, scales = z2_stable_many(pairs, np.concatenate(taus), sizes)
    ref = [z2_stable_many(pair, t) for pair, t in zip(pairs, taus)]
    for got, want in zip((vals, scales), zip(*ref)):
        assert np.array_equal(got, np.concatenate(want), equal_nan=True)
    # the series is not vacuous: both cusp pairs move off the kernel's values
    for k in (0, 2):
        assert not np.array_equal(ref[k][0], _batch(pairs[k], taus[k])[0])
