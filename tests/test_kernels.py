"""The NumPy batch kernel ``z2_many`` against the scalar ``premodular_at``,
and its per-point (r, s) batches against per-pair calls."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pvilab import _kernels, premodular
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
    taus = np.ascontiguousarray(taus, dtype=np.complex128)
    n = len(taus)
    reduced = _kernels.reduce_tau_many(taus)
    return _kernels.z2_many(np.full(n, r), np.full(n, s), taus, reduced)


def _scalar(pair, taus):
    r, s = pair.as_complex()
    out = []
    for t in taus:
        t = complex(t)
        out.append(_kernels.premodular_at(r, s, t, _kernels.lattice_constants(t)))
    return np.array([o[3] for o in out]), np.array([o[4] for o in out])


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
    # the lattice at tau0; each group is checked against its own call
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
    vals, scales = _kernels.z2_many(r, s, taus, _kernels.reduce_tau_many(taus))
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
    joined = np.concatenate(taus)
    vals, scales = z2_stable_many(pairs, joined, sizes, _kernels.reduce_tau_many(joined))
    ref = [
        z2_stable_many([pair], t, [len(t)], _kernels.reduce_tau_many(t))
        for pair, t in zip(pairs, taus)
    ]
    for got, want in zip((vals, scales), zip(*ref)):
        assert np.array_equal(got, np.concatenate(want), equal_nan=True)
    # the series is not vacuous: both cusp pairs move off the kernel's values
    for k in (0, 2):
        assert not np.array_equal(ref[k][0], _batch(pairs[k], taus[k])[0])


def test_stable_batch_columns_keep_their_dtypes(monkeypatch):
    # exact pairs carry integers; a float or a NaN carry (a complex pair)
    # makes x and y floats while n stays an integer
    seen, rule = [], premodular._cusp_rule

    def spy(taus, reduced, *cols):
        seen.append("".join(col.dtype.kind for col in cols))
        return rule(taus, reduced, *cols)

    monkeypatch.setattr(premodular, "_cusp_rule", spy)
    exact = TorsionPair.of(Fraction(1, 3), Fraction(1, 5))
    taus = np.array([0.3 + 1.1j, 0.1 + 0.4j, 0.7 + 0.2j])
    for other in (exact, TorsionPair.of(0.6, 0.3), TorsionPair.of(0.3 + 0.1j, 0.2)):
        vals, scales = z2_stable_many([exact, other], taus, [1, 2], _kernels.reduce_tau_many(taus))
        alone = [
            z2_stable_many([p], t, [len(t)], _kernels.reduce_tau_many(t))
            for p, t in ((exact, taus[:1]), (other, taus[1:]))
        ]
        assert np.array_equal(vals, np.concatenate([v for v, _ in alone]), equal_nan=True)
        assert np.array_equal(scales, np.concatenate([sc for _, sc in alone]), equal_nan=True)
    assert seen[::3] == ["cciii", "ccffi", "ccffi"]


# ---------------------------------------------------------------------------
# z2_many against the row-by-row loop form of the series, bit for bit
# ---------------------------------------------------------------------------


def _reference_block(r, s, tau, reduced):
    """(Z2, scale) of one block in the loop form: one pass per term k with
    arrays of the block's points, E2 in its own loop, each loop run until
    every point passes its stop test."""
    pi, kmax = math.pi, _kernels._KMAX
    tred, _, _, c, d = reduced
    qred = np.exp(2j * pi * tred)

    e2 = np.ones_like(qred)
    qk = np.ones_like(qred)
    for k in range(1, kmax):
        qk = qk * qred
        kf = float(k)
        e2 -= 24.0 * kf * (qk / (1.0 - qk))
        if k >= 6 and np.all(504.0 * kf**5 * np.abs(qk) < 1e-18):
            break
    eta1_r = pi * pi / 3.0 * e2
    j = c * tau + d
    j2 = j * j
    eta1 = eta1_r / j2 + 2j * pi * c / j
    eta2 = tau * eta1 - 2j * pi
    eta2_r = tred * eta1_r - 2j * pi

    zr = (r + s * tau) / j
    y = zr.imag / tred.imag
    x = zr.real - y * tred.real
    m = np.floor(x + 0.5)
    n = np.floor(y + 0.5)
    z = zr - m - n * tred
    hit = np.abs(z) < 1e-12

    up = z.imag >= 0.0
    u = np.exp(2j * pi * np.where(up, z, -z))
    one_m_u = 1.0 - u
    cot = 1j * (1.0 + u) / one_m_u
    cot = np.where(up, -cot, cot)
    inv_sin2 = -4.0 * u / (one_m_u * one_m_u)
    pi2 = pi * pi
    wp = pi2 * (-1.0 / 3.0) + pi2 * inv_sin2
    wpp = -2.0 * pi * pi2 * cot * inv_sin2
    zt = pi * cot
    a1 = np.exp(2j * pi * (tred + z))
    b1 = np.exp(2j * pi * (tred - z))
    ak = np.ones_like(z)
    bk = np.ones_like(z)
    qk = np.ones_like(z)
    s_wp = np.zeros_like(z)
    s_wpp = np.zeros_like(z)
    s_zt = np.zeros_like(z)
    for k in range(1, kmax):
        ak = ak * a1
        bk = bk * b1
        qk = qk * qred
        inv = 1.0 / (1.0 - qk)
        kf = float(k)
        diff = ak - bk
        s_wp += kf * (0.5 * (ak + bk) - qk) * inv
        s_wpp += (kf * kf) * (-0.5j) * diff * inv
        s_zt += diff * inv
        if k >= 6 and np.all(kf * kf * (np.abs(ak) + np.abs(bk) + np.abs(qk)) < 1e-19):
            break
    wp += -8.0 * pi2 * s_wp
    wpp += 16.0 * pi * pi2 * s_wpp
    zt += -2j * pi * s_zt

    zeta_r = zt + eta1_r * (z + m) + eta2_r * n
    wp = wp / j2
    wpp = wpp / (j2 * j)
    z = zeta_r / j - r * eta1 - s * eta2
    z2 = z * z * z - 3.0 * wp * z - wpp
    az = np.abs(z)
    scale = az**3 + 3.0 * np.abs(wp) * az + np.abs(wpp)
    z2[hit] = complex(math.nan, math.nan)
    scale[hit] = math.nan
    return z2, scale


def _reference_many(r, s, taus):
    """``z2_many`` with ``_reference_block`` on the same blocks."""
    reduced = _kernels.reduce_tau_many(taus)
    out = [np.empty(len(taus), dtype=np.complex128), np.empty(len(taus))]
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(taus), _kernels._BLOCK):
            part = slice(lo, lo + _kernels._BLOCK)
            block = [x[part] for x in reduced]
            out[0][part], out[1][part] = _reference_block(r[part], s[part], taus[part], block)
    return out


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module")
def mixed_points():
    """About 20k (r, s, tau) with r, s per point: tau anywhere above the real
    axis down to Im 0.03, tau near the arc |tau| = 1 of the standard domain
    (reduced Im near sqrt(3)/2, where the series are longest), tau with Im
    up to 12 (where the powers underflow), pairs with complex parts, and
    lattice hits."""
    rng = np.random.default_rng(20261017)
    n = 20000
    im = np.exp(rng.uniform(math.log(0.03), math.log(10.0), n))
    taus = rng.uniform(-2.0, 2.0, n) + 1j * im
    arc = np.exp(1j * rng.uniform(math.pi / 3, 2 * math.pi / 3, 4000))
    taus[:4000] = arc * (1.0 + rng.uniform(0.0, 1e-3, 4000))
    taus[4000:5000] = rng.uniform(-0.5, 0.5, 1000) + 1j * rng.uniform(10.0, 12.0, 1000)
    r = rng.uniform(-1.0, 1.0, n) + 0j
    s = rng.uniform(-1.0, 1.0, n) + 0j
    r[5000:6000] += 1j * rng.uniform(-0.3, 0.3, 1000)
    s[5000:6000] += 1j * rng.uniform(-0.3, 0.3, 1000)
    # alpha = r + s*tau = 0 on a sprinkling of points
    r[6000:6100] = -0.5 * taus[6000:6100]
    s[6000:6100] = 0.5
    order = rng.permutation(n)
    return r[order], s[order], taus[order]


@pytest.mark.parametrize("size", [1, 2, 255, 256, 257, 511, 512, 513, 1000])
def test_z2_many_equals_the_loop_form_bit_for_bit(size, mixed_points):
    r, s, taus = mixed_points
    # one- and two-point calls over a share of the points, larger calls
    # over all of them
    stop = 300 if size <= 2 else len(taus)
    for lo in range(0, stop, size):
        part = slice(lo, min(lo + size, stop))
        got = _kernels.z2_many(r[part], s[part], taus[part], _kernels.reduce_tau_many(taus[part]))
        want = _reference_many(r[part], s[part], taus[part])
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), (size, lo)


def test_one_point_call_equals_its_value_in_a_large_batch(mixed_points):
    r, s, taus = mixed_points
    vals, scales = _kernels.z2_many(r, s, taus, _kernels.reduce_tau_many(taus))
    assert np.isnan(vals).sum() >= 50
    for i in range(0, len(taus), 97):
        part = slice(i, i + 1)
        one = _kernels.z2_many(r[part], s[part], taus[part], _kernels.reduce_tau_many(taus[part]))
        assert _same_bits(one[0], vals[part]) and _same_bits(one[1], scales[part]), i


def _block_bases(r, s, taus):
    """The (3, n) bases a1, b1, q of ``_series_many`` for one block."""
    pi = math.pi
    tred, _, _, c, d = _kernels.reduce_tau_many(taus)
    zr = (r + s * taus) / (c * taus + d)
    y = zr.imag / tred.imag
    z = zr - np.floor(zr.real - y * tred.real + 0.5) - np.floor(y + 0.5) * tred
    return np.exp(2j * pi * np.array([tred + z, tred - z, tred]))


def _loop_stop_rows(base):
    """The first rows at which every point of the block passes the wz and
    the E2 stop test, read off the loop form's running products."""
    last = _kernels._KMAX - 1
    rows = [last, last]
    power = np.ones_like(base)
    for k in range(1, last):
        power = power * base
        mod = np.abs(power)
        kf = float(k)
        passed = (
            np.all(kf * kf * (mod[0] + mod[1] + mod[2]) < 1e-19),
            np.all(504.0 * kf**5 * mod[2] < 1e-18),
        )
        for i in (0, 1):
            if k >= 6 and rows[i] == last and passed[i]:
                rows[i] = k
        if last not in rows:
            break
    return rows


def test_stop_rows_bound_the_loop_form_by_at_most_one_row(mixed_points):
    # blocks of the mixed points, then the three F0 start grids per pair
    size, n = _kernels._BLOCK, len(mixed_points[2])
    blocks = [[x[lo : lo + size] for x in mixed_points] for lo in range(0, n, size)]
    for r, s in PAIRS:
        r, s = TorsionPair.of(r, s).as_complex()
        for nx, ny in GRID_SIZES:
            grid = _interior_grid(F0, nx, ny)
            for lo in range(0, len(grid), size):
                part = grid[lo : lo + size]
                blocks.append((np.full(len(part), r), np.full(len(part), s), part))
    for r, s, taus in blocks:
        base = _block_bases(r, s, taus)
        bound = _kernels._stop_rows(base)
        for k, k_bound in zip(_loop_stop_rows(base), bound):
            assert k <= k_bound <= k + 1, (k, bound)
