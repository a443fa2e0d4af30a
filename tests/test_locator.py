"""Contour winding, zero location, M_N zero counts, valence bookkeeping."""

import cmath
import math
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pvilab import locator, premodular
from pvilab.elliptic import ModuliPoint
from pvilab.errors import (
    BoundaryTooClose,
    DomainError,
    IncoherentWinding,
    NewtonStall,
    PviLabError,
)
from pvilab.locator import (
    F,
    F0,
    F2,
    DomainSpec,
    _build_contour,
    _windings,
    classify_triangle,
    count_mn_zeros,
    locate_zeros,
    valence_check,
    winding_count,
)
from pvilab.modular import reduce_to_shifted_domain, reduce_to_standard, transport_pair
from pvilab.orbits import (
    enumerate_qn,
    euler_phi,
    p_of_n,
    pm_class_reps,
    pole_count,
    qn_size,
)
from pvilab.premodular import (
    TorsionPair,
    cusp_asymptotic,
    z2_cusp_expansion,
    z2_stable,
    z2_stable_many,
    z2_with_scale,
)

PI = math.pi


@pytest.fixture
def fresh_anchors():
    # the triangle anchors are cached per process: a test that patches
    # Newton finds its own, and none it found stays cached after it
    locator._anchor.cache_clear()
    yield
    locator._anchor.cache_clear()


def _warm_anchors():
    return {tag: locator._anchor(tag).tau0 for tag in locator._CENTROIDS}


# --- classify_triangle ------------------------------------------------------


@pytest.mark.parametrize(
    "r,s,tag",
    [
        (0.3, 0.3, "D0"),
        (0.9, 0.3, "D1"),
        (0.6, 0.3, "D2"),
        (0.1, 0.2, "D3"),
        (Fraction(1, 2), Fraction(1, 4), "boundary"),
        (Fraction(1, 4), Fraction(1, 4), "boundary"),  # r + s = 1/2
        (Fraction(3, 4), Fraction(1, 4), "boundary"),  # r + s = 1
        (Fraction(1, 5), 0, "boundary"),
        (0.75, 0.65, "D0"),  # window-reduces to (0.25, 0.35)
    ],
)
def test_triangle_classification(r, s, tag):
    assert classify_triangle(TorsionPair.of(r, s)).tag == tag


def test_triangle_boundary_guard_band_for_floats():
    assert classify_triangle(TorsionPair.of(0.5 + 1e-14, 0.2)).tag == "boundary"


def _fraction_triangle(r, s):
    """The triangle of an exact pair by Fraction arithmetic on its window
    representative: the reference for ``classify_triangle``'s integer rule."""
    r, s = Fraction(r) % 1, Fraction(s) % 1
    if 2 * s > 1:
        r, s = (-r) % 1, (-s) % 1
    half = Fraction(1, 2)
    if any(e == 0 for e in (r, r - half, r - 1, s, s - half, r + s - half, r + s - 1)):
        return "boundary"
    if 0 < r < half and 0 < s < half and r + s > half:
        return "D0"
    if half < r < 1 and 0 < s < half and r + s > 1:
        return "D1"
    if half < r < 1 and 0 < s < half and r + s < 1:
        return "D2"
    if r > 0 and s > 0 and r + s < half:
        return "D3"
    return "outside"


def test_triangle_integer_rule_matches_fractions():
    # every +-class of Q_N, N = 3..40, and the degenerate pairs
    pairs = [(c.r, c.s) for N in range(3, 41) for c in pm_class_reps(N)]
    halves = [Fraction(k, 2) for k in range(-2, 4)]
    pairs += [(r, s) for r in halves for s in halves]
    tags = [classify_triangle(TorsionPair.of(r, s)).tag for r, s in pairs]
    assert tags == [_fraction_triangle(r, s) for r, s in pairs]
    assert {"D0", "D1", "D2", "D3", "boundary"} <= set(tags)


# --- winding over F0 --------------------------------------------------------


@pytest.mark.parametrize(
    "r,s,w",
    [(0.6, 0.3, 1), (0.3, 0.3, 0), (0.1, 0.2, 1), (0.9, 0.05, 1)],
)
def test_winding_examples(r, s, w):
    assert winding_count(TorsionPair.of(r, s), F0) == w


def test_winding_requires_real_pair():
    with pytest.raises(DomainError):
        winding_count(TorsionPair.of(0.3 + 0.1j, 0.2), F0)


def test_winding_invariant_under_density_doubling():
    pair = TorsionPair.of(0.62, 0.17)
    pieces = _build_contour(F0, pair)
    (coarse,) = _windings([pair], [pieces], 17)
    (fine,) = _windings([pair], [pieces], 34)
    assert round(coarse) == round(fine)
    assert abs(coarse - fine) < 0.02


def test_winding_evaluates_initial_samples_of_all_pieces_at_once(monkeypatch):
    pair = TorsionPair.of(0.62, 0.17)
    pieces = _build_contour(F0, pair)
    numeric = [p for p in pieces if not isinstance(p, locator._Jump)]
    sizes = []

    def counted(p, taus, counts):
        sizes.append(len(taus))
        return z2_stable_many(p, taus, counts)

    monkeypatch.setattr(locator, "z2_stable_many", counted)
    assert round(_windings([pair], [pieces], 17)[0]) == winding_count(pair, F0)
    assert sizes[0] == 17 * len(numeric)

# The 22 (r, s) of the first round of perfbench's triangle_sweep at seed 1,
# with their windings over F0, F and F2 as segment halving found them.
SWEEP_ROUND_ONE = [
    ((13, 28), (3, 7), (0, 0, 1)),
    ((6, 11), (9, 22), (1, 0, 2)),
    ((1, 5), (1, 5), (1, 0, 1)),
    ((11, 15), (19, 60), (1, 1, 2)),
    ((1, 11), (5, 11), (0, 0, 0)),
    ((8, 29), (23, 58), (0, 0, 1)),
    ((4, 5), (2, 5), (1, 1, 1)),
    ((4, 23), (11, 46), (1, 0, 1)),
    ((1, 4), (3, 32), (1, 0, 2)),
    ((7, 12), (1, 8), (1, 0, 2)),
    ((5, 6), (3, 10), (1, 1, 2)),
    ((12, 25), (12, 25), (0, 0, 1)),
    ((1, 8), (1, 16), (1, 0, 2)),
    ((13, 16), (1, 16), (1, 0, 2)),
    ((4, 5), (1, 10), (1, 0, 1)),
    ((9, 25), (6, 25), (0, 0, 1)),
    ((5, 12), (11, 24), (0, 0, 1)),
    ((15, 17), (9, 34), (1, 1, 2)),
    ((4, 5), (1, 10), (1, 0, 1)),
    ((1, 7), (3, 14), (1, 0, 1)),
    ((17, 27), (7, 27), (1, 0, 2)),
    ((4, 5), (2, 5), (1, 1, 1)),
]


@pytest.mark.parametrize("r,s,windings", SWEEP_ROUND_ONE)
def test_steep_segments_split_in_one_round(r, s, windings, monkeypatch):
    # a segment whose phase step is too steep is cut into enough equal
    # parts at once, so every winding settles within three kernel batches
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return z2_stable_many(*args)

    monkeypatch.setattr(locator, "z2_stable_many", counted)
    pair = TorsionPair.of(Fraction(*r), Fraction(*s))
    for d, w in zip((F0, F, F2), windings):
        calls.clear()
        assert winding_count(pair, d) == w
        assert len(calls) <= 3, (d.kind, calls)


def test_split_points_cut_a_segment_into_equal_parts():
    # steps just over MAX_PHASE_STEP, 2.5 times it and pi: 4, 8 and 16
    # parts, each with a step of at most MAX_PHASE_STEP / 2 when spread evenly
    lo, hi = np.array([0.0, 0.5, 0.25]), np.array([0.25, 0.75, 0.5])
    steps = np.array([1.01, -2.5, 8.0]) * locator.MAX_PHASE_STEP
    got, seg = locator._split_points(lo, hi, steps)
    want = np.concatenate(
        [np.arange(1, 4) / 16, 0.5 + np.arange(1, 8) / 32, 0.25 + np.arange(1, 16) / 64]
    )
    assert np.array_equal(got, want)
    assert np.array_equal(seg, np.repeat([0, 1, 2], [3, 7, 15]))


def test_winding_with_degenerate_cusp_directions():
    # r + s = 1/2 forces an excised disk at the cusp 1; r = 0 at the cusp 0
    assert winding_count(TorsionPair.of(Fraction(1, 4), Fraction(1, 4)), F0) == 0
    assert winding_count(TorsionPair.of(0, Fraction(1, 4)), F0) == 0
    assert winding_count(TorsionPair.of(Fraction(1, 4), 0), F0) == 0
    # and with an interior zero: (2/5, 1/10): r + s = 1/2, in D3... no:
    # 2/5 + 1/10 = 1/2 -> boundary pair, winding 0; use (3/10, 1/5): sum 1/2
    assert winding_count(TorsionPair.of(Fraction(3, 10), Fraction(1, 5)), F0) == 0


@pytest.mark.parametrize("s", [1e-11, 1e-10, 1e-9])
def test_float_pair_just_off_a_cusp_edge_never_winds_silently_wrong(s):
    # (0.3, s) lies in D3, just above the edge s = 0 and outside the 1e-12
    # guard band, with its F0 zero high up towards the cusp; read as the edge
    # pair (0.3, 0) it would wind 0 times with no error
    pair = TorsionPair.of(0.3, s)
    assert classify_triangle(pair).tag == "D3" and pair.cusp[1] == 0
    try:
        w = winding_count(pair, F0)
    except PviLabError:
        return
    assert w == 1


# a pair whose synthetic Z2 reads 2 wherever the first pair's reads 1
_OTHER = TorsionPair.of(0.9, 0.05)


def _synthetic_z2(pairs, taus, counts):
    # 1 on Re = 3, 0 on Re = 5 (fails the clearance check in the first
    # round), and a sign flip at Im = 1.5 on Re = 7 (no bisection resolves
    # it, so refinement runs out of rounds); _OTHER reads 2 where it reads 1
    owners = np.repeat(np.array(pairs, dtype=object), counts)
    vals = np.where(owners == _OTHER, 2.0, 1.0).astype(np.complex128)
    vals[taus.real == 5.0] = 0.0
    vals[(taus.real == 7.0) & (taus.imag > 1.5)] *= -1.0
    return vals, np.ones(len(taus))


_GOOD, _CLOSE, _FLIP = (("seg", complex(x, 1.0), complex(x, 2.0)) for x in (3.0, 5.0, 7.0))


def test_phase_tracking_raises_the_first_failing_piece(monkeypatch):
    monkeypatch.setattr(locator, "z2_stable_many", _synthetic_z2)
    pair, other = TorsionPair.of(0.6, 0.3), _OTHER
    good, close, flip = _GOOD, _CLOSE, _FLIP
    assert _windings([pair], [[good]], 9) == [0.0]
    with pytest.raises(BoundaryTooClose):
        _windings([pair], [[good, close, flip]], 9)
    with pytest.raises(IncoherentWinding, match="did not settle"):
        _windings([pair], [[good, flip, close]], 9)
    # two pairs in one batch: each contour follows its own pair, and the
    # first failing piece in contour order is still the error raised
    assert _windings([pair, other], [[good], [good]], 9) == [0.0, 0.0]
    with pytest.raises(BoundaryTooClose):
        _windings([other, pair, other], [[good], [close], [flip]], 9)
    settle = f"did not settle .* for {re.escape(str(other))}"
    with pytest.raises(IncoherentWinding, match=settle):
        _windings([pair, other, pair], [[good], [flip], [close]], 9)


def test_an_earlier_contours_error_wins_over_a_later_contours_earlier_failure(
    monkeypatch,
):
    # the second contour fails its clearance check in the first round, the
    # first one only when refinement runs out of rounds
    monkeypatch.setattr(locator, "z2_stable_many", _synthetic_z2)
    pair = TorsionPair.of(0.6, 0.3)
    with pytest.raises(IncoherentWinding, match="did not settle"):
        _windings([pair, pair], [[_GOOD, _FLIP], [_CLOSE]], 9)
    with pytest.raises(IncoherentWinding, match="did not settle"):
        _windings([pair, _OTHER], [[_FLIP], [_GOOD, _CLOSE]], 9)
    with pytest.raises(BoundaryTooClose):
        _windings([pair, pair], [[_CLOSE], [_GOOD, _FLIP]], 9)


def test_one_windings_pass_gives_each_contour_its_lone_turns():
    # F0, F and F2 contours of several pairs, and squares around their F0
    # zeros and around a point that is no zero, tracked in one pass
    pairs = [
        TorsionPair.of(r, s)
        for r, s in (
            (0.6, 0.3),
            (0.1, 0.2),
            (0.9, 0.05),
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 2), Fraction(1, 5)),
            (Fraction(10, 13), Fraction(1, 13)),
        )
    ]
    jobs = [(p, _build_contour(d, p)) for p in pairs for d in (F0, F, F2)]
    jobs += [
        (c.torsion, locator._rect_pieces(c.tau0, 0.04))
        for p in pairs
        for c in locate_zeros(p, F0)
    ]
    jobs.append((pairs[0], locator._rect_pieces(0.5 + 2.0j, 0.04)))
    together = _windings([p for p, _ in jobs], [c for _, c in jobs], 17)
    assert together == [_windings([p], [c], 17)[0] for p, c in jobs]
    windings = [winding_count(p, d) for p in pairs for d in (F0, F, F2)]
    squares = len(jobs) - len(windings) - 1
    assert [round(t) for t in together] == windings + [1] * squares + [0]
    assert squares >= 4


def test_winding_gap_radius_independence(monkeypatch):
    # halving/doubling the excised-disk size must not change the count: disks
    # of order 1/2 at the cusp 1 and at 0 (around a zero), and of order 1
    cases = [
        (TorsionPair.of(Fraction(1, 4), Fraction(1, 4)), F0, 0),
        (TorsionPair.of(Fraction(1, 2), Fraction(1, 5)), F2, 1),
        (TorsionPair.of(0, Fraction(1, 4)), F0, 0),
    ]
    for radius in (0.06, 0.09, 0.12, 0.18, 0.24):
        monkeypatch.setattr(locator, "_EXCISION_RADIUS", radius)
        for pair, d, w in cases:
            assert winding_count(pair, d) == w, radius


# --- the cusp rule and the cusp orders --------------------------------------


# near the cusps infinity (below, at and above the height 2), 0, 1/2, 1/3,
# 1 and 2
_FRAME_TAUS = np.array(
    [0.3 + 1.5j, 0.1 + 2.0j, 0.45 + 2.3j, 0.9 + 4.0j, 0.02 + 0.05j,
     0.49 + 0.03j, 0.34 + 0.01j, 1.01 + 0.04j, 1.97 + 0.1j]
)


@pytest.mark.parametrize(
    "r,s",
    [
        (Fraction(1, 3), Fraction(0)),
        (Fraction(1, 5), Fraction(1, 2)),
        (Fraction(2, 7), Fraction(3, 2)),
        (0.27, 0.0),
        (0.3, 0.5),
        (0.6, 0.3),
    ],
)
def test_evaluator_and_z2_stable_share_the_series_switch(r, s):
    # the batch z2_stable_many and the scalar z2_stable agree everywhere, and
    # both take the series exactly where the pair, transported by the matrix
    # that reduces tau, has s' in (1/2)Z: there Z2 is that pair's cusp series
    # at the reduced point over j^3, elsewhere the direct value
    pair = TorsionPair.of(r, s)
    vals, scales = z2_stable_many([pair], _FRAME_TAUS, [len(_FRAME_TAUS)])
    on_series = 0
    for tau, val, scale in zip(map(complex, _FRAME_TAUS), vals, scales):
        m = ModuliPoint.from_tau(tau)
        stable, stable_scale = z2_stable(pair, m)
        assert abs(stable - val) <= 1e-13 * scale
        assert abs(stable_scale - scale) <= 1e-13 * scale
        tau_red, g = reduce_to_standard(tau)
        moved = TorsionPair.of(*transport_pair(pair.r, pair.s, g))
        if cusp_asymptotic(moved)[1] == 0:
            assert (stable, stable_scale) == z2_with_scale(pair, m)
            continue
        on_series += 1
        series = np.polyval(z2_cusp_expansion(moved)[::-1], cmath.exp(1j * PI * tau_red))
        assert abs(stable - series / g.cocycle(tau) ** 3) <= 1e-14 * scale
    assert on_series > 0


def test_evaluator_cusp_orders_follow_the_transport_formula(rng):
    # orders at x_c are those of (r_c, s_c) = (s, -(r + x_c s)) at infinity
    pairs = []
    while len(pairs) < 300:
        N = int(rng.integers(3, 25))
        k1, k2 = (int(k) for k in rng.integers(0, N, size=2))
        pairs.append(TorsionPair.of(Fraction(k1, N), Fraction(k2, N)))
    for _ in range(150):
        pairs.append(TorsionPair.of(float(rng.uniform(-1, 2)), float(rng.uniform(-1, 2))))
        # floats on the lines where some transported s_c lies in (1/2)Z
        k1, k2 = (int(k) for k in rng.integers(0, 20, size=2))
        pairs.append(TorsionPair.of(k1 / 20, k2 / 20))
    seen_orders = set()
    for pair in pairs:
        if pair.degenerate:
            continue
        r, s = (pair.r, pair.s) if pair.exact else pair.as_complex()
        for x_c in (0, 1, 2):
            expected = cusp_asymptotic(TorsionPair.of(s, -(r + x_c * s)))[1]
            assert pair.cusp_orders[x_c] == expected
            seen_orders.add(float(expected))
    assert seen_orders == {0.0, 0.5, 1.0}


# --- locate_zeros -----------------------------------------------------------


def _interior_grid_loop(d, nx, ny, margin=1e-3):
    """The point-by-point construction ``_interior_grid`` replaced, with the
    scalar membership test ``DomainSpec.contains`` had."""
    xl, xr = d.strip
    xs = np.linspace(xl + 0.02, xr - 0.02, nx)
    y_lo = max(locator._CUSP_CLEARANCE + 0.02, 0.05)
    ys = np.geomspace(y_lo, d.truncation_height, ny)

    def inside(tau):
        return (
            xl + margin <= tau.real <= xr - margin
            and 0.0 < tau.imag <= d.truncation_height
            and not any(abs(tau - c) < rad + margin for c, rad in d.disks)
        )

    pts = [complex(x, y) for x in xs for y in ys]
    return np.array([t for t in pts if inside(t)], dtype=np.complex128)


@pytest.mark.parametrize("d", [F0, F, F2], ids=lambda d: d.kind)
@pytest.mark.parametrize("nx,ny", [(29, 25), (57, 49), (113, 97)])
def test_interior_grid_matches_the_point_loop(d, nx, ny):
    grid = locator._interior_grid(d, nx, ny)
    assert np.array_equal(grid, _interior_grid_loop(d, nx, ny))
    assert not grid.flags.writeable
    assert locator._interior_grid(d, nx, ny) is grid


def test_locate_unique_interior_zero():
    certs = locate_zeros(TorsionPair.of(0.6, 0.3), F0)
    assert len(certs) == 1
    c = certs[0]
    assert F0.contains(c.tau0, margin=1e-6)
    assert c.residual <= 1e-10 * c.scale
    assert c.dz_mag > 1e-6 * c.scale
    assert c.newton_iters <= 50


def test_locate_empty_for_order_four_pairs():
    for (k1, k2) in ((1, 1), (1, 0), (0, 1), (1, 2), (3, 2)):
        pair = TorsionPair.of(Fraction(k1, 4), Fraction(k2, 4))
        assert locate_zeros(pair, F0) == []


def test_locate_d1_pair():
    certs = locate_zeros(TorsionPair.of(0.9, 0.05), F0)
    assert len(certs) == 1
    assert F0.contains(certs[0].tau0, margin=1e-6)


@pytest.mark.usefixtures("fresh_anchors")
def test_locate_propagates_programming_errors(monkeypatch):
    # only typed numerical failures of a Newton start are skipped
    def broken(pair, tau0):
        raise TypeError("bug in the Newton step")

    monkeypatch.setattr(locator, "_newton_z2", broken)
    with pytest.raises(TypeError):
        locate_zeros(TorsionPair.of(0.6, 0.3), F0, expected=1)


def test_locate_two_zeros_over_level_two_domain():
    # (0.6, 0.3) has one zero in F0 and its shifted partner one in F0 + 1
    pair = TorsionPair.of(0.6, 0.3)
    w = winding_count(pair, F2)
    assert w == 2
    certs = locate_zeros(pair, F2)
    assert len(certs) == 2
    xs = sorted(c.tau0.real for c in certs)
    assert xs[0] < 1.0 < xs[1] + 1e-12


def test_zero_transport_under_group_action():
    # a zero found for (r, s), pushed by gamma, is a zero of the transported
    # pair at gamma.tau0
    pair = TorsionPair.of(Fraction(3, 5), Fraction(1, 5))
    cert = locate_zeros(pair, F0)[0]
    tau_f, g = reduce_to_shifted_domain(cert.tau0)
    r2, s2 = transport_pair(Fraction(3, 5), Fraction(1, 5), g)
    val, scale = z2_with_scale(
        TorsionPair.of(r2, s2), ModuliPoint.from_tau(tau_f)
    )
    assert abs(val) <= 1e-9 * scale


# --- zeros over F and F2 from the F0 hunt ----------------------------------


def _t_shifted(r, s):
    """The pair whose Z2 at tau is that of (r, s) at tau + 1."""
    return TorsionPair.of(r + s, s)


def _seeded_torsion_pairs(n, seed):
    """n distinct pairs (k1/N, k2/N), N from 5 to 29, with neither the pair
    nor its T-shifted partner on a triangle edge."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        N = rng.randint(5, 29)
        r, s = Fraction(rng.randrange(N), N), Fraction(rng.randrange(N), N)
        tags = {classify_triangle(TorsionPair.of(r, s)).tag}
        tags.add(classify_triangle(_t_shifted(r, s)).tag)
        if "boundary" not in tags and (r, s) not in pairs:
            pairs.append((r, s))
    return pairs


def _assert_f2_zeros_split_over_f0_halves(r, s):
    # F2 is F0 together with F0 + 1: each half carries the F0 zeros of its pair
    certs = locate_zeros(TorsionPair.of(r, s), F2)
    left = sum(c.tau0.real < 1.0 for c in certs)
    assert left == winding_count(TorsionPair.of(r, s), F0)
    assert len(certs) - left == winding_count(_t_shifted(r, s), F0)


@pytest.mark.parametrize(
    "r,s",
    [
        # a grid hunt over F2 took the corner 1.98+0.15i, next to the cusp 2,
        # for a zero
        (Fraction(2, 3), Fraction(1, 6)),
        (Fraction(5, 6), Fraction(1, 12)),
        (Fraction(4, 7), Fraction(3, 14)),
        # a grid hunt over F2 for two zeros found only one
        (Fraction(10, 13), Fraction(1, 13)),
        (Fraction(4, 7), Fraction(1, 7)),
    ],
    ids=str,
)
def test_f2_zeros_split_over_the_f0_halves(r, s):
    _assert_f2_zeros_split_over_f0_halves(r, s)


@pytest.mark.parametrize("r,s", _seeded_torsion_pairs(20, seed=2010), ids=str)
def test_zeros_over_f_and_f2_follow_from_f0(r, s):
    _assert_f2_zeros_split_over_f0_halves(r, s)
    pair = TorsionPair.of(r, s)
    in_f = [F.contains(c.tau0) for c in locate_zeros(pair, F0)]
    assert winding_count(pair, F) == sum(in_f)


# --- the batched F0 hunt ----------------------------------------------------


def _hunt(pairs):
    """``_zeros_in_f0`` of ``pairs``, each tagged by ``classify_triangle``."""
    return locator._zeros_in_f0(pairs, [classify_triangle(p).tag for p in pairs])


def test_batched_hunt_equals_one_pair_hunts():
    # every +-class rep of Q_N, N = 3..12, hunted in one batch and one by one
    reps = [TorsionPair.of(c.r, c.s) for N in range(3, 13) for c in pm_class_reps(N)]
    batched = _hunt(reps)
    assert batched == [_hunt([p])[0] for p in reps]
    assert sum(c is not None for c in batched) > 50


def test_batched_hunt_raises_for_a_square_that_winds_twice(monkeypatch):
    # the second zero's isolating square is made to wind twice
    reps = [TorsionPair.of(r, s) for r, s in ((0.6, 0.3), (0.9, 0.05), (0.1, 0.2))]
    second = _hunt([reps[1]])[0]
    windings = locator._windings

    def second_square_winds_twice(pairs, contours, n0):
        out = windings(pairs, contours, n0)
        out[1] += 1.0
        return out

    monkeypatch.setattr(locator, "_windings", second_square_winds_twice)
    square = re.escape(f"cell check around {second.tau0} did not isolate one zero")
    with pytest.raises(IncoherentWinding, match=square):
        _hunt(reps)


@pytest.mark.usefixtures("fresh_anchors")
def test_batched_hunt_raises_for_a_pair_no_start_resolves(monkeypatch):
    stuck = TorsionPair.of(0.9, 0.05)
    newton = locator._newton_z2

    def stalls_for_one_pair(pair, tau0):
        if pair == stuck:
            raise NewtonStall("no convergence")
        return newton(pair, tau0)

    monkeypatch.setattr(locator, "_newton_z2", stalls_for_one_pair)
    reps = [TorsionPair.of(0.6, 0.3), stuck, TorsionPair.of(0.1, 0.2)]
    no_start = re.escape(f"no Newton start found the zero of {stuck} in F0")
    with pytest.raises(IncoherentWinding, match=no_start):
        _hunt(reps)


def test_anchors_are_the_centroid_zeros():
    # each anchor is the grid stage's F0 zero of its triangle's centroid pair
    for tag, (r, s) in {
        "D1": (Fraction(5, 6), Fraction(1, 3)),
        "D2": (Fraction(2, 3), Fraction(1, 6)),
        "D3": (Fraction(1, 6), Fraction(1, 6)),
    }.items():
        centroid = TorsionPair.of(r, s)
        assert classify_triangle(centroid).tag == tag
        anchor = locator._anchor(tag)
        assert anchor == locator._grid_zeros([centroid])[0]
        assert F0.contains(anchor.tau0, margin=1e-3)
        assert locator._anchor(tag) is anchor


def test_anchors_are_found_on_first_use_not_at_import():
    code = "import pvilab.cli, pvilab.locator as m; print(m._anchor.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.split() == ["0"], out.stderr


@pytest.mark.usefixtures("fresh_anchors")
def test_every_hunted_pair_starts_from_its_triangle_anchor(monkeypatch):
    # every +-class of Q_N, N = 3..12 and 30, hunted in one batch: the first
    # Newton start of each D1-D3 pair is its triangle's anchor zero, and no
    # other pair is started at all
    anchors, newton, starts = _warm_anchors(), locator._newton_z2, {}

    def recorded(pair, tau0):
        starts.setdefault(pair, tau0)
        return newton(pair, tau0)

    monkeypatch.setattr(locator, "_newton_z2", recorded)
    pairs = [
        TorsionPair.of(c.r, c.s) for N in [*range(3, 13), 30] for c in pm_class_reps(N)
    ]
    tags = [classify_triangle(p).tag for p in pairs]
    certs = locator._zeros_in_f0(pairs, tags)
    assert {p: starts[p] for p, tag in zip(pairs, tags) if tag in anchors} == {
        p: anchors[tag] for p, tag in zip(pairs, tags) if tag in anchors
    }
    assert len(starts) == sum(c is not None for c in certs) > 100


def _triangle_pairs(m_max):
    """The distinct pairs (k1/M, k2/2M), 0 < k1, k2 < M <= m_max, that lie
    in D1, D2 or D3."""
    pairs = (
        TorsionPair.of(Fraction(k1, M), Fraction(k2, 2 * M))
        for M in range(2, m_max + 1)
        for k1 in range(1, M)
        for k2 in range(1, M)
    )
    return [
        p for p in dict.fromkeys(pairs) if classify_triangle(p).tag in ("D1", "D2", "D3")
    ]


@pytest.mark.parametrize("m_max", [12, pytest.param(30, marks=pytest.mark.slow)])
def test_every_triangle_pair_resolves_from_its_anchor(m_max):
    # the anchor start lands in F0 for every pair (no grid fallback), on
    # the grid stage's zero to within the first-order spread of two Newton
    # iterates stopped at |Z2| <= 1e-13 * scale: each lies within
    # 1e-13 * scale / |Z2'| of the zero (largest ratio to the bound 0.49 for
    # M <= 12, 0.73 for M <= 30, at (7/30, 1/5))
    pairs = _triangle_pairs(m_max)
    assert len(pairs) == {12: 272, 30: 5068}[m_max]
    for p, grid in zip(pairs, locator._grid_zeros(pairs)):
        cert = locator._f0_zero_from(p, locator._anchor(classify_triangle(p).tag).tau0)
        assert cert is not None, p
        assert abs(cert.tau0 - grid.tau0) <= 2e-13 * grid.scale / grid.dz_mag, p


# --- count_mn_zeros / valence ----------------------------------------------


@pytest.mark.parametrize(
    "N,count",
    [
        (3, 0),
        (4, 0),
        (5, 2),
        (6, 2),
        (7, 6),
        (12, 18),
        (17, 56),
        (24, 84),
        (77, 1380),
        (120, 2256),
    ],
)
def test_mn_zero_count_over_modular_domain(N, count):
    rep = count_mn_zeros(N)
    assert rep.interior_count == count == p_of_n(N)
    assert rep.merge_events == []


@pytest.mark.slow
@pytest.mark.parametrize("N", range(13, locator.MAX_N + 1))
def test_valence_bookkeeping_sweep(N, monkeypatch):
    # every D1 class resolves from the D1 anchor: the grid stage hunts none
    _warm_anchors()
    grid_zeros, gridded = locator._grid_zeros, []
    monkeypatch.setattr(
        locator, "_grid_zeros", lambda pairs: gridded.extend(pairs) or grid_zeros(pairs)
    )
    v = valence_check(N)
    assert gridded == []
    assert v["interior"] == p_of_n(N)
    assert v["balance_exact"]
    assert abs(v["cusp_order_slope"] - v["cusp"]) < 0.1
    assert v["merge_events"] == []


@pytest.mark.parametrize(
    "call,N", [(count_mn_zeros, 121), (count_mn_zeros, 2), (valence_check, 121)]
)
def test_result_i_pipeline_is_capped(call, N):
    assert locator.MAX_N == 120
    with pytest.raises(DomainError):
        call(N)


def _d1_classes(N):
    """The +-classes of Q_N in D1, as (k1, k2) with 0 < k2 < N/2: exactly one
    element of a class whose s lies strictly between 0 and 1/2 has it."""
    return [
        (k1, k2)
        for k1 in range(N // 2 + 1, N)
        for k2 in range(1, (N + 1) // 2)
        if k1 + k2 > N and math.gcd(k1, k2, N) == 1
    ]


def test_p_of_n_is_twice_the_d1_classes():
    # the F zeros of M_N are the carried F0 zeros of the D1 classes, one each
    assert [p_of_n(N) for N in range(3, 121)] == [
        2 * len(_d1_classes(N)) for N in range(3, 121)
    ]
    for N in (7, 12, 30):
        tagged = [
            (c.k1, c.k2)
            for c in pm_class_reps(N)
            if classify_triangle(TorsionPair.of(c.r, c.s)).tag == "D1"
        ]
        assert len(tagged) == len(_d1_classes(N))


def test_d1_class_list_is_the_classify_triangle_filter():
    # count_mn_zeros picks its D1 classes in integers: they are the classes
    # classify_triangle tags D1, in pm_class_reps order, for every N it takes
    for N in range(3, locator.MAX_N + 1):
        reps = pm_class_reps(N)
        tagged = [
            k
            for k, c in enumerate(reps)
            if classify_triangle(TorsionPair.of(c.r, c.s)).tag == "D1"
        ]
        assert locator._d1_classes(reps) == tagged


def _d1_pairs(N):
    return [
        TorsionPair.of(c.r, c.s)
        for c in pm_class_reps(N)
        if classify_triangle(TorsionPair.of(c.r, c.s)).tag == "D1"
    ]


def test_mn_zero_count_evaluates_no_start_grid(monkeypatch):
    # with the anchors warm, every D1 class of N = 12 starts Newton from the
    # D1 anchor and the kernel sees only the isolating squares' samples
    _warm_anchors()
    points, in_squares = [], []
    batch, windings = locator.z2_stable_many, locator._windings

    def counted(pairs, taus, counts):
        if not in_squares:
            points.append(len(taus))
        return batch(pairs, taus, counts)

    def squares(pairs, contours, n0):
        in_squares.append(True)
        try:
            return windings(pairs, contours, n0)
        finally:
            in_squares.pop()

    monkeypatch.setattr(locator, "z2_stable_many", counted)
    monkeypatch.setattr(locator, "_windings", squares)
    rep = count_mn_zeros(12)
    assert points == []
    assert len(rep.certificates) == len(_d1_pairs(12)) == 9
    assert rep.interior_count == p_of_n(12)


def test_mn_zero_count_classifies_no_pair(monkeypatch):
    # the D1 classes are picked in integers and handed to the hunt with
    # their tag, so no TorsionPair is classified again
    def refuses(pair):
        raise AssertionError(f"classified {pair}")

    monkeypatch.setattr(locator, "classify_triangle", refuses)
    assert count_mn_zeros(12).interior_count == p_of_n(12)


def _assert_count_equals_the_grid_hunt(N):
    # below N = 36 every D1 zero lies in F, so each certificate is the F0
    # hunt's own
    rep = count_mn_zeros(N)
    assert rep.interior_count == p_of_n(N)
    assert rep.certificates == locator._grid_zeros(_d1_pairs(N))


@pytest.mark.usefixtures("fresh_anchors")
@pytest.mark.parametrize("N", [7, 12])
def test_mn_zero_count_falls_back_to_the_grid_when_continuation_stalls(N, monkeypatch):
    # Newton from the D1 anchor (a one-step continuation in (r, s) from the
    # centroid pair) stalls for every class: the grid stage hunts them all
    anchor, newton, stalled = _warm_anchors()["D1"], locator._newton_z2, []

    def stalls_from_the_anchor(pair, tau0):
        if tau0 == anchor:
            stalled.append(pair)
            raise NewtonStall("no convergence")
        return newton(pair, tau0)

    monkeypatch.setattr(locator, "_newton_z2", stalls_from_the_anchor)
    _assert_count_equals_the_grid_hunt(N)
    assert stalled == _d1_pairs(N)


@pytest.mark.usefixtures("fresh_anchors")
@pytest.mark.parametrize("N", [7, 12])
def test_mn_zero_count_falls_back_to_the_grid_outside_f0(N, monkeypatch):
    # an anchor start whose Newton result lies outside F0 (here moved by 1)
    # is not taken for the zero
    anchor, newton, moved = _warm_anchors()["D1"], locator._newton_z2, []

    def leaves_f0_from_the_anchor(pair, tau0):
        out = newton(pair, tau0)
        if tau0 != anchor:
            return out
        moved.append(pair)
        return (out[0] + 1.0, *out[1:])

    monkeypatch.setattr(locator, "_newton_z2", leaves_f0_from_the_anchor)
    _assert_count_equals_the_grid_hunt(N)
    assert moved == _d1_pairs(N)


def test_mn_zero_count_keeps_two_classes_at_one_point(monkeypatch):
    # two distinct classes whose F0 zeros coincide in F both count, and the
    # coincidence is reported as one merge event; only D1 classes are hunted
    # over F, and N = 7 is the first N with two of them
    tau0 = 0.5 + 1.2j

    def two_at_one_point(pairs, tags):
        return [
            locator.ZeroCertificate(tau0, 0.0, 1.0, 1, p, 1.0) if i < 2 else None
            for i, p in enumerate(pairs)
        ]

    monkeypatch.setattr(locator, "_zeros_in_f0", two_at_one_point)
    a, b = [
        c for c in pm_class_reps(7) if classify_triangle(TorsionPair.of(c.r, c.s)).tag == "D1"
    ][:2]
    rep = count_mn_zeros(7)
    assert rep.interior_count == 4
    assert rep.merge_events == [((a.k1, a.k2), (b.k1, b.k2), tau0)]


def test_mn_zero_count_raises_for_two_classes_carried_to_one(monkeypatch):
    # a D2 class hunted as if in D1: its F0 zero is carried to the F zero of
    # a class a D1 class already owns
    N = 7
    reps = pm_class_reps(N)
    pairs = [TorsionPair.of(c.r, c.s) for c in reps]
    extra = next(k for k, p in enumerate(pairs) if classify_triangle(p).tag == "D2")
    d1_classes = locator._d1_classes

    def with_d2_class(reps):
        return sorted(d1_classes(reps) + [extra])

    monkeypatch.setattr(locator, "_d1_classes", with_d2_class)
    one_class = f"and {re.escape(str(pairs[extra]))} carry to one class"
    with pytest.raises(IncoherentWinding, match=one_class):
        count_mn_zeros(N)


@pytest.mark.usefixtures("fresh_anchors")
def test_mn_zero_count_raises_for_a_polished_zero_outside_f(monkeypatch):
    # N = 36 is the first N with a D1 zero outside F; its polished zero, the
    # one certified after the F0 hunt returns, is moved by 1, which F's
    # ownership rule puts outside F
    certify, zeros_in_f0, hunted = locator._certify, locator._zeros_in_f0, []

    def hunt(pairs, tags):
        certs = zeros_in_f0(pairs, tags)
        hunted.append(True)
        return certs

    def moved(pair, tau_start):
        cert = certify(pair, tau_start)
        return replace(cert, tau0=cert.tau0 + 1.0) if hunted else cert

    monkeypatch.setattr(locator, "_zeros_in_f0", hunt)
    monkeypatch.setattr(locator, "_certify", moved)
    with pytest.raises(IncoherentWinding, match="does not lie in F"):
        count_mn_zeros(36)


def test_result_ii_four_pole_free_solutions():
    # the paper's result (ii): P(N) = 0 exactly at N = 3 and N = 4, with one
    # solution and three, so four pole-free solutions; M_N has no located
    # zero over F at either.  For every N: |Q_N| = N^2 prod_{p | N} (1 - 1/p^2)
    # >= N^2 / zeta(2) = 6 N^2 / pi^2, and phi(N) + phi(N/2) <= N + N/2, so
    # P(N) = |Q_N|/4 - phi(N) - phi(N/2) >= 3 N (N - pi^2) / (2 pi^2) > 0 for
    # N >= 10.  P(5..9) > 0 is checked directly, and the enumeration up to
    # 5000 checks the bound.
    assert all(p_of_n(N) > 0 for N in range(5, 10)) and 10 > PI**2
    for N in range(3, 5001):
        phis = euler_phi(N) + (euler_phi(N // 2) if N % 2 == 0 else 0)
        assert qn_size(N) * PI**2 >= 6 * N * N and 2 * phis <= 3 * N
        assert p_of_n(N) >= 3 * N * (N - PI**2) / (2 * PI**2)
    pole_free = [N for N in range(3, 5001) if p_of_n(N) == 0]
    assert pole_free == [3, 4]
    assert [pole_count(N) for N in pole_free] == [(1, 0), (3, 0)]
    assert sum(pole_count(N)[0] for N in pole_free) == 4
    assert [count_mn_zeros(N).interior_count for N in pole_free] == [0, 0]


def _f0_zeros(p):
    """The triangle rule: a real pair has one zero in F0 exactly when its
    window representative lies in D1, D2 or D3, and none otherwise."""
    return int(classify_triangle(p).tag in ("D1", "D2", "D3"))


@pytest.mark.parametrize("N", range(3, 9))
def test_mn_zero_count_aggregates(N):
    # each +-class located alone over F0 and F2, with its count from the
    # triangle rule (over F2, its own F0 zero and that of (r + s, s)), and
    # weighted 2 for its +- pair: M_N has 3 P(N) zeros over F0, 6 P(N) over F2
    pairs = [TorsionPair.of(c.r, c.s) for c in pm_class_reps(N)]
    over_f0 = sum(len(locate_zeros(p, F0, expected=_f0_zeros(p))) for p in pairs)
    over_f2 = sum(
        len(locate_zeros(p, F2, expected=_f0_zeros(p) + _f0_zeros(_t_shifted(p.r, p.s))))
        for p in pairs
    )
    assert (2 * over_f0, 2 * over_f2) == (3 * p_of_n(N), 6 * p_of_n(N))


def test_mn_zeros_n5_geometry():
    # P(5) = 2 realised as one point of multiplicity two
    rep = count_mn_zeros(5)
    assert rep.interior_count == 2
    assert len(rep.certificates) == 1
    tau0 = rep.certificates[0].tau0
    assert F.contains(tau0) or abs(tau0.real - 0.5) < 1e-9


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
def test_valence_bookkeeping(N):
    v = valence_check(N)
    assert v["balance_exact"]
    assert v["total"] == v["interior"] + v["cusp"] == qn_size(N) // 4
    assert abs(v["cusp_order_slope"] - v["cusp"]) < 0.1


@pytest.mark.parametrize("N", [6, 8])
def test_valence_builds_each_cusp_expansion_once(N, monkeypatch):
    built = []
    expansion = premodular.z2_cusp_expansion
    monkeypatch.setattr(
        premodular, "z2_cusp_expansion", lambda p: built.append(p) or expansion(p)
    )
    # M_N is taken at two heights, each in the frame of infinity: one build
    # per pair of Q_N with s in {0, 1/2}, not one per height, and none for
    # the pairs the hunts' frames carry to one of them
    premodular._series_of.cache_clear()
    valence_check(N)
    on_cusp = {
        TorsionPair.of(Fraction(rp.k1, N), Fraction(rp.k2, N))
        for rp in enumerate_qn(N)
        if Fraction(2 * rp.k2, N).denominator == 1
    }
    assert on_cusp and sorted(map(str, built)) == sorted(map(str, on_cusp))


@pytest.mark.parametrize("N", [5, 12])
def test_valence_evaluates_m_n_twice(N, monkeypatch):
    # M_N is taken only at the two heights the slope reads
    taus = []
    mn = locator.m_n
    monkeypatch.setattr(locator, "m_n", lambda n, m: taus.append(m.tau) or mn(n, m))
    valence_check(N)
    assert taus == [8j, 12j]


def test_valence_takes_series_factors_without_a_kernel_call(monkeypatch):
    # at the heights 8 and 12 the factors with s in {0, 1/2} come from the
    # cusp series alone, with no premodular_at call for a discarded scale
    from pvilab import _kernels

    calls = []
    kernel = _kernels.premodular_at
    def counted(r, s, tau):
        calls.append((s, tau))
        return kernel(r, s, tau)

    monkeypatch.setattr(_kernels, "premodular_at", counted)
    valence_check(6)
    heights = [tau for _, tau in calls if tau in (8j, 12j)]
    on_series = [tau for s, tau in calls if tau in heights and (2 * s).real % 1 == 0]
    assert on_series == []
    assert any(Fraction(2 * rp.k2, 6).denominator == 1 for rp in enumerate_qn(6))


def test_simplicity_and_numerator_bound_at_located_zeros():
    # at every certificate: the zero is simple AND the numerator of the
    # solution formula stays away from zero (no simultaneous vanishing)
    from pvilab import _kernels

    for (r, s) in ((0.6, 0.3), (0.9, 0.05), (0.15, 0.25), (0.8, 0.05)):
        certs = locate_zeros(TorsionPair.of(r, s), F0)
        for c in certs:
            assert c.dz_mag > 1e-6 * c.scale
            rr, ss = c.torsion.as_complex()
            zv, wp, wpp, z2v, g2, g3, *_ = _kernels.premodular_at(rr, ss, c.tau0)
            num = 3 * wpp * zv**2 + (12 * wp**2 - g2) * zv + 3 * wp * wpp
            num_scale = (
                3 * abs(wpp) * abs(zv) ** 2
                + abs(12 * wp**2 - g2) * abs(zv)
                + 3 * abs(wp) * abs(wpp)
            )
            assert abs(num) > 1e-6 * num_scale


def test_domain_membership_rules():
    rho = cmath.exp(1j * PI / 3)
    assert F.contains(0.3 + 1.2j)
    assert not F.contains(-0.05 + 1.2j)
    assert not F.contains(0.95 + 0.4j)  # inside the right disk
    assert F0.contains(0.5 + 0.51j)
    assert not F0.contains(0.5 + 0.49j)
    assert F2.contains(1.5 + 0.51j)
    assert not F2.contains(1.5 + 0.49j)
