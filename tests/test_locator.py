"""Contour winding, zero location, M_N zero counts, valence bookkeeping."""

import cmath
import math
import random
import re
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
    _winding_over,
    classify_triangle,
    count_mn_zeros,
    locate_zeros,
    valence_check,
    winding_count,
)
from pvilab.modular import reduce_to_shifted_domain, reduce_to_standard, transport_pair
from pvilab.orbits import enumerate_qn, p_of_n, pm_class_reps, pole_count
from pvilab.premodular import (
    TorsionPair,
    cusp_asymptotic,
    z2_stable,
    z2_stable_many,
    z2_with_scale,
)

PI = math.pi


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
    coarse = _winding_over(pieces, pair, n0=17)
    fine = _winding_over(pieces, pair, n0=34)
    assert round(coarse) == round(fine)
    assert abs(coarse - fine) < 0.02


def test_winding_evaluates_initial_samples_of_all_pieces_at_once(monkeypatch):
    pair = TorsionPair.of(0.62, 0.17)
    pieces = _build_contour(F0, pair)
    numeric = [p for p in pieces if not isinstance(p, locator._Jump)]
    sizes = []

    def counted(p, taus, counts=None):
        sizes.append(len(taus))
        return z2_stable_many(p, taus, counts)

    monkeypatch.setattr(locator, "z2_stable_many", counted)
    assert round(_winding_over(pieces, pair, n0=17)) == winding_count(pair, F0)
    assert sizes[0] == 17 * len(numeric)


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


def test_phase_tracking_raises_the_first_failing_piece(monkeypatch):
    # synthetic Z2: 1 on Re = 3, 0 on Re = 5 (fails the clearance check in
    # the first round), and a sign flip at Im = 1.5 on Re = 7 (no bisection
    # resolves it, so refinement runs out of rounds); a second pair reads 2
    # wherever the first reads 1
    other = TorsionPair.of(0.9, 0.05)

    def fake(pairs, taus, counts):
        owners = np.repeat(np.array(pairs, dtype=object), counts)
        vals = np.where(owners == other, 2.0, 1.0).astype(np.complex128)
        vals[taus.real == 5.0] = 0.0
        vals[(taus.real == 7.0) & (taus.imag > 1.5)] *= -1.0
        return vals, np.ones(len(taus))

    monkeypatch.setattr(locator, "z2_stable_many", fake)
    pair = TorsionPair.of(0.6, 0.3)
    good, close, flip = (("seg", complex(x, 1.0), complex(x, 2.0)) for x in (3.0, 5.0, 7.0))
    assert locator._phase_along_pieces([pair], [good], 9) == [(0.0, 1, 1)]
    with pytest.raises(BoundaryTooClose):
        locator._phase_along_pieces([pair] * 3, [good, close, flip], 9)
    with pytest.raises(IncoherentWinding, match="did not settle"):
        locator._phase_along_pieces([pair] * 3, [good, flip, close], 9)
    # two pairs in one batch: each piece follows its own pair, and the first
    # failing piece in contour order is still the error raised
    assert locator._phase_along_pieces([pair, other], [good, good], 9) == [
        (0.0, 1, 1),
        (0.0, 2, 2),
    ]
    with pytest.raises(BoundaryTooClose):
        locator._phase_along_pieces([other, pair, other], [good, close, flip], 9)
    settle = f"did not settle .* for {re.escape(str(other))}"
    with pytest.raises(IncoherentWinding, match=settle):
        locator._phase_along_pieces([pair, other, pair], [good, flip, close], 9)


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
    vals, scales = z2_stable_many(pair, _FRAME_TAUS)
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
        series = np.polyval(moved.cusp_series[::-1], cmath.exp(1j * PI * tau_red))
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


def test_batched_hunt_equals_one_pair_hunts():
    # every +-class rep of Q_N, N = 3..12, hunted in one batch and one by one
    reps = [TorsionPair.of(c.r, c.s) for N in range(3, 13) for c in pm_class_reps(N)]
    batched = locator._zeros_in_f0(reps)
    assert batched == [locator._zeros_in_f0([p])[0] for p in reps]
    assert sum(c is not None for c in batched) > 50


def test_batched_hunt_raises_for_a_square_that_winds_twice(monkeypatch):
    # the second zero's isolating square is made to wind twice
    reps = [TorsionPair.of(r, s) for r, s in ((0.6, 0.3), (0.9, 0.05), (0.1, 0.2))]
    second = locator._zeros_in_f0([reps[1]])[0]
    phase = locator._phase_along_pieces

    def second_square_winds_twice(pairs, pieces, n0):
        out = phase(pairs, pieces, n0)
        dphi, v0, v1 = out[4]
        out[4] = (dphi + 2.0 * PI, v0, v1)
        return out

    monkeypatch.setattr(locator, "_phase_along_pieces", second_square_winds_twice)
    square = re.escape(f"cell check around {second.tau0} did not isolate one zero")
    with pytest.raises(IncoherentWinding, match=square):
        locator._zeros_in_f0(reps)


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
        locator._zeros_in_f0(reps)


# --- count_mn_zeros / valence ----------------------------------------------


@pytest.mark.parametrize(
    "N,count",
    [(3, 0), (4, 0), (5, 2), (6, 2), (7, 6), (12, 18), (17, 56), (24, 84), (77, 1380)],
)
def test_mn_zero_count_over_modular_domain(N, count):
    rep = count_mn_zeros(N, F)
    assert rep.interior_count == count == p_of_n(N)
    assert rep.merge_events == []


@pytest.mark.slow
@pytest.mark.parametrize("N", range(13, 121))
def test_mn_zero_count_over_modular_domain_sweep(N):
    rep = count_mn_zeros(N, F)
    assert rep.interior_count == p_of_n(N)
    assert rep.merge_events == []


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


def test_mn_zero_count_keeps_two_classes_at_one_point(monkeypatch):
    # two distinct classes whose F0 zeros coincide in F both count, and the
    # coincidence is reported as one merge event; only D1 classes are hunted
    # over F, and N = 7 is the first N with two of them
    tau0 = 0.5 + 1.2j

    def two_at_one_point(pairs):
        return [
            locator.ZeroCertificate(tau0, 0.0, 1.0, 1, "F0", p, 1.0) if i < 2 else None
            for i, p in enumerate(pairs)
        ]

    monkeypatch.setattr(locator, "_zeros_in_f0", two_at_one_point)
    a, b = [
        c for c in pm_class_reps(7) if classify_triangle(TorsionPair.of(c.r, c.s)).tag == "D1"
    ][:2]
    rep = count_mn_zeros(7, F)
    assert rep.interior_count == 4
    assert rep.merge_events == [((a.k1, a.k2), (b.k1, b.k2), tau0)]


def test_mn_zero_count_raises_for_two_classes_carried_to_one(monkeypatch):
    # a D2 class hunted as if in D1: its F0 zero is carried to the F zero of
    # a class a D1 class already owns
    N = 7
    extra = next(
        TorsionPair.of(c.r, c.s)
        for c in pm_class_reps(N)
        if classify_triangle(TorsionPair.of(c.r, c.s)).tag == "D2"
    )
    classify = locator.classify_triangle

    def d2_class_as_d1(p):
        return locator.TrianglePosition("D1") if p == extra else classify(p)

    monkeypatch.setattr(locator, "classify_triangle", d2_class_as_d1)
    one_class = f"and {re.escape(str(extra))} carry to one class"
    with pytest.raises(IncoherentWinding, match=one_class):
        count_mn_zeros(N, F)


def test_mn_zero_count_raises_for_a_polished_zero_outside_f(monkeypatch):
    # N = 36 is the first N with a D1 zero outside F; its polished zero is
    # moved by 1, which F's ownership rule puts outside F
    certify = locator._certify

    def moved(pair, tau_start, region):
        cert = certify(pair, tau_start, region)
        return replace(cert, tau0=cert.tau0 + 1.0) if region == "F" else cert

    monkeypatch.setattr(locator, "_certify", moved)
    with pytest.raises(IncoherentWinding, match="does not lie in F"):
        count_mn_zeros(36, F)


def test_result_ii_four_pole_free_solutions():
    # the paper's result (ii): over 3 <= N <= 5000, P(N) = 0 exactly at N = 3
    # and N = 4, with one solution and three, so four pole-free solutions;
    # M_N has no located zero over F at either
    pole_free = [N for N in range(3, 5001) if p_of_n(N) == 0]
    assert pole_free == [3, 4]
    assert [pole_count(N) for N in pole_free] == [(1, 0), (3, 0)]
    assert sum(pole_count(N)[0] for N in pole_free) == 4
    assert [count_mn_zeros(N, F).interior_count for N in pole_free] == [0, 0]


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_mn_zero_count_aggregates(N):
    assert count_mn_zeros(N, F0).interior_count == 3 * p_of_n(N)
    assert count_mn_zeros(N, F2).interior_count == 6 * p_of_n(N)


def test_mn_zeros_n5_geometry():
    # P(5) = 2 realised as one point of multiplicity two
    rep = count_mn_zeros(5, F)
    assert rep.interior_count == 2
    assert len(rep.certificates) == 1
    tau0 = rep.certificates[0].tau0
    assert F.contains(tau0) or abs(tau0.real - 0.5) < 1e-9


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
def test_valence_bookkeeping(N):
    v = valence_check(N)
    assert v["balance_exact"]
    assert not v["slope_mismatch"]
    assert abs(v["nu_inf_slope"] - v["nu_inf_formula"]) < 0.1
    assert v["nu_i_zero"] and v["nu_rho_zero"]


@pytest.mark.parametrize("N", [6, 8])
def test_valence_builds_each_cusp_expansion_once(N, monkeypatch):
    built = []
    expansion = premodular.z2_cusp_expansion
    monkeypatch.setattr(
        premodular, "z2_cusp_expansion", lambda p: built.append(p) or expansion(p)
    )
    # M_N is taken at three heights, each in the frame of infinity: one build
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


def test_valence_takes_series_factors_without_a_kernel_call(monkeypatch):
    # at the heights 8, 10 and 12 the factors with s in {0, 1/2} come from
    # the cusp series alone, with no premodular_at call for a discarded scale
    from pvilab import _kernels

    calls = []
    kernel = _kernels.premodular_at
    def counted(r, s, tau):
        calls.append((s, tau))
        return kernel(r, s, tau)

    monkeypatch.setattr(_kernels, "premodular_at", counted)
    valence_check(6)
    heights = [tau for _, tau in calls if tau in (8j, 10j, 12j)]
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
