"""Zero counting and location for Z2_{r,s} in modular fundamental domains.

This module owns the domains, the contours and the zero search.  Z2 and its
scale come from ``premodular.z2_stable_many``, whose cusp rule leaves no
cancellation noise, so every sample meets one clearance test, |Z2| >=
BOUNDARY_RTOL * scale; the cusp orders come from the ``TorsionPair``.

Winding numbers come from adaptive phase tracking of Z2 along the domain
boundary: a segment whose phase step between consecutive samples exceeds
pi/8 is cut, in one round, into as many equal parts (a power of two) as
bring the step down to about pi/16, and rounds repeat until every step is
below pi/8, so unwrapping is unambiguous.  One tracker (``_windings``) does
this for any number of closed contours at once, each with its own pair:
their samples share one array, and each round is one kernel call.  The cusp
at infinity is closed analytically: the leading behaviour c*q^ord
contributes exactly 2*pi*ord*(Re change) across the cap, which is added
instead of sampled.

Real-axis cusps need case analysis.  Near a cusp x_c the form factors as

    Z2_{r,s}(tau) = (tau - x_c)^{-3} * Z2_{r_c,s_c}(-1/(tau - x_c)),

with (r_c, s_c) = (s, -(r + x_c s)).  When s_c is not in (1/2)Z the
transported factor tends to a non-zero constant and |Z2| blows up like
dist^{-3}: the contour is simply cut just above the cusp with a short
horizontal connector.  When s_c IS in (1/2)Z the transported factor vanishes
at the cusp, so a disk of radius _EXCISION_RADIUS around the cusp is excised
and the phase change across it is evaluated analytically from the factor
(tau - x_c)^{-3} and the leading power q~^ord of the transported expansion.
Both corrections are exact up to O(q~) terms far below the winding slack.

Domains:
  F0: {0 <= Re <= 1, |tau - 1/2| >= 1/2}       (index-3 subgroup domain)
  F:  {0 <= Re < 1, |tau| >= 1, |tau - 1| > 1} (modular domain, shifted)
  F2: {0 <= Re < 2, |tau-1/2| >= 1/2, |tau-3/2| > 1/2} (level-2 domain)

For real non-half-integer (r, s), Z2 never vanishes on the boundary of F0
(nor on its images bounding F2), which is what makes the F0 contour the
safe workhorse.  There is one zero hunt, over F0, which holds at most one
zero of a real pair (the triangle dichotomy).  ``locate_zeros`` takes a
pair's zeros over F and F2 from it by the group action: F is a subset of
F0, and F2 is F0 together with F0 + 1, where Z2_{r,s}(tau + 1) =
Z2_{r+s,s}(tau).  ``count_mn_zeros`` counts the zeros of M_N over F alone
and hunts only the +-classes of Q_N in D1:
``modular.reduce_to_shifted_domain`` takes each of their F0 zeros into F,
``modular.transport_pair`` carries the pair by the same gamma, and the D1
classes are carried one-to-one onto the classes with a zero in F, so a
third of the classes yields every zero of M_N over F, with no merging.

A pair has its F0 zero exactly when its window representative lies in one
of the open triangles D1, D2, D3, and inside a triangle the zero moves
smoothly with (r, s).  So the hunt starts Newton once per pair, from the F0
zero of its triangle's centroid pair (the triangle's anchor, found on first
use).  The grid stage (``_grid_zeros``) hunts only the pairs whose anchor
start stalls or lands outside F0, and the anchors themselves: it hands the
start-grid samples of all its pairs to the kernel at once, one call per grid
level, and runs Newton from each pair's best samples.  The square stage
(``_check_squares``) then winds around the isolating squares of all the
certificates in one ``_windings`` call.  A point's value does not depend on
what shares its batch, and every start is fixed by the pair alone, so each
pair's certificate is the one it gets when hunted alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Optional

import numpy as np

from .elliptic import ModuliPoint
from .errors import BoundaryTooClose, DomainError, IncoherentWinding, PviLabError
from .modular import IDENTITY, reduce_to_shifted_domain, transport_pair
from .orbits import _nu_infinity, pm_class_reps, pm_key, qn_size
from .premodular import TorsionPair, m_n, z2_stable_many
from .solutions import _newton_z2

_PI = math.pi
_TWO_PI = 2.0 * math.pi

# Boundary clearance: samples with |Z2| below this multiple of their scale
# abort the winding computation.
BOUNDARY_RTOL = 1e-8
# Max phase step per boundary segment after adaptive refinement.
MAX_PHASE_STEP = _PI / 8.0
# Accepted distance of the accumulated phase from an integer multiple of
# 2*pi, in turns.
WINDING_SLACK = 0.05
# Height at which the contour crosses above a cusp whose direction does not
# degenerate (|Z2| blows up there, so no disk is excised).
_CUSP_CLEARANCE = 0.03
# Radius of the disk excised around a cusp where Z2 vanishes.
_EXCISION_RADIUS = 0.12
# Refinement rounds allowed per boundary piece before the phase is declared
# incoherent.
_MAX_REFINE_ROUNDS = 18
# Largest N whose zeros of M_N over F ``count_mn_zeros`` counts, and so the
# cap of ``valence_check`` and of the valence in ``pvilab count``.
MAX_N = 120


@dataclass(frozen=True)
class DomainSpec:
    """A fundamental domain, truncated at Im tau = 10, with a piecewise
    boundary."""

    kind: str  # "F0" | "F" | "F2"
    truncation_height: ClassVar[float] = 10.0

    def __post_init__(self):
        if self.kind not in ("F0", "F", "F2"):
            raise DomainError(f"unknown domain kind {self.kind!r}")

    @property
    def strip(self) -> tuple[float, float]:
        return (0.0, 2.0 if self.kind == "F2" else 1.0)

    @property
    def disks(self) -> tuple[tuple[complex, float], ...]:
        if self.kind == "F0":
            return ((0.5 + 0j, 0.5),)
        if self.kind == "F2":
            return ((0.5 + 0j, 0.5), (1.5 + 0j, 0.5))
        return ((0j, 1.0), (1.0 + 0j, 1.0))

    def contains(self, tau, margin: float = 0.0):
        """Interior membership with an optional safety margin, for one tau
        or elementwise for an array of them."""
        x, y = np.real(tau), np.imag(tau)
        xl, xr = self.strip
        inside = (xl + margin <= x) & (x <= xr - margin)
        inside &= (0.0 < y) & (y <= self.truncation_height)
        for c, rad in self.disks:
            inside &= np.hypot(x - c.real, y - c.imag) >= rad + margin
        return inside


F0 = DomainSpec("F0")
F = DomainSpec("F")
F2 = DomainSpec("F2")


@dataclass(frozen=True)
class ZeroCertificate:
    """A located, Newton-refined simple zero of Z2_{r,s}."""

    tau0: complex
    residual: float
    dz_mag: float
    newton_iters: int
    torsion: TorsionPair
    scale: float


def _certify(pair: TorsionPair, tau_start: complex) -> ZeroCertificate:
    """Newton-polish a zero of Z2_pair from tau_start into a certificate."""
    tau0, resid, dz, iters, scale = _newton_z2(pair, tau_start)
    return ZeroCertificate(
        tau0=tau0,
        residual=resid,
        dz_mag=dz,
        newton_iters=iters,
        torsion=pair,
        scale=scale,
    )


@dataclass(frozen=True)
class TrianglePosition:
    tag: str  # "D0" | "D1" | "D2" | "D3" | "boundary" | "outside"


def classify_triangle(p: TorsionPair) -> TrianglePosition:
    """Locate the window representative of (r, s) among the four open
    triangles partitioning [0,1] x [0,1/2].

    Exact for rational pairs, in the integers of the pair's ``_carry``
    (``_integer_triangle``; degenerate pairs, which have no carry, lie on an
    edge); floats get a 1e-12 guard band mapped to "boundary".
    """
    if not p.is_real:
        raise DomainError("triangle classification needs a real pair")
    if not p.exact:
        r, s = p.reduced_real()
        return TrianglePosition(_triangle(r, s, 1.0, 0.5, lambda e: abs(e) < 1e-12))
    if p._carry is None:
        return TrianglePosition("boundary")
    return TrianglePosition(_integer_triangle(*p._carry))


def _integer_triangle(x: int, y: int, n: int) -> str:
    """The triangle tag of the window representative of +-(x, y)/n, in
    integers: the window is taken mod n and every comparison is scaled by
    2n, so the edges 1/2 and 1 are n and 2n."""
    r, s = x % n, y % n
    if 2 * s > n:
        r, s = -r % n, -s % n
    return _triangle(2 * r, 2 * s, 2 * n, n, lambda e: e == 0)


def _triangle(r, s, one, half, on_edge) -> str:
    """The tag of a window point (r, s): "boundary" where ``on_edge`` holds
    for one of the edges, else the open triangle it lies in."""
    edges = (r, r - half, r - one, s, s - half, r + s - half, r + s - one)
    if any(on_edge(e) for e in edges):
        return "boundary"
    if 0 < r < half and 0 < s < half and r + s > half:
        return "D0"
    if half < r < one and 0 < s < half and r + s > one:
        return "D1"
    if half < r < one and 0 < s < half and r + s < one:
        return "D2"
    if r > 0 and s > 0 and r + s < half:
        return "D3"
    return "outside"


# ---------------------------------------------------------------------------
# Contours
# ---------------------------------------------------------------------------


def _arc_point_at_cusp_distance(center: complex, x_c: float, delta: float) -> complex:
    """Point on the circle |tau - center| = 1/2 at distance delta from the
    cusp x_c (which lies on that circle)."""
    # |tau - x_c|^2 = +-(Re tau - x_c) on these circles; both reduce to
    # Re tau = x_c -+ delta^2 with Im > 0.
    if x_c < center.real:
        x = x_c + delta * delta
    else:
        x = x_c - delta * delta
    y2 = 0.25 - (x - center.real) ** 2
    return complex(x, math.sqrt(max(y2, 0.0)))


@dataclass(frozen=True)
class _Jump:
    """Analytic phase change inserted between two numeric contour points."""

    delta: float


def _cusp_jump(x_c: int, tau_in: complex, tau_out: complex, order: float) -> _Jump:
    """Phase change of Z2 through the excised cusp disk.

    Z2(tau) = j^{-3} Z2_c(-1/j) with j = tau - x_c, and Z2_c ~ c q~^ord, so
    d(arg) = -3 d(Arg j) + 2 pi ord d(Re(-1/j)); Arg j stays in (0, pi) and
    Re(-1/j) is single-valued, so endpoint differences are exact.
    """
    j_in = tau_in - x_c
    j_out = tau_out - x_c
    d_arg = -3.0 * (cmath.phase(j_out) - cmath.phase(j_in))
    d_arg += _TWO_PI * order * ((-1.0 / j_out).real - (-1.0 / j_in).real)
    return _Jump(d_arg)


def _cap_jump(d: DomainSpec, order_inf: float) -> _Jump:
    xl, xr = d.strip
    return _Jump(_TWO_PI * order_inf * (xl - xr))


def _build_contour(d: DomainSpec, pair: TorsionPair) -> list:
    """Positively-oriented boundary as numeric pieces and analytic jumps,
    closed with the cusp orders of a real non-degenerate pair.

    Starts at the top-left corner; numeric pieces are ("seg", z0, z1) or
    ("arc", centre, radius, th0, th1); jumps are _Jump instances.
    """
    T = d.truncation_height
    y0 = _CUSP_CLEARANCE

    if d.kind == "F":
        return [
            ("seg", complex(0.0, T), complex(0.0, 1.0)),
            ("arc", 0j, 1.0, _PI / 2.0, _PI / 3.0),
            ("arc", 1.0 + 0j, 1.0, 2.0 * _PI / 3.0, _PI / 2.0),
            ("seg", complex(1.0, 1.0), complex(1.0, T)),
            _cap_jump(d, pair.cusp[1]),
        ]

    orders, gap = pair.cusp_orders, _EXCISION_RADIUS
    dx = math.sqrt(0.25 - y0 * y0)
    pieces: list = []
    # left edge down
    y_left = gap if orders[0] > 0 else y0
    pieces.append(("seg", complex(0.0, T), complex(0.0, y_left)))
    # walk the bottom arcs left to right
    prev_exit = complex(0.0, y_left)
    for center, rad in d.disks:
        left_cusp = int(round(center.real - 0.5))
        right_cusp = left_cusp + 1
        # entry onto this arc
        if orders[left_cusp] > 0:
            a_in = _arc_point_at_cusp_distance(center, left_cusp, gap)
            pieces.append(_cusp_jump(left_cusp, prev_exit, a_in, orders[left_cusp]))
        else:
            a_in = complex(center.real - dx, y0)
            pieces.append(("seg", prev_exit, a_in))
        # exit from this arc
        if orders[right_cusp] > 0:
            a_out = _arc_point_at_cusp_distance(center, right_cusp, gap)
        else:
            a_out = complex(center.real + dx, y0)
        th_in = cmath.phase(a_in - center)
        th_out = cmath.phase(a_out - center)
        pieces.append(("arc", center, rad, th_in, th_out))
        prev_exit = a_out
    # connect to the right edge
    xr = int(d.strip[1])
    if orders[xr] > 0:
        edge_bottom = complex(xr, gap)
        pieces.append(_cusp_jump(xr, prev_exit, edge_bottom, orders[xr]))
    else:
        edge_bottom = complex(xr, y0)
        pieces.append(("seg", prev_exit, edge_bottom))
    pieces.append(("seg", edge_bottom, complex(xr, T)))
    pieces.append(_cap_jump(d, pair.cusp[1]))
    return pieces


# ---------------------------------------------------------------------------
# Adaptive phase tracking
# ---------------------------------------------------------------------------


def _split_points(
    lo: np.ndarray, hi: np.ndarray, steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The inner points that cut each segment [lo, hi] into 2^m equal
    parts, m = ceil(log2(2 |step| / MAX_PHASE_STEP)): enough that a phase
    step spread evenly over the parts is at most MAX_PHASE_STEP / 2.  Also
    returns the index of the segment each point cuts."""
    parts = np.exp2(np.ceil(np.log2(2.0 * np.abs(steps) / MAX_PHASE_STEP))).astype(np.int64)
    seg = np.repeat(np.arange(parts.size), parts - 1)
    start = np.cumsum(parts - 1) - (parts - 1)
    j = np.arange(seg.size) - start[seg] + 1
    return lo[seg] + (hi[seg] - lo[seg]) * (j / parts[seg]), seg


def _windings(pairs: list[TorsionPair], contours: list[list], n0: int) -> list[float]:
    """The total phase (in turns) of Z2 of ``pairs[k]`` around the closed
    piecewise contour ``contours[k]``, jumps included, for every k at once.

    The samples of all the numeric pieces, numbered in contour order, live
    in one array sorted by (piece, t), n0 per piece at first.  Each round
    sends the new samples to ``z2_stable_many`` in one batch, merges them in
    with one sort, and cuts every segment whose phase step exceeds
    MAX_PHASE_STEP into equal parts (``_split_points``) until none does; a
    step that ``np.angle`` wrapped into (-pi, pi] may get too few parts,
    and the next round cuts it again.  A sample with |Z2| below
    BOUNDARY_RTOL times its scale fails its piece, as does a piece still
    cut after _MAX_REFINE_ROUNDS rounds; the error raised is that of the
    first failing piece in contour order, and the pieces after it stop.
    Seams, jumps and sums are taken per contour, so each contour's turns
    are the ones it gets alone.
    """
    if not contours:
        return []
    pieces, owner, joined, jumps, closed = [], [], [], [0.0] * len(contours), []
    for k, contour in enumerate(contours):
        seam = False  # True right after a numeric piece, whose end the next starts at
        for piece in contour:
            if isinstance(piece, _Jump):
                jumps[k] += piece.delta
            else:
                pieces.append(piece)
                owner.append(k)
                joined.append(seam)
            seam = not isinstance(piece, _Jump)
        closed.append(seam)
    owner, joined = np.array(owner), np.array(joined)
    # a ("seg", z0, z1) is z0 + t (z1 - z0), an ("arc", c, rad, th0, th1)
    # is c + rad e^{i (th0 + t (th1 - th0))}
    rows = [
        (False, p[1], p[2] - p[1], 0.0, 0.0, 0.0)
        if p[0] == "seg"
        else (True, p[1], 0j, p[2], p[3], p[4] - p[3])
        for p in pieces
    ]
    on_arc, base, span, rad, th0, dth = (np.array(col) for col in zip(*rows))

    def points(at: np.ndarray, t: np.ndarray) -> np.ndarray:
        out = np.empty(at.size, dtype=np.complex128)
        arc = on_arc[at]
        g, h = at[~arc], at[arc]
        out[~arc] = base[g] + t[~arc] * span[g]
        out[arc] = base[h] + rad[h] * np.exp(1j * (th0[h] + t[arc] * dth[h]))
        return out

    at, t, v = np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.complex128)
    new_at = np.repeat(np.arange(len(pieces)), n0)
    new_t = np.tile(np.linspace(0.0, 1.0, n0), len(pieces))
    error: Optional[PviLabError] = None
    limit = len(pieces)  # the first failing piece; it and those after it stop
    for rnd in range(_MAX_REFINE_ROUNDS + 1):
        taus = points(new_at, new_t)
        counts = np.bincount(owner[new_at], minlength=len(contours))
        new_v, scales = z2_stable_many(pairs, taus, counts)
        close = np.abs(new_v) < BOUNDARY_RTOL * scales
        if close.any():
            k = int(np.argmax(close))
            limit = int(new_at[k])
            error = BoundaryTooClose(
                f"|Z2| = {abs(new_v[k]):.3e} below clearance on boundary piece "
                f"{pieces[limit][0]} at tau = {taus[k]} (scale {scales[k]:.3e})"
            )
            keep = new_at < limit
            new_at, new_t, new_v = new_at[keep], new_t[keep], new_v[keep]
        at, t, v = (np.concatenate(x) for x in ((at, new_at), (t, new_t), (v, new_v)))
        order = np.lexsort((t, at))
        at, t, v = at[order], t[order], v[order]
        if rnd == _MAX_REFINE_ROUNDS:
            if new_at.size:
                limit = int(new_at[0])
                error = IncoherentWinding(
                    f"phase refinement did not settle on piece {pieces[limit][0]} "
                    f"for {pairs[owner[limit]]}"
                )
            break
        steps = np.angle(v[1:] / v[:-1])
        inner = at[1:] == at[:-1]
        bad = inner & (np.abs(steps) > MAX_PHASE_STEP) & (at[1:] < limit)
        if not bad.any():
            break
        new_t, seg = _split_points(t[:-1][bad], t[1:][bad], steps[bad])
        new_at = at[1:][bad][seg]
    if error is not None:
        raise error
    counted = inner | joined[at[1:]]
    contour_of = owner[at]
    total = np.bincount(contour_of[1:][counted], steps[counted], len(contours))
    first = np.searchsorted(contour_of, np.arange(len(contours)))
    last = np.searchsorted(contour_of, np.arange(len(contours)), side="right") - 1
    total += np.where(closed, np.angle(v[first] / v[last]), 0.0) + jumps
    return (total / _TWO_PI).tolist()


def _integer_turns(turns: float, what: str) -> int:
    """The integer a winding in turns stands for, within WINDING_SLACK."""
    w = round(turns)
    if abs(turns - w) > WINDING_SLACK:
        raise IncoherentWinding(
            f"accumulated phase {turns:.4f} turns is not near an integer {what}"
        )
    return int(w)


def winding_count(p: TorsionPair, d: DomainSpec) -> int:
    """Number of zeros of Z2_{r,s} in the truncated domain, by the argument
    principle with analytic cusp closures.

    Real parameter pairs only: the cusp corrections come from the stated
    leading behaviour, and boundary non-vanishing is only guaranteed there.
    """
    if not p.is_real:
        raise DomainError("winding counts are restricted to real pairs")
    if p.degenerate:
        raise DomainError("degenerate pairs have no meaningful winding")
    (turns,) = _windings([p], [_build_contour(d, p)], 17)
    return _integer_turns(turns, f"for {p} over {d.kind}")


# ---------------------------------------------------------------------------
# Zero location
# ---------------------------------------------------------------------------


@functools.cache
def _interior_grid(d: DomainSpec, nx: int, ny: int) -> np.ndarray:
    """Newton start candidates: the nx-by-ny grid points (linear in Re,
    geometric in Im, x-major) that ``d.contains`` accepts with margin 1e-3.

    Memoised per (d, nx, ny); the array is read-only.
    """
    xl, xr = d.strip
    xs = np.linspace(xl + 0.02, xr - 0.02, nx)
    y_lo = max(_CUSP_CLEARANCE + 0.02, 0.05)
    ys = np.geomspace(y_lo, d.truncation_height, ny)
    grid = np.empty((nx, ny), dtype=np.complex128)
    grid.real = xs[:, None]
    grid.imag = ys[None, :]
    pts = grid[d.contains(grid, margin=1e-3)]
    pts.flags.writeable = False
    return pts


def _rect_pieces(tau0: complex, h: float) -> list:
    """The positively oriented square of half-width h around tau0 (no cusps,
    no cap)."""
    x0, x1, y0, y1 = tau0.real - h, tau0.real + h, tau0.imag - h, tau0.imag + h
    return [
        ("seg", complex(x1, y0), complex(x1, y1)),
        ("seg", complex(x1, y1), complex(x0, y1)),
        ("seg", complex(x0, y1), complex(x0, y0)),
        ("seg", complex(x0, y0), complex(x1, y0)),
    ]


def _f0_zero_from(pair: TorsionPair, tau_start: complex) -> Optional[ZeroCertificate]:
    """Newton's zero of Z2_pair from tau_start if it lies inside F0 (margin
    1e-9), else None; a start where Newton stalls or leaves the upper
    half-plane gives None too."""
    try:
        cert = _certify(pair, tau_start)
    except (PviLabError, ArithmeticError):
        return None
    return cert if F0.contains(cert.tau0, margin=1e-9) else None


def _grid_zeros(pairs: list[TorsionPair]) -> list[ZeroCertificate]:
    """The grid stage of the F0 hunt: the one zero of Z2 in F0 of each pair,
    every pair lying in one of the triangles D1, D2, D3, with no isolation
    check yet.

    Each start grid is evaluated in one kernel batch for every pair still
    hunting.  Newton then runs per pair from the 8 best points of its grid
    (best by |Z2|/scale); the first result inside F0 is the zero, and the
    pairs it eludes go on to the next, finer grid.  A pair that no start
    resolves raises.
    """
    certs: list[Optional[ZeroCertificate]] = [None] * len(pairs)
    hunting = list(range(len(pairs)))
    for nx, ny in ((29, 25), (57, 49), (113, 97)):
        if not hunting:
            break
        grid = _interior_grid(F0, nx, ny)
        vals, scales = z2_stable_many(
            [pairs[i] for i in hunting],
            np.tile(grid, len(hunting)),
            [len(grid)] * len(hunting),
        )
        quality = (np.abs(vals) / np.maximum(scales, 1e-300)).reshape(len(hunting), -1)
        still = []
        for i, q in zip(hunting, quality):
            for tau_start in grid[np.argsort(q)[:8]]:
                cert = _f0_zero_from(pairs[i], complex(tau_start))
                if cert is not None:
                    certs[i] = cert
                    break
            else:
                still.append(i)
        hunting = still
    if hunting:
        raise IncoherentWinding(
            f"no Newton start found the zero of {pairs[hunting[0]]} in F0"
        )
    return certs


_CENTROIDS = {  # the centroid pair of each triangle whose pairs have an F0 zero
    "D1": (Fraction(5, 6), Fraction(1, 3)),
    "D2": (Fraction(2, 3), Fraction(1, 6)),
    "D3": (Fraction(1, 6), Fraction(1, 6)),
}


@functools.cache
def _anchor(tag: str) -> ZeroCertificate:
    """The F0 zero of the centroid pair of triangle ``tag``, hunted by the
    grid stage on first use: the one Newton start of every pair in that
    triangle."""
    return _grid_zeros([TorsionPair.of(*_CENTROIDS[tag])])[0]


def _check_squares(certs: list[Optional[ZeroCertificate]]) -> None:
    """The square stage of the F0 hunt: each zero whose square of half-width
    0.04 fits in F0 must wind once around it.  All the squares are
    phase-tracked in one pass."""
    h = 0.04
    corners = h * np.array([-1 - 1j, 1 + 1j, -1 + 1j, 1 - 1j])
    boxed = [
        c
        for c in certs
        if c is not None and F0.contains(c.tau0 + corners, margin=1e-6).all()
    ]
    turns = _windings(
        [c.torsion for c in boxed], [_rect_pieces(c.tau0, h) for c in boxed], 9
    )
    for c, t in zip(boxed, turns):
        if _integer_turns(t, "around a rectangle") != 1:
            raise IncoherentWinding(
                f"cell check around {c.tau0} did not isolate one zero"
            )


def _zeros_in_f0(
    pairs: list[TorsionPair], tags: list[str]
) -> list[Optional[ZeroCertificate]]:
    """The one zero of Z2 in F0 of each pair, or None: one Newton start from
    the anchor zero of the pair's triangle (``tags[k]`` is the
    ``classify_triangle`` tag of ``pairs[k]``, which the caller knows), then
    the grid stage for the pairs whose start fails, in one batch, then the
    square stage over every certificate.  A pair that no start resolves
    raises before any square is tracked."""
    certs: list[Optional[ZeroCertificate]] = [None] * len(pairs)
    misses = []
    for k, (p, tag) in enumerate(zip(pairs, tags)):
        if tag in _CENTROIDS:
            certs[k] = _f0_zero_from(p, _anchor(tag).tau0)
            if certs[k] is None:
                misses.append(k)
    for k, cert in zip(misses, _grid_zeros([pairs[k] for k in misses])):
        certs[k] = cert
    _check_squares(certs)
    return certs


def locate_zeros(
    p: TorsionPair, d: DomainSpec, expected: Optional[int] = None
) -> list[ZeroCertificate]:
    """All zeros of Z2_{r,s} inside the truncated domain, Newton-refined.

    Real pairs only, as for ``winding_count``.  The zeros come from one F0
    hunt (``_zeros_in_f0``) by the group action: F0 contains F, so the F0
    zero of p is kept if it lies in d; F2 is F0 together with F0 + 1, and
    Z2_{r,s}(tau + 1) = Z2_{r+s,s}(tau), so over F2 the partner (r + s, s)
    is hunted in the same batch and its F0 zero, moved by 1 and re-polished
    for p, follows.  The count is required to equal the winding number of
    the domain boundary, or ``expected`` when given.
    """
    w = winding_count(p, d) if expected is None else expected
    if w == 0:
        return []
    hunts = [p, TorsionPair.of(p.r + p.s, p.s)] if d.kind == "F2" else [p]
    own, *partner = _zeros_in_f0(hunts, [classify_triangle(h).tag for h in hunts])
    found = [] if own is None else [own]
    found += [_certify(p, c.tau0 + 1.0) for c in partner if c is not None]
    certs = [c for c in found if d.contains(c.tau0, margin=1e-9)]
    if len(certs) != w:
        raise IncoherentWinding(
            f"located {len(certs)} zeros but winding is {w} for {p} in {d.kind}"
        )
    return certs


# ---------------------------------------------------------------------------
# Zeros of the product M_N
# ---------------------------------------------------------------------------


@dataclass
class MnZeroReport:
    """Multiplicity-weighted zeros of M_N over the modular domain F.

    ``certificates`` holds each +-class's zero in F, in class order;
    ``merge_events`` lists ((k1, k2), (k1', k2'), tau0) for every two
    distinct classes whose certificates lie within 1e-8 of each other.
    """

    interior_count: int
    certificates: list[ZeroCertificate] = field(default_factory=list)
    merge_events: list[tuple] = field(default_factory=list)


def _merge_events(N: int, certs: list[ZeroCertificate]) -> list[tuple]:
    """((k1, k2), (k1', k2'), tau0) for every two certificates of distinct
    pairs within 1e-8 of each other, (k1, k2) and tau0 from the later one in
    ``certs``, ordered by the later one's index, then the earlier one's.

    A sweep over the certificates sorted by Re tau0 compares only those
    within 1e-8 in Re, not every two of them."""
    order = sorted(range(len(certs)), key=lambda i: certs[i].tau0.real)
    close = []
    for pos, i in enumerate(order):
        for j in order[pos + 1 :]:
            a, b = certs[i], certs[j]
            if b.tau0.real - a.tau0.real >= 1e-8:
                break
            if abs(a.tau0 - b.tau0) < 1e-8 and a.torsion != b.torsion:
                close.append((max(i, j), min(i, j)))
    # a certificate's class (k1, k2), read off its pair (k1/N, k2/N)
    key = lambda c: (int(c.torsion.r * N), int(c.torsion.s * N))
    return [(key(certs[i]), key(certs[j]), certs[j].tau0) for j, i in sorted(close)]


def _d1_classes(reps: list) -> list[int]:
    """The indices of the +-classes in D1 among ``pm_class_reps`` of one N,
    in order: ``classify_triangle``'s integer rule on each class's k1, k2,
    with no ``TorsionPair`` built."""
    tags = (_integer_triangle(rep.k1, rep.k2, rep.N) for rep in reps)
    return [k for k, tag in enumerate(tags) if tag == "D1"]


def count_mn_zeros(N: int) -> MnZeroReport:
    """Zeros of M_N = prod Z2 over F, with multiplicity.

    Works per +-class of Q_N, whose pairs are real: each class has at most
    one zero in F0, present exactly when its window representative lies in
    one of the three open triangles D1, D2, D3.  Only the D1 classes
    (``_d1_classes``) are hunted, in one ``_zeros_in_f0`` batch: Newton from
    the D1 anchor zero for each, the grids only for a start that fails, and
    all isolating squares in one pass.
    ``reduce_to_shifted_domain`` takes each F0 zero tau0 into F by some
    gamma, where gamma.tau0 is a zero of the class that ``transport_pair``
    carries the pair to by gamma: Q_N is closed under SL(2, Z), and the D1
    classes are carried one-to-one onto the classes with a zero in F, so
    P(N) = 2 * #(D1 classes).  A zero that gamma moves gets one Newton
    polish for its class (a zero already in F keeps its hunt certificate).
    Two D1 classes carried to one class, or a polished zero that F's
    ownership rule puts outside F, raise ``IncoherentWinding``: nothing is
    merged.

    Every certificate counts with multiplicity 2 for its +- pair.
    """
    if not (3 <= N <= MAX_N):
        raise DomainError(f"desk-scale N only (3 <= N <= {MAX_N})")
    reps = pm_class_reps(N)
    index = {(rep.k1, rep.k2): k for k, rep in enumerate(reps)}
    pair = lambda k: TorsionPair.of(reps[k].r, reps[k].s)
    d1 = _d1_classes(reps)
    found: dict[int, ZeroCertificate] = {}
    source: dict[int, int] = {}
    for k, cert in zip(d1, _zeros_in_f0([pair(k) for k in d1], ["D1"] * len(d1))):
        if cert is None:
            continue
        tau, g = reduce_to_shifted_domain(cert.tau0)
        k1, k2 = transport_pair(reps[k].k1, reps[k].k2, g)
        j = index[pm_key(k1, k2, N)]
        if j in source:
            raise IncoherentWinding(
                f"D1 classes {pair(source[j])} and {cert.torsion} carry to one "
                f"class {pair(j)} in F"
            )
        source[j] = k
        if g != IDENTITY:
            target = pair(j)
            cert = _certify(target, tau)
            if reduce_to_shifted_domain(cert.tau0)[1] != IDENTITY:
                raise IncoherentWinding(
                    f"zero {cert.tau0} of {target}, carried from the F0 zero "
                    f"of {pair(k)}, does not lie in F"
                )
        found[j] = cert
    certs = [found[j] for j in sorted(found)]
    return MnZeroReport(2 * len(certs), certs, _merge_events(N, certs))


def valence_check(N: int) -> dict:
    """The valence record of M_N = prod Z2 over F, as ``pvilab count``
    reports it.

    The interior zeros over F (``count_mn_zeros``) plus the cusp order
    nu_infinity = phi(N) + phi(N/2) must equal |Q_N|/4 (``balance_exact``);
    ``cusp_order_slope`` measures the cusp order independently, as the decay
    slope of log|M_N(iT)| between the heights 8 and 12.  N is capped as in
    ``count_mn_zeros``.
    """
    report = count_mn_zeros(N)
    interior = report.interior_count
    cusp = _nu_infinity(N)

    heights = (8.0, 12.0)
    logs = [m_n(N, ModuliPoint.from_tau(1j * t)) for t in heights]
    slope = (logs[0] - logs[1]) / (_TWO_PI * (heights[1] - heights[0]))
    return {
        "interior": interior,
        "cusp": cusp,
        "total": interior + cusp,
        "cusp_order_slope": slope,
        "balance_exact": interior + cusp == qn_size(N) // 4,
        "merge_events": report.merge_events,
    }
