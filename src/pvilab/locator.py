"""Zero counting and location for Z2_{r,s} in modular fundamental domains.

This module owns the domains, the contours and the zero search.  Z2 comes
from ``premodular.z2_stable_many`` (the pair's cusp series above
SERIES_HEIGHT when s is in (1/2)Z), the cusp orders from the ``TorsionPair``.

Winding numbers come from adaptive phase tracking of Z2 along the domain
boundary: the phase step between consecutive samples is bisected until it is
below pi/8, so unwrapping is unambiguous.  The cusp at infinity is closed
analytically: the leading behaviour c*q^ord contributes exactly
2*pi*ord*(Re change) across the cap, which is added instead of sampled.

Real-axis cusps need case analysis.  Near a cusp x_c the form factors as

    Z2_{r,s}(tau) = (tau - x_c)^{-3} * Z2_{r_c,s_c}(-1/(tau - x_c)),

with (r_c, s_c) = (s, -(r + x_c s)).  When s_c is not in (1/2)Z the
transported factor tends to a non-zero constant and |Z2| blows up like
dist^{-3}: the contour is simply cut just above the cusp with a short
horizontal connector.  When s_c IS in (1/2)Z the transported factor vanishes
at the cusp, so along any approach the direct value dies exponentially while
the computed one is cancellation noise; a disk around the cusp is excised
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
zero of a real pair (the triangle dichotomy).  Zeros over F and F2 come
from it by the group action: F is a subset of F0, and F2 is F0 together
with F0 + 1, where Z2_{r,s}(tau + 1) = Z2_{r+s,s}(tau).  Both
``locate_zeros`` and ``count_mn_zeros`` (over F, F0 and F2) take their
zeros from this one path.  The hunt takes a list of pairs and hands each
stage's samples for all of them to the kernel at once: one call per start
grid, one per refinement round of the isolating squares.  A point's value
does not depend on what shares its batch, so each pair's certificate is
the one it gets when hunted alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .elliptic import ModuliPoint
from .errors import BoundaryTooClose, DomainError, IncoherentWinding, PviLabError
from .orbits import euler_phi, p_of_n, pm_class_reps, qn_size
from .premodular import TorsionPair, m_n, z2_stable_many
from .solutions import _newton_z2

_PI = math.pi
_TWO_PI = 2.0 * math.pi

# Boundary clearance: directly-evaluated samples with |Z2| below this
# multiple of the local term scale abort the winding computation.
BOUNDARY_RTOL = 1e-8
# Max phase step per boundary segment after adaptive refinement.
MAX_PHASE_STEP = _PI / 8.0
# Accepted distance of the accumulated phase from an integer multiple of
# 2*pi, in turns.
WINDING_SLACK = 0.05
# Height at which the contour crosses above a cusp whose direction does not
# degenerate (|Z2| blows up there, so no disk is excised).
_CUSP_CLEARANCE = 0.03
# Bisection rounds allowed per boundary piece before the phase is declared
# incoherent.
_MAX_REFINE_ROUNDS = 18


@dataclass(frozen=True)
class DomainSpec:
    """A truncated fundamental domain with a piecewise boundary."""

    kind: str  # "F0" | "F" | "F2"
    truncation_height: float = 10.0

    def __post_init__(self):
        if self.kind not in ("F0", "F", "F2"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.truncation_height < 5.0:
            raise DomainError("truncation height must be >= 5")

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

    @property
    def cusps(self) -> tuple[int, ...]:
        if self.kind == "F0":
            return (0, 1)
        if self.kind == "F2":
            return (0, 1, 2)
        return ()

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
    region: str
    torsion: TorsionPair
    scale: float


def _certify(pair: TorsionPair, tau_start: complex, region: str) -> ZeroCertificate:
    """Newton-polish a zero of Z2_pair from tau_start into a certificate."""
    tau0, resid, dz, iters, scale = _newton_z2(pair, tau_start)
    return ZeroCertificate(
        tau0=tau0,
        residual=resid,
        dz_mag=dz,
        newton_iters=iters,
        region=region,
        torsion=pair,
        scale=scale,
    )


@dataclass(frozen=True)
class TrianglePosition:
    tag: str  # "D0" | "D1" | "D2" | "D3" | "boundary" | "outside"


def classify_triangle(p: TorsionPair) -> TrianglePosition:
    """Locate the window representative of (r, s) among the four open
    triangles partitioning [0,1] x [0,1/2].

    Exact for rational pairs (Fractions compare exactly with 0.5 and 1);
    floats get a 1e-12 guard band mapped to "boundary".
    """
    if not p.is_real:
        raise DomainError("triangle classification needs a real pair")
    if p.exact:
        r = Fraction(p.r) % 1
        s = Fraction(p.s) % 1
        if 2 * s > 1:
            r, s = (-r) % 1, (-s) % 1
        half, on_edge = Fraction(1, 2), lambda e: e == 0
    else:
        r, s = p.reduced_real()
        half, on_edge = 0.5, lambda e: abs(e) < 1e-12
    edges = (r, r - half, r - 1, s, s - half, r + s - half, r + s - 1)
    if any(on_edge(e) for e in edges):
        return TrianglePosition("boundary")
    if 0 < r < 0.5 and 0 < s < 0.5 and r + s > 0.5:
        return TrianglePosition("D0")
    if 0.5 < r < 1 and 0 < s < 0.5 and r + s > 1:
        return TrianglePosition("D1")
    if 0.5 < r < 1 and 0 < s < 0.5 and r + s < 1:
        return TrianglePosition("D2")
    if r > 0 and s > 0 and r + s < 0.5:
        return TrianglePosition("D3")
    return TrianglePosition("outside")


def _attenuation(pair: TorsionPair, taus: np.ndarray) -> np.ndarray:
    """Expected |Z2|/scale suppression near the cusps x_c whose order
    ord = ``pair.cusp_orders[x_c]`` is positive: the honest magnitude dies like
    exp(-2 pi ord Im(-1/(tau - x_c))) while the term scale does not, so the
    boundary-clearance threshold is scaled down accordingly."""
    att = np.ones(len(taus))
    for x_c, order_c in enumerate(pair.cusp_orders):
        if order_c == 0.0:
            continue
        j = taus - x_c
        im_t = j.imag / np.abs(j) ** 2
        att = np.minimum(att, np.exp(-_TWO_PI * order_c * np.maximum(im_t, 0.0)))
    return att


# ---------------------------------------------------------------------------
# Contours
# ---------------------------------------------------------------------------


def _gap_radius(order: float) -> float:
    # Noise onset of the direct formula moves outward with the cusp order;
    # radii chosen so retained samples keep >= 3 accurate digits.
    return 0.25 if order >= 0.75 else 0.12


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

    cusp_info = {}
    for x_c in d.cusps:
        order_c = pair.cusp_orders[x_c]
        cusp_info[x_c] = (order_c, _gap_radius(order_c) if order_c > 0.0 else 0.0)

    pieces: list = []
    # left edge down
    o0, d0 = cusp_info[0]
    y_left = d0 if d0 > 0.0 else y0
    pieces.append(("seg", complex(0.0, T), complex(0.0, y_left)))
    disks = d.disks
    # walk the bottom arcs left to right
    prev_exit = complex(0.0, y_left)
    for i, (center, rad) in enumerate(disks):
        left_cusp = int(round(center.real - 0.5))
        right_cusp = int(round(center.real + 0.5))
        ol, dl = cusp_info[left_cusp]
        orr, dr = cusp_info[right_cusp]
        # entry onto this arc
        if dl > 0.0:
            a_in = _arc_point_at_cusp_distance(center, left_cusp, dl)
            pieces.append(_cusp_jump(left_cusp, prev_exit, a_in, ol))
        else:
            dx = math.sqrt(0.25 - y0 * y0)
            a_in = complex(center.real - dx, y0)
            pieces.append(("seg", prev_exit, a_in))
        # exit from this arc
        if dr > 0.0:
            a_out = _arc_point_at_cusp_distance(center, right_cusp, dr)
        else:
            dx = math.sqrt(0.25 - y0 * y0)
            a_out = complex(center.real + dx, y0)
        th_in = cmath.phase(a_in - center)
        th_out = cmath.phase(a_out - center)
        pieces.append(("arc", center, rad, th_in, th_out))
        prev_exit = a_out
    # connect to the right edge
    xr = d.strip[1]
    o_r, d_r = cusp_info[int(xr)]
    if d_r > 0.0:
        edge_bottom = complex(xr, d_r)
        pieces.append(_cusp_jump(int(xr), prev_exit, edge_bottom, o_r))
    else:
        edge_bottom = complex(xr, y0)
        pieces.append(("seg", prev_exit, edge_bottom))
    pieces.append(("seg", edge_bottom, complex(xr, T)))
    pieces.append(_cap_jump(d, pair.cusp[1]))
    return pieces


# ---------------------------------------------------------------------------
# Adaptive phase tracking
# ---------------------------------------------------------------------------


def _piece_points(piece: tuple, t: np.ndarray) -> np.ndarray:
    if piece[0] == "seg":
        _, z0, z1 = piece
        return z0 + t * (z1 - z0)
    _, c, rad, th0, th1 = piece
    return c + rad * np.exp(1j * (th0 + t * (th1 - th0)))


_EPS = 2.220446049250313e-16


def _check_clearance(pair: TorsionPair, taus, vals, scales, exact, piece):
    checked = ~exact
    if not checked.any():
        return
    att = _attenuation(pair, taus)
    thresh = np.maximum(BOUNDARY_RTOL * scales * att, 1e3 * _EPS * scales)
    bad = checked & (np.abs(vals) < thresh)
    if bad.any():
        i = int(np.argmax(bad))
        raise BoundaryTooClose(
            f"|Z2| = {abs(vals[i]):.3e} below clearance on boundary piece "
            f"{piece[0]} at tau = {taus[i]} (scale {scales[i]:.3e})"
        )


def _phase_along_pieces(
    pairs: list[TorsionPair], pieces: list, n0: int
) -> list[tuple[float, complex, complex]]:
    """Accumulated phase change of Z2 along each numeric boundary piece, with
    its first and last sample values; piece i follows Z2 of ``pairs[i]``.

    Each piece starts from n0 samples and bisects every segment whose phase
    step exceeds MAX_PHASE_STEP, until none does.  The new samples of one
    round of all pieces, whatever their pairs, go to ``z2_stable_many`` in
    one batch, as one pair when every piece has the same.  Pieces do not
    interact, so the error raised is that of the first failing piece in
    contour order, as if the pieces were refined one after the other.
    """
    n = len(pieces)
    one_pair = all(q is pairs[0] for q in pairs)
    ts = [np.empty(0)] * n
    vals = [np.empty(0, dtype=np.complex128)] * n
    new_t = [np.linspace(0.0, 1.0, n0)] * n
    results: list = [None] * n
    errors: list = [None] * n
    live = list(range(n))
    for rnd in range(_MAX_REFINE_ROUNDS + 1):
        if not live:
            break
        taus = [_piece_points(pieces[i], new_t[i]) for i in live]
        points = np.concatenate(taus)
        if one_pair:
            batch = z2_stable_many(pairs[:1], points, [len(points)])
        else:
            batch = z2_stable_many(
                [pairs[i] for i in live], points, [len(x) for x in taus]
            )
        still = []
        lo = 0
        for i, piece_taus in zip(live, taus):
            hi = lo + len(piece_taus)
            new = [a[lo:hi] for a in batch]
            lo = hi
            try:
                _check_clearance(pairs[i], piece_taus, *new, pieces[i])
            except BoundaryTooClose as exc:
                errors[i] = exc
                continue
            t = np.concatenate([ts[i], new_t[i]])
            order = np.argsort(t)
            ts[i] = t = t[order]
            vals[i] = v = np.concatenate([vals[i], new[0]])[order]
            if rnd == _MAX_REFINE_ROUNDS:
                errors[i] = IncoherentWinding(
                    f"phase refinement did not settle on piece {pieces[i][0]} "
                    f"for {pairs[i]}"
                )
                continue
            steps = np.angle(v[1:] / v[:-1])
            bad = np.abs(steps) > MAX_PHASE_STEP
            if not bad.any():
                results[i] = (float(np.sum(steps)), complex(v[0]), complex(v[-1]))
                continue
            new_t[i] = 0.5 * (t[:-1][bad] + t[1:][bad])
            still.append(i)
        live = still
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _turns(pieces: list, phases) -> float:
    """Total phase (in turns) around a closed piecewise contour, given the
    ``_phase_along_pieces`` results of its numeric pieces in order."""
    total = 0.0
    prev_val: Optional[complex] = None
    first_val: Optional[complex] = None
    for piece in pieces:
        if isinstance(piece, _Jump):
            total += piece.delta
            prev_val = None
            continue
        dphi, v0, v1 = next(phases)
        if prev_val is not None:
            total += float(np.angle(v0 / prev_val))
        if first_val is None:
            first_val = v0
        total += dphi
        prev_val = v1
    if prev_val is not None and first_val is not None:
        total += float(np.angle(first_val / prev_val))
    return total / _TWO_PI


def _winding_over(pieces: list, pair: TorsionPair, n0: int = 17) -> float:
    """Total phase (in turns) of Z2_pair around a closed piecewise contour."""
    numeric = [piece for piece in pieces if not isinstance(piece, _Jump)]
    return _turns(pieces, iter(_phase_along_pieces([pair] * len(numeric), numeric, n0)))


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
    turns = _winding_over(_build_contour(d, p), p)
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


def _zeros_in_f0(pairs: list[TorsionPair]) -> list[Optional[ZeroCertificate]]:
    """The one zero of Z2 in F0 of each pair, or None: a pair has it exactly
    when its window representative lies in one of the triangles D1, D2, D3.

    Each start grid is evaluated in one kernel batch for every pair still
    hunting.  Newton then runs per pair from the 8 best points of its grid
    (best by |Z2|/scale); the first result inside F0 is the zero, and the
    pairs it eludes go on to the next, finer grid.  Each zero whose square
    of half-width 0.04 fits in F0 must then wind once around it; all the
    squares are phase-tracked in one pass.  A pair that no start resolves
    raises before any square is tracked.  The one-pair hunt is the
    one-element case.
    """
    certs: list[Optional[ZeroCertificate]] = [None] * len(pairs)
    hunting = [
        i for i, p in enumerate(pairs) if classify_triangle(p).tag in ("D1", "D2", "D3")
    ]
    for nx, ny in ((29, 25), (57, 49), (113, 97)):
        if not hunting:
            break
        grid = _interior_grid(F0, nx, ny)
        vals, scales, _ = z2_stable_many(
            [pairs[i] for i in hunting],
            np.tile(grid, len(hunting)),
            [len(grid)] * len(hunting),
        )
        quality = (np.abs(vals) / np.maximum(scales, 1e-300)).reshape(len(hunting), -1)
        still = []
        for i, q in zip(hunting, quality):
            for tau_start in grid[np.argsort(q)[:8]]:
                try:
                    cert = _certify(pairs[i], complex(tau_start), "F0")
                except (PviLabError, ArithmeticError):
                    # Newton stalled or walked out of the upper half-plane
                    continue
                if F0.contains(cert.tau0, margin=1e-9):
                    certs[i] = cert
                    break
            else:
                still.append(i)
        hunting = still
    if hunting:
        raise IncoherentWinding(
            f"no Newton start found the zero of {pairs[hunting[0]]} in F0"
        )
    h = 0.04
    corners = h * np.array([-1 - 1j, 1 + 1j, -1 + 1j, 1 - 1j])
    boxed = [
        c
        for c in certs
        if c is not None and F0.contains(c.tau0 + corners, margin=1e-6).all()
    ]
    squares = [_rect_pieces(c.tau0, h) for c in boxed]
    phases = iter(
        _phase_along_pieces(
            [c.torsion for c, sq in zip(boxed, squares) for _ in sq],
            [piece for sq in squares for piece in sq],
            9,
        )
    )
    for c, sq in zip(boxed, squares):
        if _integer_turns(_turns(sq, phases), "around a rectangle") != 1:
            raise IncoherentWinding(
                f"cell check around {c.tau0} did not isolate one zero"
            )
    return certs


def _zeros_by_group_action(
    pairs: list[TorsionPair], d: DomainSpec
) -> list[ZeroCertificate]:
    """The zeros in d of Z2 of each pair, in pair order, from one batch of
    F0 hunts.

    F0 contains F, so a pair's F0 zero is kept if it lies in d; F2 is F0
    together with F0 + 1, and Z2_{r,s}(tau + 1) = Z2_{r+s,s}(tau), so over
    F2 the F0 zero of (r + s, s), moved by 1 and re-polished for (r, s),
    follows it.
    """
    hunts = list(pairs)
    if d.kind == "F2":
        hunts += [TorsionPair.of(p.r + p.s, p.s) for p in pairs]
    f0 = _zeros_in_f0(hunts)
    found = []
    for k, p in enumerate(pairs):
        if f0[k] is not None:
            found.append(replace(f0[k], region=d.kind))
        if d.kind == "F2" and f0[len(pairs) + k] is not None:
            found.append(_certify(p, f0[len(pairs) + k].tau0 + 1.0, "F2"))
    return [c for c in found if d.contains(c.tau0, margin=1e-9)]


def locate_zeros(
    p: TorsionPair, d: DomainSpec, expected: Optional[int] = None
) -> list[ZeroCertificate]:
    """All zeros of Z2_{r,s} inside the truncated domain, Newton-refined.

    Real pairs only, as for ``winding_count``: the zeros come from F0 hunts
    by the group action (``_zeros_by_group_action``).  Their count is
    required to equal the winding number of the domain boundary, or
    ``expected`` when given.
    """
    w = winding_count(p, d) if expected is None else expected
    if w == 0:
        return []
    certs = _zeros_by_group_action([p], d)
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
    """Multiplicity-weighted zeros of M_N over a fundamental domain.

    ``certificates`` holds each +-class's zeros in the domain, in class
    order, as ``_zeros_by_group_action`` gives them for F, F0 and F2 alike;
    ``merge_events`` lists ((k1, k2), (k1', k2'), tau0) for every two
    distinct classes whose certificates lie within 1e-8 of each other.
    """

    N: int
    domain: str
    interior_count: int
    certificates: list[ZeroCertificate] = field(default_factory=list)
    merge_events: list[tuple] = field(default_factory=list)


def count_mn_zeros(N: int, d: DomainSpec = F) -> MnZeroReport:
    """Zeros of M_N = prod Z2 over the requested domain, with multiplicity.

    Works per +-class of Q_N, whose pairs are real: each class has at most
    one zero in F0 (present exactly when the window representative lies in
    one of the three open triangles).  The classes are hunted together in
    one ``_zeros_in_f0`` batch, and their zeros in d come from it by the
    group action, ``_zeros_by_group_action``, the path of ``locate_zeros``:
    over F the F0 zeros that lie in F, over F2 also the T-shifted class's
    zero moved into F0 + 1.  Q_N is closed under SL(2, Z), so a zero in F
    of a transported class is that class's own F0 zero, and nothing found
    twice needs merging.

    Every certificate counts with multiplicity 2 for its +- pair.
    """
    if not (3 <= N <= 24):
        raise DomainError("desk-scale N only (3 <= N <= 24)")
    reps = pm_class_reps(N)
    certs = _zeros_by_group_action([TorsionPair.of(rep.r, rep.s) for rep in reps], d)
    # a certificate's class (k1, k2), read off its pair (k1/N, k2/N)
    key = lambda c: (int(c.torsion.r * N), int(c.torsion.s * N))
    merges = [
        (key(a), key(b), b.tau0)
        for j, b in enumerate(certs)
        for a in certs[:j]
        if a.torsion != b.torsion and abs(a.tau0 - b.tau0) < 1e-8
    ]
    return MnZeroReport(N, d.kind, 2 * len(certs), certs, merges)


def valence_check(N: int) -> dict:
    """Book-keeping of the zero count of M_N against the weight formula.

    interior zeros (over F) + nu_infinity must equal |Q_N|/4, with the cusp
    order measured both by the totient formula and by the decay slope of
    log|M_N(iT)|; the orders at i and rho are checked to vanish by direct
    non-zero evaluation.
    """
    if not (3 <= N <= 12):
        raise DomainError("desk-scale N only (3 <= N <= 12)")
    nu_inf_formula = euler_phi(N) + euler_phi(Fraction(N, 2))
    report = count_mn_zeros(N, F)
    interior = report.interior_count

    heights = (8.0, 10.0, 12.0)
    logs = [m_n(N, ModuliPoint.from_tau(1j * t)).log_abs for t in heights]
    slope = (logs[0] - logs[-1]) / (_TWO_PI * (heights[-1] - heights[0]))

    rho = cmath.exp(1j * _PI / 3.0)
    mag_i = m_n(N, ModuliPoint.from_tau(1j)).log_abs
    mag_rho = m_n(N, ModuliPoint.from_tau(rho)).log_abs

    balance = interior + nu_inf_formula == qn_size(N) // 4
    mismatch = abs(slope - nu_inf_formula) > 0.1
    return {
        "N": N,
        "interior_count": interior,
        "P_N": p_of_n(N),
        "nu_inf_formula": int(nu_inf_formula),
        "nu_inf_slope": slope,
        "balance_exact": balance,
        "slope_mismatch": mismatch,
        "log_abs_MN_at_i": mag_i,
        "log_abs_MN_at_rho": mag_rho,
        "nu_i_zero": math.isfinite(mag_i),
        "nu_rho_zero": math.isfinite(mag_rho),
        "Q_N_quarter": qn_size(N) // 4,
        "merge_events": report.merge_events,
    }
