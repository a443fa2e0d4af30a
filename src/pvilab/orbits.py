"""Exact torsion-point combinatorics: Q_N, Euler phi, pole counts, orbits.

Everything here is integer/rational arithmetic; no floats.  Parameter pairs
ride as row vectors (s, r) = (k2, k1)/N and the level-2 group acts on the
right, matching ``modular.transport_pair``.

The orbit classifier rests on one parity rule (Diamond & Shurman, A First
Course in Modular Forms, sec. 1.2): a coprime row (u, v) is row . gamma for
a gamma in Gamma(2), with row (1, 0), (0, 1) or (1, 1) as (u, v) is
(odd, even), (even, odd) or (odd, odd).  The witness gamma = gamma2 . gamma1
takes gamma1 from (m2, m1) = (k2, k1)/L, L the gcd, and gamma2 from one of
(L, L - N), (L, N), (N, L); the rule's row for gamma2 is the representative
(0, 1/N), (1/N, 0) or (1/N, 1/N), and the resulting congruence is
re-verified exactly before the report is returned.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthExceeded, InternalError
from .modular import ModularMatrix


@dataclass(frozen=True)
class RationalPair:
    """A primitive N-torsion parameter pair (k1/N, k2/N)."""

    k1: int
    k2: int
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if not (0 <= self.k1 < self.N and 0 <= self.k2 < self.N):
            raise ValueError("require 0 <= k1, k2 <= N-1")
        if math.gcd(self.k1, self.k2, self.N) != 1:
            raise ValueError(
                f"gcd(k1, k2, N) = {math.gcd(self.k1, self.k2, self.N)} != 1"
            )

    @property
    def r(self) -> Fraction:
        return Fraction(self.k1, self.N)

    @property
    def s(self) -> Fraction:
        return Fraction(self.k2, self.N)

    def row(self) -> tuple[int, int]:
        """Numerators of the row vector (s, r)."""
        return (self.k2, self.k1)

    def pm_canonical(self) -> "RationalPair":
        """Lexicographically smaller of the pair and its negation."""
        return RationalPair(*pm_key(self.k1, self.k2, self.N), self.N)


def pm_key(k1: int, k2: int, N: int) -> tuple[int, int]:
    """The key of the +-class of (k1, k2)/N: min((k1, k2), (-k1, -k2)) mod N,
    the numerators of its lexicographically smallest element."""
    k1, k2 = k1 % N, k2 % N
    return min((k1, k2), (-k1 % N, -k2 % N))


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order, by trial
    division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            primes.append(p)
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def euler_phi(n: int) -> int:
    """Euler totient of a positive integer."""
    if n < 1:
        raise ValueError("argument must be positive")
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


def _nu_infinity(N: int) -> int:
    """The order of M_N at the cusp, phi(N) + phi(N/2), with phi(N/2) = 0
    for odd N."""
    return euler_phi(N) + (euler_phi(N // 2) if N % 2 == 0 else 0)


def enumerate_qn(N: int) -> list[RationalPair]:
    """All primitive N-torsion pairs, sorted lexicographically by (k1, k2)."""
    if N < 3:
        raise ValueError("N must be >= 3")
    out = []
    for k1 in range(N):
        for k2 in range(N):
            if math.gcd(math.gcd(k1, k2), N) == 1:
                out.append(RationalPair(k1, k2, N))
    return out


def qn_size(N: int) -> int:
    """|Q_N| = N^2 prod_{p | N} (p^2 - 1)/p^2, exactly."""
    size = N * N
    for p in _prime_divisors(N):
        size = size // (p * p) * (p * p - 1)
    return size


def p_of_n(N: int) -> int:
    """Multiplicity-weighted zero count of M_N over one modular fundamental
    domain: |Q_N|/4 - phi(N) - phi(N/2)."""
    if N < 3:
        raise ValueError("N must be >= 3")
    size = qn_size(N)
    if size % 4 != 0:
        raise InternalError(f"|Q_{N}| = {size} is not divisible by 4")
    return size // 4 - _nu_infinity(N)


def pole_count(N: int) -> tuple[int, int]:
    """(number of solutions, poles per solution) for the D_N parameter set.

    Odd N: one solution with 3|Q_N|/4 - 3 phi(N) poles; even N: three
    solutions with |Q_N|/4 - phi(N) - phi(N/2) poles each.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    size = qn_size(N)
    if N % 2 == 1:
        return (1, 3 * size // 4 - 3 * euler_phi(N))
    return (3, size // 4 - (euler_phi(N) + euler_phi(N // 2)))


# ---------------------------------------------------------------------------
# Constructive orbit classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitReport:
    """Witnessed classification of a torsion pair under Gamma(2) and +-."""

    representative: RationalPair
    gamma_witness: ModularMatrix
    shift: tuple[int, int]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    return old_r, old_s, old_t


def _gamma2_first_row(A: int, B: int) -> ModularMatrix:
    """gamma in Gamma(2) with first row (A, B); needs A odd, B even,
    gcd(A, B) = 1."""
    assert A % 2 == 1 and B % 2 == 0 and math.gcd(A, B) == 1
    g, x, y = _xgcd(A, B)
    if g == -1:
        x, y = -x, -y
    # A*y' - B*x' = 1 with y' = x, x' = -y
    yy, xx = x, -y
    if xx % 2 != 0:  # shift x' by A (odd) to fix parity; y' follows by B
        xx += A
        yy += B
    m = ModularMatrix(A, B, xx, yy)
    if not m.in_gamma2:
        raise InternalError(f"first-row construction left Gamma(2): {m}")
    return m


def _gamma2_second_row(C: int, D: int) -> ModularMatrix:
    """gamma in Gamma(2) with second row (C, D); needs C even, D odd,
    gcd(C, D) = 1.  The completion of first row (D, C), transposed."""
    assert C % 2 == 0 and D % 2 == 1 and math.gcd(C, D) == 1
    m = _gamma2_first_row(D, C)
    m = ModularMatrix(m.d, m.c, C, D)
    if not m.in_gamma2:
        raise InternalError(f"second-row construction left Gamma(2): {m}")
    return m


def _gamma2_column_sums(P: int, Q: int) -> ModularMatrix:
    """gamma = [[a,b],[c,d]] in Gamma(2) with a + c = P, b + d = Q; needs
    P, Q odd and gcd(P, Q) = 1."""
    assert P % 2 == 1 and Q % 2 == 1 and math.gcd(P, Q) == 1
    # a, d solve Q*a + P*d = 1 + P*Q with a odd (then d is odd automatically).
    g, x, y = _xgcd(Q, P)
    if g == -1:
        x, y = -x, -y
    rhs = 1 + P * Q
    a = x * rhs
    d = y * rhs
    # general solution a += t*P, d -= t*Q
    t = a // P if P != 0 else 0
    a -= t * P
    d += t * Q
    if a % 2 == 0:
        a += P
        d -= Q
    c = P - a
    b = Q - d
    m = ModularMatrix(a, b, c, d)
    if not m.in_gamma2:
        raise InternalError(f"column-sum construction left Gamma(2): {m}")
    return m


def _gamma2_with_row(u: int, v: int) -> tuple[ModularMatrix, tuple[int, int]]:
    """(gamma, row) with gamma in Gamma(2) and row . gamma = (u, v); needs
    gcd(u, v) = 1.  The parities of (u, v) fix both: (odd, even) takes row
    (1, 0), (even, odd) row (0, 1) and (odd, odd) row (1, 1)."""
    if v % 2 == 0:
        return _gamma2_first_row(u, v), (1, 0)
    if u % 2 == 0:
        return _gamma2_second_row(u, v), (0, 1)
    return _gamma2_column_sums(u, v), (1, 1)


def classify_orbit(p: RationalPair) -> OrbitReport:
    """Representative and exact Gamma(2) witness for a primitive pair.

    With L = gcd(k1, k2) and (m1, m2) = (k1, k2)/L, the witness is
    gamma = gamma2 . gamma1 with both factors from ``_gamma2_with_row``:
    gamma1 from (m2, m1) with row1, so it carries (L/N) row1 to the row
    (s, r), and gamma2 from whichever of (L, L - N), (L, N), (N, L) is
    L row1 mod N, as m1 and m2 are both odd, m1 is even or m2 is even.  The
    row of gamma2 is N times the representative's.  The congruence
    (s, r) == (s', r') . gamma mod Z^2 is re-verified in integer
    arithmetic; failure raises InternalError.
    """
    N = p.N
    k1, k2 = p.k1, p.k2
    L = math.gcd(k1, k2)
    if L == 0:  # pragma: no cover - excluded by the gcd-1 constraint
        raise InternalError("zero pair cannot be classified")
    m1, m2 = k1 // L, k2 // L

    gamma1, _ = _gamma2_with_row(m2, m1)
    if m1 % 2 == 1 and m2 % 2 == 1:
        gamma2, rep_row = _gamma2_with_row(L, L - N)
    elif m1 % 2 == 0:
        gamma2, rep_row = _gamma2_with_row(L, N)
    else:
        gamma2, rep_row = _gamma2_with_row(N, L)

    gamma = gamma2 @ gamma1
    rep_s, rep_r = rep_row
    representative = RationalPair(rep_r % N, rep_s % N, N)

    # exact verification: (k2, k1) == (rep_s, rep_r) . gamma + N * shift
    img = gamma.act_rows(rep_row)
    ds = k2 - img[0]
    dr = k1 - img[1]
    if ds % N != 0 or dr % N != 0:
        raise InternalError(
            f"witness verification failed for {p}: image {img}, rep {rep_row}"
        )
    shift = (ds // N, dr // N)
    if not gamma.in_gamma2:
        raise InternalError(f"witness chain left Gamma(2) for {p}")
    return OrbitReport(representative, gamma, shift)


# ---------------------------------------------------------------------------
# Brute-force oracle: BFS over Gamma(2) generators
# ---------------------------------------------------------------------------

_GENERATORS = (
    ModularMatrix(1, 2, 0, 1),
    ModularMatrix(1, 0, 2, 1),
    ModularMatrix(1, -2, 0, 1),
    ModularMatrix(1, 0, -2, 1),
)


# BFS layers allowed per class before ``orbit_brute_force`` gives up.
_MAX_BFS_DEPTH = 24


def orbit_brute_force(N: int) -> list[frozenset]:
    """Partition of Q_N/+- under the right action of Gamma(2).

    BFS over the generator set {[[1,2],[0,1]], [[1,0],[2,1]]} and inverses
    acting on (s, r) row vectors mod Z^2, quotiented by the central +-.
    Raises DepthExceeded when a class has not stabilised within
    _MAX_BFS_DEPTH BFS layers.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    all_pairs = enumerate_qn(N)

    def canonical(row):
        # the row (s, r) of the pair that keys the +-class of row
        k1, k2 = pm_key(row[1], row[0], N)
        return (k2, k1)

    seen_global: set = set()
    classes: list[frozenset] = []
    for pr in all_pairs:
        start = canonical(pr.row())
        if start in seen_global:
            continue
        cls = {start}
        frontier = deque([start])
        depth = 0
        while frontier:
            if depth > _MAX_BFS_DEPTH:
                raise DepthExceeded(
                    f"orbit BFS for N={N} exceeded depth {_MAX_BFS_DEPTH}"
                )
            next_frontier = deque()
            while frontier:
                row = frontier.popleft()
                for g in _GENERATORS:
                    nxt = canonical(g.act_rows(row))
                    if nxt not in cls:
                        cls.add(nxt)
                        next_frontier.append(nxt)
            frontier = next_frontier
            depth += 1
        classes.append(frozenset(cls))
        seen_global |= cls
    classes.sort(key=lambda c: min(c))
    return classes


def pm_class_reps(N: int) -> list[RationalPair]:
    """One representative per +-class of Q_N (lexicographic minimum), in
    lexicographic order: the pairs of Q_N not above their negation."""
    return [p for p in enumerate_qn(N) if pm_key(p.k1, p.k2, N) == (p.k1, p.k2)]
