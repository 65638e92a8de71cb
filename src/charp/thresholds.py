"""F-pure thresholds and F-jumping numbers under the full Cartier algebra.

With D_j the j-th base-p digit vector of an exponent vector s (the integer
part joins D_1) and r_j = s p^j - floor(s p^j), tau(f^s) = C_+(tau(f^(p s)))
and Skoda give, for principal f and step(d, J) = (prod f_i^d_i J)^[1/p],

    tau(f^s) = step(D_1, step(D_2, ... step(D_j, tau(f^(r_j))))).

``fpt_search`` reads exact thresholds of principal ideals off this identity
on the finite automaton of tau classes; ``jumping_numbers`` reads a grid off
the raster's digit table, which walks the same digits on carry states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .cartier import (CartierAlgebraSpec, MixedPair, _automaton,
                      scale_test_ideal, tau_mixed)
from .ideals import Ideal, VerificationError, ideal_eq
from .regions import RasterGrid, _digit_recursion


class ThresholdError(RuntimeError):
    pass


@dataclass(frozen=True)
class ThresholdResult:
    """The exact threshold ``candidate``, the bracket [lo, hi] of width
    p^-depth with tau = (1) at lo and tau != (1) at hi, and the transcript of
    (free exponent, tau class hash) pairs the search tested."""

    lo: Fraction
    hi: Fraction
    candidate: Fraction
    transcript: tuple

    def width(self) -> Fraction:
        return self.hi - self.lo


class _TauProbe:
    def __init__(self, free):
        self.free = free
        self.C = CartierAlgebraSpec.full_algebra(free.ring)

    def tau(self, t: Fraction) -> Ideal:
        return tau_mixed(MixedPair((self.free,), (Fraction(t),)), self.C)


def fpt_search(fixed, free: Ideal, depth: int) -> ThresholdResult:
    """The mixed F-pure threshold c of the free exponent, for principal
    ideals, with ``fixed`` a list of (Ideal, exponent) pairs held constant.
    The slice must be F-regular at free exponent 0.

    Free digits d_1..d_j keep tau = (1) iff the tail class T_j (``tau_mixed``
    at the fixed remainders r_j and free exponent 0) lies in
    U_j = {c : step(D_j, c) in U_(j-1)}, U_0 = {(1)}.  The largest such digit
    at each position spells c, as those prefixes are the largest a/p^j below
    c.  U_j is kept on V, the closure under the digit vectors chosen so far
    of the tails and of Q = {step((floor(p r), d), T_frac(p r))} over the
    remainders r and d in [1, p); V grows with each new digit vector, and
    U_0..U_j are then recomputed on it.  Every class a digit test asks
    about lies in Q, so the digit after position j depends only on
    (U_j meet V, r_j).  Once that pair repeats, at i < j, V is closed under
    every digit chosen since i, so by induction the digits after i repeat
    with period j - i, V stops growing, and c is exact.  c <= 1, as
    tau(... free^1) lies in free.
    """
    ideals = tuple(I for I, _ in fixed) + (free,)
    if any(len(a.gens) != 1 for a in ideals) or depth < 0:
        raise ValueError("fpt_search needs principal ideals and depth >= 0")
    if free.is_unit():
        raise ThresholdError("the free ideal is the unit ideal")
    p = free.ring.p
    C = CartierAlgebraSpec.full_algebra(free.ring)
    auto = _automaton(ideals, C)
    r = tuple(Fraction(t) for _, t in fixed)
    tails, moves, x = {}, {}, r  # r_0, r_1, ... is eventually periodic
    while x not in tails:
        pair = MixedPair(ideals, x + (Fraction(0),))
        tails[x] = auto.intern(tau_mixed(pair, C))
        digits = tuple(int(y * p) for y in x)
        moves[x] = digits, tuple(y * p - d for y, d in zip(x, digits))
        x = moves[x][1]
    transcript = [(Fraction(0), auto.classes[tails[r]].content_hash())]
    if tails[r] != auto.unit:
        raise ThresholdError("slice is not F-regular at free exponent 0")
    V = set(tails.values()) | {auto.step(D + (d,), tails[y])
                               for D, y in moves.values() for d in range(1, p)}
    closed = set()  # the digit vectors V is closed under
    rs, Us, chosen, values = [r], [frozenset([auto.unit])], [], [Fraction(0)]
    while len(chosen) < depth or (Us[-1], r) not in zip(Us[:-1], rs):
        j = len(chosen) + 1
        fixed_digits, r = moves[r]
        best = 0
        for d in range(1, p):
            cid = auto.step(fixed_digits + (d,), tails[r])
            ok = cid in Us[-1]
            if j <= depth:  # record tau = step(D_1, ... step(D_j, T_j))
                for D in reversed(chosen):
                    cid = auto.step(D, cid)
                transcript.append((values[-1] + Fraction(d, p ** j),
                                   auto.classes[cid].content_hash()))
            if not ok:
                break
            best = d
        chosen.append(fixed_digits + (best,))
        rs.append(r)
        values.append(values[-1] + Fraction(best, p ** j))
        if chosen[-1] not in closed:  # V grows: close it, redo U_1.. on it
            closed.add(chosen[-1])
            frontier = V
            while frontier:
                frontier = {auto.step(D, c) for c in frontier
                            for D in closed} - V
                V |= frontier
            del Us[1:]
        for D in chosen[len(Us) - 1:]:
            Us.append(frozenset(c for c in V if auto.step(D, c) in Us[-1]))
    i = list(zip(Us, rs)).index((Us[-1], r))
    q = p ** (len(chosen) - i)  # the digits after position i repeat
    candidate = values[i] + (values[-1] - values[i]) * q / (q - 1)
    lo = values[depth]
    return ThresholdResult(lo, lo + Fraction(1, p ** depth), candidate,
                           tuple(transcript))


def jumping_numbers(fixed, free: Ideal, T, depth: int):
    """Partition [0, T] into maximal constancy runs at resolution p^-depth
    for any ideals, ``fixed`` as in ``fpt_search``.

    Returns a list of (start, end, class_hash) covering the grid, the runs
    of equal entries in the one-dimensional raster that
    ``regions._digit_recursion`` fills; breakpoints are the boundaries
    between consecutive runs.  A grid over ``regions.RASTER_CELL_BUDGET``
    points is refused before any tau is computed.
    """
    pair = MixedPair.of(list(fixed) + [(free, 0)])  # checks the exponents
    grid = RasterGrid(free.ring.p, T, depth, 1, [], {})
    _digit_recursion(pair.ideals, grid,
                     CartierAlgebraSpec.full_algebra(free.ring),
                     pair.exponents[:-1])
    P = grid.p ** grid.k
    runs, start = [], 0
    for h, run in groupby(grid.cells):
        end = start + sum(1 for _ in run)  # one past the run's last point
        runs.append((Fraction(start, P), Fraction(end - 1, P), h))
        start = end
    return runs


def breakpoints(runs):
    """The left endpoints of every run after the first."""
    return [start for start, _, _ in runs[1:]]


def avoidance_windows(candidate, p: int, max_e: int = 4):
    """Windows (a/q, a/(q-1)), q = p^e, that strictly contain the candidate.

    Purely observational: single-hypersurface thresholds are known to avoid
    the window tied to their own q-level, but mixed thresholds do land inside
    coarser windows (8/9 sits in (2/3, 1)).  Callers log, never assert.
    """
    t = Fraction(candidate)
    hits = []
    for e in range(1, max_e + 1):
        q = p ** e
        for a in range(1, q):
            if Fraction(a, q) < t < Fraction(a, q - 1):
                hits.append((q, a))
    return hits


def jump_scaling_probe(free: Ideal, t, T, depth: int):
    """Check that p*t is a breakpoint whenever t is, for the one-parameter
    family free^t, using the scaling law tau(a^s) = C_1 tau(a^(p s)).

    Returns True when verified, or the string "vacuous" when p*t is out of
    range.  The scaling law itself is asserted; a violation raises.
    """
    ring = free.ring
    p = ring.p
    t = Fraction(t)
    if t == 0:
        return True
    if p * t > Fraction(T):
        return "vacuous"
    C = CartierAlgebraSpec.full_algebra(ring)
    probe = _TauProbe(free)
    eps = Fraction(1, p ** depth)
    tau_t = probe.tau(t)
    tau_t_eps = probe.tau(t - eps)
    tau_pt = probe.tau(p * t)
    tau_pt_eps = probe.tau(p * t - p * eps)
    if not ideal_eq(scale_test_ideal(tau_pt, C), tau_t):
        raise VerificationError("scaling law failed at p*t")
    if not ideal_eq(scale_test_ideal(tau_pt_eps, C), tau_t_eps):
        raise VerificationError("scaling law failed below p*t")
    jump_at_t = tau_t.content_hash() != tau_t_eps.content_hash()
    jump_at_pt = tau_pt.content_hash() != tau_pt_eps.content_hash()
    if jump_at_t and not jump_at_pt:
        return False
    return True
