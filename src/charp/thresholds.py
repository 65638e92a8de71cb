"""F-pure thresholds and F-jumping numbers under the full Cartier algebra.

With D_j the j-th base-p digit vector of frac(s), r_j = frac(s p^j) and
T_j the carry state of tau(a^(r_j)) (``cartier._ClassAutomaton.carry``),

    tau(a^s) = close(floor(s), carry(D_1, 1, ... carry(D_j, 1, T_j))).

``fpt_search`` reads exact thresholds of any ideals off this identity on
the finite set of states it reaches; ``jumping_numbers`` reads a grid off
the raster's digit table, which walks the same digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .cartier import (CartierAlgebraSpec, MixedPair, _automaton, _tau_state,
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
    """The mixed F-pure threshold c of the free exponent, for any ideals,
    with ``fixed`` a list of (Ideal, exponent) pairs held constant.  The
    slice must be F-regular at free exponent 0.

    On the levels of ``regions._digit_recursion``, tau at (r, N + 0.d_1...
    d_j) closes at (floor r, N) the state carry(D_1, 1, ... carry(D_j, 1,
    T_j)), for D_i = (floor(p r_(i-1)), d_i), r_0 = frac(r), r_i =
    frac(p r_(i-1)) and the tail T_j, the ``_tau_state`` at (r_j, 0).  By
    mixed Skoda tau lies in the free ideal from the exponent g = #gens(free)
    on, so c <= g, and N is the largest n < g with tau = (1) at (r, n).
    Free digits d_1..d_j keep tau = (1) iff carry(D_j, 1, T_j) lies in
    U_(j-1), for U_0 the states closing at (floor r, N) to (1) and U_j the
    ``preimage`` of U_(j-1) under D_j; the largest such digits spell c.
    The U_j are kept on V, the ``closure`` under the digit vectors chosen so
    far of the tails and of Q = {carry((floor(p r), d), 1, T_frac(p r))}
    over the remainders r and d in [1, p), and redone when V grows.  As Q
    holds every state a digit test asks about, the digit after position j
    depends only on (U_j meet V, r_j).  Once that pair repeats, at i < j, V
    is closed under every digit chosen since i, so the digits repeat with
    period j - i from i on, and c is exact.
    """
    if depth < 0:
        raise ValueError("fpt_search needs depth >= 0")
    if free.is_unit():
        raise ThresholdError("the free ideal is the unit ideal")
    pair = MixedPair.of(list(fixed) + [(free, 0)])  # checks the exponents
    p = free.ring.p
    auto = _automaton(pair.ideals, CartierAlgebraSpec.full_algebra(free.ring))
    whole = [int(t) for t in pair.exponents[:-1]]
    dens = [t.denominator for t in pair.exponents]
    r = tuple(t.numerator % t.denominator for t in pair.exponents[:-1])
    tails, moves, x = {}, {}, r  # r_j = x / dens, eventually periodic
    while x not in tails:
        t = tuple(map(Fraction, x + (0,), dens))
        tails[x] = _tau_state(auto, t, True)[1]
        moves[x] = (tuple(y * p // b for y, b in zip(x, dens)),
                    tuple(y * p % b for y, b in zip(x, dens)))
        x = moves[x][1]
    transcript, N = [], -1
    for n in range(max(len(free.gens), 1)):  # tau at (r, g) lies in free
        cid = auto.close(whole + [n], tails[r])
        transcript.append((Fraction(n), auto.classes[cid].content_hash()))
        if cid != auto.unit:
            break
        N = n
    if N < 0:
        raise ThresholdError("slice is not F-regular at free exponent 0")
    whole.append(N)

    def units(V):  # U_0 on V
        return frozenset(X for X in V if auto.close(whole, X) == auto.unit)

    V = set(tails.values()) | {auto.carry(D + (d,), 1, tails[y])
                               for D, y in moves.values() for d in range(1, p)}
    closed = set()  # the digit vectors V is closed under
    rs, Us, chosen, values = [r], [units(V)], [], [Fraction(N)]
    while len(chosen) < depth or (Us[-1], r) not in zip(Us[:-1], rs):
        j = len(chosen) + 1
        fixed_digits, r = moves[r]
        best = 0
        for d in range(1, p):
            X = auto.carry(fixed_digits + (d,), 1, tails[r])
            ok = X in Us[-1]
            if j <= depth:  # record tau at (r, values[-1] + d / p^j)
                for D in reversed(chosen):
                    X = auto.carry(D, 1, X)
                cid = auto.close(whole, X)
                transcript.append((values[-1] + Fraction(d, p ** j),
                                   auto.classes[cid].content_hash()))
            if not ok:
                break
            best = d
        chosen.append(fixed_digits + (best,))
        rs.append(r)
        values.append(values[-1] + Fraction(best, p ** j))
        if chosen[-1] not in closed:  # V grows: close it, redo U_0.. on it
            closed.add(chosen[-1])
            V = auto.closure(V, closed)
            Us = [units(V)]
        for D in chosen[len(Us) - 1:]:
            Us.append(auto.preimage(Us[-1], D, V))
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
