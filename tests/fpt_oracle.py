"""The digit loop that ``thresholds.fpt_search`` replaced, kept as an oracle.

It decides every digit on the closure S of the tails under all digit
vectors in [0, p)^n, so it steps every class of S by p^n digits before the
search starts, where ``fpt_search`` closes only under the digits it
chooses.  It walks classes with ``_ClassAutomaton.step``, so it takes
principal ideals only, whose single-entry carry states are those classes;
``oracle_closure`` is the class closure that ``_ClassAutomaton.closure``
must match on such states.
"""

from fractions import Fraction
from itertools import product as iproduct

from charp.cartier import CartierAlgebraSpec, MixedPair, _automaton, tau_mixed
from charp.thresholds import ThresholdError, ThresholdResult


def oracle_closure(auto, cids) -> frozenset:
    """The classes reached from ``cids`` by digits in [0, p)^n."""
    digits = list(iproduct(range(auto.C.ring.p), repeat=len(auto.gens)))
    seen = frontier = set(cids)
    while frontier:
        frontier = {auto.step(d, c) for c in frontier for d in digits} - seen
        seen = seen | frontier
    return frozenset(seen)


def oracle_fpt_search(fixed, free, depth: int) -> ThresholdResult:
    ideals = tuple(I for I, _ in fixed) + (free,)
    if any(len(a.gens) != 1 for a in ideals):
        raise ValueError("fpt_search needs principal ideals")
    if free.is_unit():
        raise ThresholdError("the free ideal is the unit ideal")
    p = free.ring.p
    C = CartierAlgebraSpec.full_algebra(free.ring)
    auto = _automaton(ideals, C)
    r = tuple(Fraction(t) for _, t in fixed)
    tails, x = {}, r  # r_0, r_1, ... is eventually periodic
    while x not in tails:
        pair = MixedPair(ideals, x + (Fraction(0),))
        tails[x] = auto.intern(tau_mixed(pair, C))
        x = tuple(y * p - int(y * p) for y in x)
    transcript = [(Fraction(0), auto.classes[tails[r]].content_hash())]
    if tails[r] != auto.unit:
        raise ThresholdError("slice is not F-regular at free exponent 0")
    S = oracle_closure(auto, tails.values())
    U, chosen, values, seen = frozenset([auto.unit]), [], [Fraction(0)], {}
    while len(chosen) < depth or (U, r) not in seen:
        seen.setdefault((U, r), len(chosen))
        j = len(chosen) + 1
        fixed_digits = tuple(int(x * p) for x in r)
        r = tuple(x * p - d for x, d in zip(r, fixed_digits))
        best = 0
        for d in range(1, p):
            cid = auto.step(fixed_digits + (d,), tails[r])
            ok = cid in U
            if j <= depth:  # record tau = step(D_1, ... step(D_j, T_j))
                for D in reversed(chosen):
                    cid = auto.step(D, cid)
                transcript.append((values[-1] + Fraction(d, p ** j),
                                   auto.classes[cid].content_hash()))
            if not ok:
                break
            best = d
        chosen.append(fixed_digits + (best,))
        U = frozenset(c for c in S if auto.step(chosen[-1], c) in U)
        values.append(values[-1] + Fraction(best, p ** j))
    i = seen[U, r]
    q = p ** (len(chosen) - i)  # the digits after position i repeat
    candidate = values[i] + (values[-1] - values[i]) * q / (q - 1)
    lo = values[depth]
    return ThresholdResult(lo, lo + Fraction(1, p ** depth), candidate,
                           tuple(transcript))
