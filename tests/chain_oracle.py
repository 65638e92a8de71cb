"""The plain test-ideal chain that ``tau_mixed`` replaced, kept as an oracle.

It builds prod a_i^ceil(t_i q^e) in full at every step, so its powers grow
like p^e; tests call it only where it finishes quickly, with ``conf`` well
past the period of the chain.
"""

from charp.cartier import _ceil_mul, _p_depth, cplus
from charp.frobenius import bracket_root
from charp.ideals import (BudgetExceeded, Ideal, ideal_eq, power, product,
                          sum_ideal)


def _tau_chain(pair, C, conf: int, budget: int) -> Ideal:
    """Accumulates I_e = C_e applied to prod_i a_i^ceil(t_i q^e), q = p^e0,
    for e = 1, 2, ... and returns the accumulated sum once it is unchanged
    for ``conf`` consecutive steps.  That stop is a heuristic: a chain whose
    period exceeds ``conf`` can stop early with too small an ideal.  Steps
    with e*e0 below the p-adic depth of the exponents are warm-up: ceil(t q^e)
    is not yet exact there and the chain may still jump, so those repetitions
    do not count.  C_e(J) = (G^[q^(e-1)] ... G^[q] G J)^[1/q^e] for the twist
    ideal G: one root when G = (1), e steps of ``cplus`` otherwise.
    """
    e0 = C.degree()
    ring = pair.ring
    one_root = Ideal(ring, [g.twist for g in C.generators]).is_unit()
    warmup = max((_p_depth(t, ring.p) for t in pair.exponents), default=0)
    accum = Ideal(ring, [])
    stable = 0
    for e in range(1, 1 + budget):
        total = e * e0
        P = ring.p ** total
        J = Ideal(ring, [ring.one()])
        for a, t in zip(pair.ideals, pair.exponents):
            if t:
                J = product(J, power(a, _ceil_mul(t, P)))
        if one_root:
            I_e = bracket_root(J, total)
        else:
            I_e = J
            for _ in range(e):
                I_e = cplus(I_e, C)
        nxt = sum_ideal(accum, I_e)
        if total > warmup and ideal_eq(nxt, accum):
            stable += 1
            if stable >= conf:
                return Ideal(ring, list(accum.groebner()))
        else:
            stable = 0
        accum = Ideal(ring, list(nxt.groebner()))
        if accum.is_unit():
            # the accumulated chain only grows, so the unit ideal is final
            return accum
    raise BudgetExceeded(f"tau chain did not stabilize within {budget} steps")
