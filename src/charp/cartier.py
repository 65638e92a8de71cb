"""Cartier algebras on polynomial charts: C_+ action, stable images, mixed test
ideals, and the pullback of Cartier structures along a regular chart
F_p[base] -> F_p[base, fiber].

The ambient module is always the rank-1 free module (M = R with trivialized
canonical form), where the test-ideal chain collapses to iterated bracket
roots of ideal powers and c = 1 is a test element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import lcm

from .frobenius import bracket_root, relative_trace, trace
from .ideals import BudgetExceeded, Ideal, ideal_eq, power, product, sum_ideal
from .rings import Polynomial, RingCtx, pow_poly

SIGMA_BUDGET = 128
TAU_BUDGET = 36


@dataclass(frozen=True)
class TraceTwist:
    """kappa^e pre-composed with multiplication by ``twist``."""
    e: int
    twist: Polynomial


class OperatorGen:
    """A degree-e generator given by an arbitrary p^(-e)-linear map on S."""

    __slots__ = ("e", "apply", "label")

    def __init__(self, e, apply, label=""):
        self.e = e
        self.apply = apply
        self.label = label


class CartierAlgebraSpec:
    """Finitely many twisted trace generators, or the full Cartier algebra."""

    __slots__ = ("ring", "full", "generators")

    def __init__(self, ring: RingCtx, generators=(), full=False):
        self.ring = ring
        self.full = full
        self.generators = tuple(generators)
        for g in self.generators:
            if g.e < 1:
                raise ValueError("generator degrees must be >= 1")

    @classmethod
    def full_algebra(cls, ring):
        return cls(ring, (), full=True)

    @classmethod
    def from_twists(cls, ring, pairs):
        return cls(ring, tuple(TraceTwist(e, g) for e, g in pairs))

    def degree(self) -> int:
        """Single generation degree e0; mixed degrees are rejected outright."""
        if self.full:
            return 1
        degrees = {g.e for g in self.generators}
        if len(degrees) != 1:
            raise ValueError("Cartier algebra must be generated in a single "
                             f"degree, got degrees {sorted(degrees)}")
        return degrees.pop()

    def cache_key(self):
        if self.full:
            return (self.ring, "full")
        if all(isinstance(g, TraceTwist) for g in self.generators):
            return (self.ring, tuple((g.e, g.twist) for g in self.generators))
        return None  # operator-backed algebras are not cached


def _operator_image(op: OperatorGen, I: Ideal) -> list:
    """Generators of the image ideal op(S*I), via the monomial basis of F^e_* S."""
    ring = I.ring
    q = ring.p ** op.e
    gens = []
    for u in I.gens:
        for exps in iproduct(range(q), repeat=ring.nvars):
            v = op.apply(u.mul_monomial(exps))
            if v and not v.is_zero():
                gens.append(v)
    return gens


def cplus(I: Ideal, C: CartierAlgebraSpec) -> Ideal:
    """The degree-positive action: sum over generators of kappa^e(g * I)."""
    if C.full:
        return bracket_root(I, 1)
    parts = []
    for gen in C.generators:
        if isinstance(gen, TraceTwist):
            twisted = Ideal(I.ring, [gen.twist * u for u in I.gens])
            parts.append(bracket_root(twisted, gen.e))
        else:
            parts.append(Ideal(I.ring, _operator_image(gen, I)))
    total = Ideal(I.ring, [])
    for part in parts:
        total = sum_ideal(total, part)
    return total


def sigma(C: CartierAlgebraSpec, start: Ideal, budget: int = SIGMA_BUDGET) -> Ideal:
    """Stable member of the chain I -> cplus(I, C) starting from ``start``."""
    current = start
    for _ in range(budget):
        nxt = cplus(current, C)
        if ideal_eq(nxt, current):
            return Ideal(current.ring, list(current.groebner()))
        current = nxt
    raise BudgetExceeded(f"sigma did not stabilize within {budget} iterations")


@dataclass(frozen=True)
class MixedPair:
    """Ideals a_1..a_n with exact nonnegative rational exponents t_1..t_n."""

    ideals: tuple
    exponents: tuple

    def __post_init__(self):
        if len(self.ideals) != len(self.exponents):
            raise ValueError("ideals and exponents must align")
        for t in self.exponents:
            if not isinstance(t, Fraction) or t < 0:
                raise ValueError(f"exponents must be nonnegative Fractions, got {t}")

    @classmethod
    def of(cls, pairs):
        return cls(tuple(I for I, _ in pairs),
                   tuple(Fraction(t) for _, t in pairs))

    @property
    def ring(self):
        return self.ideals[0].ring

    def with_exponent(self, i: int, t) -> "MixedPair":
        exps = list(self.exponents)
        exps[i] = Fraction(t)
        return MixedPair(self.ideals, tuple(exps))

    def cache_key(self):
        return (tuple(I.cache_key() for I in self.ideals), self.exponents)


def _ceil_mul(t: Fraction, P: int) -> int:
    """ceil(t * P) in exact integer arithmetic."""
    num, den = t.numerator * P, t.denominator
    return -((-num) // den)


_tau_cache: dict = {}

# consecutive unchanged steps after which _tau_chain stops (a heuristic)
_CHAIN_CONF = 2


def _p_depth(t: Fraction, p: int) -> int:
    """The p-adic valuation of the denominator of t."""
    den = t.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    return k


def tau_mixed(pair: MixedPair, C: CartierAlgebraSpec,
              budget: int = TAU_BUDGET) -> Ideal:
    """Mixed test ideal on a regular chart with M = R and test element 1.

    Principal a_i = (f_i) under the full algebra take an exact path.  The
    chain I_e = (prod f_i^ceil(t_i p^e))^[1/p^e] only grows and equals tau for
    e >> 0 (Blickle-Mustata-Smith 2008).  Write t_i = a_i/(b p^s) with
    gcd(b, p) = 1.  For b = 1 the chain is exact from e = s on, so tau is
    (prod f_i^(t_i p^s))^[1/p^s].  Otherwise, as tau(f^(t/p)) =
    tau(f^t)^[1/p], tau is tau(prod f_i^(a_i/b))^[1/p^s], so let t_i = a_i/b.
    With r = ord_b(p) and c_i = a_i (p^r - 1)/b, t_i p^r = c_i + t_i, and
    (g^(p^e) B)^[1/p^e] = g B^[1/p^e] gives I_(e+r) = Psi(I_e) for
    Psi(J) = (prod f_i^c_i J)^[1/p^r].  So the I_(kr) start at
    I_0 = (prod f_i^ceil(a_i/b)) and only grow, and once one repeats, all
    later ones equal it: the repeat is tau.  ``budget`` bounds the Psi steps.
    Every root here is taken by ``_digit_walk``.

    Other ideals and algebras go through ``_tau_chain``, whose stop is a
    heuristic.
    """
    ckey = C.cache_key()  # None for operator-backed algebras: never cached
    key = None if ckey is None else (pair.cache_key(), ckey)
    hit = _tau_cache.get(key)
    if hit is not None:
        return hit
    if C.full and all(len(a.gens) == 1 for a in pair.ideals):
        result = _tau_principal(pair, budget)
    else:
        result = _tau_chain(pair, C, _CHAIN_CONF, budget)
    if key is not None:
        _tau_cache[key] = result
    return result


def _tau_principal(pair: MixedPair, budget: int) -> Ideal:
    """The exact path of ``tau_mixed``; see its docstring."""
    ring, p = pair.ring, pair.ring.p
    fs = [a.gens[0] for a in pair.ideals]
    s = max(_p_depth(t, p) for t in pair.exponents)
    b = lcm(*(t.denominator for t in pair.exponents)) // p ** s
    unit = Ideal(ring, [ring.one()])
    if b == 1:
        J = _digit_walk(fs, [int(t * p ** s) for t in pair.exponents], s, unit)
    else:
        r = 1
        while p ** r % b != 1:
            r += 1
        J = _digit_walk(fs, [_ceil_mul(t, p ** s) for t in pair.exponents],
                        0, unit)
        c = [int(t * p ** s * (p ** r - 1)) for t in pair.exponents]
        for _ in range(budget):
            nxt = _digit_walk(fs, c, r, J)
            if ideal_eq(nxt, J):
                break
            J = nxt
        else:
            raise BudgetExceeded(f"tau chain did not repeat within {budget} steps")
        J = _digit_walk(fs, [0] * len(fs), s, J)
    return Ideal(ring, list(J.groebner()))


def _digit_walk(fs, m, k: int, J: Ideal) -> Ideal:
    """(prod f_i^m_i J)^[1/p^k] for polynomials f_i, one p-th root per
    base-p digit of m, lowest digit first.

    Write m = d + p m' with d the lowest digit vector, and let
    g = prod f_i^m'_i and B = prod f_i^d_i J.  Since
    I^[1/p^k] = (I^[1/p])^[1/p^(k-1)] and (g^p B)^[1/p] = g B^[1/p]
    (Blickle-Mustata-Smith 2008),

        (prod f_i^m_i J)^[1/p^k] = (g^p B)^[1/p^k] = (g B^[1/p])^[1/p^(k-1)].

    So each step multiplies in one digit and takes one p-th root; the last
    step multiplies in what is left of m, m_i // p^(k-1), whole.  The ideal
    is reduced between steps.  For k = 0 this is the plain product.
    """
    ring = J.ring
    p = ring.p

    def times(d, J):
        g = ring.one()
        for f, e in zip(fs, d):
            g = g * pow_poly(f, e)
        return Ideal(ring, [g * h for h in J.gens])

    if k == 0:
        return times(m, J)
    for _ in range(k - 1):
        J = bracket_root(times([x % p for x in m], J), 1)
        J = Ideal(ring, list(J.groebner()))
        m = [x // p for x in m]
    return bracket_root(times(m, J), 1)


def _tau_chain(pair: MixedPair, C: CartierAlgebraSpec, conf: int,
               budget: int) -> Ideal:
    """Accumulates I_e = C_{e*e0} applied to prod_i a_i^ceil(t_i p^(e*e0))
    for e = 1, 2, ... and returns the accumulated sum once it is unchanged for
    ``conf`` consecutive steps.  That stop is a heuristic: a chain whose
    period exceeds ``conf`` can stop early with too small an ideal.  Steps
    with e*e0 below the p-adic depth of the exponents are warm-up: ceil(t p^e)
    is not yet exact there and the chain may still jump, so those repetitions
    do not count.
    """
    e0 = C.degree()
    ring = pair.ring
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
        if C.full:
            I_e = bracket_root(J, total)
        else:
            # C_{e*e0} is spanned by length-e words in the degree-e0 part
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


def skoda_reduce(pair: MixedPair, i: int):
    """Skoda: tau(..., a_i^t, ...) = a_i * tau(..., a_i^(t-1), ...) once
    t_i is at least the number of generators of a_i.  Returns the reduced
    pair and the multiplier ideal a_i."""
    t = pair.exponents[i]
    n_gens = len(pair.ideals[i].gens)
    if t < n_gens:
        raise ValueError(f"Skoda needs t_i >= {n_gens} (number of generators), "
                         f"got t_i = {t}")
    return pair.with_exponent(i, t - 1), pair.ideals[i]


def scale_test_ideal(tau: Ideal, C: CartierAlgebraSpec) -> Ideal:
    """Apply the degree-e0 part: carries tau(a^t) to tau(a^(t/p^e0))."""
    e0 = C.degree()
    if C.full:
        return bracket_root(tau, e0)
    return cplus(tau, C)


# --- pullback along a regular chart ----------------------------------------------


@dataclass(frozen=True)
class RelativeChart:
    """The chart F_p[base] -> F_p[base, fiber] with fiber variables a p-basis.

    ``form`` is the formal rank-1 trivialization tag dx_1 ^ ... ^ dx_n carried
    through every computation.
    """

    ring: RingCtx       # S = F_p[base + fiber]
    base_ring: RingCtx  # R = F_p[base]

    @classmethod
    def build(cls, base_names, fiber_names, p, laurent=False):
        from .rings import PrimeModulus
        mod = PrimeModulus(p)
        base_names = tuple(base_names)
        fiber_names = tuple(fiber_names)
        ring = RingCtx(base_names + fiber_names, mod, laurent=laurent,
                       n_base=len(base_names))
        base_ring = RingCtx(base_names, mod, laurent=laurent)
        return cls(ring, base_ring)

    @property
    def form(self) -> str:
        wedge = "^".join(f"d{x}" for x in self.ring.fiber_names)
        return wedge or "1"

    def validate(self):
        from .basischange import validate_basis
        fiber = [self.ring.var(x) for x in self.ring.fiber_names]
        is_d, is_p = validate_basis(fiber, self.ring)
        if not (is_d and is_p):
            raise ValueError("fiber variables do not form a d/p-basis")

    def to_base(self, f: Polynomial) -> Polynomial:
        nb = self.ring.n_base
        terms = {}
        for m, c in f.terms.items():
            if any(m[nb:]):
                raise ValueError("polynomial involves fiber variables")
            terms[m[:nb]] = c
        return Polynomial(self.base_ring, terms)

    def from_base(self, f: Polynomial) -> Polynomial:
        pad = (0,) * (self.ring.nvars - self.ring.n_base)
        return Polynomial(self.ring, {m + pad: c for m, c in f.terms.items()})

    def extend_ideal(self, I: Ideal) -> Ideal:
        if I.ring != self.base_ring:
            raise ValueError("ideal does not live on the base ring")
        return Ideal(self.ring, [self.from_base(g) for g in I.gens])


def pullback_cartier(C: CartierAlgebraSpec, chart: RelativeChart) -> CartierAlgebraSpec:
    """Pull a Cartier algebra on R back to S = R[fiber].

    A base generator phi = kappa^e o g acts on S by
    s |-> sum_j s_j * kappa^e(g * r_j) where Phi^e(F^e_* s) = sum_j s_j (x) r_j;
    the canonical-form tag is carried formally.  The full algebra pulls back
    to the full algebra of the chart.
    """
    if C.ring != chart.base_ring:
        raise ValueError("algebra does not live on the chart's base ring")
    if C.full:
        return CartierAlgebraSpec.full_algebra(chart.ring)
    gens = []
    for gen in C.generators:
        if not isinstance(gen, TraceTwist):
            raise ValueError("only trace-twist generators can be pulled back")
        gens.append(OperatorGen(gen.e, _pulled_action(gen, chart),
                                label=f"pullback@{gen.e}"))
    return CartierAlgebraSpec(chart.ring, gens)


def _pulled_action(gen: TraceTwist, chart: RelativeChart):
    e, twist = gen.e, gen.twist

    def act(s: Polynomial) -> Polynomial:
        out = chart.ring.zero()
        for s_j, r_j in relative_trace(s, e):
            r = chart.to_base(r_j)
            image = trace(twist * r, e)
            if image and not image.is_zero():
                out = out + s_j * chart.from_base(image)
        return out

    return act


def theorem_b_sides(C: CartierAlgebraSpec, pair: MixedPair,
                    chart: RelativeChart):
    """The two sides of the pullback comparison: tau computed on the base and
    extended, and tau of the pulled-back data on the total chart."""
    if pair.ring != chart.base_ring:
        raise ValueError("pair does not live on the chart's base ring")
    lhs = chart.extend_ideal(tau_mixed(pair, C))
    pair_top = MixedPair(tuple(chart.extend_ideal(a) for a in pair.ideals),
                         pair.exponents)
    rhs = tau_mixed(pair_top, pullback_cartier(C, chart))
    return lhs, rhs


def theorem_b_check(C: CartierAlgebraSpec, pair: MixedPair,
                    chart: RelativeChart) -> bool:
    """Whether the two sides of ``theorem_b_sides`` agree."""
    return ideal_eq(*theorem_b_sides(C, pair, chart))
