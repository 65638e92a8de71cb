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


class CartierAlgebraSpec:
    """The Cartier algebra generated by finitely many trace twists
    kappa^e o g; the full algebra is the single twist kappa o 1."""

    __slots__ = ("ring", "generators", "_e0", "_fixes_unit")

    def __init__(self, ring: RingCtx, generators):
        self.ring = ring
        self.generators = tuple(generators)
        degrees = {g.e for g in self.generators}
        if len(degrees) != 1 or min(degrees) < 1:
            raise ValueError("Cartier algebra must be generated in a single "
                             f"degree >= 1, got degrees {sorted(degrees)}")
        self._e0 = degrees.pop()
        self._fixes_unit = None

    @classmethod
    def full_algebra(cls, ring):
        return cls.from_twists(ring, [(1, ring.one())])

    @classmethod
    def from_twists(cls, ring, pairs):
        return cls(ring, tuple(TraceTwist(e, g) for e, g in pairs))

    def degree(self) -> int:
        """The single generation degree e0."""
        return self._e0

    def fixes_unit(self) -> bool:
        """Whether C_+(R) = R, decided once.  A nonzero constant twist c
        settles it at once, as kappa^e(c x^(q-1,...,q-1)) = c."""
        if self._fixes_unit is None:
            self._fixes_unit = any(
                g.twist.is_constant() and g.twist for g in self.generators) \
                or cplus(Ideal(self.ring, [self.ring.one()]), self).is_unit()
        return self._fixes_unit

    def cache_key(self):
        return (self.ring, self.generators)


def cplus(I: Ideal, C: CartierAlgebraSpec) -> Ideal:
    """The degree-positive action C_+(I) = (G I)^[1/q] for the twist ideal
    G: one step of ``_digit_walk``, one root of the twisted ideal."""
    return _digit_walk((), (), 1, I, C)


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

    tau is the sum over e >= 1 of I_e = C_e(prod a_i^ceil(t_i q^e)), where
    q = p^e0 for the degree e0 of C, C_e is C_+ applied e times, and
    C_+(J) = (G J)^[1/q] for the twist ideal G (Blickle 2013).

    Principal a_i = (f_i) take a certified path under every algebra.  Let
    s = ceil(d/e0) for the p-depth d of the exponents, u_i = t_i q^s,
    b = lcm(den(u_i)), r = ord_b(q), c_i = u_i (q^r - 1) and
    I'_e = C_e(prod f_i^ceil(u_i q^e)), so that I_(e+s) = C_s(I'_e).  As
    C_+(h^q B) = h C_+(B) (Blickle-Mustata-Smith 2008), I'_(e+r) = Psi(I'_e)
    for Psi(J) = C_r(prod f_i^c_i J), which preserves sums and inclusions.
    With lo = 1 if s = 0 and lo = 0 otherwise, S = I'_lo + ... + I'_(lo+r-1)
    and T_0 = S, the sum of the I'_e over e >= lo is the limit T of
    T_(k+1) = S + Psi(T_k).  That sequence only grows, so its first repeat is
    T, and tau = I_1 + ... + I_(s-1) + C_s(T).  For n_i = floor(u_i) each
    I'_e is prod f_i^n_i times I'_e at u - n, so T is taken at u - n, where
    I'_0 divides prod f_i, and C_s(T) is one walk over prod f_i^n_i T.  When
    C_+(R) = R every chain here only grows: then S = I'_0, T_(k+1) =
    Psi(T_k), tau = C_s(T), and for b = 1 tau = C_s(prod f_i^u_i).
    ``budget`` bounds the Psi steps.  Every root here is taken by
    ``_digit_walk``.

    Other ideals go through ``_tau_chain``, whose stop is a heuristic.
    """
    key = (pair.cache_key(), C.cache_key())
    hit = _tau_cache.get(key)
    if hit is not None:
        return hit
    if all(len(a.gens) == 1 for a in pair.ideals):
        result = _tau_principal(pair, C, budget)
    else:
        result = _tau_chain(pair, C, _CHAIN_CONF, budget)
    _tau_cache[key] = result
    return result


def _tau_principal(pair: MixedPair, C: CartierAlgebraSpec,
                   budget: int) -> Ideal:
    """The certified path of ``tau_mixed``; see its docstring."""
    ring, e0 = pair.ring, C.degree()
    q = ring.p ** e0
    fs = [a.gens[0] for a in pair.ideals]
    s = -(-max(_p_depth(t, ring.p) for t in pair.exponents) // e0)
    u = [t * q ** s for t in pair.exponents]
    b = lcm(*(x.denominator for x in u))
    grows = C.fixes_unit()
    unit = Ideal(ring, [ring.one()])

    def term(ts, e):
        """C_e(prod f_i^ceil(t_i q^e))."""
        return _digit_walk(fs, [_ceil_mul(t, q ** e) for t in ts], e, unit, C)

    if b == 1 and grows:
        return Ideal(ring, list(term(pair.exponents, s).groebner()))
    whole = [int(x) for x in u]
    u = [x - n for x, n in zip(u, whole)]
    r = 1
    while (q ** r - 1) % b:
        r += 1
    c = [int(x * (q ** r - 1)) for x in u]
    lo = 0 if s or grows else 1
    S = Ideal(ring, [])
    for e in range(lo, lo + (1 if grows else r)):
        S = sum_ideal(S, term(u, e))
    T = S
    for _ in range(budget):
        nxt = _digit_walk(fs, c, r, T, C)
        if not grows:
            nxt = Ideal(ring, list(sum_ideal(S, nxt).groebner()))
        if ideal_eq(nxt, T):
            break
        T = nxt
    else:
        raise BudgetExceeded(f"tau chain did not repeat within {budget} steps")
    tau = _digit_walk(fs, whole, s, T, C)
    for e in range(1, 1 if grows else s):
        tau = sum_ideal(tau, term(pair.exponents, e))
    return Ideal(ring, list(tau.groebner()))


def _digit_walk(fs, m, k: int, J: Ideal, C: CartierAlgebraSpec) -> Ideal:
    """C_k(prod f_i^m_i J) for polynomials f_i, one step of C_+ per base-q
    digit of m (q = p^e0), lowest digit first.

    Write m = d + q m' with d the lowest digit vector, and let
    g = prod f_i^m'_i and B = prod f_i^d_i J.  Since C_+(J) = (G J)^[1/q]
    for the twist ideal G and (g^q B)^[1/q] = g B^[1/q]
    (Blickle-Mustata-Smith 2008),

        C_k(prod f_i^m_i J) = C_k(g^q B) = C_(k-1)(g C_+(B)).

    So each step multiplies in one digit and takes one q-th root; the last
    step multiplies in what is left of m, m_i // q^(k-1), whole.  Each
    twist t starts its own digit product, t prod f_i^d_i.  The ideal is
    reduced between steps.  For k = 0 this is the plain product.
    """
    ring = J.ring
    e0 = C.degree()
    q = ring.p ** e0

    def times(g, d, J):
        for f, e in zip(fs, d):
            g = g * pow_poly(f, e)
        return [g * h for h in J.gens]

    def step(d, J):
        gens = [u for gen in C.generators for u in times(gen.twist, d, J)]
        return bracket_root(Ideal(ring, gens), e0)

    if k == 0:
        return Ideal(ring, times(ring.one(), m, J))
    for _ in range(k - 1):
        J = Ideal(ring, list(step([x % q for x in m], J).groebner()))
        m = [x // q for x in m]
    return step(m, J)


class _ClassAutomaton:
    """The digit step (d, J) -> ``_digit_walk(fs, d, 1, J, C)`` on ideal
    classes, memoised.  Classes are interned by their reduced Groebner basis,
    so the memo key (d, class index) is canonical.  Under the full algebra
    the tau classes are finitely many on [0, 1)^n (Blickle-Mustata-Smith
    2008; Perez 2013 for mixed ideals), so ``closure`` stops."""

    def __init__(self, fs, C: CartierAlgebraSpec):
        self.fs, self.C = fs, C
        self.classes = []  # class index -> Ideal of its reduced basis
        self._index = {}   # reduced basis -> class index
        self._steps = {}   # (digit vector, class index) -> class index

    def intern(self, I: Ideal) -> int:
        gb = I.groebner()
        cid = self._index.get(gb)
        if cid is None:
            cid = self._index[gb] = len(self.classes)
            self.classes.append(Ideal(I.ring, list(gb)))
        return cid

    def step(self, d, cid: int) -> int:
        out = self._steps.get((d, cid))
        if out is None:
            out = self._steps[d, cid] = self.intern(
                _digit_walk(self.fs, d, 1, self.classes[cid], self.C))
        return out

    def closure(self, cids) -> frozenset:
        """The classes reached from ``cids`` by digits in [0, p)^n."""
        digits = list(iproduct(range(self.C.ring.p), repeat=len(self.fs)))
        seen = frontier = set(cids)
        while frontier:
            frontier = {self.step(d, c) for c in frontier for d in digits} - seen
            seen = seen | frontier
        return frozenset(seen)


def _tau_chain(pair: MixedPair, C: CartierAlgebraSpec, conf: int,
               budget: int) -> Ideal:
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
    """Apply C_+.  When C_+(R) = R this carries tau(a^t) to tau(a^(t/q)),
    q = p^e0.  Otherwise it can give less: it drops the term e = 1 of the
    sum for tau(a^(t/q)), which the later terms then need not contain."""
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
    """Pull a Cartier algebra on R back to S = R[fiber] by extending its
    twists: the pullback of kappa^e o g is kappa_S^e o g.

    The paper's action of kappa^e o g on S is s |-> sum_j s_j kappa^e(g r_j)
    for Phi^e(F^e_* s) = sum_j s_j (x) F^e_* r_j (``_pulled_action``).  The
    relative trace takes the top fiber component of s, and kappa^e the top
    base component of g r_j, so together they take the top component of g s.
    The canonical-form tag is carried formally, and the full algebra pulls
    back to the full algebra of the chart.
    """
    if C.ring != chart.base_ring:
        raise ValueError("algebra does not live on the chart's base ring")
    return CartierAlgebraSpec.from_twists(
        chart.ring, [(g.e, chart.from_base(g.twist)) for g in C.generators])


def _pulled_action(gen: TraceTwist, chart: RelativeChart):
    """The paper's relative action of a base generator on S; the test oracle
    for ``pullback_cartier``."""
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
