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
            return Ideal._reduced(current.ring, current.groebner())
        current = nxt
    raise BudgetExceeded(f"sigma did not stabilize within {budget} iterations")


@dataclass(frozen=True)
class MixedPair:
    """Ideals a_1..a_n with exact nonnegative rational exponents t_1..t_n."""

    ideals: tuple
    exponents: tuple

    def __post_init__(self):
        if not self.ideals:
            raise ValueError("a mixed pair needs at least one ideal")
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


def _ceil_mul(t: Fraction, P: int) -> int:
    """ceil(t * P) in exact integer arithmetic."""
    num, den = t.numerator * P, t.denominator
    return -((-num) // den)


# (f tuple, C.cache_key()) -> _ClassAutomaton, oldest first; see _automaton
_tau_cache: dict = {}
TAU_CACHE_SIZE = 32  # automata kept; inserting one more drops the oldest

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
    ``budget`` bounds the Psi steps.

    Every class here is a state of the one ``_ClassAutomaton`` of
    (f_1..f_n, C), which ``_automaton`` keeps in ``_tau_cache`` for the whole
    process.  Its memos are the steps, the sums and the products (the walks
    with k = 0: the first term and prod f_i^n_i T), so a later call on the
    same f and C, at any exponents, looks up what the earlier calls computed
    without a root or a Groebner run: the 64 exponents a/b < 2 of x^2+y^3 at
    p = 3, b in {5, 7, 11, 13}, take 9 bracket roots, 4 products and 14
    Buchberger runs together, and a second pass over them takes none.  The
    store keeps TAU_CACHE_SIZE automata and drops the oldest beyond that.

    Other ideals go through ``_tau_chain``, whose stop is a heuristic and
    whose results are not kept.
    """
    if all(len(a.gens) == 1 for a in pair.ideals):
        return _tau_principal(pair, C, budget)
    return _tau_chain(pair, C, _CHAIN_CONF, budget)


def _tau_principal(pair: MixedPair, C: CartierAlgebraSpec,
                   budget: int) -> Ideal:
    """The certified path of ``tau_mixed``; see its docstring."""
    ring, e0 = pair.ring, C.degree()
    q = ring.p ** e0
    auto = _automaton([a.gens[0] for a in pair.ideals], C)
    s = -(-max(_p_depth(t, ring.p) for t in pair.exponents) // e0)
    u = [t * q ** s for t in pair.exponents]
    b = lcm(*(x.denominator for x in u))
    grows = C.fixes_unit()

    def term(ts, e):
        """The class of C_e(prod f_i^ceil(t_i q^e))."""
        return auto.walk([_ceil_mul(t, q ** e) for t in ts], e, auto.unit)

    if b == 1 and grows:
        return auto.classes[term(pair.exponents, s)]
    whole = [int(x) for x in u]
    u = [x - n for x, n in zip(u, whole)]
    r = 1
    while (q ** r - 1) % b:
        r += 1
    c = [int(x * (q ** r - 1)) for x in u]
    lo = 0 if s or grows else 1
    S = term(u, lo)
    for e in range(lo + 1, lo + (1 if grows else r)):
        S = auto.plus(S, term(u, e))
    T = S
    for _ in range(budget):
        nxt = auto.walk(c, r, T)
        if not grows:
            nxt = auto.plus(S, nxt)
        if nxt == T:  # classes are interned, so equal ids are equal ideals
            break
        T = nxt
    else:
        raise BudgetExceeded(f"tau chain did not repeat within {budget} steps")
    tau = auto.walk(whole, s, T)
    for e in range(1, 1 if grows else s):
        tau = auto.plus(tau, term(pair.exponents, e))
    return auto.classes[tau]


def _digit_walk(fs, m, k: int, J: Ideal, C: CartierAlgebraSpec) -> Ideal:
    """prod f_i^m_i J for k = 0, and for k = 1 one step of C_+ on it,
    C_+(prod f_i^m_i J) = (G prod f_i^m_i J)^[1/q] for the twist ideal G and
    q = p^e0: each twist t starts its own product t prod f_i^m_i.  Longer
    walks are ``_ClassAutomaton.walk``."""
    if k not in (0, 1):
        raise ValueError(f"a digit walk takes 0 or 1 steps, got {k}")
    ring = J.ring

    def times(g):
        for f, e in zip(fs, m):
            g = g * pow_poly(f, e)
        return [g * h for h in J.gens]

    if k == 0:
        return Ideal(ring, times(ring.one()))
    gens = [u for gen in C.generators for u in times(gen.twist)]
    return bracket_root(Ideal(ring, gens), C.degree())


def _automaton(fs, C: CartierAlgebraSpec) -> "_ClassAutomaton":
    """The shared ``_ClassAutomaton`` of the polynomials ``fs`` under C.

    ``_tau_cache`` is read here, as a module global, on every call, so that
    a stand-in dict sees each lookup.  Past TAU_CACHE_SIZE automata the
    oldest inserted is dropped; an automaton only memoises, so that changes
    the work of a later call but never its answer."""
    key = (tuple(fs), C.cache_key())
    auto = _tau_cache.get(key)
    if auto is None:
        if len(_tau_cache) >= TAU_CACHE_SIZE:
            del _tau_cache[next(iter(_tau_cache))]
        auto = _tau_cache[key] = _ClassAutomaton(key[0], C)
    return auto


class _ClassAutomaton:
    """Ideal classes of the polynomials f_1..f_n under an algebra C, and the
    moves between them, each memoised: the digit step (d, J) ->
    C_+(prod f_i^d_i J) = ``_digit_walk(fs, d, 1, J, C)``, the class sum,
    and the product (m, J) -> prod f_i^m_i J.  Classes are interned by their
    reduced Groebner basis, which each class Ideal keeps, so the memo keys
    (d, class index), (class index, class index) and (m, class index) are
    canonical, and two classes are equal ideals iff their indices are equal.

    This is the only place where tau classes are stepped.  ``tau_mixed`` on
    principal ideals, ``fpt_search``, ``jumping_numbers`` and the digit
    recursion of ``constancy_raster`` take their automaton from
    ``_automaton``, one per (f tuple, ``C.cache_key()``) for the process, so
    every call on the same f and C reuses the roots of the calls before it:
    many exponents of one f, ``fpt_search`` on slices of one family, or a
    raster after a threshold search.  Under the full algebra the tau classes
    are finitely many on [0, 1)^n (Blickle-Mustata-Smith 2008; Perez 2013
    for mixed ideals), so ``closure`` stops."""

    def __init__(self, fs, C: CartierAlgebraSpec):
        self.fs, self.C = fs, C
        self.classes = []  # class index -> Ideal of its reduced basis
        self._index = {}   # reduced basis -> class index
        self._steps = {}   # (digit vector, class index) -> class index
        self._sums = {}    # (class index, class index) -> class index
        self._products = {}  # (exponent vector, class index) -> class index
        self.unit = self.intern(Ideal(C.ring, [C.ring.one()]))

    def intern(self, I: Ideal) -> int:
        gb = I.groebner()
        cid = self._index.get(gb)
        if cid is None:
            cid = self._index[gb] = len(self.classes)
            self.classes.append(Ideal._reduced(I.ring, gb))
        return cid

    def step(self, d, cid: int) -> int:
        out = self._steps.get((d, cid))
        if out is None:
            out = self._steps[d, cid] = self.intern(
                _digit_walk(self.fs, d, 1, self.classes[cid], self.C))
        return out

    def walk(self, m, k: int, cid: int) -> int:
        """The class of C_k(prod f_i^m_i J) for J the class ``cid``, one
        step per base-q digit of m (q = p^e0), lowest digit first.

        Write m = d + q m' with d the lowest digit vector, and let
        g = prod f_i^m'_i and B = prod f_i^d_i J.  Since C_+(J) = (G J)^[1/q]
        for the twist ideal G and (g^q B)^[1/q] = g B^[1/q]
        (Blickle-Mustata-Smith 2008),

            C_k(prod f_i^m_i J) = C_k(g^q B) = C_(k-1)(g C_+(B)).

        So each step multiplies in one digit and takes one q-th root; the
        last step multiplies in what is left of m, m_i // q^(k-1), whole.
        For k = 0 this is the plain product, memoised like the steps."""
        if k == 0:
            key = (tuple(m), cid)
            out = self._products.get(key)
            if out is None:
                out = self._products[key] = self.intern(
                    _digit_walk(self.fs, m, 0, self.classes[cid], self.C))
            return out
        q = self.C.ring.p ** self.C.degree()
        for _ in range(k - 1):
            cid = self.step(tuple(x % q for x in m), cid)
            m = [x // q for x in m]
        return self.step(tuple(m), cid)

    def plus(self, a: int, b: int) -> int:
        """The class of the sum of the classes ``a`` and ``b``."""
        key = (a, b) if a <= b else (b, a)
        out = self._sums.get(key)
        if out is None:
            out = self._sums[key] = self.intern(
                sum_ideal(self.classes[a], self.classes[b]))
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
