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
from math import gcd, lcm, prod

from .frobenius import _row_echelon, bracket_root, relative_trace, trace
from .ideals import (BudgetExceeded, Ideal, _exponents, _monomial_ideal,
                     ideal_eq, power, product, sum_ideal)
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
    return _digit_walk([t.twist for t in C.generators], I, C)


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


def _ceil_mul(t: Fraction, P: int) -> int:
    """ceil(t * P) in exact integer arithmetic."""
    num, den = t.numerator * P, t.denominator
    return -((-num) // den)


# (f tuple, C.cache_key()) -> _ClassAutomaton, oldest first; see _automaton
_tau_cache: dict = {}
TAU_CACHE_SIZE = 32  # automata kept; inserting one more drops the oldest


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
    """Mixed test ideal on a regular chart with M = R and test element 1,
    exact for every pair and every algebra.

    tau is the sum over e >= 1 of I_e = C_e(prod a_i^ceil(t_i q^e)), where
    q = p^e0 for the degree e0 of C, C_e is C_+ applied e times, and
    C_+(J) = (G J)^[1/q] for the twist ideal G (Blickle 2013).  Each such
    C_e is a carry walk (``_ClassAutomaton.carry``) on the automaton of
    a_1..a_n, whose states map carry vectors to classes, one root per
    digit-sum vector and class.

    Let s = ceil(d/e0) for the p-depth d of the exponents, u_i = t_i q^s =
    w_i + v_i with w_i = floor(u_i), b = lcm(den(v_i)), r = ord_b(q) and
    c_i = v_i (q^r - 1).  Then ceil(u_i q^e) = w_i q^e + F_e,i + 1 for
    F_e = floor(v q^e), without the 1 where v_i = 0, and that 1 is a start
    carry of -1.  Let X_e be the state after the e digits of F_e.  As
    F_(e+r) = c q^e + F_e, X_(e+r) = Phi(X_e) for the walk Phi over the r
    digits of c, which preserves sums and inclusions of states.  With
    lo = 1 if s = 0 and lo = 0 otherwise, S = X_lo + ... + X_(lo+r-1) and
    T_0 = S, the sum of the X_e over e >= lo is the limit T of
    T_(k+1) = S + Phi(T_k).  That sequence only grows, so its first repeat
    is T, and tau = I_1 + ... + I_(s-1) + C_s(prod a_i^w_i T): the walk
    over the s lowest digits of w from T, closed at w // q^s.  When
    C_+(R) = R the I_e only grow: then S = X_0, the states of a cycle of
    Phi all close to the limit, and T is the first state Phi repeats.
    ``budget`` bounds the Phi steps.  Principal a_i have one generator and
    carries 0 or -1; the zero ideal has none, so only the empty alpha, of
    sum 0, walks.  As a_i^0 = R, a non-principal a_i at t_i = 0 is left out.

    ``_automaton`` keeps the automaton for the process, so later calls on
    the same ideals and C look up what earlier calls computed.
    """
    ring, e0 = pair.ring, C.degree()
    q = ring.p ** e0
    kept = [(a, t) for a, t in zip(pair.ideals, pair.exponents)
            if t or len(a.gens) == 1]
    auto = _automaton([a for a, _ in kept], C)
    ts, grows = [t for _, t in kept], C.fixes_unit()
    m, state, s = _tau_state(auto, ts, grows, budget)
    tau = auto.close(m, state)
    for e in range(1, 1 if grows else s):
        tau = auto.plus(tau, auto.walk([_ceil_mul(t, q ** e) for t in ts], e,
                                       auto.unit))
    return auto.classes[tau]


def _tau_state(auto, ts, grows: bool, budget: int = TAU_BUDGET):
    """(w // q^s, carry(w mod q^s, s, T), s) of ``tau_mixed``, which closes
    the state at w // q^s, for the exponents ``ts`` of the ideals of
    ``auto``, with ``grows`` = C.fixes_unit()."""
    q, p = auto.q, auto.C.ring.p
    s = -(-max((_p_depth(t, p) for t in ts), default=0) // auto.C.degree())
    u = [(t.numerator * q ** s, t.denominator) for t in ts]  # t q^s = n/d
    b = lcm(*(d // gcd(n, d) for n, d in u))
    r = 1
    while (q ** r - 1) % b:
        r += 1
    whole, v = [n // d for n, d in u], [(n % d, d) for n, d in u]
    c = tuple([n * (q ** r - 1) // d for n, d in v])
    start = ((tuple([-1 if n else 0 for n, _ in v]), auto.unit),)
    lo = 0 if s or grows else 1
    S = ()
    for e in range(lo, lo + (1 if grows else r)):  # the e digits of F_e
        F_e = tuple([n * q ** e // d for n, d in v])
        S = auto.add(S, auto.carry(F_e, e, start))
    T, seen = S, set()
    for _ in range(budget):
        seen.add(T)
        T = auto.carry(c, r, T)
        if not grows:
            T = auto.add(S, T)
        if T in seen:  # classes are interned, so equal states are equal
            break
    else:
        raise BudgetExceeded(f"tau chain did not repeat within {budget} steps")
    Q = q ** s
    return [n // Q for n in whole], \
        auto.carry(tuple([n % Q for n in whole]), s, T), s


def _digit_walk(products, J: Ideal, C: CartierAlgebraSpec) -> Ideal:
    """One step of C_+, the root (P J)^[1/q] for q = p^e0 and P the ideal
    of ``products``, which carry the twists: P = G P' for the twist ideal G
    gives C_+(P' J).  ``cplus`` is P = G; carry steps and longer walks are
    ``_ClassAutomaton.step`` and ``walk``.  The root is one ``bracket_root``
    of the product P J given by its two factors, so no g h is built."""
    return bracket_root(Ideal(J.ring, products), C.degree(), J)


def _carries(q: int, sizes, n, kappa):
    """The digit-sum vectors s that take the carry ``kappa`` past the
    digits ``n``, each with its new carry kappa': s_i + kappa_i - n_i =
    q kappa'_i, s_i in [0, sizes_i (q - 1)] the sum |d_i| of a digit vector
    d_i in [0, q)^sizes_i of a_i."""
    groups = [[(x, (x + k - y) // q)
               for x in range((y - k) % q, z * (q - 1) + 1, q)]
              for z, y, k in zip(sizes, n, kappa)]
    for choice in iproduct(*groups):
        yield tuple(x for x, _ in choice), tuple(k for _, k in choice)


def _walked(a: Ideal) -> tuple:
    """The generators the automaton walks for a: its reduced Groebner basis
    when that has strictly fewer elements than ``a.gens``, else ``a.gens``.
    Either is exact, as tau depends only on the ideal and a^N is generated
    by the N-fold products of any generating set (Takagi 2006); the carry
    walks grow with the generator count."""
    if len(a.gens) > 1:
        gb = a.groebner()
        if len(gb) < len(a.gens):
            return gb
    return a.gens


def _automaton(ideals, C: CartierAlgebraSpec) -> "_ClassAutomaton":
    """The shared ``_ClassAutomaton`` of the ideals a_1..a_n under C, keyed
    by the generator tuples it walks (``_walked``): a principal ideal, or
    one whose reduced basis is no shorter, by its given generators, any
    other by its reduced basis, so every presentation with more generators
    than its reduced basis shares the automaton of that basis.

    ``_tau_cache`` is read here, as a module global, on every call, so that
    a stand-in dict sees each lookup.  Past TAU_CACHE_SIZE automata the
    oldest inserted is dropped; an automaton only memoises, so that changes
    the work of a later call but never its answer."""
    key = (tuple(map(_walked, ideals)), C.cache_key())
    auto = _tau_cache.get(key)
    if auto is None:
        if len(_tau_cache) >= TAU_CACHE_SIZE:
            del _tau_cache[next(iter(_tau_cache))]
        auto = _tau_cache[key] = _ClassAutomaton(key[0], C)
    return auto


class _ClassAutomaton:
    """Ideal classes of ideals a_1..a_n, given as one generator tuple each
    in ``gens``, under an algebra C, and the moves between them, each
    memoised: the carry step (s, J) -> C_+(P_s J) = ``_digit_walk(G P_s,
    J, C)`` for G the twist ideal and P_s the products g^d of the generators
    over the digit vectors d in [0, q)^sizes with digit sums |d_i| = s_i,
    the class sum, the product (m, J) -> prod a_i^m_i J, carry and close.
    Classes are interned by their reduced Groebner basis, which each class
    Ideal keeps, so the memo keys are canonical, and two classes are equal
    ideals iff their indices are equal.  For principal a_i, s is the digit
    vector and P_s the one product prod f_i^s_i.

    This is the only place where tau classes are stepped.  ``tau_mixed``,
    ``fpt_search`` and the digit table of ``constancy_raster`` and
    ``jumping_numbers`` take their automaton from ``_automaton``, one per
    (generator tuples, ``C.cache_key()``) for the process, so every call on
    the same ideals and C reuses the roots of the calls before it.  Under
    the full algebra the tau classes are finitely many on [0, 1)^n
    (Blickle-Mustata-Smith 2008; Perez 2013 for mixed ideals), and so are
    the states, whose carries are bounded, so the ``closure`` that
    ``fpt_search`` takes of its tails under the digits it chooses stops."""

    def __init__(self, gens, C: CartierAlgebraSpec):
        self.gens, self.C = gens, C
        self.q = C.ring.p ** C.degree()
        self.classes = []  # class index -> Ideal of its reduced basis
        self._index = {}   # reduced basis -> class index
        self._steps = {}   # (digit-sum vector, class index) -> class index
        self._digits = {}  # digit-sum vector s -> G P_s, trimmed
        self._sums = {}    # (class index, class index) -> class index
        self._products = {}  # (exponent vector, class index) -> class
        self._moves = {}   # (m mod q^k, k, state) -> state
        self._closes = {}  # (m, state) -> class index
        self.unit = self.intern(Ideal(C.ring, [C.ring.one()]))

    def intern(self, I: Ideal) -> int:
        gb = I.groebner()
        cid = self._index.get(gb)
        if cid is None:
            cid = self._index[gb] = len(self.classes)
            self.classes.append(Ideal._reduced(I.ring, gb))
        return cid

    def step(self, s, cid: int) -> int:
        """The class of C_+(P_s J) for J the class ``cid``."""
        out = self._steps.get((s, cid))
        if out is None:
            out = self._steps[s, cid] = self.intern(
                _digit_walk(self.digits(s), self.classes[cid], self.C))
        return out

    def digits(self, s):
        """G P_s: the products t g^d over the twists t and d in [0, q)^sizes
        with |d_i| = s_i, which take no class, trimmed after each factor to
        their minimal terms or else row-reduced (``_row_echelon``)."""
        out = self._digits.get(s)
        if out is None:
            ring = self.C.ring
            out = [t.twist for t in self.C.generators]
            for gens, x in zip(self.gens, s):
                out = [prod(map(pow_poly, gens, d), start=f) for f in out
                       for d in iproduct(range(min(x, self.q - 1) + 1),
                                         repeat=len(gens)) if sum(d) == x]
                vecs = _exponents(ring, out)
                out = _row_echelon(ring, [f.terms for f in out]) \
                    if vecs is None else _monomial_ideal(ring, vecs).gens
            self._digits[s] = out
        return out

    def walk(self, m, k: int, cid: int) -> int:
        """The class of C_k(prod a_i^m_i J) for J the class ``cid``: the
        carry walk over the k lowest base-q digits of m (q = p^e0), closed
        at m_i // q^k.  For k = 0 this is the plain product."""
        Q = self.q ** k
        state = self.carry(tuple([x % Q for x in m]), k,
                           (((0,) * len(self.gens), cid),))
        return self.close([x // Q for x in m], state)

    def carry(self, m, k: int, state):
        """The state after the k base-q digits of m (m_i < q^k), lowest
        first, from ``state``, a sorted tuple of (carry kappa, class X).
        After j digits of N, X_kappa = C_j(sum of g^alpha J) over the parts
        alpha below q^j of the exponents with |alpha_i| = N_i - kappa_i, for
        g the generators.  As a_i^N is generated by the g^alpha with
        |alpha_i| = N (Takagi 2006), C_+ is additive and (g^(q a) B)^[1/q] =
        g^a B^[1/q] (Blickle-Mustata-Smith 2008), the digit vectors d of
        alpha with one digit-sum vector s move kappa alike, as ``_carries``
        says, and share one step; classes landing on one carry are summed,
        and ``close`` multiplies in the rest."""
        if k == 0:
            return state
        key = (m, k, state)
        out = self._moves.get(key)
        if out is None and k > 1:
            out = state
            for j in range(k):
                out = self.carry(
                    tuple([x // self.q ** j % self.q for x in m]), 1, out)
            self._moves[key] = out
        elif out is None:
            acc = {}
            for kappa, cid in state:
                for s, to in _carries(self.q, map(len, self.gens), m, kappa):
                    got = self.step(s, cid)
                    acc[to] = self.plus(acc[to], got) if to in acc else got
            out = self._moves[key] = tuple(sorted(acc.items()))
        return out

    def closure(self, start, digits) -> set:
        """The states reached from the states ``start`` by the moves
        carry(d, 1, .) over the digit vectors d in ``digits``, ``start``
        included."""
        seen = frontier = set(start)
        while frontier:
            frontier = {self.carry(d, 1, X) for X in frontier
                        for d in digits} - seen
            seen = seen | frontier
        return seen

    def preimage(self, U, d, on) -> frozenset:
        """The states X in ``on`` with carry(d, 1, X) in ``U``."""
        return frozenset(X for X in on if self.carry(d, 1, X) in U)

    def close(self, m, state) -> int:
        """The class of the sum of prod a_i^(m_i - kappa_i) X_kappa over the
        entries of ``state`` with no negative exponent."""
        key = (tuple(m), state)
        out = self._closes.get(key)
        if out is None:
            for kappa, cid in state:
                e = tuple([x - k for x, k in zip(m, kappa)])
                if min(e, default=0) >= 0:
                    got = self.product(e, cid)
                    out = got if out is None else self.plus(out, got)
            self._closes[key] = out = self.intern(Ideal(self.C.ring, [])) \
                if out is None else out
        return out

    def product(self, m, cid: int) -> int:
        """The class of prod a_i^m_i J for J the class ``cid``."""
        key = (m, cid)
        out = self._products.get(key) if any(m) else cid
        if out is None:
            J = self.classes[cid]
            for i, (gens, e) in enumerate(zip(self.gens, m)):
                if e and len(gens) > 1 and _exponents(J.ring, gens) is None:
                    J = product(self.classes[self._power(i, e)], J)
                else:
                    J = product(power(Ideal(J.ring, gens), e), J)
            out = self._products[key] = self.intern(J)
        return out

    def _power(self, i: int, e: int) -> int:
        """The class of a_i^e, as a_i^(e-1) a_i: the powers are kept in the
        product memo, as products with the unit class, so this starts from
        the highest one there and takes one product a step."""
        a = Ideal(self.C.ring, self.gens[i])
        zeros = (0,) * len(self.gens)

        def key(k):
            return zeros[:i] + (k,) + zeros[i + 1:], self.unit

        k = e
        while k and key(k) not in self._products:
            k -= 1
        out = self._products[key(k)] if k else self.unit
        for k in range(k + 1, e + 1):
            out = self._products[key(k)] = self.intern(
                product(self.classes[out], a))
        return out

    def plus(self, a: int, b: int) -> int:
        """The class of the sum of the classes ``a`` and ``b``."""
        key = (a, b) if a <= b else (b, a)
        out = self._sums.get(key)
        if out is None:
            out = self._sums[key] = self.intern(
                sum_ideal(self.classes[a], self.classes[b]))
        return out

    def add(self, x, y):
        """The state summing the states ``x`` and ``y`` carry by carry."""
        acc = dict(x)
        for kappa, cid in y:
            acc[kappa] = self.plus(acc[kappa], cid) if kappa in acc else cid
        return tuple(sorted(acc.items()))


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
