"""Canonical ideal arithmetic over F_p[x_1..x_n] via reduced Groebner bases.

Equality, membership, colon, sums, products, and Frobenius powers are all
decided through the unique reduced Groebner basis for the ring's fixed term
order.  Ideals of a Laurent ring are represented canonically by the
saturation (with respect to the product of all variables) of the ideal
obtained by clearing denominators; monomials are units there, so this loses
nothing.
"""

from __future__ import annotations

import hashlib
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import add, le, lt, sub

from .rings import (EXP_LIMIT, ExponentOverflow, Polynomial, RingCtx, frob,
                    heap_key, order_key, poly_str, pow_poly)

S_PAIR_BUDGET = 200_000
"""Default bound on the S-pairs one ``buchberger`` run actually reduces;
pairs that the pair criteria prune do not count."""


class BudgetExceeded(RuntimeError):
    pass


class VerificationError(ArithmeticError):
    """A computed result failed one of charp's internal consistency checks."""


# --- polynomial division --------------------------------------------------------


def _divides(a, b):
    return all(map(le, a, b))


def _divide(f: Polynomial, step) -> dict:
    """Long division of f, largest term first, on a heap of monomials.

    ``step(m, c)`` sees each leading term c*x^m of what is left.  It returns
    None to move the term to the remainder, or (shift, tail) to cancel the
    term by subtracting c*x^shift*(x^lead + tail), where tail is the monic
    tail of a divisor with lead monomial m - shift.  Every subtracted term
    is below m, so each monomial has one heap entry; a term that cancels to
    0 keeps it and is skipped when popped.  Returns the remainder's terms.
    """
    ring = f.ring
    hkey = heap_key(ring)
    p = ring.p
    work = dict(f.terms)
    heap = [(hkey(m), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        hit = step(m, c)
        if hit is None:
            rem[m] = c
            continue
        shift, tail = hit
        for tm, tc in tail:
            t = tuple(map(add, tm, shift))
            old = work.get(t)
            if old is None:
                work[t] = -c * tc % p
                heappush(heap, (hkey(t), t))
            else:
                work[t] = (old - c * tc) % p
    return rem


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduced remainder of f modulo the divisors (f if there are none)."""
    divisors = [g.monic() for g in basis if g]
    if not divisors:
        return f

    def step(m, c):
        for gm, tail in divisors:
            if _divides(gm, m):
                return tuple(map(sub, m, gm)), tail
        return None

    return Polynomial(f.ring, _divide(f, step))


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises otherwise.  x-adic
    valuations add, so the quotient's exponents are bounded below, and the
    term order well-orders the quotient terms division can visit."""
    ring = f.ring
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    gm, tail = g.monic()
    inv = ring.modulus.inv(g.lead()[1])
    p = ring.p
    quot = {}
    floor = [min(a) - min(b) for a, b in zip(zip(*f.terms), zip(*g.terms))]
    if not ring.laurent:
        floor = [max(0, x) for x in floor]

    def step(m, c):
        shift = tuple(map(sub, m, gm))
        if any(map(lt, shift, floor)):
            raise ValueError("not an exact multiple")
        quot[shift] = c * inv % p
        return shift, tail

    _divide(f, step)
    return Polynomial(ring, quot)


# --- Buchberger ------------------------------------------------------------------


def _spoly(f, g):
    """x^(l - lm f) tail_f - x^(l - lm g) tail_g for l = lcm(lm f, lm g),
    from the monic splits: the monic S-polynomial, whose leads cancel and
    are never built."""
    fm, ftail = f.monic()
    gm, gtail = g.monic()
    lcm = tuple(map(max, fm, gm))
    fs, gs = tuple(map(sub, lcm, fm)), tuple(map(sub, lcm, gm))
    # the bound mul_monomial checks, for each half; shifts are nonnegative
    if max(chain(map(add, f.max_abs_exponents(), fs),
                 map(add, g.max_abs_exponents(), gs)),
           default=0) >= EXP_LIMIT:
        raise ExponentOverflow("S-polynomial exponent exceeds the 64-bit range")
    p = f.ring.p
    res = {tuple(map(add, m, fs)): c for m, c in ftail}
    for m, c in gtail:
        t = tuple(map(add, m, gs))
        v = (res.get(t, 0) - c) % p
        if v:
            res[t] = v
        else:
            del res[t]
    return Polynomial(f.ring, res)


def buchberger(gens, budget=S_PAIR_BUDGET):
    """Groebner basis of the span of gens (non-Laurent ring).

    Buchberger's algorithm with the pair criteria of Gebauer and Moeller
    (*On an installation of Buchberger's algorithm*, 1988) and the normal
    selection strategy: the pending pair with the smallest lcm is reduced
    first.  Returns the elements that no later lead made redundant.

    A pair of two monomials is treated like a pair with coprime leads: its
    S-polynomial is 0, so, like the product criterion's pairs, it has a
    standard representation.  It is never reduced, but it stays in the
    update to prune other pairs by criteria M and F.  Principal and
    monomial ideals never get here: ``Ideal.groebner`` writes their reduced
    bases down (``_closed_form``), and every elimination system holds a
    binomial.
    """
    G = [g for g in gens if g]
    if not G:
        return []
    ring = G[0].ring
    for g in G:  # a unit needs no pairs
        if g.is_constant():
            return [ring.one()]
    G = list(dict.fromkeys(G))
    key = order_key(ring)
    basis, leads, monomial = [], [], []
    active = []   # indices of the reducers: no later lead divides their lead
    pending = {}  # (i, j) -> lcm of the pairs still to reduce
    heap = []     # (key(lcm), i, j); entries no longer pending are skipped

    def update(h):
        """Gebauer-Moeller update for a new basis element h."""
        n = len(basis)
        hm = h.lead()[0]
        hmono = h.is_monomial()
        new = [(k, tuple(map(max, leads[k], hm))) for k in active]
        kept = []  # criteria M and F; zero pairs stay to prune others
        for idx, (k, lcm) in enumerate(new):
            # coprime leads or two monomials: the S-polynomial reduces to 0
            zero = (hmono and monomial[k]) or not any(map(min, leads[k], hm))
            if zero or not (
                    any(_divides(other, lcm) for _, other in new[idx + 1:])
                    or any(_divides(other, lcm) for _, other, _ in kept)):
                kept.append((k, lcm, zero))
        for ij, lcm in list(pending.items()):  # criterion B
            i, j = ij
            if (_divides(hm, lcm) and tuple(map(max, leads[i], hm)) != lcm
                    and tuple(map(max, leads[j], hm)) != lcm):
                del pending[ij]
        active[:] = [k for k in active if not _divides(hm, leads[k])]
        active.append(n)
        basis.append(h)
        leads.append(hm)
        monomial.append(hmono)
        for k, lcm, zero in kept:  # the product criterion, monomial pairs
            if not zero:
                pending[n, k] = lcm
                heappush(heap, (key(lcm), n, k))

    for g in G:
        update(g)
    count = 0
    while heap:
        _, i, j = heappop(heap)
        if pending.pop((i, j), None) is None:
            continue
        count += 1
        if count > budget:
            raise BudgetExceeded(f"Buchberger S-pair budget {budget} exceeded")
        r = normal_form(_spoly(basis[i], basis[j]), [basis[k] for k in active])
        if r:
            if r.is_constant():
                return [ring.one()]
            update(r)
    return [basis[k] for k in active]


def _prune_redundant(G):
    """Drop GB elements whose lead monomial is a multiple of another's;
    valid only when G is already a Groebner basis."""
    out = []
    leads = [g.lead()[0] for g in G]
    for i, g in enumerate(G):
        mi = leads[i]
        dominated = False
        for j, mj in enumerate(leads):
            if i == j:
                continue
            if _divides(mj, mi) and not (mj == mi and j > i):
                dominated = True
                break
        if not dominated:
            out.append(g)
    return out


def _closed_form(ring: RingCtx, gens):
    """The reduced basis of (gens) on a polynomial ring when it is known in
    closed form (Cox, Little and O'Shea, *Ideals, Varieties, and
    Algorithms*, 2.4): (1) if a generator is constant; (g / lc g) for one
    generator g; and the distinct minimal monomials, monic and largest
    first as ``reduce_basis`` sorts them, for monomial generators.  None
    for any other list."""
    if any(g.is_constant() for g in gens):
        return (ring.one(),)
    if len(gens) == 1:
        g, = gens
        return (g.scale(ring.modulus.inv(g.lead()[1])),)
    if not all(g.is_monomial() for g in gens):
        return None
    minimal = []  # a proper divisor has a smaller degree, so comes first
    for m in sorted({m for g in gens for m in g.terms}, key=sum):
        if not any(_divides(k, m) for k in minimal):
            minimal.append(m)
    minimal.sort(key=heap_key(ring))
    return tuple(Polynomial(ring, {m: 1}) for m in minimal)


def reduce_basis(G):
    """Unique reduced Groebner basis: minimal, monic, tails fully reduced."""
    if not G:
        return ()
    ring = G[0].ring
    hkey = heap_key(ring)
    minimal = _prune_redundant(sorted(G, key=lambda g: hkey(g.lead()[0]),
                                      reverse=True))
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others)
        if r:
            reduced.append(r.scale(ring.modulus.inv(r.lead()[1])))
    reduced.sort(key=lambda g: hkey(g.lead()[0]))
    return tuple(reduced)


# --- ring plumbing for elimination and Laurent normalization ---------------------


def _twin_poly_ring(ring: RingCtx) -> RingCtx:
    return RingCtx(ring.names, ring.modulus, laurent=False,
                   n_base=ring.n_base, order=ring.order)


def _ext_ring(ring: RingCtx, k: int = 1) -> RingCtx:
    """ring with k auxiliary variables in front, eliminated first; ring must
    be grevlex, which the block order restricts to (see ``_eliminate``)."""
    if ring.order != ("grevlex",):
        raise ValueError(f"elimination needs a grevlex ring, not {ring.order}")
    aux = tuple(f"@e{i}" for i in range(k))
    return RingCtx(aux + ring.names, ring.modulus, laurent=False,
                   order=("elim", k))


def _lift(f: Polynomial, ext: RingCtx, k: int) -> Polynomial:
    return Polynomial(ext, {(0,) * k + m: c for m, c in f.terms.items()})


def _drop(f: Polynomial, ring: RingCtx, k: int) -> Polynomial:
    return Polynomial(ring, {m[k:]: c for m, c in f.terms.items()})


def _strip_to_poly(f: Polynomial, twin: RingCtx) -> Polynomial:
    """Clear negative exponents and strip the monomial content of f."""
    if not f.terms:
        return Polynomial(twin, {})
    mins = [min(m[i] for m in f.terms) for i in range(len(next(iter(f.terms))))]
    return Polynomial(twin, {tuple(x - lo for x, lo in zip(m, mins)): c
                             for m, c in f.terms.items()})


def _eliminate(sys, work: RingCtx, k: int):
    """Reduced basis of (sys) meet work, for sys in ``_ext_ring(work, k)``, by
    one Buchberger run.  By the elimination theorem (Cox, Little and O'Shea,
    *Ideals, Varieties, and Algorithms*, 3.1), the basis elements whose leads
    lack the k auxiliary variables lack them in every term and form a
    Groebner basis of the meet; so only those are reduced."""
    kept = [g for g in buchberger(sys) if not any(g.lead()[0][:k])]
    return reduce_basis([_drop(g, work, k) for g in kept])


def _saturate_gens(gens, ring: RingCtx):
    """Reduced basis of (gens) : (x_1*...*x_n)^infinity, by the Rabinowitsch
    trick: the elimination of t from (gens, 1 - t x_1...x_n), which
    ``_eliminate`` returns already reduced."""
    ext = _ext_ring(ring, 1)
    n = ring.nvars + 1
    sys = [_lift(g, ext, 1) for g in gens]
    sys.append(Polynomial(ext, {(0,) * n: 1, (1,) * n: ring.p - 1}))
    return _eliminate(sys, ring, 1)


# --- the Ideal type ---------------------------------------------------------------


class Ideal:
    """Generator list plus the lazily cached reduced Groebner basis and
    content hash."""

    __slots__ = ("ring", "gens", "_gb", "_hash")

    def __init__(self, ring: RingCtx, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if g and not g.is_zero())
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._gb = self._hash = None

    @classmethod
    def _reduced(cls, ring: RingCtx, gb) -> "Ideal":
        """The ideal of ``gb``, already its reduced Groebner basis (as
        ``groebner`` returns it), which becomes its cached basis at once."""
        out = cls(ring, gb)
        out._gb = tuple(gb)
        return out

    def groebner(self):
        """The unique reduced Groebner basis (tuple of Polynomials).

        For Laurent rings this is the reduced basis of the saturated
        polynomial representative; its elements generate the same Laurent
        ideal.  On polynomial rings a principal or monomial ideal's basis is
        written down in closed form (``_closed_form``), with no Buchberger
        run; other ideals take one run and ``reduce_basis``.
        """
        if self._gb is None:
            if not self.gens:
                self._gb = ()
            elif self.ring.laurent:
                twin = _twin_poly_ring(self.ring)
                sat = _saturate_gens([_strip_to_poly(g, twin)
                                      for g in self.gens], twin)
                self._gb = tuple(Polynomial(self.ring, dict(g.terms))
                                 for g in sat)
            else:
                self._gb = (_closed_form(self.ring, self.gens)
                            or reduce_basis(buchberger(list(self.gens))))
        return self._gb

    # --- predicates ---------------------------------------------------------------
    def is_zero(self) -> bool:
        """No generator; the constructor drops zero ones, so no basis is needed."""
        return not self.gens

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_one()

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        if f.is_zero():
            return True
        if self.ring.laurent:
            twin = _twin_poly_ring(self.ring)
            f = Polynomial(self.ring, dict(_strip_to_poly(f, twin).terms))
        return normal_form(f, list(self.groebner())).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def basis_strings(self):
        return tuple(poly_str(g) for g in self.groebner())

    def canonical_str(self) -> str:
        return "{" + ", ".join(self.basis_strings()) + "}"

    def content_hash(self) -> str:
        """Stable 64-bit hash of the printed reduced basis, printed once."""
        if self._hash is None:
            self._hash = hashlib.blake2b(self.canonical_str().encode(),
                                         digest_size=8).hexdigest()
        return self._hash

    def __repr__(self):
        gens = ", ".join(poly_str(g) for g in self.gens)
        return f"Ideal({gens})"


def ideal_eq(a: Ideal, b: Ideal) -> bool:
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    return a.groebner() == b.groebner()


def sum_ideal(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    return Ideal(a.ring, a.gens + b.gens)


def product(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    if not a.gens or not b.gens:
        return Ideal(a.ring, [])
    return Ideal(a.ring, [f * g for f in a.gens for g in b.gens])


def power(I: Ideal, m: int) -> Ideal:
    """I^m, exactly.  Principal ideals use base-p splitting of the generator;
    monomial ideals enumerate exponent sums; the general case multiplies out
    with Groebner trimming between steps."""
    if m < 0:
        raise ValueError("negative ideal power")
    if m == 0:
        return Ideal(I.ring, [I.ring.one()])
    gens = I.gens
    if len(gens) <= 1:
        return Ideal(I.ring, [pow_poly(g, m) for g in gens])
    if all(g.is_monomial() for g in gens):
        vecs = [next(iter(g.terms.items())) for g in gens]
        if len(vecs) * m > 2_000_000:
            raise BudgetExceeded("monomial ideal power too large")
        sums = {(0,) * I.ring.nvars: 1}
        for _ in range(m):
            nxt = {}
            for base, c0 in sums.items():
                for vec, c in vecs:
                    key = tuple(x + y for x, y in zip(base, vec))
                    nxt[key] = (c0 * c) % I.ring.p
            sums = nxt
            if len(sums) > 2_000_000:
                raise BudgetExceeded("monomial ideal power too large")
        return Ideal(I.ring, [I.ring.monomial(k, c) for k, c in sums.items()])
    acc = Ideal(I.ring, [I.ring.one()])
    for _ in range(m):
        acc = Ideal._reduced(I.ring, product(acc, I).groebner())
    return acc


def frob_power(I: Ideal, e: int) -> Ideal:
    """The Frobenius power I^[p^e], generated by p^e-th powers of generators."""
    return Ideal(I.ring, [frob(g, e) for g in I.gens])


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """a meet b as the elimination of t from t a + (1 - t) b (Cox, Little and
    O'Shea, 4.3), by one Buchberger run.  The result keeps the reduced basis
    that ``_eliminate`` yields; on Laurent rings that is the meet of the
    saturated representatives, itself saturated, so it is the reduced basis
    of the Laurent meet.  (1 - t) goes on the side with fewer terms, as it
    doubles every term it multiplies; the reduced basis is unique, so the
    side does not change the result.

    On polynomial rings two monomial ideals meet in the ideal of the
    pairwise lcms of their generators (Cox, Little and O'Shea, 4.3), whose
    reduced basis ``_closed_form`` writes down: no elimination."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    ring = a.ring
    if not ring.laurent and all(g.is_monomial() for g in a.gens + b.gens):
        return Ideal._reduced(ring, _closed_form(ring, [
            Polynomial(ring, {tuple(map(max, m, n)): 1})
            for f in a.gens for m in f.terms for g in b.gens for n in g.terms]))
    if ring.laurent:
        # work with the saturated polynomial representatives
        a = Ideal(ring, list(a.groebner()))
        b = Ideal(ring, list(b.groebner()))
    work = _twin_poly_ring(ring) if ring.laurent else ring
    ext = _ext_ring(work, 1)
    if sum(len(g.terms) for g in a.gens) < sum(len(g.terms) for g in b.gens):
        a, b = b, a
    p = ring.p
    sys = [Polynomial(ext, {(1,) + m: c for m, c in g.terms.items()})
           for g in a.gens]
    sys += [Polynomial(ext, {(e,) + m: p - c if e else c for e in (0, 1)
                             for m, c in g.terms.items()}) for g in b.gens]
    gb = _eliminate(sys, work, 1)
    if ring.laurent:
        gb = [Polynomial(ring, dict(g.terms)) for g in gb]
    return Ideal._reduced(ring, gb)


def colon(I: Ideal, J: Ideal) -> Ideal:
    """The ideal quotient (I : J) = {f : f*J within I}, exact: the meet of
    the quotients by J's generators, each by at most one elimination.  The
    quotient takes none when the generator's remainder modulo I is 0 (giving
    (1)), a unit (giving I), or a term c x^m while I is monomial (giving I's
    exponents less m, floored at 0; see ``_colon_single``).  A quotient
    equal to (1) is left out of the meet, as X meet (1) = X, and two
    monomial quotients meet by lcms, with no elimination (``intersect``)."""
    if I.ring != J.ring:
        raise ValueError("ring mismatch")
    if J.is_zero():
        raise ValueError("colon by the zero ideal")
    result = None
    for g in J.gens:
        part = _colon_single(I, g)
        if result is None or result.is_unit():
            result = part
        elif not part.is_unit():
            result = intersect(result, part)
    return result


def _colon_single(I: Ideal, g: Polynomial) -> Ideal:
    """(I : g) = (I meet (g)) / g.  As lead(g h) = lead(g) lead(h), the quotients
    of a Groebner basis of I meet (g) are one of (I : g), so ``reduce_basis``
    alone makes the reduced one: no further run.  On Laurent rings g is
    stripped of its monomial content, so (g) is saturated, with basis g; and
    (I : g) is saturated when I is, so the quotients need no saturation.

    (I : g) depends only on g mod I, since f g and f (g - h) differ by f h
    within I.  So g is first replaced by its remainder modulo the generators
    of I that ``intersect`` uses: I's generators, or on Laurent rings its
    saturated basis, the remainder then stripped again.  A remainder of 0
    puts g in I, and (I : g) = (1) with no elimination; a unit remainder
    gives I itself.

    A monomial ideal I = (x^a_1, ..., x^a_r) and a term remainder c x^m
    give (I : c x^m) = (x^max(a_1 - m, 0), ..., x^max(a_r - m, 0)) (Miller
    and Sturmfels, *Combinatorial Commutative Algebra*, ch. 1), by exponent
    subtraction with no elimination; ``_closed_form`` writes down its
    reduced basis.  On Laurent rings a term is a unit, so the unit branch
    takes it first and this rule is never reached."""
    if g.is_zero():
        raise ValueError("colon by zero generator")
    ring = I.ring
    if ring.laurent:
        twin = _twin_poly_ring(ring)

        def strip(f):
            return Polynomial(ring, dict(_strip_to_poly(f, twin).terms))

        g = strip(normal_form(strip(g), I.groebner()))
    else:
        g = normal_form(g, I.gens)
    if g.is_zero():
        return Ideal._reduced(ring, [ring.one()])
    if g.is_unit():
        return Ideal._reduced(ring, I.groebner())
    if g.is_monomial() and all(f.is_monomial() for f in I.gens):
        (m, _), = g.terms.items()
        return Ideal._reduced(ring, _closed_form(ring, [
            Polynomial(ring, {tuple(max(x - y, 0) for x, y in zip(a, m)): 1})
            for f in I.gens for a in f.terms]))
    monic = g.scale(ring.modulus.inv(g.lead()[1]))  # the basis of (g)
    meet = intersect(I, Ideal._reduced(ring, [monic]))
    quotients = [exact_div(f, g) for f in meet.gens]
    return Ideal._reduced(ring, reduce_basis(quotients))
