"""Frobenius decomposition along the fiber p-basis, traces, bracket roots.

Over a chart F_p[base][fiber], F^e_* S is free over the fiber monomials x^i,
i in [0, q-1]^n, so every g is sum_i op_i * x^i with one operator op_i per
index.  On a ring with no base every variable is a fiber variable and op_i
is F^e of the root polynomial g_i, so g = sum_i g_i^q * x^i.  On a chart the
base variables are never rooted, and op_i reads as the paper's pairs
s_j (x) F^e_* r_j, with r_j in the base variables only.  The trace is the
component at the top index (q-1, ..., q-1).
"""

from __future__ import annotations

from operator import add, sub

from .ideals import Ideal, _exponents, _monomial_ideal
from .rings import Polynomial, heap_key, order_key


class FrobDecomposition:
    """Components of g along the fiber monomial basis of F^e_* S.

    ``components`` maps a fiber multi-index i, over the variables after
    ``ring.n_base``, to its operator op_i, so that g = sum_i op_i * x^i.
    """

    __slots__ = ("ring", "e", "components")

    def __init__(self, ring, e, components):
        self.ring = ring
        self.e = e
        self.components = components

    def component(self, idx):
        """The component at idx in the paper's form, read off its operator:
        the root polynomial on a ring with no base, else the (s, r) pairs,
        s a monomial in descending term order and r in the base variables,
        carrying the F_p coefficient."""
        op = self.operator(idx)
        ring, q = self.ring, self.ring.p ** self.e
        nb = ring.n_base
        if not nb:
            return Polynomial(ring, {tuple(x // q for x in m): c
                                     for m, c in op.terms.items()})
        pairs = {}
        for m, c in op.terms.items():
            r = tuple(x % q for x in m[:nb]) + (0,) * (len(m) - nb)
            pairs.setdefault(tuple(x // q for x in m), {})[r] = c
        return tuple((Polynomial(ring, {s: 1}), Polynomial(ring, pairs[s]))
                     for s in sorted(pairs, key=order_key(ring), reverse=True))

    def top_index(self):
        return (self.ring.p ** self.e - 1,) * len(self.ring.fiber_indices)

    def operator(self, idx) -> Polynomial:
        """The component at idx as a multiplication operator on F^e_* S."""
        return self.components.get(tuple(idx), self.ring.zero())

    def recompose(self) -> Polynomial:
        """The sum of ``operator(idx)`` * x^idx, which is the input again;
        used as the round-trip invariant."""
        pad = (0,) * self.ring.n_base
        return sum((op.mul_monomial(pad + idx)
                    for idx, op in self.components.items()), self.ring.zero())


def _split(f: dict, h: dict, q: int, p: int) -> dict:
    """The components of the product of the term dicts f and h at q = p^e,
    every variable a fiber variable, as {fiber index: {quotient:
    coefficient}}, one term pair at a time: x^(a+b) = (x^floor((a+b)/q))^q
    x^((a+b) mod q).  The product is never formed; terms that would meet on
    one monomial meet on one (index, quotient).  The smaller factor is the
    outer loop, as in ``Polynomial.__mul__``.  A component that cancels is
    left empty."""
    if len(f) > len(h):
        f, h = h, f
    comps = {}
    for m1, c1 in f.items():
        for m2, c2 in h.items():
            m = tuple(map(add, m1, m2))
            bucket = comps.setdefault(tuple(map(q.__rmod__, m)), {})
            quot = tuple(map(q.__rfloordiv__, m))
            v = (bucket.get(quot, 0) + c1 * c2) % p
            if v:
                bucket[quot] = v
            else:
                del bucket[quot]
    return comps


def decompose(g: Polynomial, e: int) -> FrobDecomposition:
    """Split g along the fiber monomial basis of F^e_* S, the fiber being
    the variables after ``n_base``: the term c x^m goes to the fiber index
    i = m mod q, whose operator gains c x^(m - i).  Distinct terms stay
    distinct there, so no coefficients add."""
    if e < 1:
        raise ValueError("e must be positive")
    ring = g.ring
    q, nb = ring.p ** e, ring.n_base
    comps = {}
    for m, c in g.terms.items():
        idx = tuple(x % q for x in m[nb:])
        comps.setdefault(idx, {})[m[:nb] + tuple(map(sub, m[nb:], idx))] = c
    return FrobDecomposition(ring, e, {idx: Polynomial(ring, terms)
                                       for idx, terms in comps.items()})


def trace(g: Polynomial, e: int) -> Polynomial:
    """The absolute trace Phi^e over every variable, on a chart as well: the
    root of the terms whose exponents are all q - 1 mod q, the component
    dual to x^(q-1)...x^(q-1).  No decomposition is built."""
    if e < 1:
        raise ValueError("e must be positive")
    q = g.ring.p ** e
    return Polynomial(g.ring, {tuple(x // q for x in m): c
                               for m, c in g.terms.items()
                               if all(x % q == q - 1 for x in m)})


def relative_trace(s: Polynomial, e: int):
    """Relative trace as (s_i, r_i) pairs: Phi^e(F^e_* s) = sum s_i (x) F^e_* r_i."""
    if s.ring.n_base == 0:
        raise ValueError("relative trace requires a declared base/fiber split")
    dec = decompose(s, e)
    return dec.component(dec.top_index())


def _subtract_multiple(r: dict, row: dict, c: int, p: int):
    """r -= c * row in place, for term dicts over F_p."""
    for t, v in row.items():
        w = (r.get(t, 0) - c * v) % p
        if w:
            r[t] = w
        else:
            del r[t]


def _row_echelon(ring, rows):
    """The reduced row echelon form over F_p of ``rows``, term dicts read as
    vectors in the monomial basis with the columns in term order: rows
    spanning the same F_p-space, monic, with distinct leads, each lead in no
    other row, as Polynomials of ``ring``."""
    p, key = ring.p, heap_key(ring)
    out = {}  # lead monomial -> terms of a row
    for terms in rows:
        r = dict(terms)
        for m, row in out.items():
            c = r.get(m)
            if c:
                _subtract_multiple(r, row, c, p)
        if r:
            m = min(r, key=key)
            inv = ring.modulus.inv(r[m])
            if inv != 1:
                r = {t: v * inv % p for t, v in r.items()}
            for row in out.values():
                c = row.get(m)
                if c:
                    _subtract_multiple(row, r, c, p)
            out[m] = r
    return [Polynomial(ring, r) for r in out.values()]


def bracket_root(I: Ideal, e: int, J: Ideal | None = None) -> Ideal:
    """The p^e-th bracket root I^[1/p^e], the smallest K with I within
    K^[p^e]; given J, the root (I J)^[1/p^e] of the product.

    Generated by every decomposition component of every generator f h, for
    f in I and h in J (h = 1 without J); this is exact because F^e_* S is
    free over the fiber monomial basis.  Each f h is split term pair by term
    pair (``_split``), so no product is multiplied out.  The components are
    row-reduced over F_p (``_row_echelon``): the same span, so the same
    ideal, but no generator is a linear combination of the others, which
    Buchberger would only reduce to 0.  Terms x^a, x^b of a polynomial
    ring have the one component x^floor((a + b)/p^e): the floor root.
    """
    if e < 1:
        raise ValueError("e must be positive")
    ring = I.ring
    if J is not None and J.ring != ring:
        raise ValueError("ring mismatch")
    hs = (ring.one(),) if J is None else J.gens
    q, p = ring.p ** e, ring.p
    A = _exponents(ring, I.gens)
    if A is not None and (B := _exponents(ring, hs)) is not None:
        return _monomial_ideal(ring, [tuple(x // q for x in map(add, a, b))
                                      for a in A for b in B])
    return Ideal(ring, _row_echelon(ring, [
        c for f in I.gens for h in hs
        for c in _split(f.terms, h.terms, q, p).values() if c]))
