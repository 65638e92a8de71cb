"""Frobenius decomposition along a (relative) p-basis, trace operators, bracket roots.

Over a chart F_p[base][fiber] every g decomposes as g = sum_i g_i^q * x^i with
fiber multi-indices i in [0, q-1]^n; the trace is the component at the top
index (q-1, ..., q-1).  In relative mode the base variables are never rooted:
components are sums s_j (x) F_* r_j with s_j in the full ring and r_j in the
base variables only.
"""

from __future__ import annotations

from operator import add

from .ideals import Ideal, _exponents, _monomial_ideal
from .rings import Polynomial, frob, heap_key, order_key


class FrobDecomposition:
    """Components of g along the monomial basis of F^e_* S.

    ``components`` maps a fiber multi-index to a Polynomial (absolute mode) or
    to a tuple of (s, r) pairs (relative mode), with the F_p coefficient
    always attached to the base factor r.
    """

    __slots__ = ("ring", "e", "mode", "components")

    def __init__(self, ring, e, mode, components):
        self.ring = ring
        self.e = e
        self.mode = mode
        self.components = components

    def component(self, idx):
        idx = tuple(idx)
        if self.mode == "absolute":
            return self.components.get(idx, self.ring.zero())
        return self.components.get(idx, ())

    def top_index(self):
        q = self.ring.p ** self.e
        width = self.ring.nvars if self.mode == "absolute" \
            else len(self.ring.fiber_indices)
        return (q - 1,) * width

    def operator(self, idx) -> Polynomial:
        """The component at idx as a multiplication operator on F^e_* S:
        F^e(component) in absolute mode, the sum of F^e(s) * r over its
        (s, r) pairs in relative mode."""
        comp = self.component(idx)
        if self.mode == "absolute":
            return frob(comp, self.e)
        return sum((frob(s, self.e) * r for s, r in comp), self.ring.zero())

    def recompose(self) -> Polynomial:
        """The sum of ``operator(idx)`` * x^idx, which is the input again;
        used as the round-trip invariant."""
        pad = (0,) * (0 if self.mode == "absolute" else self.ring.n_base)
        return sum((self.operator(idx).mul_monomial(pad + idx)
                    for idx in self.components), self.ring.zero())


def _split(f: dict, h: dict, q: int, p: int) -> dict:
    """The absolute components of the product of the term dicts f and h at
    q = p^e, as {fiber index: {quotient: coefficient}}, one term pair at a
    time: x^(a+b) = (x^floor((a+b)/q))^q x^((a+b) mod q).  The product is
    never formed; terms that would meet on one monomial meet on one
    (index, quotient).  The smaller factor is the outer loop, as in
    ``Polynomial.__mul__``.  A component that cancels is left empty."""
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


def decompose(g: Polynomial, e: int, mode: str = "absolute") -> FrobDecomposition:
    """Split g along the fiber monomial basis of F^e_* S.

    In absolute mode every variable counts as a fiber variable (the chart is
    taken over the prime field), and g is split as the product g * 1 by
    ``_split``; relative mode respects the declared base/fiber split of the
    ring.
    """
    if e < 1:
        raise ValueError("e must be positive")
    ring = g.ring
    q = ring.p ** e
    nb = 0 if mode == "absolute" else ring.n_base
    p = ring.p
    if mode == "absolute":
        comps = _split(g.terms, {(0,) * ring.nvars: 1}, q, p)
        components = {idx: Polynomial(ring, terms)
                      for idx, terms in comps.items() if terms}
        return FrobDecomposition(ring, e, mode, components)
    if mode != "relative":
        raise ValueError(f"unknown mode {mode!r}")
    comps = {}
    for m, c in g.terms.items():
        base, fib = m[:nb], m[nb:]
        idx = tuple(x % q for x in fib)
        s_mono = tuple(x // q for x in base) + tuple(x // q for x in fib)
        r_mono = tuple(x % q for x in base) + (0,) * (len(m) - nb)
        bucket = comps.setdefault(idx, {})
        rdict = bucket.setdefault(s_mono, {})
        v = (rdict.get(r_mono, 0) + c) % p
        if v:
            rdict[r_mono] = v
        else:
            del rdict[r_mono]
    key = order_key(ring)
    components = {}
    for idx, bucket in comps.items():
        pairs = []
        for s_mono in sorted(bucket, key=key, reverse=True):
            rdict = bucket[s_mono]
            if not rdict:
                continue
            s = Polynomial(ring, {s_mono: 1})
            r = Polynomial(ring, dict(rdict))
            pairs.append((s, r))
        if pairs:
            components[idx] = tuple(pairs)
    return FrobDecomposition(ring, e, "relative", components)


def trace(g: Polynomial, e: int) -> Polynomial:
    """The absolute trace Phi^e: the component dual to x^(q-1)...x^(q-1)."""
    dec = decompose(g, e, "absolute")
    return dec.component(dec.top_index())


def relative_trace(s: Polynomial, e: int):
    """Relative trace as (s_i, r_i) pairs: Phi^e(F^e_* s) = sum s_i (x) F^e_* r_i."""
    if s.ring.n_base == 0:
        raise ValueError("relative trace requires a declared base/fiber split")
    dec = decompose(s, e, "relative")
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
