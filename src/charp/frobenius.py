"""Frobenius decomposition along a (relative) p-basis, trace operators, bracket roots.

Over a chart F_p[base][fiber] every g decomposes as g = sum_i g_i^q * x^i with
fiber multi-indices i in [0, q-1]^n; the trace is the component at the top
index (q-1, ..., q-1).  In relative mode the base variables are never rooted:
components are sums s_j (x) F_* r_j with s_j in the full ring and r_j in the
base variables only.
"""

from __future__ import annotations

from .ideals import Ideal
from .rings import Polynomial, frob, order_key


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

    def recompose(self) -> Polynomial:
        """Reassemble the input; used as the round-trip invariant."""
        ring = self.ring
        total = ring.zero()
        nb = 0 if self.mode == "absolute" else ring.n_base
        for idx, comp in self.components.items():
            mono = (0,) * nb + idx
            if self.mode == "absolute":
                total = total + frob(comp, self.e).mul_monomial(mono)
            else:
                part = ring.zero()
                for s, r in comp:
                    part = part + frob(s, self.e) * r
                total = total + part.mul_monomial(mono)
        return total


def decompose(g: Polynomial, e: int, mode: str = "absolute") -> FrobDecomposition:
    """Split g along the fiber monomial basis of F^e_* S.

    In absolute mode every variable counts as a fiber variable (the chart is
    taken over the prime field); relative mode respects the declared
    base/fiber split of the ring.
    """
    if e < 1:
        raise ValueError("e must be positive")
    ring = g.ring
    q = ring.p ** e
    nb = 0 if mode == "absolute" else ring.n_base
    p = ring.p
    if mode == "absolute":
        comps = {}
        for m, c in g.terms.items():
            idx = tuple(x % q for x in m)
            quot = tuple(x // q for x in m)
            bucket = comps.setdefault(idx, {})
            v = (bucket.get(quot, 0) + c) % p
            if v:
                bucket[quot] = v
            else:
                del bucket[quot]
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


def bracket_root(I: Ideal, e: int) -> Ideal:
    """The p^e-th bracket root I^[1/p^e]: smallest J with I within J^[p^e].

    Generated by every decomposition component of every generator; this is
    exact because F^e_* S is free over the fiber monomial basis.
    """
    gens = set()
    for g in I.gens:
        dec = decompose(g, e, "absolute")
        gens.update(dec.components.values())
    return Ideal(I.ring, sorted(gens, key=lambda f: sorted(f.terms.items())))
