from itertools import product as iproduct
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import charp as ch
from charp import Ideal, poly_str
from charp.frobenius import _row_echelon, _split
from charp.rings import order_key
from elimination_oracle import oracle_groebner


def ring(p=3, names=("x", "y"), laurent=False, n_base=0):
    return ch.RingCtx(tuple(names), ch.PrimeModulus(p), laurent=laurent,
                      n_base=n_base)


def I(R, *exprs):
    return Ideal(R, [R.poly(s) for s in exprs])


class TestDecompose:
    def test_monomial_split(self):
        R = ring()
        dec = ch.decompose(R.poly("x^5*y^2"), 1)
        assert set(dec.components) == {(2, 2)}
        assert poly_str(dec.component((2, 2))) == "x"

    def test_cube_collapses(self):
        R = ring()
        dec = ch.decompose(ch.pow_poly(R.poly("x+y"), 3), 1)
        assert set(dec.components) == {(0, 0)}
        assert poly_str(dec.component((0, 0))) == "x + y"

    def test_relative_pair(self):
        S = ring(names=("t", "x"), n_base=1)
        dec = ch.decompose(S.poly("t*x^5"), 1)
        assert set(dec.components) == {(2,)}
        pairs = dec.component((2,))
        assert [(poly_str(s), poly_str(r)) for s, r in pairs] == [("x", "t")]

    def test_laurent_floor_division(self):
        L = ring(names=("x",), laurent=True)
        dec = ch.decompose(L.poly("x^-1"), 1)
        assert set(dec.components) == {(2,)}
        assert poly_str(dec.component((2,))) == "x^-1"

    def test_component_count_bound(self):
        R = ring()
        f = ch.pow_poly(R.poly("x + y + 1"), 7)
        dec = ch.decompose(f, 1)
        assert len(dec.components) <= 9


def small_polys(p=3):
    R = ring(p)
    monos = st.tuples(st.integers(0, 7), st.integers(0, 7))
    return st.dictionaries(monos, st.integers(1, p - 1), max_size=6).map(
        lambda d: ch.Polynomial(R, dict(d)))


def summed_operators(dec):
    """The sum of ``operator(idx)`` * x^idx over every fiber index in
    [0, q)^n, absent components included."""
    ring = dec.ring
    q = ring.p ** dec.e
    pad = (0,) * ring.n_base
    total = ring.zero()
    for idx in iproduct(range(q), repeat=len(dec.top_index())):
        total = total + dec.operator(idx).mul_monomial(pad + idx)
    return total


class TestRecomposition:
    @given(small_polys(), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_absolute(self, f, e):
        dec = ch.decompose(f, e)
        assert dec.recompose() == f
        assert summed_operators(dec) == f

    @given(st.integers(1, 2))
    @settings(max_examples=5, deadline=None)
    def test_relative(self, e):
        S = ring(names=("t", "x"), n_base=1)
        rng = Random(e)
        for _ in range(10):
            terms = {(rng.randrange(6), rng.randrange(9)): rng.randrange(1, 3)
                     for _ in range(4)}
            f = ch.Polynomial(S, terms)
            dec = ch.decompose(f, e)
            assert dec.recompose() == f
            assert summed_operators(dec) == f

    def test_laurent_recompose(self):
        L = ring(names=("x", "y"), laurent=True)
        f = L.poly("x^-5*y^2 + 2*x*y^-7 + 1")
        dec = ch.decompose(f, 2)
        assert dec.recompose() == f
        assert summed_operators(dec) == f

    def test_operator_of_a_relative_component(self):
        # (x + t^2)^2 = x^2 + 2 t^2 x + t^4: the x^1 component is
        # 1 (x) F_*(2 t^2), read as the operator 2 t^2
        S = ring(names=("t", "x"), n_base=1)
        dec = ch.decompose(ch.pow_poly(S.poly("x + t^2"), 2), 1)
        assert [poly_str(dec.operator((i,))) for i in range(3)] == \
            ["t^4", "2*t^2", "1"]


# --- the split against the absolute and relative splits it replaced -------------


def reference_split(g, e, relative):
    """Test-local: the two splits ``decompose`` made while it took a mode,
    as {fiber index: component}.  Absolute: every variable is a fiber
    variable, and g * 1 is split by ``_split`` into root polynomials.
    Relative: the base variables are kept, and each component is a tuple of
    (s, r) pairs, s a monomial in descending term order and r the base
    remainder, carrying the coefficient."""
    ring = g.ring
    q, p = ring.p ** e, ring.p
    if not relative:
        comps = _split(g.terms, {(0,) * ring.nvars: 1}, q, p)
        return {idx: ch.Polynomial(ring, terms)
                for idx, terms in comps.items() if terms}
    nb = ring.n_base
    comps = {}
    for m, c in g.terms.items():
        idx = tuple(x % q for x in m[nb:])
        s_mono = tuple(x // q for x in m)
        r_mono = tuple(x % q for x in m[:nb]) + (0,) * (len(m) - nb)
        rdict = comps.setdefault(idx, {}).setdefault(s_mono, {})
        v = (rdict.get(r_mono, 0) + c) % p
        if v:
            rdict[r_mono] = v
        else:
            del rdict[r_mono]
    out, key = {}, order_key(ring)
    for idx, bucket in comps.items():
        pairs = tuple((ch.Polynomial(ring, {s: 1}), ch.Polynomial(ring, r))
                      for s, r in sorted(bucket.items(), reverse=True,
                                         key=lambda sr: key(sr[0])) if r)
        if pairs:
            out[idx] = pairs
    return out


def reference_operator(comp, e, ring):
    """F^e of a root polynomial, or the sum of F^e(s) * r over (s, r) pairs."""
    if isinstance(comp, ch.Polynomial):
        return ch.frob(comp, e)
    return sum((ch.frob(s, e) * r for s, r in comp), ring.zero())


@st.composite
def split_inputs(draw):
    """A polynomial of up to 8 terms on a polynomial or Laurent ring with
    0-2 base variables before 1-2 fiber variables, at p = 2, 3 or 5, and
    e = 1 or 2.  Some terms have every exponent q - 1 mod q, so that the
    traces are not all zero."""
    p, e = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 2))
    q, nb, laurent = p ** e, draw(st.integers(0, 2)), draw(st.booleans())
    R = ring(p, ("t", "u")[:nb] + ("x", "y")[:draw(st.integers(1, 2))],
             laurent, nb)
    low = -2 if laurent else 0
    anywhere = st.integers(low * q, 3 * q)
    at_top = st.integers(low, 2).map(lambda k: k * q + q - 1)
    monos = st.one_of(st.tuples(*[anywhere] * R.nvars),
                      st.tuples(*[at_top] * R.nvars))
    terms = draw(st.dictionaries(monos, st.integers(1, p - 1), max_size=8))
    return ch.Polynomial(R, terms), e


@given(split_inputs())
@settings(max_examples=200, deadline=None)
def test_split_matches_the_absolute_and_relative_splits(case):
    # one split along the ring's own fiber gives the absolute split on a
    # ring with no base and the relative split on a chart; the trace stays
    # absolute over every variable on a chart as well
    g, e = case
    R = g.ring
    relative = R.n_base > 0
    dec = ch.decompose(g, e)
    want = reference_split(g, e, relative)
    assert set(dec.components) == set(want)
    for idx, comp in want.items():
        assert dec.component(idx) == comp
        assert dec.operator(idx) == reference_operator(comp, e, R)
    top = dec.top_index()
    assert dec.component(top) == want.get(top, () if relative else R.zero())
    assert dec.recompose() == g
    q = R.p ** e
    assert ch.trace(g, e) == reference_split(g, e, False).get(
        (q - 1,) * R.nvars, R.zero())
    if relative:
        assert ch.relative_trace(g, e) == want.get(top, ())
    else:
        with pytest.raises(ValueError):
            ch.relative_trace(g, e)


class TestTrace:
    def test_normalization(self):
        R = ring()
        assert poly_str(ch.trace(R.poly("x^2*y^2"), 1)) == "1"
        assert ch.trace(R.poly("x"), 1).is_zero()
        assert poly_str(ch.trace(R.poly("x^8*y^8"), 2)) == "1"

    def test_kills_lower_basis_monomials(self):
        R = ring()
        for i in range(3):
            for j in range(3):
                t = ch.trace(R.monomial((i, j)), 1)
                assert t.is_zero() if (i, j) != (2, 2) else t.is_one()

    def test_relative_examples(self):
        S = ring(names=("t", "x"), n_base=1)
        out = ch.relative_trace(S.poly("x^2"), 1)
        assert [(poly_str(s), poly_str(r)) for s, r in out] == [("1", "1")]
        out = ch.relative_trace(S.poly("t*x^2"), 1)
        assert [(poly_str(s), poly_str(r)) for s, r in out] == [("1", "t")]
        out = ch.relative_trace(S.poly("t*x^5"), 1)
        assert [(poly_str(s), poly_str(r)) for s, r in out] == [("x", "t")]

    def test_relative_requires_base(self):
        R = ring()
        with pytest.raises(ValueError):
            ch.relative_trace(R.poly("x"), 1)


class TestBracketRoot:
    def test_examples(self):
        R = ring()
        assert ch.bracket_root(I(R, "x^5*y^2"), 1).basis_strings() == ("x",)
        assert ch.bracket_root(I(R, "(x+y)^3"), 1).basis_strings() == ("x + y",)
        assert ch.bracket_root(I(R, "(x*y)^8"), 2).basis_strings() == ("1",)

    def test_galois_connection(self):
        rng = Random(11)
        R = ring()
        pool = ["x^4", "y^5", "x*y^2", "(x+y)^3", "x^2*y^2", "x^7 + y"]
        for _ in range(12):
            a = I(R, *rng.sample(pool, 2))
            b = I(R, *rng.sample(pool, 2))
            for e in (1, 2):
                lhs = ch.frob_power(b, e).contains_ideal(a)
                rhs = b.contains_ideal(ch.bracket_root(a, e))
                assert lhs == rhs

    def test_monotone(self):
        R = ring()
        small = I(R, "x^3*y^3")
        big = I(R, "x^3", "y^3")
        assert big.contains_ideal(small)
        assert ch.bracket_root(big, 1).contains_ideal(ch.bracket_root(small, 1))

    def test_composition_mirrors_frobenius_iterability(self):
        rng = Random(5)
        R = ring()
        pool = ["x^9", "(x+y)^4", "x^2*y^7", "y^11 + x^2"]
        for _ in range(8):
            a = I(R, *rng.sample(pool, 2))
            twice = ch.bracket_root(ch.bracket_root(a, 1), 1)
            once = ch.bracket_root(a, 2)
            assert ch.ideal_eq(twice, once)

    def test_matches_trace_span_route(self):
        # independent route: the image ideal of kappa^e is spanned by the
        # traces of monomial multiples; must agree with the component route
        from itertools import product as ip
        rng = Random(2)
        R = ring()
        pool = ["x^4", "y^5", "(x+y)^3", "x^2*y^2", "x^7 + y",
                "x*y^2 + 2*x^3"]

        def via_trace(J, e):
            q = 3 ** e
            gens = []
            for g in J.gens:
                for m in ip(range(q), repeat=2):
                    v = ch.trace(g.mul_monomial(m), e)
                    if not v.is_zero():
                        gens.append(v)
            return Ideal(J.ring, gens)

        for _ in range(6):
            J = I(R, *rng.sample(pool, 2))
            for e in (1, 2):
                assert ch.ideal_eq(ch.bracket_root(J, e), via_trace(J, e))

    @pytest.mark.parametrize("e", [0, -1])
    def test_e_below_one_rejected(self, e):
        # q = 3^-1 used to be a float, giving the root {x^6.0, y^3.0}, and
        # e = 0 gave the ideal back
        R = ring()
        with pytest.raises(ValueError, match="e must be positive"):
            ch.bracket_root(I(R, "x^2", "y"), e)

    def test_laurent_bracket_root(self):
        L = ring(names=("x",), laurent=True)
        # x^-1 = (x^-1)^3 * x^2: the component is a unit of the Laurent ring
        out = ch.bracket_root(Ideal(L, [L.poly("x^-1")]), 1)
        assert out.basis_strings() == ("1",)

    def test_sum_of_generatorwise_roots(self):
        R = ring()
        a = I(R, "x^3 + y^3", "x^4*y^5")
        parts = ch.sum_ideal(ch.bracket_root(I(R, "x^3+y^3"), 1),
                             ch.bracket_root(I(R, "x^4*y^5"), 1))
        assert ch.ideal_eq(ch.bracket_root(a, 1), parts)


# --- row-reduced roots against the set-built roots they replaced ------------------


def set_built_root(I, e):
    """The bracket root as it was built before the row reduction: the set of
    all decomposition components, deduplicated and sorted."""
    gens = set()
    for g in I.gens:
        dec = ch.decompose(g, e)
        gens.update(map(dec.component, dec.components))
    return Ideal(I.ring, sorted(gens, key=lambda f: sorted(f.terms.items())))


@st.composite
def root_inputs(draw):
    """An ideal of 1-3 generators of up to 6 terms in 2 or 3 variables, at
    p = 2, 3 or 5, with exponents up to p^2 + p, and e = 1 or 2: few
    quotient monomials, so the components share many."""
    p = draw(st.sampled_from([2, 3, 5]))
    R = ring(p, ("x", "y", "z")[:draw(st.integers(2, 3))])
    monos = st.tuples(*[st.integers(0, p * p + p)] * R.nvars)
    polys = st.dictionaries(monos, st.integers(1, p - 1), min_size=1,
                            max_size=6).map(lambda d: ch.Polynomial(R, d))
    return (Ideal(R, draw(st.lists(polys, min_size=1, max_size=3))),
            draw(st.integers(1, 2)))


@given(root_inputs())
@settings(max_examples=80, deadline=None)
def test_row_reduced_root_matches_set_built_root(case):
    a, e = case
    root = ch.bracket_root(a, e)
    assert root.groebner() == set_built_root(a, e).groebner()
    # the generators are in reduced row echelon form: monic, with distinct
    # leads, each lead in no other generator
    leads = [g.lead() for g in root.gens]
    assert all(c == 1 for _, c in leads)
    assert len({m for m, _ in leads}) == len(leads)
    assert not any(m in g.terms for m, _ in leads for g in root.gens
                   if g.lead()[0] != m)


def test_row_echelon_drops_linear_dependence():
    # (x+y, x+3y, 3x+3y, 4x) at p = 5 spans the plane of x and y
    R = ring(5)
    rows = _row_echelon(R, [R.poly(s).terms
                            for s in ("x+y", "x+3*y", "3*x+3*y", "4*x")])
    assert sorted(map(poly_str, rows)) == ["x", "y"]
    assert _row_echelon(R, [R.poly("x+y").terms, R.poly("2*x+2*y").terms]) \
        == [R.poly("x+y")]
    assert _row_echelon(R, []) == []


# --- the root of a product, split term pair by term pair -------------------------


def product_components(f, h, q):
    """Test-local: the product f h by the double loop over term pairs, then
    each of its terms split at q as x^m = (x^(m // q))^q x^(m mod q)."""
    p = f.ring.p
    prod = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in h.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            prod[m] = (prod.get(m, 0) + c1 * c2) % p
    comps = {}
    for m, c in prod.items():
        if c:
            idx, quot = tuple(x % q for x in m), tuple(x // q for x in m)
            comps.setdefault(idx, {})[quot] = c
    return list(comps.values())


@st.composite
def product_roots(draw):
    """Ideals I and J of 1-3 generators each, every generator the unit 1,
    one term or up to five terms, on a polynomial or Laurent ring in two
    variables at p in {2, 3, 5, 32003}, and e = 1 or 2."""
    p = draw(st.sampled_from([2, 3, 5, 32003]))
    laurent = draw(st.booleans())
    R = ring(p, laurent=laurent)
    top = min(p * p + p, 12)
    monos = st.tuples(*[st.integers(-top if laurent else 0, top)] * 2)
    coeffs = st.integers(1, p - 1)

    def gens():
        out = []
        for kind in draw(st.lists(st.sampled_from(["one", "term", "general"]),
                                  min_size=1, max_size=3)):
            if kind == "one":
                out.append(R.one())
            else:
                size = (1, 1) if kind == "term" else (1, 5)
                out.append(ch.Polynomial(R, draw(st.dictionaries(
                    monos, coeffs, min_size=size[0], max_size=size[1]))))
        return Ideal(R, out)

    return gens(), gens(), draw(st.integers(1, 2))


@given(product_roots())
@settings(max_examples=150, deadline=None)
def test_product_root_spans_the_multiplied_out_root(case):
    # (I J)^[1/q] from term pairs, from the products f h multiplied out,
    # and from a test-local split of the products.  The first two take one
    # path, so give one generator set; the local split is one F_p-span with
    # them, and a monomial root keeps only its minimal generators, so it is
    # compared as an ideal
    a, b, e = case
    R = a.ring
    root = ch.bracket_root(a, e, b)
    whole = ch.bracket_root(Ideal(R, [f * h for f in a.gens for h in b.gens]), e)
    local = _row_echelon(R, [c for f in a.gens for h in b.gens
                             for c in product_components(f, h, R.p ** e)])
    assert set(root.gens) == set(whole.gens)
    assert root.groebner() == Ideal(R, local).groebner()
    assert set(ch.bracket_root(a, e).gens) == \
        set(ch.bracket_root(a, e, Ideal(R, [R.one()])).gens)


@st.composite
def monomial_roots(draw):
    """Monomial ideals I and J of 0-3 generators each, with any
    coefficients, in 2 or 3 variables at p = 2, 3 or 5, exponents up to
    p^2 + p, and e = 1 or 2; J is left out at times."""
    p = draw(st.sampled_from([2, 3, 5]))
    R = ring(p, ("x", "y", "z")[:draw(st.integers(2, 3))])
    terms = st.builds(R.monomial, st.tuples(*[st.integers(0, p * p + p)]
                                            * R.nvars), st.integers(1, p - 1))
    a, b = (Ideal(R, draw(st.lists(terms, max_size=3))) for _ in "ab")
    return a, draw(st.sampled_from([b, None])), draw(st.integers(1, 2))


@given(monomial_roots())
@settings(max_examples=150, deadline=None)
def test_monomial_root_is_the_floor_root(case):
    # the floor roots x^floor((a + b)/q) against the row-reduced split of
    # every term pair, whose reduced basis one Buchberger run gives
    a, b, e = case
    R = a.ring
    hs = [R.one()] if b is None else b.gens
    rows = [c for f in a.gens for h in hs
            for c in _split(f.terms, h.terms, R.p ** e, R.p).values() if c]
    want = oracle_groebner(Ideal(R, _row_echelon(R, rows)))
    assert ch.bracket_root(a, e, b).groebner() == want


def test_product_root_needs_one_ring():
    with pytest.raises(ValueError):
        ch.bracket_root(I(ring(), "x"), 1, I(ring(5), "y"))
