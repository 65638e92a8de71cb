import os
import subprocess
import sys
from itertools import permutations, product
from math import comb
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

import charp as ch
from charp import Ideal
from charp.ideals import _ext_ring, _spoly, buchberger, reduce_basis
from charp.rings import EXP_LIMIT, heap_key, order_key, poly_str
from elimination_oracle import (oracle_colon, oracle_groebner,
                                oracle_intersect)
from work_counts import count_buchberger, count_groebner, patch_in_charp


def ring(p=3, names=("x", "y"), laurent=False):
    return ch.RingCtx(tuple(names), ch.PrimeModulus(p), laurent=laurent)


def I(R, *exprs):
    return Ideal(R, [R.poly(s) for s in exprs])


class TestGroebner:
    def test_row_reduction(self):
        R = ring()
        assert I(R, "x+y", "y").basis_strings() == ("x", "y")

    def test_hand_reduction(self):
        # (x^2, xy, y^2, x): x kills x^2 and xy, leaving {x, y^2};
        # verified below by membership both ways
        R = ring()
        J = I(R, "x^2", "x*y", "y^2", "x")
        assert set(J.basis_strings()) == {"x", "y^2"}
        K = I(R, "x", "y^2")
        assert J.contains_ideal(K) and K.contains_ideal(J)

    def test_zero_and_unit(self):
        R = ring()
        assert Ideal(R, []).basis_strings() == ()
        assert I(R, "x+1", "x").basis_strings() == ("1",)

    def test_canonical_across_generator_presentations(self):
        R = ring()
        a = I(R, "x+y", "y")
        b = I(R, "y", "x", "x+2*y")
        assert a.basis_strings() == b.basis_strings()
        assert a.content_hash() == b.content_hash()

    def test_nontrivial_buchberger(self):
        R = ring()
        J = I(R, "x^2+y", "x*y+1")
        # membership oracle: both generators reduce to zero, a random
        # combination lies inside, and 1 does not
        f = R.poly("x^2+y") * R.poly("x*y") + R.poly("x*y+1")
        assert J.contains(f)
        assert not J.contains(R.one())
        assert not J.contains(R.poly("x"))


class TestContainsAndEq:
    def test_examples(self):
        R = ring()
        assert I(R, "x", "y").contains(R.poly("x+2*y"))
        assert not I(R, "x^2", "y^2").contains(R.poly("x*y"))
        assert ch.ideal_eq(I(R, "x+y", "y"), I(R, "x", "y"))

    def test_equivalence_relation(self):
        R = ring()
        a, b, c = I(R, "x+y", "y"), I(R, "y", "x"), I(R, "x", "x+y")
        assert ch.ideal_eq(a, a)
        assert ch.ideal_eq(a, b) == ch.ideal_eq(b, a)
        assert ch.ideal_eq(a, b) and ch.ideal_eq(b, c) and ch.ideal_eq(a, c)

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            ch.ideal_eq(I(ring(3), "x"), I(ring(5), "x"))


class TestColon:
    def test_binomial_square_quotient(self):
        # ((x^2,y^2) : (x+y)^2) = (x,y) at p = 3: x*(x+y)^2 and y*(x+y)^2
        # land inside, (x+y)^2 itself does not
        R = ring()
        out = ch.colon(I(R, "x^2", "y^2"), I(R, "(x+y)^2"))
        assert out.basis_strings() == ("x", "y")

    def test_monomial_quotient(self):
        R = ring()
        out = ch.colon(I(R, "x^3", "y^3"), I(R, "x^2*y^2"))
        assert out.basis_strings() == ("x", "y")

    def test_colon_by_unit(self):
        R = ring()
        J = I(R, "x^2", "y^2")
        assert ch.ideal_eq(ch.colon(J, I(R, "1")), J)

    def test_zero_divisor_rejected(self):
        R = ring()
        with pytest.raises(ValueError):
            ch.colon(I(R, "x"), Ideal(R, []))

    def test_galois_properties_random(self):
        rng = Random(7)
        R = ring()
        pool = ["x^2", "y^2", "x*y", "x+y", "x^3", "y", "x^2+y^2"]
        for _ in range(10):
            gens = rng.sample(pool, 2)
            a = I(R, *gens)
            b = I(R, *rng.sample(pool, 2))
            k = I(R, rng.choice(pool))
            if a.contains_ideal(b):  # b within a => (b:k) within (a:k)
                assert ch.colon(a, k).contains_ideal(ch.colon(b, k))
            q = ch.colon(a, b)
            assert a.contains_ideal(ch.product(q, b))


class TestFrobeniusPower:
    def test_examples(self):
        R = ring()
        assert ch.frob_power(I(R, "x", "y"), 1).basis_strings() == ("x^3", "y^3")
        assert ch.frob_power(I(R, "x+y"), 1).basis_strings() == ("x^3 + y^3",)
        assert ch.frob_power(I(R, "1"), 5).basis_strings() == ("1",)

    def test_generator_independence(self):
        R = ring()
        a = I(R, "x+y", "y")
        b = I(R, "x", "y")  # same ideal, different generators
        assert ch.ideal_eq(ch.frob_power(a, 1), ch.frob_power(b, 1))

    def test_additive_on_monomial_ideals(self):
        rng = Random(3)
        R = ring()
        monos = ["x", "y", "x^2", "x*y", "y^3", "x^3*y"]
        for _ in range(10):
            a = I(R, *rng.sample(monos, 2))
            b = I(R, *rng.sample(monos, 2))
            lhs = ch.frob_power(ch.sum_ideal(a, b), 1)
            rhs = ch.sum_ideal(ch.frob_power(a, 1), ch.frob_power(b, 1))
            assert ch.ideal_eq(lhs, rhs)


class TestProductsAndPowers:
    def test_examples(self):
        R = ring()
        assert ch.product(I(R, "x"), I(R, "y")).basis_strings() == ("x*y",)
        assert set(ch.power(I(R, "x", "y"), 2).basis_strings()) == \
            {"x^2", "x*y", "y^2"}
        assert ch.power(I(R, "x+y"), 9).basis_strings() == ("x^9 + y^9",)

    def test_zeroth_power(self):
        R = ring()
        assert ch.power(I(R, "x"), 0).basis_strings() == ("1",)

    def test_monomial_power_matches_repeated_product(self):
        R = ring()
        J = I(R, "x", "y^2")
        by_product = I(R, "1")
        for _ in range(4):
            by_product = ch.product(by_product, J)
        assert ch.ideal_eq(ch.power(J, 4), by_product)

    def test_general_power_matches_repeated_product(self):
        R = ring()
        J = I(R, "x+y", "y^2")
        by_product = ch.product(J, J)
        assert ch.ideal_eq(ch.power(J, 2), by_product)


class TestLaurentIdeals:
    def test_monomials_are_units(self):
        L = ring(names=("x", "y"), laurent=True)
        assert I(L, "x^3").basis_strings() == ("1",)
        assert I(L, "x^-1*y").basis_strings() == ("1",)

    def test_content_stripping(self):
        L = ring(names=("x", "y"), laurent=True)
        # x^2 + xy = x(x + y): the monomial factor is a unit
        assert ch.ideal_eq(I(L, "x^2 + x*y"), I(L, "x + y"))

    def test_membership(self):
        L = ring(names=("x", "y"), laurent=True)
        J = I(L, "x + y")
        assert J.contains(L.poly("x^-1 + y*x^-2"))  # x^-2 * (x + y)
        assert not J.contains(L.poly("x"))

    def test_saturation_beyond_stripping(self):
        # x^2 y + x = x (x y + 1): the content is a unit but only saturation
        # exposes the canonical representative
        L = ring(names=("x", "y"), laurent=True)
        assert ch.ideal_eq(I(L, "x^2*y + x"), I(L, "x*y + 1"))
        assert I(L, "x^2*y + x").basis_strings() == ("x*y + 1",)


class TestExactDiv:
    def test_quotient(self):
        R = ring()
        f = R.poly("x^2+y") * R.poly("x*y+2*x+1")
        assert ch.exact_div(f, R.poly("x^2+y")) == R.poly("x*y+2*x+1")
        assert ch.exact_div(f, R.poly("2*x*y+x+2")) == R.poly("2*x^2+2*y")

    def test_not_a_multiple(self):
        R = ring()
        with pytest.raises(ValueError):
            ch.exact_div(R.poly("x^2+1"), R.poly("x"))
        with pytest.raises(ZeroDivisionError):
            ch.exact_div(R.poly("x"), R.zero())

    def test_laurent_quotient(self):
        L = ring(laurent=True)
        assert ch.exact_div(L.poly("x^2+x*y"), L.poly("x^3")) == \
            L.poly("x^-1 + x^-2*y")
        f = L.poly("(x+1)*(x^-2*y+y^-3)")
        assert ch.exact_div(f, L.poly("x+1")) == L.poly("x^-2*y+y^-3")

    def test_laurent_non_multiple_terminates(self):
        # x-adic valuations bound the quotient's exponents below; without
        # that bound long division of 1 by x+1 runs through x^-1, x^-2, ...
        code = ("import charp as ch\n"
                "L = ch.RingCtx(('x', 'y'), ch.PrimeModulus(3), laurent=True)\n"
                "try:\n"
                "    ch.exact_div(L.one(), L.poly('x+1'))\n"
                "except ValueError:\n"
                "    print('refused')\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=10)
        assert proc.stdout.strip() == "refused", proc.stderr


# --- Buchberger against a textbook oracle -----------------------------------------


class Textbook:
    """Buchberger's original algorithm on term dicts under ``ring``'s order:
    every pair is reduced, smallest lcm first, with no criterion."""

    def __init__(self, ring):
        self.key = order_key(ring)
        self.p = ring.p

    def lead(self, f):
        m = max(f, key=self.key)
        return m, f[m]

    def add_scaled(self, acc, g, c, shift):
        for m, v in g.items():
            t = tuple(a + b for a, b in zip(m, shift))
            w = (acc.get(t, 0) + c * v) % self.p
            if w:
                acc[t] = w
            else:
                acc.pop(t, None)

    def remainder(self, f, divisors):
        work, rem = dict(f), {}
        while work:
            m = max(work, key=self.key)
            for g in divisors:
                gm, gc = self.lead(g)
                if all(a <= b for a, b in zip(gm, m)):
                    shift = tuple(a - b for a, b in zip(m, gm))
                    self.add_scaled(work, g, -work[m] * pow(gc, -1, self.p),
                                    shift)
                    break
            else:
                rem[m] = work.pop(m)
        return rem

    def spoly(self, f, g):
        (fm, fc), (gm, gc) = self.lead(f), self.lead(g)
        lcm = tuple(map(max, fm, gm))
        out = {}
        self.add_scaled(out, f, pow(fc, -1, self.p),
                        tuple(a - b for a, b in zip(lcm, fm)))
        self.add_scaled(out, g, -pow(gc, -1, self.p),
                        tuple(a - b for a, b in zip(lcm, gm)))
        return out

    def is_groebner(self, G):
        """Buchberger's criterion: every S-pair of G reduces to 0 by G."""
        G = [dict(g.terms) for g in G]
        return not any(self.remainder(self.spoly(f, g), G)
                       for i, f in enumerate(G) for g in G[:i])

    def reduced_basis(self, gens):
        lead, key, p = self.lead, self.key, self.p

        def lcm_key(pair):
            i, j = pair
            return key(tuple(map(max, lead(G[i])[0], lead(G[j])[0])))

        G = [dict(g.terms) for g in gens if g]
        pairs = [(i, j) for i in range(len(G)) for j in range(i)]
        while pairs:
            pairs.sort(key=lcm_key, reverse=True)
            i, j = pairs.pop()
            r = self.remainder(self.spoly(G[i], G[j]), G)
            if r:
                G.append(r)
                pairs += [(len(G) - 1, k) for k in range(len(G) - 1)]
        minimal = []
        for g in sorted(G, key=lambda g: key(lead(g)[0])):
            if not any(all(a <= b for a, b in zip(lead(h)[0], lead(g)[0]))
                       for h in minimal):
                minimal.append(g)
        reduced = []
        for i, g in enumerate(minimal):
            r = self.remainder(g, minimal[:i] + minimal[i + 1:])
            inv = pow(lead(r)[1], -1, p)
            reduced.append(frozenset((m, c * inv % p) for m, c in r.items()))
        return set(reduced)


ORDERS = [("grevlex",), ("elim", 1)]


@st.composite
def systems(draw, order):
    p = draw(st.sampled_from([2, 3, 5, 7, 32003]))
    n = draw(st.integers(2, 3))
    R = ch.RingCtx(("x", "y", "z")[:n], ch.PrimeModulus(p), order=order)
    monos = st.sampled_from([m for m in product(range(4), repeat=n) if sum(m) <= 3])
    polys = st.dictionaries(monos, st.integers(1, p - 1), min_size=1, max_size=3)
    gens = draw(st.lists(polys, min_size=2, max_size=4))
    return R, [ch.Polynomial(R, g) for g in gens]


@pytest.mark.parametrize("order", ORDERS)
def test_buchberger_matches_textbook_oracle(order):
    @given(systems(order))
    @settings(max_examples=60, deadline=None)
    def check(system):
        R, gens = system
        ours = {frozenset(g.terms.items()) for g in reduce_basis(buchberger(gens))}
        assert ours == Textbook(R).reduced_basis(gens)
    check()


@st.composite
def monomial_mixes(draw, order):
    """2-4 monomials and 1-2 binomials, in any order: the generators whose
    monomial pairs ``buchberger`` never reduces."""
    p = draw(st.sampled_from([2, 3, 5, 7, 32003]))
    n = draw(st.integers(2, 3))
    R = ch.RingCtx(("x", "y", "z")[:n], ch.PrimeModulus(p), order=order)
    monos = st.sampled_from([m for m in product(range(4), repeat=n) if sum(m) <= 3])

    def polys(size):
        return st.dictionaries(monos, st.integers(1, p - 1), min_size=size,
                               max_size=size)

    gens = draw(st.lists(polys(1), min_size=2, max_size=4)) \
        + draw(st.lists(polys(2), min_size=1, max_size=2))
    return R, [ch.Polynomial(R, g) for g in draw(st.permutations(gens))]


@pytest.mark.parametrize("order", ORDERS)
def test_monomial_pairs_need_no_reduction(order):
    # the S-polynomial of two monomials is 0: skipping those pairs still
    # returns a Groebner basis, by Buchberger's criterion, of the right ideal
    @given(monomial_mixes(order))
    @settings(max_examples=80, deadline=None)
    def check(system):
        R, gens = system
        book = Textbook(R)
        basis = buchberger(gens)
        assert book.is_groebner(basis)
        ours = {frozenset(g.terms.items()) for g in reduce_basis(basis)}
        assert ours == book.reduced_basis(gens)
    check()


@st.composite
def closed_form_lists(draw):
    """1-4 generators in 2 or 3 variables at p = 2, 3, 5, under either
    order: one polynomial; monomials drawn from a small pool of exponents,
    so exponents repeat with other coefficients; a constant among any of
    those; or a list of polynomials, mixed with any monomials."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 3))
    R = ch.RingCtx(("x", "y", "z")[:n], ch.PrimeModulus(p),
                   order=draw(st.sampled_from(ORDERS)))
    monos = st.sampled_from([m for m in product(range(4), repeat=n)
                             if sum(m) <= 3])
    coeffs = st.integers(1, p - 1)
    polys = st.dictionaries(monos, coeffs, min_size=1, max_size=3).map(
        lambda d: ch.Polynomial(R, d))
    pool = draw(st.lists(monos, min_size=1, max_size=3))
    terms = st.builds(lambda m, c: ch.Polynomial(R, {m: c}),
                      st.sampled_from(pool), coeffs)
    gens = draw(st.one_of(polys.map(lambda f: [f]),
                          st.lists(terms, min_size=1, max_size=4),
                          st.lists(polys, min_size=2, max_size=4)))
    if draw(st.booleans()) and len(gens) < 4:
        gens.insert(draw(st.integers(0, len(gens))), R.const(draw(coeffs)))
    return R, gens


@given(closed_form_lists())
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_buchberger(system):
    # a principal or monomial ideal, or one with a constant generator, has
    # its reduced basis written down with no run; any other takes one.  The
    # basis is Buchberger's, in reduce_basis's order, and the textbook's
    R, gens = system
    closed = (len(gens) == 1 or any(g.is_constant() for g in gens)
              or all(g.is_monomial() for g in gens))
    want = reduce_basis(buchberger(gens))
    with pytest.MonkeyPatch.context() as mp:
        work = count_groebner(mp)
        out = Ideal(R, gens).groebner()
        assert len(work.runs) == (0 if closed else 1)
    assert out == want
    assert {frozenset(g.terms.items()) for g in out} \
        == Textbook(R).reduced_basis(gens)


@pytest.mark.parametrize("gens, want", [
    (("2*x^2*y + y^3 + 2",), ("x^2*y + 2*y^3 + 1",)),
    (("2",), ("1",)),
    (("2*x^2", "x*y", "x^2", "2*x*y^2", "y^3"), ("y^3", "x^2", "x*y")),
    (("x^2 + y", "2"), ("1",)),
])
def test_closed_form_cases(monkeypatch, gens, want):
    R = ring()
    work = count_groebner(monkeypatch)
    assert I(R, *gens).basis_strings() == want
    assert not work.runs


@pytest.mark.parametrize("order", ORDERS)
def test_heap_key_reverses_order_key(order):
    R = ch.RingCtx(("x", "y", "z"), ch.PrimeModulus(3), order=order)

    @given(st.lists(st.tuples(*[st.integers(-3, 6)] * 3), unique=True))
    @settings(max_examples=60, deadline=None)
    def check(monos):
        assert sorted(monos, key=heap_key(R)) == \
            sorted(monos, key=order_key(R), reverse=True)
    check()


# --- the kernel's fast paths against their textbook forms -------------------------

KERNEL_RINGS = [(("grevlex",), False), (("elim", 1), False), (("grevlex",), True)]


@pytest.mark.parametrize("order, laurent", KERNEL_RINGS)
def test_kernel_fast_paths_match_textbook(order, laurent):
    R = ch.RingCtx(("x", "y", "z"), ch.PrimeModulus(7), laurent=laurent,
                   order=order)
    lo = -3 if laurent else 0
    polys = st.dictionaries(st.tuples(*[st.integers(lo, 4)] * 3),
                            st.integers(1, 6), min_size=1, max_size=5)

    @given(polys, polys)
    @settings(max_examples=80, deadline=None)
    def check(fd, gd):
        f, g = ch.Polynomial(R, fd), ch.Polynomial(R, gd)
        for h in (f, g):
            m = max(h.terms, key=order_key(R))
            assert h.lead() == (m, h.terms[m])
            inv = pow(h.terms[m], -1, 7)
            tail = {t: c * inv % 7 for t, c in h.terms.items() if t != m}
            assert h.monic()[0] == m and dict(h.monic()[1]) == tail
            assert h.monic() is h.monic()
        (fm, fc), (gm, gc) = f.lead(), g.lead()
        lcm = tuple(map(max, fm, gm))
        textbook = (
            f.mul_monomial(tuple(a - b for a, b in zip(lcm, fm)), pow(fc, -1, 7))
            - g.mul_monomial(tuple(a - b for a, b in zip(lcm, gm)), pow(gc, -1, 7)))
        assert _spoly(f, g) == textbook
    check()


def test_mul_monomial_overflow_boundary():
    R = ring()
    f = R.poly(f"x^{EXP_LIMIT - 2} + y")
    assert f.mul_monomial((1, 0)).lead()[0] == (EXP_LIMIT - 1, 0)
    with pytest.raises(ch.ExponentOverflow):
        f.mul_monomial((2, 0))


def test_spoly_overflow_boundary():
    # lcm(x^a, y) = x^a*y shifts the tail y^a of x^a + y^a to y^(a+1)
    R = ring()
    g = R.poly("y + 1")
    a = EXP_LIMIT - 2
    near = R.poly(f"x^{a} + y^{a}")
    assert poly_str(_spoly(near, g)) == f"y^{a + 1} + {R.p - 1}*x^{a}"
    over = R.poly(f"x^{a + 1} + y^{a + 1}")
    for f, h in ((over, g), (g, over)):
        with pytest.raises(ch.ExponentOverflow):
            _spoly(f, h)


def test_spoly_bound_is_per_variable():
    # g's lead x^h is shifted by y^h only: every exponent stays below 2^63
    R = ring()
    h = 2 ** 62
    f, g = R.poly(f"x*y^{h} + 1"), R.poly(f"x^{h} + 1")
    assert poly_str(_spoly(f, g)) == f"{R.p - 1}*y^{h} + x^{h - 1}"


# --- work counts on classical systems mod 32003 -----------------------------------

SYSTEMS = {
    "cyclic4": ("abcd", ["a+b+c+d", "a*b+b*c+c*d+d*a",
                         "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1"]),
    "katsura3": (("u0", "u1", "u2", "u3"),
                 ["u0+2*u1+2*u2+2*u3-1", "u0^2+2*u1^2+2*u2^2+2*u3^2-u0",
                  "2*u0*u1+2*u1*u2+2*u2*u3-u1", "2*u0*u2+u1^2+2*u1*u3-u2"]),
    "katsura4": (("u0", "u1", "u2", "u3", "u4"),
                 ["u0+2*u1+2*u2+2*u3+2*u4-1",
                  "u0^2+2*u1^2+2*u2^2+2*u3^2+2*u4^2-u0",
                  "2*u0*u1+2*u1*u2+2*u2*u3+2*u3*u4-u1",
                  "2*u0*u2+u1^2+2*u1*u3+2*u2*u4-u2",
                  "2*u0*u3+2*u1*u2+2*u1*u4-u3"]),
}


def system(name):
    names, exprs = SYSTEMS[name]
    R = ch.RingCtx(tuple(names), ch.PrimeModulus(32003))
    return R, [R.poly(s) for s in exprs]


@pytest.mark.parametrize("name", ["cyclic4", "katsura3"])
def test_basis_independent_of_generator_order(name):
    R, gens = system(name)
    bases = {Ideal(R, list(perm)).groebner() for perm in permutations(gens)}
    assert len(bases) == 1


# The exact S-pairs reduced, so that a kernel change that alters the pair
# sequence shows.  LIFO Buchberger with only the product criterion reduces
# 304, 322 and 3,830 of them.
@pytest.mark.parametrize("name, count", [("cyclic4", 11), ("katsura3", 10),
                                         ("katsura4", 28)])
def test_reduced_spair_bound(monkeypatch, name, count):
    R, gens = system(name)
    work = count_groebner(monkeypatch)
    basis = Ideal(R, gens).groebner()
    assert basis and not basis[0].is_one()
    assert len(work.spairs) == count


def test_buchberger_budget_guard():
    from charp.ideals import buchberger
    R = ring()
    gens = [R.poly(s) for s in ("x^2+y", "x*y+1", "y^2+x")]
    with pytest.raises(ch.BudgetExceeded):
        buchberger(gens, budget=1)


def test_buchberger_terminates_on_degree_30_corpus():
    R = ring(names=("x", "y", "z"))
    J = I(R, "x^30 + y^2*z", "y^15 + z", "x*z^3 + y")
    assert J.groebner()  # no budget blowup at the intended corpus scale (2-3 vars, degree <= 30)


# --- one elimination per intersection, colon and saturation -----------------------


@st.composite
def ideal_pairs(draw):
    """Two ideals of one ring: 1-3 generators each, so principal and
    non-principal divisors with either side larger; Laurent rings allow
    exponents down to -1."""
    p = draw(st.sampled_from([2, 3, 5, 7, 32003]))
    n = draw(st.integers(2, 3))
    laurent = draw(st.booleans())
    R = ring(p, ("x", "y", "z")[:n], laurent)
    lo = -1 if laurent else 0
    monos = st.sampled_from([m for m in product(range(lo, 3), repeat=n)
                             if sum(map(abs, m)) <= 3])
    polys = st.dictionaries(monos, st.integers(1, p - 1), min_size=1,
                            max_size=3).map(lambda d: ch.Polynomial(R, d))
    a, b = (Ideal(R, draw(st.lists(polys, min_size=1, max_size=3)))
            for _ in range(2))
    return a, b


def assert_reduced(out, expected):
    """out's reduced basis is the oracle's; a polynomial-ring result holds
    it already, equal to a fresh Buchberger run on its generators."""
    if not out.ring.laurent:
        assert out._gb is not None
        assert out._gb == reduce_basis(buchberger(list(out.gens)))
    assert out.groebner() == expected


@given(ideal_pairs())
@settings(max_examples=80, deadline=None)
def test_elimination_matches_oracle(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        assert_reduced(ch.intersect(x, y), oracle_groebner(oracle_intersect(x, y)))
        assert_reduced(ch.colon(x, y), oracle_groebner(oracle_colon(x, y)))
    if a.ring.laurent:
        for x in (a, b):
            assert Ideal(x.ring, x.gens).groebner() == oracle_groebner(x)


@given(ideal_pairs())
@settings(max_examples=60, deadline=None)
def test_kept_basis_matches_fresh_groebner(pair):
    # intersect and colon keep the basis of their elimination on polynomial
    # and Laurent rings alike; it is what a fresh Ideal of the same
    # generators computes from scratch
    a, b = pair
    for x, y in ((a, b), (b, a)):
        for out in (ch.intersect(x, y), ch.colon(x, y)):
            assert out._gb is not None
            assert out._gb == Ideal(out.ring, out.gens).groebner()


@st.composite
def shifted_divisors(draw):
    """An ``ideal_pairs`` pair (I, J) and J', whose generators are J's each
    shifted by a random combination of I's generators."""
    a, b = draw(ideal_pairs())
    R = a.ring
    lo = -1 if R.laurent else 0
    factors = st.dictionaries(st.tuples(*[st.integers(lo, 1)] * R.nvars),
                              st.integers(1, R.p - 1), max_size=2)
    shifted = []
    for g in b.gens:
        for f in a.gens:
            g = g + ch.Polynomial(R, draw(factors)) * f
        shifted.append(g)
    return a, b, Ideal(R, shifted)


@given(shifted_divisors())
@settings(max_examples=60, deadline=None)
def test_colon_depends_on_the_divisor_mod_I(case):
    # (I : g) = (I : g + h) for h in I; a generator shifted to 0 lies in I
    # and leaves the meet, and J' = 0 has no colon
    a, b, shifted = case
    assume(not shifted.is_zero())
    want = oracle_groebner(oracle_colon(a, b))
    assert ch.colon(a, b).groebner() == want
    assert ch.colon(a, shifted).groebner() == want


def test_colon_by_a_member_takes_no_run(monkeypatch):
    R = ring()
    runs = count_buchberger(monkeypatch)
    out = ch.colon(I(R, "x^2", "y^2"), I(R, "x^2 + x*y^2"))
    assert out.basis_strings() == ("1",)
    assert not runs


def test_transform_sweep_divides_by_one_term(monkeypatch):
    # (x+y)^(2l) (xy)^(p-l-1) mod (x^p, y^p) is binom(2l, l) x^(p-1) y^(p-1),
    # the one term with both exponents below p, and (x^p, y^p) is monomial:
    # the colon is exponent subtraction, with no run and no S-pair (the
    # parent eliminated with the term: 22 runs, 44 S-pairs)
    from charp import ideals
    remainders = {}
    real = ideals.normal_form

    def spy(f, basis):
        r = real(f, basis)
        remainders[f] = r
        return r

    monkeypatch.setattr(ideals, "normal_form", spy)
    work = count_groebner(monkeypatch)
    for p in (3, 5, 7, 11, 13):
        R = ring(p)
        fam = [I(R, "x+y"), I(R, "x*y")]
        for l in range((p - 1) // 2 + 1):
            remainders.clear()
            ch.transform_chi_symbolic(I(R, "x", "y"), (2 * l, p - l - 1), fam)
            divisor = ch.pow_poly(R.poly("x+y"), 2 * l) \
                * ch.pow_poly(R.poly("x*y"), p - l - 1)
            assert remainders[divisor] == R.monomial(
                (p - 1, p - 1), comb(2 * l, l) % p), (p, l)
    assert not work.runs and not work.spairs and not work.zero_reductions


def test_laurent_results_keep_their_basis(monkeypatch):
    # the parent took one more run for each result's groebner(), and three
    # runs for the colon, saturating the stripped divisor (x+y+1) too
    R = ring(3, laurent=True)
    runs = count_buchberger(monkeypatch)
    for op, cost in ((ch.intersect, 3), (ch.colon, 2)):
        before = len(runs)
        out = op(I(R, "x^2+y", "y^2+x"), I(R, "x+y+1"))
        assert len(runs) - before == cost
        out.groebner()
        assert len(runs) - before == cost
    assert out.basis_strings() == ("x^2 + y", "x*y + 2", "y^2 + x")


def test_transform_sweep_takes_no_run(monkeypatch):
    # (N^[p] : prod f_i^b_i) is exponent subtraction; the parent took one
    # elimination per job
    runs = count_buchberger(monkeypatch)
    jobs = 0
    for p in (3, 5, 7, 11, 13):
        R = ring(p)
        fam = [I(R, "x+y"), I(R, "x*y")]
        for l in range((p - 1) // 2 + 1):
            out = ch.transform_chi_symbolic(I(R, "x", "y"), (2 * l, p - l - 1),
                                            fam)
            assert out.basis_strings() == ("x", "y")
            jobs += 1
    assert jobs == 22 and not runs


def test_principal_colon_takes_one_run(monkeypatch):
    # x + y is its own remainder modulo (x^2, y^2) and not a term: one
    # elimination.  (x+y)^2 leaves the term 2xy, whose colon takes none
    R = ring()
    runs = count_buchberger(monkeypatch)
    out = ch.colon(I(R, "x^2", "y^2"), I(R, "x+y"))
    assert out.basis_strings() == ("y^2", "x + 2*y")
    assert len(runs) == 1
    out = ch.colon(I(R, "x^2", "y^2"), I(R, "(x+y)^2"))
    assert out.basis_strings() == ("x", "y")
    assert len(runs) == 1


@st.composite
def monomial_colons(draw):
    """A monomial ideal of 0-4 generators with any nonzero coefficients,
    in 2 or 3 variables at p = 2, 3 or 5, and a term c x^m; m = 0, x^m in
    I and I = (0) all occur."""
    p = draw(st.sampled_from([2, 3, 5]))
    R = ring(p, ("x", "y", "z")[:draw(st.integers(2, 3))])
    terms = st.builds(R.monomial, st.tuples(*[st.integers(0, 3)] * R.nvars),
                      st.integers(1, p - 1))
    return Ideal(R, draw(st.lists(terms, max_size=4))), draw(terms)


def assert_monomial_colon(a, term):
    # (I : c x^m) by exponent subtraction: the oracle's basis, no run.  I's
    # own basis is made first: m = 0 takes the unit branch, which returns it
    a.groebner()
    with pytest.MonkeyPatch.context() as mp:
        runs = count_buchberger(mp)
        out = ch.colon(a, Ideal(a.ring, [term]))
        assert out._gb is not None and not runs
    assert out.groebner() == oracle_groebner(oracle_colon(a, Ideal(a.ring,
                                                                   [term])))
    return out.basis_strings()


@given(monomial_colons())
@settings(max_examples=120, deadline=None)
def test_monomial_colon_matches_oracle(case):
    assert_monomial_colon(*case)


@pytest.mark.parametrize("gens, term, want", [
    (("2*x^3", "x*y^2"), "2*x^2", ("y^2", "x")),
    (("2*x^3", "x*y^2"), "x^4*y", ("1",)),          # x^m in I
    (("2*x^3", "x*y^2"), "2", ("x^3", "x*y^2")),    # m = 0: I itself
    ((), "2*x*y", ()),                              # I = (0)
    (("x^2*z", "2*y^3"), "x*y^2*z", ("x", "y")),
])
def test_monomial_colon_cases(gens, term, want):
    R = ring(3, ("x", "y", "z"))
    assert assert_monomial_colon(I(R, *gens), R.poly(term)) == want


def test_monomial_colon_rule_not_reached_on_laurent_rings():
    # a term is a unit of a Laurent ring: (I : x y^-1) is I, from the unit
    # branch.  The rule would write its basis down with _closed_form; with
    # I's basis already cached, the Laurent colon calls it not at all, and
    # the polynomial twin of the call does
    calls = []

    def spy(original):
        return lambda ring, gens: calls.append(1) or original(ring, gens)

    for laurent, term, rebuilt, want in ((True, "x*y^-1", 0, ("1",)),
                                         (False, "x*y", 1, ("y^2", "x"))):
        R = ring(3, laurent=laurent)
        a = I(R, "x^2", "y^3")
        a.groebner()
        with pytest.MonkeyPatch.context() as mp:
            patch_in_charp(mp, "_closed_form", spy, "ideals")
            runs = count_buchberger(mp)
            del calls[:]
            out = ch.colon(a, I(R, term))
            assert len(calls) == rebuilt and not runs
        assert out.basis_strings() == want


@st.composite
def monomial_pairs(draw):
    """Two monomial ideals of 0-3 generators each, with any coefficients, in
    2 or 3 variables at p = 2, 3 or 5.  Exponents come from a small pool
    that holds 0, so generators repeat and constants occur."""
    p = draw(st.sampled_from([2, 3, 5]))
    R = ring(p, ("x", "y", "z")[:draw(st.integers(2, 3))])
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * R.nvars),
                         min_size=1, max_size=4))
    terms = st.builds(R.monomial, st.sampled_from(pool + [(0,) * R.nvars]),
                      st.integers(1, p - 1))
    return tuple(Ideal(R, draw(st.lists(terms, max_size=3))) for _ in "ab")


@given(monomial_pairs())
@settings(max_examples=120, deadline=None)
def test_monomial_meet_matches_elimination(pair):
    # two monomial ideals meet in the ideal of the pairwise lcms: the
    # elimination's basis, with no run
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        runs = count_buchberger(mp)
        out = ch.intersect(a, b)
        assert out._gb is not None and not runs
    assert out.groebner() == oracle_groebner(oracle_intersect(a, b))


def test_monomial_colon_meet_takes_no_run(monkeypatch):
    # (x^3, y^3) : x = (x^2, y^3) and : y = (x^3, y^2), met by lcms with
    # no elimination
    R = ring()
    runs = count_buchberger(monkeypatch)
    out = ch.colon(I(R, "x^3", "y^3"), I(R, "x", "y"))
    assert out.basis_strings() == ("x^2*y^2", "x^3", "y^3")
    assert not runs


def test_ext_ring_needs_grevlex():
    R = ch.RingCtx(("x", "y"), ch.PrimeModulus(3), order=("elim", 1))
    with pytest.raises(ValueError, match="grevlex"):
        _ext_ring(R, 1)
