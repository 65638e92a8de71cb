import random
import time
import tracemalloc
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import charp as ch
from charp import CartierAlgebraSpec, Ideal, MixedPair, TraceTwist, poly_str
from charp import cartier
from charp.cartier import _ceil_mul, _ClassAutomaton, _p_depth, _pulled_action
from chain_oracle import _tau_chain
from howald_oracle import howald
from work_counts import (count_bracket_roots, count_buchberger,
                         patch_in_charp)


def ring(p=3, names=("x", "y")):
    return ch.RingCtx(tuple(names), ch.PrimeModulus(p))


def I(R, *exprs):
    return Ideal(R, [R.poly(s) for s in exprs])


def pair(R, *items):
    return MixedPair.of([(I(R, expr), F(t)) for expr, t in items])


@pytest.fixture
def R():
    return ring()


@pytest.fixture
def full(R):
    return CartierAlgebraSpec.full_algebra(R)


class TestCplusSigma:
    def test_cplus_examples(self, R, full):
        tw = CartierAlgebraSpec.from_twists(R, [(1, R.poly("x^3"))])
        assert ch.cplus(I(R, "1"), tw).basis_strings() == ("x",)
        assert ch.cplus(I(R, "1"), full).basis_strings() == ("1",)
        assert ch.cplus(Ideal(R, []), tw).basis_strings() == ()

    def test_sigma_examples(self, R, full):
        tw = CartierAlgebraSpec.from_twists(R, [(1, R.poly("x^3"))])
        assert ch.sigma(tw, I(R, "1")).basis_strings() == ("x",)
        tw2 = CartierAlgebraSpec.from_twists(R, [(1, R.poly("x^2"))])
        assert ch.sigma(tw2, I(R, "1")).basis_strings() == ("1",)
        assert ch.sigma(full, I(R, "1")).basis_strings() == ("1",)

    def test_sigma_idempotent(self, R):
        for twist in ("x^3", "x^2*y^4", "x^4*y^4"):
            C = CartierAlgebraSpec.from_twists(R, [(1, R.poly(twist))])
            stable = ch.sigma(C, I(R, "1"))
            assert ch.ideal_eq(ch.cplus(stable, C), stable)

    def test_mixed_degrees_rejected(self, R):
        with pytest.raises(ValueError):
            CartierAlgebraSpec.from_twists(R, [(1, R.poly("x")),
                                               (2, R.poly("y"))])

    def test_sigma_budget_reported(self, R):
        C = CartierAlgebraSpec.from_twists(R, [(1, R.poly("x^3"))])
        with pytest.raises(ch.BudgetExceeded):
            ch.sigma(C, I(R, "1"), budget=0)


class TestTauMixed:
    def test_three_lines_point(self, R, full):
        # tau((x+y)^(1/3) (xy)^(2/3)) lands inside (x,y) and is not the unit
        # ideal; the chain evaluates to exactly (x,y)
        tau = ch.tau_mixed(pair(R, ("x+y", F(1, 3)), ("x*y", F(2, 3))), full)
        assert I(R, "x", "y").contains_ideal(tau)
        assert not tau.is_unit()
        assert tau.basis_strings() == ("x", "y")

    def test_zero_exponents(self, R, full):
        tau = ch.tau_mixed(pair(R, ("x+y", 0), ("x*y", 0)), full)
        assert tau.basis_strings() == ("1",)

    def test_below_monomial_threshold(self, R, full):
        tau = ch.tau_mixed(pair(R, ("x*y", F(5, 9))), full)
        assert tau.basis_strings() == ("1",)

    def test_plateau_does_not_fool_stabilization(self, R, full):
        # exponent denominator 3^4: the chain is constant for three steps and
        # only jumps to (1) at e = 4
        tau = ch.tau_mixed(pair(R, ("x+y", F(1, 3)), ("x*y", F(53, 81))), full)
        assert tau.is_unit()

    def test_monotone_in_exponents(self, R, full):
        grid = [F(1, 3), F(2, 3), F(1), F(4, 3)]
        prev = None
        for t in grid:
            tau = ch.tau_mixed(pair(R, ("x*y", t)), full)
            if prev is not None:
                assert prev.contains_ideal(tau)
            prev = tau

    def test_right_continuity_probe(self, R, full):
        # at a non-jumping point, adding p^-k for large k leaves tau unchanged
        base = ch.tau_mixed(pair(R, ("x*y", F(1, 2))), full)
        bumped = ch.tau_mixed(pair(R, ("x*y", F(1, 2) + F(1, 3 ** 6))), full)
        assert ch.ideal_eq(base, bumped)

    def test_period_longer_than_two_steps(self, R, full):
        # ord_11(3) = 5: the chain for 7/11 sits at (x, y) for three steps
        # before it reaches (1); fpt(x^2+y^3) = 2/3 > 7/11
        assert ch.tau_mixed(pair(R, ("x^2+y^3", F(7, 11))), full).is_unit()
        # Skoda: tau(f^(18/11)) = f tau(f^(7/11)) = (f)
        tau = ch.tau_mixed(pair(R, ("x^2+y^3", F(18, 11))), full)
        assert tau.basis_strings() == ("y^3 + x^2",)

    def test_empty_pair_rejected(self, R, full):
        with pytest.raises(ValueError, match="at least one ideal"):
            MixedPair.of([])
        with pytest.raises(ValueError, match="at least one ideal"):
            ch.tau_mixed(MixedPair((), ()), full)

    def test_twisted_algebra_chain(self, R):
        # principal algebra <kappa o x^3> on (x*y)^(1/3): by hand,
        # e=1: kappa(x^3 * xy) = (x); e=2,3 repeat (x); tau = (x)
        C = CartierAlgebraSpec.from_twists(R, [(1, R.poly("x^3"))])
        tau = ch.tau_mixed(pair(R, ("x*y", F(1, 3))), C)
        assert tau.basis_strings() == ("x",)


HOWALD_IDEALS = [((1, 0), (0, 1)), ((2, 0), (0, 3)), ((2, 0), (0, 5)),
                 ((1, 0), (0, 2)), ((3, 0), (1, 1), (0, 3)),
                 ((4, 0), (1, 2), (0, 3)), ((2, 0), (1, 1), (0, 2))]
HOWALD_EXPONENTS = [F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(1),
                    F(6, 5), F(5, 4), F(4, 3), F(7, 5), F(3, 2), F(5, 3)]


class TestHowaldMonomial:
    """Monomial ideals against Howald's formula, tau(a^t) = (x^v : v + 1 in
    the interior of t Newt(a)), which holds in every characteristic
    (Hara-Yoshida 2003, Thm 4.8): tau is (1) for t below lct(a).  The grid
    holds the two exponents where the two-step chain stopped at (x, y) at
    p = 2, and the four where it ran for more than 20 s at p = 3."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("exps", HOWALD_IDEALS)
    def test_grid(self, p, exps):
        R = ring(p)
        full = CartierAlgebraSpec.full_algebra(R)
        a = Ideal(R, [R.monomial(e) for e in exps])
        for t in HOWALD_EXPONENTS:
            started = time.perf_counter()
            tau = ch.tau_mixed(MixedPair.of([(a, t)]), full)
            assert time.perf_counter() - started < 1, t
            assert ch.ideal_eq(tau, howald(R, (exps, t))), t

    @pytest.mark.parametrize("gens, t", [
        (("x^2", "y^5"), F(2, 3)),  # lct = 1/2 + 1/5 = 7/10
        (("x", "y^2"), F(7, 5)),    # lct = 1 + 1/2 = 3/2
    ])
    def test_below_lct_is_unit(self, gens, t):
        R = ring(2)
        full = CartierAlgebraSpec.full_algebra(R)
        tau = ch.tau_mixed(MixedPair.of([(I(R, *gens), t)]), full)
        assert tau.is_unit()

    def test_memory_stays_small(self, monkeypatch):
        # the chain built (x^4, xy^2, y^3)^ceil(t 3^e) in full, so its
        # memory grew like p^e; the carry walk never builds a power of a
        monkeypatch.setattr(cartier, "_tau_cache", {})
        R = ring(3)
        pr = MixedPair.of([(I(R, "x^4", "x*y^2", "y^3"), F(7, 5))])
        tracemalloc.start()
        try:
            tau = ch.tau_mixed(pr, CartierAlgebraSpec.full_algebra(R))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20, peak
        assert ch.ideal_eq(tau, howald(R, (((4, 0), (1, 2), (0, 3)), F(7, 5))))


def _order(q, b):
    r = 1
    while (q ** r - 1) % b:
        r += 1
    return r


def _inner(values, k):
    """k entries of ``values`` spread evenly, leaving out both ends."""
    return [values[(i + 1) * len(values) // (k + 1)] for i in range(k)]


def assert_matches_chain(pr, C):
    """``tau_mixed`` against the chain run far past its period: conf =
    2r + 2 for r = ord_b(q) and b the part of the exponents' denominators
    prime to p."""
    p = pr.ring.p
    b = lcm(*(t.denominator for t in pr.exponents))
    while b % p == 0:
        b //= p
    want = _tau_chain(pr, C, 2 * _order(p ** C.degree(), b) + 2, 80)
    assert ch.ideal_eq(ch.tau_mixed(pr, C), want), pr.exponents


# Non-principal and mixed pairs, each as (generators, exponent) per ideal,
# on which the chain at conf = 2r + 2 finishes in under 1 s; on most other
# draws from the same ideals and exponents it runs for longer, often far
# longer, as its powers grow like p^e.
CHAIN_CASES = {
    (2, "1"): [((("x", "y^2"), "3/2"),), ((("x^2", "y^3"), "5/4"),),
               ((("x^2+y", "x*y^2"), "4/5"),),
               ((("x", "y^2"), "3/4"), (("x+y",), "4/3")),
               ((("x^2+y^3",), "4/3"), (("x", "y"), "1/3")),
               ((("x^2+y^3",), "3/2"), (("x", "y"), "5/6"))],
    (3, "1"): [((("x", "y^2"), "4/3"),), ((("x^2+y", "x*y^2"), "4/5"),),
               ((("x", "y"), "5/3"),),
               ((("x^2+y^3",), "4/3"), (("x", "y"), "1/3"))],
    (2, "x^3"): [((("x", "y^2"), "3/2"),), ((("x^2", "y^3"), "5/4"),),
                 ((("x", "y"), "5/3"),), ((("x^2+y", "x*y^2"), "1/2"),),
                 ((("x", "y^2"), "3/4"), (("x+y",), "4/3")),
                 ((("x^2+y^3",), "4/3"), (("x", "y"), "1/3"))],
    (3, "x^3"): [((("x", "y^2"), "3/2"),), ((("x", "y"), "4/3"),),
                 ((("x^2+y^3",), "4/3"), (("x", "y"), "1/3"))],
    (2, "x,y"): [((("x", "y^2"), "3/2"),), ((("x^2", "y^3"), "5/4"),),
                 ((("x", "y"), "4/3"),),
                 ((("x", "y^2"), "3/4"), (("x+y",), "4/3")),
                 ((("x^2+y^3",), "4/3"), (("x", "y"), "1/3"))],
    (3, "x,y"): [((("x", "y^2"), "4/3"),), ((("x", "y"), "5/3"),),
                 ((("x^2+y", "x*y^2"), "4/5"),),
                 ((("x^2+y^3",), "4/3"), (("x", "y"), "1/3"))],
    (2, "2:x^5*y"): [((("x^2+y^3",), "4/3"), (("x", "y"), "1/3"))],
    (3, "2:x*y"): [((("x", "y"), "5/3"),), ((("x^2+y", "x*y^2"), "4/5"),)],
}


def chain_cases(full):
    """The (p, twists, cases) of CHAIN_CASES for the full algebra "1" or
    for the others; a twist list is "e:g,g" or "g,g" for degree 1."""
    return [pytest.param(p, tw, cases, id=f"{p}-{tw}")
            for (p, tw), cases in CHAIN_CASES.items() if (tw == "1") == full]


def chain_pair(R, cases, tw):
    degree, _, gs = tw.rpartition(":")
    C = CartierAlgebraSpec.from_twists(
        R, [(int(degree or 1), R.poly(g)) for g in gs.split(",")])
    pairs = [MixedPair.of([(I(R, *gens), F(t)) for gens, t in case])
             for case in cases]
    return C, pairs


class TestExactPathAgainstChain:
    """The exact path against the chain run far past its period
    (conf = 2r + 2 with r = ord_b(p)).  The oracle's exponents grow like
    p^(3r), which rules out p = 7 with b = 5 and limits each (p, b, f) to five
    exponents; the sample skips t near 0 and 2."""

    @pytest.mark.parametrize("p,b", [(3, 5), (3, 7), (3, 11), (3, 13), (5, 3),
                                     (5, 4), (5, 6), (7, 3), (7, 4)])
    @pytest.mark.parametrize("f", ["x^2+y^3", "x*y*(x+y)", "x^2*y+y^4", "x+y"])
    def test_principal(self, p, b, f):
        R = ring(p)
        full = CartierAlgebraSpec.full_algebra(R)
        for den, k in ((b, 3), (b * p, 2)):
            nums = [a for a in range(1, 2 * den) if gcd(a, b) == 1]
            for a in _inner(nums, k):
                assert_matches_chain(pair(R, (f, F(a, den))), full)

    @pytest.mark.parametrize("b", [4, 5, 13])
    def test_mixed_pair(self, R, full, b):
        nums = [a for a in range(2 * b) if gcd(a, b) == 1]
        for a1 in _inner(nums, 3):
            for a2 in _inner(nums, 3):
                assert_matches_chain(
                    pair(R, ("x+y", F(a1, b)), ("x*y", F(a2, b))), full)

    @pytest.mark.parametrize("p,tw,cases", chain_cases(full=True))
    def test_non_principal(self, p, tw, cases):
        C, pairs = chain_pair(ring(p), cases, tw)
        for pr in pairs:
            assert_matches_chain(pr, C)


def _oracle_exponents(dens):
    """Two exponents a/den < 2 per denominator, leaving out 0 and 2."""
    out = []
    for den in dens:
        nums = [a for a in range(1, 2 * den) if gcd(a, den) == 1]
        out += [F(a, den) for a in _inner(nums, 2)]
    return out


class TestCertifiedTwistedAgainstChain:
    """The exact path under trace twists against the chain run far past
    its period (conf = 2r + 2, r = ord_b(q)).  Denominators are chosen so
    that (3r + 3) e0 plus the p-depth stays at most 9 at p = 3 and 13 at
    p = 2, which keeps the chain's powers small."""

    @pytest.mark.parametrize("p,twists,dens", [
        (3, [(1, "2")], (1, 2, 3, 4, 6, 8, 9, 18, 27)),
        (3, [(1, "x^3")], (1, 2, 3, 4, 6, 8, 9, 18, 27)),
        (3, [(1, "x"), (1, "y")], (1, 2, 3, 4, 6, 8, 9, 18, 27)),
        (3, [(1, "x+y")], (1, 2, 3, 4, 6, 8, 9, 18, 27)),
        (2, [(1, "x^3")], (1, 2, 3, 4, 6, 7, 8, 12, 14)),
        (2, [(1, "x^4")], (1, 2, 3, 4, 6, 7, 8, 12, 14)),
        (2, [(2, "x")], (1, 2, 3, 6)),
        (2, [(2, "x^5*y")], (1, 2, 3, 6)),
    ])
    def test_against_chain(self, p, twists, dens):
        R = ring(p)
        C = CartierAlgebraSpec.from_twists(R, [(e, R.poly(g)) for e, g in twists])
        ts = _oracle_exponents(dens)
        cases = [pair(R, (f, t)) for t in ts for f in ("x^2+y^3", "x*y*(x+y)")]
        cases += [pair(R, ("x+y", t), ("x*y", u)) for t, u in zip(ts, ts[1:])]
        for pr in cases:
            assert_matches_chain(pr, C)

    @pytest.mark.parametrize("p,tw,cases", chain_cases(full=False))
    def test_non_principal(self, p, tw, cases):
        C, pairs = chain_pair(ring(p), cases, tw)
        for pr in pairs:
            assert_matches_chain(pr, C)

    def test_unit_twist_is_the_full_algebra(self, R, full):
        one = CartierAlgebraSpec.from_twists(R, [(1, R.one())])
        assert one.cache_key() == full.cache_key()
        C = CartierAlgebraSpec.from_twists(R, [(1, R.poly("2"))])
        assert C.cache_key() != full.cache_key()
        assert C.degree() == 1 and C.fixes_unit()
        for t in (F(1, 2), F(4, 13), F(7, 9), F(17, 13)):
            pr = pair(R, ("x^2+y^3", t))
            assert ch.ideal_eq(ch.tau_mixed(pr, C), ch.tau_mixed(pr, full)), t


def test_cartier_keeps_no_chain():
    # every pair takes the one carry walk; the chain is the tests' oracle
    assert not hasattr(cartier, "_tau_chain")
    assert not hasattr(cartier, "_CHAIN_CONF")


class TestNonPrincipalOracles:
    """Closed forms that hold for every ideal, on ideals with several
    generators."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_skoda(self, p):
        # tau(a^t) = a tau(a^(t-1)) once t >= 2, the number of generators
        R = ring(p)
        full = CartierAlgebraSpec.full_algebra(R)
        a = I(R, "x^2+y", "x*y^2")
        for t in (F(2), F(9, 4), F(5, 2), F(8, 3), F(3)):
            lhs = ch.tau_mixed(MixedPair.of([(a, t)]), full)
            rhs = ch.tau_mixed(MixedPair.of([(a, t - 1)]), full)
            assert ch.ideal_eq(lhs, ch.product(a, rhs)), t

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_maximal_ideal(self, p):
        # tau((x, y)^t) = (x, y)^(floor(t) - 1) for t >= 1
        R = ring(p)
        full = CartierAlgebraSpec.full_algebra(R)
        m = I(R, "x", "y")
        for t in (F(1), F(4, 3), F(3, 2), F(2), F(7, 3), F(5, 2), F(3),
                  F(17, 5)):
            tau = ch.tau_mixed(MixedPair.of([(m, t)]), full)
            assert ch.ideal_eq(tau, ch.power(m, int(t) - 1)), t

    def test_zero_ideal(self, R, full):
        zero = Ideal(R, [])
        assert ch.tau_mixed(MixedPair.of([(zero, 0)]), full).is_unit()
        for t in (F(1, 3), F(1), F(5, 2)):
            assert ch.tau_mixed(MixedPair.of([(zero, t)]), full).is_zero()
            mixed = MixedPair.of([(I(R, "x+y"), F(1, 2)), (zero, t)])
            assert ch.tau_mixed(mixed, full).is_zero()
        mixed = MixedPair.of([(zero, 0), (I(R, "x*y"), F(3, 2))])
        assert ch.tau_mixed(mixed, full).basis_strings() == ("x*y",)

    def test_zero_exponent_leaves_the_ideal_out(self, R, full):
        pr = MixedPair.of([(I(R, "x", "y^2"), 0), (I(R, "x^2+y^3"), F(5, 7))])
        want = ch.tau_mixed(pair(R, ("x^2+y^3", F(5, 7))), full)
        assert ch.ideal_eq(ch.tau_mixed(pr, full), want)


class TestReducedGenerators:
    """An ideal whose reduced basis is shorter than its generator list is
    walked by that basis: one automaton for every presentation."""

    def test_padding_leaves_answers_and_automaton(self, monkeypatch, R, full):
        from charp.regions import raster_csv
        monkeypatch.setattr(cartier, "_tau_cache", {})
        # the reduced basis, in its own order, and the same ideal padded
        # with members: y (x^2 + y) and y^3 (x^2 + 1)
        a = Ideal(R, I(R, "x^2+y", "y^3").groebner())
        padded = I(R, "x^2+y", "y^3", "x^2*y+y^2", "x^2*y^3+y^3")
        assert len(padded.groebner()) == 2 < len(padded.gens)
        f = I(R, "x+y")
        for t in (F(1, 2), F(5, 4), F(7, 3)):
            taus = [ch.tau_mixed(MixedPair.of([(b, t), (f, F(1, 3))]), full)
                    for b in (a, padded)]
            assert taus[0].groebner() == taus[1].groebner(), t
        csvs = [raster_csv(ch.constancy_raster([b, f], 1, 2))
                for b in (a, padded)]
        assert csvs[0] == csvs[1]
        fpts = [ch.fpt_search([(b, F(1, 3))], f, depth=3).candidate
                for b in (a, padded)]
        fpts += [ch.fpt_search([(f, F(1, 3))], b, depth=3).candidate
                 for b in (a, padded)]
        assert fpts[0] == fpts[1] and fpts[2] == fpts[3]
        assert cartier._automaton([padded, f], full) \
            is cartier._automaton([a, f], full)
        assert len(cartier._tau_cache) == 2  # (a, f) and (f, a)

    def test_principal_and_unshortened_ideals_keep_their_generators(self, R):
        for gens in (("2*x+2*y",), ("x^2+y", "x*y^2"), ("y^3", "x^2")):
            b = I(R, *gens)
            assert cartier._walked(b) == b.gens

    def test_three_generator_slice_at_p5(self, monkeypatch):
        # walked by (y^3, x) and (y^2, x), the slice takes 0.01 s; by
        # the given generators it took seconds
        monkeypatch.setattr(cartier, "_tau_cache", {})
        R5 = ring(5)
        full5 = CartierAlgebraSpec.full_algebra(R5)
        pr = MixedPair.of([(I(R5, "y^3+x", "x^3", "x^2+y^3"), F(1, 5)),
                           (I(R5, "x^3", "y^2", "x"), F(5, 4)),
                           (I(R5, "x+y"), 0)])
        started = time.perf_counter()
        assert ch.tau_mixed(pr, full5).is_unit()
        assert time.perf_counter() - started < 1


class TestTheoremBNonPrincipal:
    """The pullback comparison on F_p[u, v] -> F_p[u, v, z] for ideals with
    several generators."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("twists", [[(1, "1")], [(1, "u^3")], [(2, "u")]])
    @pytest.mark.parametrize("gens, t", [
        (("u", "v^2"), F(3, 2)),
        (("u^2+v", "u*v"), F(5, 4)),
        (("u^2", "v^3"), F(7, 9)),
    ])
    def test_theorem_b(self, p, twists, gens, t):
        chart = ch.RelativeChart.build(("u", "v"), ("z",), p)
        Rb = chart.base_ring
        C = CartierAlgebraSpec.from_twists(
            Rb, [(e, Rb.poly(g)) for e, g in twists])
        pr = MixedPair.of([(Ideal(Rb, [Rb.poly(g) for g in gens]), t)])
        assert ch.theorem_b_check(C, pr, chart)


def max_split_terms(monkeypatch):
    """Record the largest term count of a product that a bracket root splits
    (``frobenius._split``, which only bracket roots use), with a fresh tau
    cache; returns a one-element list.  The split's components hold the
    product's terms, each once."""
    from charp import cartier
    monkeypatch.setattr(cartier, "_tau_cache", {})
    most = [0]

    def wrap(split):
        def record(*args):
            comps = split(*args)
            most[0] = max(most[0], sum(map(len, comps.values())))
            return comps
        return record

    patch_in_charp(monkeypatch, "_split", wrap)
    return most


def walk(fs, m, k, J, C):
    """C_k(prod f_i^m_i J) through ``_ClassAutomaton.walk`` on a fresh
    automaton."""
    auto = _ClassAutomaton(tuple((f,) for f in fs), C)
    return auto.classes[auto.walk(m, k, auto.intern(J))]


class TestDigitWalk:
    @pytest.mark.parametrize("start", [("1",), ("x", "y^2"), ("x^2+y",)])
    def test_matches_one_shot_root(self, R, full, start):
        fs = [R.poly("x+y"), R.poly("x*y")]
        J = I(R, *start)
        for k in range(4):
            for m in [(0, 0), (1, 2), (5, 3), (13, 0), (8, 26), (40, 17)]:
                g = ch.pow_poly(fs[0], m[0]) * ch.pow_poly(fs[1], m[1])
                one_shot = Ideal(R, [g * h for h in J.gens])
                if k:
                    one_shot = ch.bracket_root(one_shot, k)
                assert ch.ideal_eq(walk(fs, m, k, J, full), one_shot), (m, k)

    @pytest.mark.parametrize("twists", [[(1, "x^3")], [(1, "x"), (1, "y")],
                                        [(2, "x+y")]])
    def test_twisted_matches_cplus_steps(self, R, twists):
        # C_k(prod f_i^m_i J) as k plain C_+ steps on the whole product
        C = CartierAlgebraSpec.from_twists(R, [(e, R.poly(g)) for e, g in twists])
        fs = [R.poly("x+y"), R.poly("x*y")]
        J = I(R, "x", "y^2")
        for k in range(3):
            for m in [(0, 0), (1, 2), (5, 3), (13, 0), (8, 26), (40, 17)]:
                g = ch.pow_poly(fs[0], m[0]) * ch.pow_poly(fs[1], m[1])
                want = Ideal(R, [g * h for h in J.gens])
                for _ in range(k):
                    want = ch.cplus(want, C)
                assert ch.ideal_eq(walk(fs, m, k, J, C), want), (m, k)

    def test_longer_walks_are_the_automatons(self, R, full):
        # _digit_walk is one C_+ step and takes no step count; a product or
        # a walk over two digits (4 = 1 + 1 * 3) is the automaton's walk
        f, J = R.poly("x+y"), I(R, "1")
        with pytest.raises(TypeError):
            cartier._digit_walk([f], 2, J, full)
        twice = cartier._digit_walk([f], cartier._digit_walk([f], J, full),
                                    full)
        assert ch.ideal_eq(walk([f], [4], 2, J, full), twice)

    def test_fpt_search_stays_small(self, monkeypatch):
        most = max_split_terms(monkeypatch)
        R5 = ring(5)
        res = ch.fpt_search([], I(R5, "x^3+x^2*y+y^3"), depth=6)
        assert res.candidate == F(3, 5)
        assert 0 < most[0] <= 50  # the one-shot root takes 22,681

    def test_psi_steps_stay_small(self, monkeypatch, R, full):
        most = max_split_terms(monkeypatch)
        for b in (5, 7, 11, 13):
            for a in range(1, 2 * b):
                ch.tau_mixed(pair(R, ("x^2+y^3", F(a, b))), full)
        # p-adic depth s > 0 with b = 2: the chain starts from f^ceil(u - n)
        # for n = floor(u), u = t 3^s, not from f^121 at s = 5
        for s in range(1, 6):
            ch.tau_mixed(pair(R, ("x^2+y^3", F(1, 2) - F(1, 3 ** s))), full)
        assert 0 < most[0] <= 20  # the one-shot p^r-th root takes 144

    def test_full_algebra_root_count(self, monkeypatch, R, full):
        # kappa o 1 is one twist like any other, yet does no extra work; the
        # 64 exponents share one automaton, where per-call walks took 552
        # roots, and its memoised products, where each call took two
        # products and a Buchberger run for each (128 products and 138
        # runs in all); the carry walk starts each chain from the unit class
        # and leaves the factor f to its last product
        calls = count_bracket_roots(monkeypatch)
        products = count_products(monkeypatch)
        runs = count_buchberger(monkeypatch)
        first = cusp_sweep(R, full)
        first_bases = [a.groebner() for a in first]
        counts = (len(calls), len(products), len(runs))
        assert 0 < counts[0] <= 6 and 0 < counts[1] <= 4 \
            and 0 < counts[2] <= 11, counts
        again = cusp_sweep(R, full)  # every move is memoised now
        assert [a.groebner() for a in again] == first_bases
        assert (len(calls), len(products), len(runs)) == counts

    def test_warm_sweep_matches_cold_calls(self, monkeypatch, R, full):
        monkeypatch.setattr(cartier, "_tau_cache", {})
        cusp_sweep(R, full)
        warm = cusp_sweep(R, full)
        for t, tau in zip(CUSP_EXPONENTS, warm):
            monkeypatch.setattr(cartier, "_tau_cache", {})
            cold = ch.tau_mixed(pair(R, ("x^2+y^3", t)), full)
            assert tau.groebner() == cold.groebner(), t


CUSP_EXPONENTS = [F(a, b) for b in (5, 7, 11, 13) for a in range(1, 2 * b)
                  if gcd(a, b) == 1]


def cusp_sweep(R, C):
    """tau((x^2+y^3)^(a/b)) for a/b < 2, b in {5, 7, 11, 13}, gcd(a, b) = 1."""
    return [ch.tau_mixed(pair(R, ("x^2+y^3", t)), C) for t in CUSP_EXPONENTS]


def count_products(monkeypatch):
    """Count the products prod a_i^m_i J that ``_ClassAutomaton.product``
    computes, not those its memo answers; returns the list of their
    exponent vectors."""
    calls = []
    real = _ClassAutomaton.product

    def product(self, m, cid):
        if any(m) and (m, cid) not in self._products:
            calls.append(tuple(m))
        return real(self, m, cid)

    monkeypatch.setattr(_ClassAutomaton, "product", product)
    return calls


_SWEPT = {}


def swept_automaton(name):
    """The automaton of x^2+y^3 at p = 3 under the algebra ``name`` after a
    cusp sweep on a fresh store, built once per name."""
    if name not in _SWEPT:
        R = ring()
        C = algebra(R, name)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cartier, "_tau_cache", {})
            cusp_sweep(R, C)
            _SWEPT[name], = cartier._tau_cache.values()
    return _SWEPT[name]


class TestMemoisedProducts:
    """The memoised product walk(m, 0, c) against a fresh product."""

    @given(name=st.sampled_from(["full", "x", "x,y"]),
           m=st.integers(0, 40), pick=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_fresh_product(self, name, m, pick):
        auto = swept_automaton(name)
        c = pick % len(auto.classes)
        fs = [f for f, in auto.gens]
        want = oracle_digit_walk(fs, [m], 0, auto.classes[c], auto.C)
        cid = auto.walk([m], 0, c)
        assert auto.walk((m,), 0, c) == cid  # the memo answers the repeat
        assert auto.classes[cid].groebner() == want.groebner(), (m, c)

    def test_classes_keep_their_reduced_basis(self, monkeypatch):
        auto = swept_automaton("full")
        runs = count_buchberger(monkeypatch)
        bases = [J.groebner() for J in auto.classes]
        assert len(bases) > 1 and not runs
        fresh = [Ideal(J.ring, J.gens).groebner() for J in auto.classes]
        assert bases == fresh


# --- the per-call path that the shared automaton replaced, kept as an oracle --


def oracle_digit_walk(fs, m, k, J, C):
    """C_k(prod f_i^m_i J), one C_+ step per base-q digit of m, lowest digit
    first, with no memo: each step multiplies in one digit and takes one
    q-th root, and the last step multiplies in what is left of m whole."""
    ring = J.ring
    e0 = C.degree()
    q = ring.p ** e0

    def times(g, d, J):
        for f, e in zip(fs, d):
            g = g * ch.pow_poly(f, e)
        return [g * h for h in J.gens]

    def step(d, J):
        gens = [u for gen in C.generators for u in times(gen.twist, d, J)]
        return ch.bracket_root(Ideal(ring, gens), e0)

    if k == 0:
        return Ideal(ring, times(ring.one(), m, J))
    for _ in range(k - 1):
        J = Ideal(ring, list(step([x % q for x in m], J).groebner()))
        m = [x // q for x in m]
    return step(m, J)


def oracle_tau_principal(pr, C, budget=cartier.TAU_BUDGET):
    """The principal path that the carry walk replaced, evaluated from
    scratch: every term, Psi step and final walk is an ``oracle_digit_walk``,
    sums are ``sum_ideal`` and the repeat test is ``ideal_eq``."""
    ring, e0 = pr.ring, C.degree()
    q = ring.p ** e0
    fs = [a.gens[0] for a in pr.ideals]
    s = -(-max(_p_depth(t, ring.p) for t in pr.exponents) // e0)
    u = [t * q ** s for t in pr.exponents]
    b = lcm(*(x.denominator for x in u))
    grows = C.fixes_unit()
    unit = Ideal(ring, [ring.one()])

    def term(ts, e):
        return oracle_digit_walk(fs, [_ceil_mul(t, q ** e) for t in ts], e,
                                 unit, C)

    if b == 1 and grows:
        return term(pr.exponents, s)
    whole = [int(x) for x in u]
    u = [x - n for x, n in zip(u, whole)]
    r = _order(q, b)
    c = [int(x * (q ** r - 1)) for x in u]
    lo = 0 if s or grows else 1
    S = Ideal(ring, [])
    for e in range(lo, lo + (1 if grows else r)):
        S = ch.sum_ideal(S, term(u, e))
    T = S
    for _ in range(budget):
        nxt = oracle_digit_walk(fs, c, r, T, C)
        if not grows:
            nxt = Ideal(ring, list(ch.sum_ideal(S, nxt).groebner()))
        if ch.ideal_eq(nxt, T):
            break
        T = nxt
    else:
        raise ch.BudgetExceeded("oracle chain did not repeat")
    tau = oracle_digit_walk(fs, whole, s, T, C)
    for e in range(1, 1 if grows else s):
        tau = ch.sum_ideal(tau, term(pr.exponents, e))
    return tau


# the full algebra and the twists x, x^3, (x, y) and degree-2 x^5*y
ALGEBRAS = {"full": [(1, "1")], "x": [(1, "x")], "x^3": [(1, "x^3")],
            "x,y": [(1, "x"), (1, "y")], "2:x^5*y": [(2, "x^5*y")]}


def algebra(R, name):
    return CartierAlgebraSpec.from_twists(
        R, [(e, R.poly(g)) for e, g in ALGEBRAS[name]])


def shared_store_cases(R, p):
    """One principal and one mixed pair per exponent a/(b p^j), b in
    {1, 2, 5, 7, 13} and p-depth j <= 2, for two numerators a < 2 b p^j."""
    cases = []
    for b in (1, 2, 5, 7, 13):
        for j in range(3):
            den = b * p ** j
            nums = [a for a in range(1, 2 * den) if gcd(a, den) == 1]
            for a in _inner(nums, 2):
                t = F(a, den)
                cases.append(pair(R, ("x^2+y^3", t)))
                cases.append(pair(R, ("x+y", t), ("x*y", 2 - t)))
    return cases


class TestSharedStoreAgainstPerCallPath:
    """``tau_mixed`` on the shared automaton against the per-call path it
    replaced, with a cold store for every case, one warm store for all
    cases, and a cold store walked in reversed order: the answer must not
    depend on what the store already holds."""

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_grid(self, monkeypatch, p, name):
        R = ring(p)
        C = algebra(R, name)
        cases = shared_store_cases(R, p)
        want = [oracle_tau_principal(pr, C).groebner() for pr in cases]
        cold = []
        for pr in cases:
            monkeypatch.setattr(cartier, "_tau_cache", {})
            cold.append(ch.tau_mixed(pr, C).groebner())
        monkeypatch.setattr(cartier, "_tau_cache", {})
        warm = [ch.tau_mixed(pr, C).groebner() for pr in cases]
        monkeypatch.setattr(cartier, "_tau_cache", {})
        backwards = [ch.tau_mixed(pr, C).groebner() for pr in cases[::-1]]
        for i, pr in enumerate(cases):
            assert cold[i] == warm[i] == backwards[-1 - i] == want[i], \
                pr.exponents

    @given(p=st.sampled_from([2, 3, 5]), name=st.sampled_from(sorted(ALGEBRAS)),
           f=st.sampled_from(["x^2+y^3", "x*y*(x+y)", "x^2*y+y^4", "x+y"]),
           b=st.sampled_from([1, 2, 5, 7, 13]), j=st.integers(0, 2),
           a=st.integers(1, 10 ** 6), mixed=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random(self, p, name, f, b, j, a, mixed):
        R = ring(p)
        C = algebra(R, name)
        den = b * p ** j
        t = F(a % (2 * den), den)
        pr = pair(R, (f, t), ("x*y", 1 - t / 2)) if mixed else pair(R, (f, t))
        want = oracle_tau_principal(pr, C).groebner()
        # whatever earlier examples left in the store, then a cold store
        assert ch.tau_mixed(pr, C).groebner() == want, pr.exponents
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cartier, "_tau_cache", {})
            assert ch.tau_mixed(pr, C).groebner() == want, pr.exponents


class TestStoreBound:
    def test_cap_holds_and_eviction_keeps_answers(self, monkeypatch, R, full):
        store = {}
        monkeypatch.setattr(cartier, "_tau_cache", store)
        cap = cartier.TAU_CACHE_SIZE
        fs = [f"x^{i}+y^{j}" for i in range(2, 12) for j in range(2, 8)]
        assert len(fs) > cap
        first = [ch.tau_mixed(pair(R, (f, F(5, 7))), full) for f in fs]
        assert len(store) == cap
        # insertion order: the oldest automata were dropped
        kept = [key[0][0][0] for key in store]
        assert kept == [R.poly(f) for f in fs[-cap:]]
        again = [ch.tau_mixed(pair(R, (f, F(5, 7))), full) for f in fs]
        assert len(store) == cap
        assert [a.groebner() for a in again] == [a.groebner() for a in first]
        for f, tau in zip(fs, first):
            want = oracle_tau_principal(pair(R, (f, F(5, 7))), full)
            assert ch.ideal_eq(tau, want), f

    def test_every_lookup_reads_the_module_store(self, monkeypatch, R, full):
        # a stand-in dict, as a tracer installs one, sees every lookup
        class Counting(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        store = Counting()
        monkeypatch.setattr(cartier, "_tau_cache", store)
        cusp_sweep(R, full)
        assert store.lookups == 64 and len(store) == 1
        f1, f2 = I(R, "x+y"), I(R, "x*y")
        ch.fpt_search([(f1, F(1, 3))], f2, depth=2)
        ch.jumping_numbers([(f1, F(1, 3))], f2, 1, 2)
        # one lookup each: fpt_search takes its tails from the automaton
        # it looked up, where it took them from one tau_mixed each
        assert len(store) == 2 and store.lookups == 66


def skoda_reduce(pair: MixedPair, i: int):
    """Skoda: tau(..., a_i^t, ...) = a_i tau(..., a_i^(t-1), ...) once t_i
    is at least the number of generators of a_i.  Returns the reduced pair
    and the multiplier ideal a_i."""
    t, n_gens = pair.exponents[i], len(pair.ideals[i].gens)
    if t < n_gens:
        raise ValueError(f"Skoda needs t_i >= {n_gens}, got t_i = {t}")
    exps = pair.exponents[:i] + (t - 1,) + pair.exponents[i + 1:]
    return MixedPair(pair.ideals, exps), pair.ideals[i]


class TestSkodaAndScaling:
    def test_skoda_reduce_examples(self, R, full):
        p1 = pair(R, ("x+y", F(3, 2)))
        reduced, mult = skoda_reduce(p1, 0)
        assert reduced.exponents == (F(1, 2),)
        lhs = ch.tau_mixed(p1, full)
        rhs = ch.product(mult, ch.tau_mixed(reduced, full))
        assert ch.ideal_eq(lhs, rhs)

        p2 = pair(R, ("x*y", F(2)))
        reduced, mult = skoda_reduce(p2, 0)
        assert mult.basis_strings() == ("x*y",)
        assert ch.ideal_eq(ch.tau_mixed(p2, full),
                           ch.product(mult, ch.tau_mixed(reduced, full)))

    def test_skoda_precondition(self, R):
        with pytest.raises(ValueError):
            skoda_reduce(pair(R, ("x+y", F(1, 2))), 0)

    def test_skoda_non_principal(self, R, full):
        # two generators, so the reduction needs t >= 2
        m = Ideal(R, [R.var("x"), R.var("y")])
        p2 = MixedPair.of([(m, F(2))])
        with pytest.raises(ValueError):
            skoda_reduce(MixedPair.of([(m, F(3, 2))]), 0)
        reduced, mult = skoda_reduce(p2, 0)
        lhs = ch.tau_mixed(p2, full)
        rhs = ch.product(mult, ch.tau_mixed(reduced, full))
        assert ch.ideal_eq(lhs, rhs)
        assert lhs.basis_strings() == ("x", "y")

    def test_scale_examples(self, R, full):
        t1 = ch.tau_mixed(pair(R, ("x+y", F(1))), full)
        assert ch.ideal_eq(ch.scale_test_ideal(t1, full),
                           ch.tau_mixed(pair(R, ("x+y", F(1, 3))), full))
        assert ch.scale_test_ideal(I(R, "1"), full).basis_strings() == ("1",)
        assert ch.scale_test_ideal(Ideal(R, []), full).basis_strings() == ()

    def test_scale_loses_the_first_term(self, R):
        # kappa o x^3 has C_+(R) = (x): tau(f^(1/3)) = (x), but C_+ carries
        # tau(f) only to the smaller (x^2, xy)
        C = CartierAlgebraSpec.from_twists(R, [(1, R.poly("x^3"))])
        assert not C.fixes_unit()
        f = "x^2+y^3"
        assert ch.tau_mixed(pair(R, (f, F(1, 3))), C).basis_strings() == ("x",)
        scaled = ch.scale_test_ideal(ch.tau_mixed(pair(R, (f, 1)), C), C)
        assert scaled.basis_strings() == ("x^2", "x*y")

    @pytest.mark.parametrize("twist", ["x", "y^2", "x+y"])
    def test_scaling_law_twisted(self, R, twist):
        C = CartierAlgebraSpec.from_twists(R, [(1, R.poly(twist))])
        assert C.fixes_unit()
        for expr in ("x^2+y^3", "x*y"):
            for t in (F(1, 3), F(1), F(4, 3), F(5, 9), F(4, 5), F(12, 7)):
                lhs = ch.tau_mixed(pair(R, (expr, t / 3)), C)
                rhs = ch.scale_test_ideal(ch.tau_mixed(pair(R, (expr, t)), C), C)
                assert ch.ideal_eq(lhs, rhs), (expr, t)

    def test_scaling_law_grid(self, R, full):
        for expr in ("x+y", "x*y"):
            for t in (F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 9)):
                lhs = ch.tau_mixed(pair(R, (expr, t / 3)), full)
                rhs = ch.scale_test_ideal(ch.tau_mixed(pair(R, (expr, t)), full),
                                          full)
                assert ch.ideal_eq(lhs, rhs)


class TestPullback:
    def test_pulled_action_values(self):
        chart = ch.RelativeChart.build(("t",), ("x",), 3)
        S, Rb = chart.ring, chart.base_ring
        kappa = CartierAlgebraSpec.from_twists(Rb, [(1, Rb.one())])
        assert ch.pullback_cartier(kappa, chart).generators == \
            (TraceTwist(1, S.one()),)
        act = _pulled_action(TraceTwist(1, Rb.one()), chart)
        assert poly_str(act(S.poly("x^2*t^2"))) == "1"
        assert act(S.poly("x^2")).is_zero()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_pulled_action_is_extended_twist(self, p):
        # the paper's relative action of kappa^e o g is kappa_S^e o g on S;
        # exponents 0 or q in g and q - 1 or 2q - 1 in s keep many traces
        # nonzero
        rng = random.Random(p)

        def random_poly(ring, near, q):
            return sum((ring.monomial([rng.choice(near + (rng.randrange(2 * q),))
                                       for _ in ring.names],
                                      rng.randrange(1, p))
                        for _ in range(rng.randrange(1, 6))), ring.zero())

        nonzero = 0
        for fiber in (("x",), ("x", "y")):
            chart = ch.RelativeChart.build(("t", "u"), fiber, p)
            for e in (1, 2):
                q = p ** e
                for _ in range(8):
                    g = random_poly(chart.base_ring, (0, q), q)
                    s = random_poly(chart.ring, (q - 1, 2 * q - 1), q)
                    want = ch.trace(chart.from_base(g) * s, e)
                    act = _pulled_action(TraceTwist(e, g), chart)
                    assert act(s) == want, (fiber, e, g, s)
                    nonzero += not want.is_zero()
        assert nonzero >= 8

    def test_sigma_commutes_with_pullback(self):
        for fiber in (("x",), ("x", "y")):
            chart = ch.RelativeChart.build(("t",), fiber, 3)
            S, Rb = chart.ring, chart.base_ring
            alg = CartierAlgebraSpec.from_twists(Rb, [(1, Rb.poly("t^4"))])
            sig_base = ch.sigma(alg, Ideal(Rb, [Rb.one()]))
            assert sig_base.basis_strings() == ("t",)
            sig_top = ch.sigma(ch.pullback_cartier(alg, chart),
                               Ideal(S, [S.one()]))
            assert ch.ideal_eq(sig_top, chart.extend_ideal(sig_base))

    def test_chart_validates_fiber_basis(self):
        chart = ch.RelativeChart.build(("t",), ("x", "y"), 3)
        assert chart.form == "dx^dy"

    def test_theorem_b_examples(self):
        chart1 = ch.RelativeChart.build(("t",), ("x",), 3)
        chart2 = ch.RelativeChart.build(("t",), ("x", "y"), 3)
        Rb = chart1.base_ring
        full = CartierAlgebraSpec.full_algebra(Rb)
        p_half = MixedPair.of([(Ideal(Rb, [Rb.var("t")]), F(1, 2))])
        p_23 = MixedPair.of([(Ideal(Rb, [Rb.poly("t*(t+1)")]), F(2, 3))])
        p_zero = MixedPair.of([(Ideal(Rb, [Rb.var("t")]), F(0))])
        assert ch.theorem_b_check(full, p_half, chart1)
        assert ch.theorem_b_check(full, p_half, chart2)
        assert ch.theorem_b_check(full, p_23, chart2)
        assert ch.theorem_b_check(full, p_zero, chart1)

    def test_theorem_b_twisted_algebras(self):
        # the commutation also holds for single-degree twisted algebras
        chart1 = ch.RelativeChart.build(("t",), ("x",), 3)
        chart2 = ch.RelativeChart.build(("t",), ("x", "y"), 3)
        Rb = chart1.base_ring
        C1 = CartierAlgebraSpec.from_twists(Rb, [(1, Rb.var("t"))])
        pair1 = MixedPair.of([(Ideal(Rb, [Rb.var("t")]), F(1, 2))])
        assert ch.tau_mixed(pair1, C1).basis_strings() == ("t",)
        assert ch.theorem_b_check(C1, pair1, chart1)
        C2 = CartierAlgebraSpec.from_twists(Rb, [(1, Rb.poly("t^2"))])
        pair2 = MixedPair.of([(Ideal(Rb, [Rb.poly("t+1")]), F(2, 3))])
        assert ch.theorem_b_check(C2, pair2, chart2)

    def test_theorem_b_nontrivial_tau(self):
        # exponent 3/2 > fpt(t) = 1, so both sides are the proper ideal (t)S
        chart = ch.RelativeChart.build(("t",), ("x",), 3)
        Rb = chart.base_ring
        full = CartierAlgebraSpec.full_algebra(Rb)
        p32 = MixedPair.of([(Ideal(Rb, [Rb.var("t")]), F(3, 2))])
        assert ch.theorem_b_check(full, p32, chart)
        tau = ch.tau_mixed(p32, full)
        assert tau.basis_strings() == ("t",)


def test_budget_reported():
    # ord_7(3) = 6: one step reaches (1), and a second is needed to repeat
    R2 = ring(names=("u", "v"))
    full = CartierAlgebraSpec.full_algebra(R2)
    with pytest.raises(ch.BudgetExceeded):
        ch.tau_mixed(pair(R2, ("u*v", F(5, 7))), full, budget=1)
