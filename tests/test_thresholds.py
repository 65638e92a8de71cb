import time
from fractions import Fraction as F
from itertools import product as iproduct
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import charp as ch
from charp import CartierAlgebraSpec, Ideal, MixedPair
from fpt_oracle import oracle_closure, oracle_fpt_search
from work_counts import count_bracket_roots, count_groebner


def ring(p=3):
    return ch.RingCtx(("x", "y"), ch.PrimeModulus(p))


@pytest.fixture(scope="module")
def R():
    return ring()


@pytest.fixture(scope="module")
def family(R):
    return Ideal(R, [R.poly("x+y")]), Ideal(R, [R.poly("x*y")])


class TestFptSearch:
    # the four worked threshold values: (fixed t1, expected threshold in t2)
    CASES = [(F(1, 3), F(2, 3)), (F(2, 3), F(2, 3)),
             (F(1, 9), F(8, 9)), (F(7, 9), F(5, 9))]

    @pytest.mark.parametrize("t1,expected", CASES)
    def test_worked_values(self, family, t1, expected):
        f1, f2 = family
        res = ch.fpt_search([(f1, t1)], f2, depth=6)
        assert res.candidate == expected
        assert res.lo < expected <= res.hi

    def test_bracket_invariants(self, monkeypatch, family):
        from charp import cartier
        f1, f2 = family
        res = ch.fpt_search([(f1, F(1, 3))], f2, depth=5)
        assert res.lo < res.hi
        assert res.width() == F(1, 3 ** 5)
        monkeypatch.setattr(cartier, "_tau_cache", {})
        full = CartierAlgebraSpec.full_algebra(f1.ring)
        lo_tau = ch.tau_mixed(MixedPair.of([(f1, F(1, 3)), (f2, res.lo)]), full)
        hi_tau = ch.tau_mixed(MixedPair.of([(f1, F(1, 3)), (f2, res.hi)]), full)
        assert lo_tau.is_unit() and not hi_tau.is_unit()

    def test_transcript_is_monotone_consistent(self, family):
        # every recorded unit evaluation sits at or below every non-unit one
        f1, f2 = family
        res = ch.fpt_search([(f1, F(1, 3))], f2, depth=4)
        unit_hash = Ideal(f1.ring, [f1.ring.one()]).content_hash()
        units = [t for t, h in res.transcript if h == unit_hash]
        others = [t for t, h in res.transcript if h != unit_hash]
        assert max(units) < min(others)

    def test_lct_line_consistency(self, family):
        # at even-digit t1 the threshold is the log-canonical line 1 - t1/2
        f1, f2 = family
        for t1 in (F(0), F(2, 3), F(80, 81)):
            res = ch.fpt_search([(f1, t1)], f2, depth=6)
            assert res.candidate == 1 - t1 / 2
        # at t1 = 1 the fixed slice itself has tau = (x+y) != (1), so the
        # region never reaches the right edge and the search must refuse
        with pytest.raises(ch.ThresholdError):
            ch.fpt_search([(f1, F(1))], f2, depth=3)

    @pytest.mark.parametrize("p,t1,expected", [
        (5, F(1, 5), F(4, 5)), (5, F(2, 5), F(4, 5)), (5, F(3, 5), F(3, 5)),
        (5, F(1, 25), F(24, 25)), (7, F(1, 7), F(6, 7)),
    ])
    def test_other_primes(self, p, t1, expected):
        # odd left endpoints give 1 - (a+1)/(2p); even digits give the
        # log-canonical line; both at arbitrary odd primes
        Rp = ring(p)
        f1 = Ideal(Rp, [Rp.poly("x+y")])
        f2 = Ideal(Rp, [Rp.poly("x*y")])
        res = ch.fpt_search([(f1, t1)], f2, depth=4)
        assert res.candidate == expected

    def test_not_f_regular_at_zero(self, R):
        f = Ideal(R, [R.poly("x*y")])
        with pytest.raises(ch.ThresholdError):
            ch.fpt_search([(f, F(2))], Ideal(R, [R.poly("x+y")]), depth=3)

    def test_staircase_slices_share_one_automaton(self, monkeypatch, family):
        # the four slices walk the one automaton of (x+y, xy); searched one
        # by one on automata of their own they took 19, 19, 20 and 20 roots,
        # and closing the tails under every digit took 18 for the first
        # slice and none after it
        from charp import cartier
        calls = count_bracket_roots(monkeypatch)
        f1, f2 = family
        roots = []
        for t1, expected in self.CASES:
            assert ch.fpt_search([(f1, t1)], f2, depth=6).candidate == expected
            roots.append(len(calls))
        assert 0 < roots[0] <= 8 and roots[-1] <= 12
        assert len(cartier._tau_cache) == 1

    def test_threshold_avoidance_probe_logged(self, family):
        # the observed avoidance of (a/q, a/(q-1)) windows is recorded but
        # deliberately NOT asserted
        from charp.thresholds import avoidance_windows
        f1, f2 = family
        log = []
        for t1, _ in self.CASES:
            res = ch.fpt_search([(f1, t1)], f2, depth=6)
            log.append((str(res.candidate),
                        avoidance_windows(res.candidate, 3)))
        print("avoidance probe:", log)
        assert len(log) == len(self.CASES)


def cusp_fpt(p):
    """fpt(x^2+y^3) at p >= 5 (Mustata-Takagi-Watanabe 2005)."""
    return F(5, 6) if p % 6 == 1 else F(5 * p - 1, 6 * p)


def lines_fpt(p):
    """fpt(xy(x+y)) at p >= 5: three lines through the origin."""
    return F(2, 3) if p % 3 == 1 else F(2 * p - 1, 3 * p)


def diagonal_fpt(exps, p):
    """fpt(x_1^a_1 + ... + x_n^a_n) for p dividing no a_i (Hernandez,
    F-invariants of diagonal hypersurfaces, Proc. AMS 2015): with L + 1 the
    first position e >= 1 where the e-th base-p digits of the 1/a_i sum to
    p or more, fpt = sum_i trunc_L(1/a_i) + p^-L; sum_i 1/a_i if they never
    do.  The digits repeat with period ord_a(p), so positions up to the
    product of the a_i decide."""
    def digit(a, e):
        return p ** e // a % p

    for e in range(1, prod(exps) + 1):
        if sum(digit(a, e) for a in exps) >= p:
            return sum(F(p ** (e - 1) // a, p ** (e - 1))
                       for a in exps) + F(1, p ** (e - 1))
    return sum(F(1, a) for a in exps)


def ideal(R, *gens):
    return Ideal(R, [R.poly(g) for g in gens])


def tau_at(fixed, free, t):
    pair = MixedPair.of(list(fixed) + [(free, t)])
    return ch.tau_mixed(pair, CartierAlgebraSpec.full_algebra(free.ring))


def unit_at(fixed, free, t):
    return tau_at(fixed, free, t).is_unit()


class TestExactThresholds:
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
    @pytest.mark.parametrize("expr,closed_form", [("x^2+y^3", cusp_fpt),
                                                  ("x*y*(x+y)", lines_fpt)])
    def test_closed_forms(self, p, expr, closed_form):
        # half of these denominators are prime to p, which no finite
        # p-adic search can name
        Rp = ring(p)
        res = ch.fpt_search([], Ideal(Rp, [Rp.poly(expr)]), depth=2)
        assert res.candidate == closed_form(p)
        assert res.lo < res.candidate <= res.hi

    @pytest.mark.parametrize("expr", ["x^2+y^3", "x*y*(x+y)"])
    def test_closed_form_roots(self, monkeypatch, expr):
        # the tails are closed under the chosen digits only; closing them
        # under every digit in [0, 5) took 10 roots
        R5 = ring(5)
        calls = count_bracket_roots(monkeypatch)
        ch.fpt_search([], Ideal(R5, [R5.poly(expr)]), depth=2)
        assert 0 < len(calls) <= 7

    def test_mixed_slice(self, monkeypatch):
        from charp import cartier
        R5 = ring(5)
        f1 = Ideal(R5, [R5.poly("x+y")])
        f2 = Ideal(R5, [R5.poly("x*y")])
        res = ch.fpt_search([(f1, F(1, 2))], f2, depth=3)
        assert res.candidate == F(3, 4)
        monkeypatch.setattr(cartier, "_tau_cache", {})
        assert not unit_at([(f1, F(1, 2))], f2, F(3, 4))
        assert unit_at([(f1, F(1, 2))], f2, F(3, 4) - F(1, 5 ** 6))

    @pytest.mark.parametrize("p,expected", [(2, F(1, 2)), (3, F(2, 3))])
    def test_cusp_at_small_primes(self, p, expected):
        # Hernandez: fpt(x^2+y^3) is 1/2 at p = 2 and 2/3 at p = 3, where
        # ``cusp_fpt`` does not apply
        Rp = ring(p)
        res = ch.fpt_search([], ideal(Rp, "x^2+y^3"), depth=3)
        assert res.candidate == expected
        assert res.lo < expected <= res.hi

    def test_diagonal_at_large_p(self):
        # the digits of 1/3, 1/4, 1/5 in base 89 are 29, 22, 17 and then
        # 59, 22, 71, which carry: fpt = (29 + 22 + 17 + 1)/89.  Each
        # Cartier step takes f^s for every digit s < 89, one product each
        R89 = ch.RingCtx(("x", "y", "z"), ch.PrimeModulus(89))
        res = ch.fpt_search([], ideal(R89, "x^3+y^4+z^5"), depth=6)
        assert res.candidate == diagonal_fpt((3, 4, 5), 89) == F(69, 89)

    def test_unit_free_ideal_has_no_threshold(self, R):
        with pytest.raises(ch.ThresholdError):
            ch.fpt_search([], Ideal(R, [R.poly("2")]), depth=2)

    @given(p=st.sampled_from([2, 3, 5, 7, 11, 13]),
           mons=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                         min_size=2, max_size=2, unique=True),
           c=st.integers(1, 12), depth=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_random_binomials(self, p, mons, c, depth):
        Rp = ring(p)
        (a, b), (d, e) = mons
        c = c % (p - 1) + 1
        free = Ideal(Rp, [Rp.poly(f"x^{a}*y^{b} + {c}*x^{d}*y^{e}")])
        res = ch.fpt_search([], free, depth)
        t = res.candidate
        assert 0 < t <= 1
        assert res.hi - res.lo == F(1, p ** depth)
        # the oracle, tau_mixed on a store of its own: the candidate is
        # where tau leaves (1), and the bracket is the pair of neighbours on
        # the grid p^-depth that tau separates
        from charp import cartier
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cartier, "_tau_cache", {})
            assert not unit_at([], free, t)
            assert unit_at([], free, max(res.lo, t - F(1, p ** (depth + 2))))
            assert unit_at([], free, res.lo) and not unit_at([], free, res.hi)


class TestNonPrincipalThresholds:
    # mixed Howald (Hara-Yoshida 2003) for monomial ideals: (fixed ideal,
    # exponent, free ideal, threshold), the fixed ideal None for none
    HOWALD = [(None, 0, ("x", "y"), F(2)), (None, 0, ("x", "y^2"), F(3, 2)),
              (None, 0, ("x^2", "y^3"), F(5, 6)),
              (None, 0, ("x^2", "x*y", "y^2"), F(1)),
              (("x",), F(1, 2), ("x", "y"), F(3, 2)),
              (("x", "y"), F(1), ("x",), F(1))]

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("case", range(len(HOWALD)))
    def test_howald(self, p, case):
        gens, t, free, expected = self.HOWALD[case]
        Rp = ring(p)
        fixed = [] if gens is None else [(ideal(Rp, *gens), t)]
        started = time.perf_counter()
        res = search_outcome(ch.fpt_search, fixed, ideal(Rp, *free), 3)
        assert time.perf_counter() - started < 2
        assert res.candidate == expected
        assert res.lo < expected <= res.hi

    def test_integer_part_is_tested_below_the_skoda_bound(self, R):
        # tau((x, y)^n) is (1) at n = 0 and 1; Skoda puts n = 2 in (x, y)
        res = ch.fpt_search([], ideal(R, "x", "y"), 2)
        unit = Ideal(R, [R.one()]).content_hash()
        assert res.transcript[:2] == ((F(0), unit), (F(1), unit))
        assert all(t > 1 for t, _ in res.transcript[2:])

    def test_zero_free_ideal(self, R):
        res = ch.fpt_search([], Ideal(R, [R.poly("0")]), 2)
        assert (res.lo, res.hi, res.candidate) == (0, F(1, 9), 0)
        assert starts(ch.jumping_numbers([], Ideal(R, []), 1, 2)) == [F(1, 9)]

    def test_zero_fixed_ideal_is_not_f_regular(self, R):
        with pytest.raises(ch.ThresholdError, match="not F-regular"):
            ch.fpt_search([(Ideal(R, []), F(1, 2))], ideal(R, "x", "y"), 2)

    @given(p=st.sampled_from([2, 3, 5]),
           gens=st.lists(st.lists(st.tuples(st.integers(0, 3),
                                            st.integers(0, 3)),
                                  min_size=1, max_size=2, unique=True),
                         min_size=2, max_size=2),
           depth=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_first_break_of_the_jumping_numbers(self, p, gens, depth):
        # c <= 2 for two generators, so the runs on [0, 2] leave (1) at
        # the grid point ceil(c p^depth) / p^depth, which the bracket holds
        Rp = ring(p)
        free = Ideal(Rp, [Rp.poly(" + ".join(f"x^{a}*y^{b}" for a, b in g))
                          for g in gens])
        if free.is_unit():
            return
        res = search_outcome(ch.fpt_search, [], free, depth)
        P = p ** depth
        first = starts(ch.jumping_numbers([], free, 2, depth))[0]
        assert first == F(-(-res.candidate.numerator * P
                            // res.candidate.denominator), P)
        assert res.lo < first <= res.hi


def starts(runs):
    """The left endpoints of every run of ``jumping_numbers`` after the
    first: its breakpoints."""
    return [start for start, _, _ in runs[1:]]


def search_outcome(search, fixed, free, depth):
    """The ``ThresholdResult`` of ``search`` on a fresh automaton store, or
    the message of the ``ThresholdError`` it raised."""
    from charp import cartier
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cartier, "_tau_cache", {})
        try:
            return search(fixed, free, depth)
        except ch.ThresholdError as err:
            return str(err)


class TestAgainstAllDigitOracle:
    # fpt_search closes its tails under the digits it chooses; the oracle
    # closes them under every digit vector in [0, p)^n first

    @pytest.mark.parametrize("p,expr,expected", [
        (7, "x^2+y^3", F(5, 6)), (2, "x^3+y^7", F(15, 32)),
        (5, "x^2+y^3", F(4, 5)), (3, "x*y*(x+y)", F(2, 3))])
    def test_curves(self, p, expr, expected):
        Rp = ring(p)
        for depth in range(7):
            res = search_outcome(ch.fpt_search, [],
                                 Ideal(Rp, [Rp.poly(expr)]), depth)
            assert res.candidate == expected
            assert res == search_outcome(oracle_fpt_search, [],
                                         Ideal(Rp, [Rp.poly(expr)]), depth)

    @given(p=st.sampled_from([2, 3, 5, 7]),
           mons=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         min_size=2, max_size=2, unique=True),
           c=st.integers(1, 6),
           fixed=st.sampled_from([None, "x+y", "x^2+y^3", "x*y"]),
           t1=st.sampled_from([F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 9),
                               F(7, 9), F(5, 6), F(2, 5), F(4, 7), F(1)]),
           free=st.sampled_from(["binomial", "x*y", "x+y"]),
           depth=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, p, mons, c, fixed, t1, free, depth):
        Rp = ring(p)
        (a, b), (d, e) = mons
        if free == "binomial":
            free = f"x^{a}*y^{b} + {c % (p - 1) + 1}*x^{d}*y^{e}"
        free = Ideal(Rp, [Rp.poly(free)])
        fixed = [] if fixed is None else [(Ideal(Rp, [Rp.poly(fixed)]), t1)]
        got = search_outcome(ch.fpt_search, fixed, free, depth)
        assert got == search_outcome(oracle_fpt_search, fixed, free, depth)

    @given(p=st.sampled_from([2, 3, 5, 7]),
           mons=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         min_size=2, max_size=2, unique=True),
           c=st.integers(1, 6),
           fixed=st.sampled_from([None, "x+y", "x^2+y^3", "x*y"]),
           t1=st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(5, 6)]))
    @settings(max_examples=30, deadline=None)
    def test_closure_matches_oracle(self, p, mons, c, fixed, t1):
        # on principal ideals a state with one entry, at carry 0, is its
        # class, and a digit move on it is the class step
        from charp import cartier
        Rp = ring(p)
        (a, b), (d, e) = mons
        free = ideal(Rp, f"x^{a}*y^{b} + {c % (p - 1) + 1}*x^{d}*y^{e}")
        fixed = [] if fixed is None else [(ideal(Rp, fixed), t1)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cartier, "_tau_cache", {})
            auto = cartier._automaton([I for I, _ in fixed] + [free],
                                      CartierAlgebraSpec.full_algebra(Rp))
            start = {auto.unit, auto.intern(free),
                     auto.intern(tau_at(fixed, free, F(1, 2)))}
            S = oracle_closure(auto, start)
            zero = (0,) * len(auto.gens)
            digits = list(iproduct(range(p), repeat=len(auto.gens)))
            V = auto.closure({((zero, cid),) for cid in start}, digits)
            assert V == {((zero, cid),) for cid in S}
            U = set(sorted(S)[::2])
            for D in digits:
                assert auto.preimage({((zero, cid),) for cid in U}, D, V) \
                    == {((zero, cid),) for cid in S if auto.step(D, cid) in U}


class TestJumpingNumbers:
    def test_monomial_family(self, R):
        f = Ideal(R, [R.poly("x*y")])
        runs = ch.jumping_numbers([], f, 1, 3)
        assert len(runs) == 2
        (a0, b0, h0), (a1, b1, h1) = runs
        assert (a0, b0) == (F(0), F(26, 27))
        assert (a1, b1) == (F(1), F(1))
        assert h0 == Ideal(R, [R.one()]).content_hash()
        assert h0 != h1

    def test_smooth_divisor_breakpoint_at_one(self, R):
        f = Ideal(R, [R.poly("x+y")])
        runs = ch.jumping_numbers([], f, 1, 3)
        assert starts(runs) == [F(1)]

    def test_degenerate_range(self, R):
        f = Ideal(R, [R.poly("x*y")])
        runs = ch.jumping_numbers([], f, 0, 2)
        assert len(runs) == 1
        assert runs[0][2] == Ideal(R, [R.one()]).content_hash()

    def test_mixed_family_breakpoint(self, R):
        # with (x+y)^(1/3) fixed, the free family over xy jumps at 2/3
        f1 = Ideal(R, [R.poly("x+y")])
        f2 = Ideal(R, [R.poly("x*y")])
        runs = ch.jumping_numbers([(f1, F(1, 3))], f2, 1, 2)
        assert F(2, 3) in starts(runs)

    def test_refinement_never_merges_classes(self, R):
        f = Ideal(R, [R.poly("x+y")])
        coarse = ch.jumping_numbers([], f, 1, 2)
        fine = ch.jumping_numbers([], f, 1, 3)
        assert len({h for _, _, h in fine}) >= len({h for _, _, h in coarse})

    def test_bracket_roots_per_class_not_per_point(self, monkeypatch, R):
        # one tau_mixed per grid point took 1,094 bracket roots here
        from charp import cartier
        real, calls = cartier.bracket_root, []
        monkeypatch.setattr(cartier, "bracket_root",
                            lambda I, e, *J: calls.append(e) or real(I, e, *J))
        monkeypatch.setattr(cartier, "_tau_cache", {})
        runs = ch.jumping_numbers([], Ideal(R, [R.poly("x^2+y^3")]), 1, 5)
        assert starts(runs) == [F(2, 3), F(1)]
        assert 0 < len(calls) <= 20

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("t1", [None, F(5, 7), F(4, 3), "1/p"])
    def test_matches_per_point_tau(self, monkeypatch, p, t1):
        Rp = ring(p)
        free = Ideal(Rp, [Rp.poly("x^2+y^3")])
        if t1 == "1/p":
            t1 = F(1, p)
        fixed = [] if t1 is None else [(Ideal(Rp, [Rp.poly("x+y")]), t1)]
        assert_runs_match_per_point(monkeypatch, fixed, free)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("case", ["free", "fixed", "both"])
    def test_non_principal_matches_per_point_tau(self, monkeypatch, p, case):
        # the digit table walks carry states, so non-principal ideals, free
        # or fixed (at an exponent with p in its denominator and one
        # without), take it like principal ones
        Rp = ring(p)
        xy2, lines = ideal(Rp, "x", "y^2"), ideal(Rp, "x+y")
        if case == "free":
            fixed, free = [(lines, F(1, p))], xy2
        elif case == "fixed":
            fixed, free = [(xy2, F(5, 4))], ideal(Rp, "x^2+y^3")
        else:
            fixed, free = [(xy2, F(1, p)), (lines, F(1, 2))], \
                ideal(Rp, "x", "y")
        assert_runs_match_per_point(monkeypatch, fixed, free)

    def test_hash_collision_is_refused(self, monkeypatch, R):
        monkeypatch.setattr(Ideal, "content_hash", lambda self: "0" * 16)
        with pytest.raises(ch.VerificationError, match="two tau classes"):
            ch.jumping_numbers([], Ideal(R, [R.poly("x*y")]), 1, 2)

    @pytest.mark.parametrize("T,depth", [(F(1), -1), (F(-1), 1), (F(1, 9), 1)])
    def test_bad_grid_rejected(self, R, T, depth):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ch.jumping_numbers([], Ideal(R, [R.poly("x*y")]), T, depth)

    def test_negative_fixed_exponent_rejected(self, R):
        f = Ideal(R, [R.poly("x*y")])
        with pytest.raises(ValueError, match="nonnegative"):
            ch.jumping_numbers([(f, F(-1, 3))], f, 1, 2)


def assert_runs_match_per_point(monkeypatch, fixed, free):
    """``jumping_numbers`` on T in {1, 2, 1/p} and depths up to 2 against
    the runs of one ``tau_mixed`` per grid point, each on a fresh store."""
    from charp import cartier
    p = free.ring.p
    for T in (F(1), F(2), F(1, p)):
        for k in range(1 if T.denominator > 1 else 0, 3):
            monkeypatch.setattr(cartier, "_tau_cache", {})
            runs = ch.jumping_numbers(fixed, free, T, k)
            monkeypatch.setattr(cartier, "_tau_cache", {})
            want = []
            for m in range(int(T * p ** k) + 1):
                t = F(m, p ** k)
                h = tau_at(fixed, free, t).content_hash()
                if want and want[-1][2] == h:
                    want[-1] = (want[-1][0], t, h)
                else:
                    want.append((t, t, h))
            assert runs == want, (T, k)


class TestJumpScaling:
    def test_scaled_jump_confirmed(self, R):
        f = Ideal(R, [R.poly("x*y")])
        # t = 1/3 is not a jump; t = 1 is; both scale soundly
        assert ch.jump_scaling_probe(f, F(1, 3), 3, 4) is True
        assert ch.jump_scaling_probe(f, F(1), 3, 4) is True

    def test_zero_is_trivial(self, R):
        f = Ideal(R, [R.poly("x*y")])
        assert ch.jump_scaling_probe(f, F(0), 1, 3) is True

    def test_out_of_range_is_vacuous(self, R):
        f = Ideal(R, [R.poly("x*y")])
        assert ch.jump_scaling_probe(f, F(1), 1, 3) == "vacuous"


def test_threshold_workload_groebner_work(monkeypatch):
    # the benchmark's thresholds jobs from an empty automaton store: its
    # depth-6 searches at p = 3 and 5 and the 64-exponent cusp sweep.
    # Built from the deduplicated components, the bracket roots made
    # Buchberger reduce 14 S-pairs, 11 of them to 0, most from linearly
    # dependent generators; row-reduced, one pair is left, (x y^3 + x^3,
    # y^4 + x^2 y), whose S-polynomial is 0 as both are multiples of
    # x^2 + y^3.  The 39 bracket roots are one per digit vector and class,
    # as every ideal here is principal.  Principal and monomial classes take
    # their reduced bases in closed form, so the one Buchberger run is the
    # one that reduces that pair
    from math import gcd
    calls = count_bracket_roots(monkeypatch)
    work = count_groebner(monkeypatch)
    R3, R5 = ring(3), ring(5)
    f1, f2 = Ideal(R3, [R3.poly("x+y")]), Ideal(R3, [R3.poly("x*y")])
    for t1 in (F(1, 3), F(2, 3), F(1, 9), F(7, 9)):
        ch.fpt_search([(f1, t1)], f2, depth=6)
    for expr in ("x^2+y^3", "x*y*(x+y)", "x^3+x^2*y+y^3"):
        ch.fpt_search([], Ideal(R5, [R5.poly(expr)]), depth=6)
    cusp = Ideal(R3, [R3.poly("x^2+y^3")])
    for b in (5, 7, 11, 13):
        for a in range(1, 2 * b):
            if gcd(a, b) == 1:
                tau_at([], cusp, F(a, b)).groebner()
    assert (len(work.runs), len(work.spairs), len(work.zero_reductions)) \
        == (1, 1, 1)
    assert len(calls) == 39
