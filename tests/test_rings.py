import pytest
from hypothesis import given, settings, strategies as st

import charp as ch
from charp import poly_str
from charp.rings import EXP_LIMIT


def ring(p=3, names=("x", "y"), laurent=False):
    return ch.RingCtx(tuple(names), ch.PrimeModulus(p), laurent=laurent)


# independent oracle: naive term-by-term multiplication on raw dicts
def naive_mul(a, b, p):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def naive_pow(f, m, p):
    nvars = len(next(iter(f.keys())))
    acc = {(0,) * nvars: 1}
    for _ in range(m):
        acc = naive_mul(acc, f, p)
    return acc


class TestPrimeModulus:
    def test_primality_enforced(self):
        ch.PrimeModulus(2)
        ch.PrimeModulus(2 ** 31 - 1)
        with pytest.raises(ValueError):
            ch.PrimeModulus(9)
        with pytest.raises(ValueError):
            ch.PrimeModulus(1)
        with pytest.raises(ValueError):
            ch.PrimeModulus(2 ** 31 + 11)

    @pytest.mark.parametrize("p", [2, 3, 5, 101])
    def test_scalar_field(self, p):
        mod = ch.PrimeModulus(p)
        for c in range(1, p):
            assert c * mod.inv(c) % p == 1
        with pytest.raises(ZeroDivisionError):
            mod.inv(0)


class TestParser:
    def test_literal(self):
        R = ring()
        assert poly_str(R.poly("x+y")) == "x + y"

    def test_binomial(self):
        R = ring()
        assert poly_str(R.poly("(x+y)^2")) == "x^2 + 2*x*y + y^2"

    def test_laurent_literal(self):
        L = ring(names=("x",), laurent=True)
        assert poly_str(L.poly("x^-1")) == "x^-1"

    def test_negative_exponent_rejected_outside_laurent(self):
        R = ring()
        with pytest.raises(ch.ParseError):
            R.poly("x^-1")

    def test_unknown_variable(self):
        R = ring()
        with pytest.raises(ch.ParseError) as err:
            R.poly("x + z")
        assert "z" in str(err.value)

    def test_syntax_error_carries_position(self):
        R = ring()
        with pytest.raises(ch.ParseError) as err:
            R.poly("x + + y")
        assert err.value.position == 4

    def test_mixed_expression(self):
        R = ring()
        f = R.poly("2*x^2*y + x + 1")
        assert f.coeff((2, 1)) == 2
        assert f.coeff((1, 0)) == 1
        assert f.coeff((0, 0)) == 1

    def test_negative_integer_literal(self):
        R = ring()
        assert poly_str(R.poly("-2*x")) == "x"

    @pytest.mark.parametrize("text", [
        "x+y", "(x+y)^2", "x^2*y + 2*y", "1 + x", "2",
        "x^5*y^3 + 2*x*y + y^2",
    ])
    def test_round_trip(self, text):
        R = ring()
        once = poly_str(R.poly(text))
        assert poly_str(R.poly(once)) == once


class TestPow:
    def test_freshman_dream(self):
        R = ring()
        x, y = R.gens()
        assert poly_str(ch.pow_poly(x + y, 3)) == "x^3 + y^3"
        assert poly_str(ch.pow_poly(x + y, 9)) == "x^9 + y^9"

    def test_fourth_power_against_naive(self):
        # oracle value comes from repeated naive multiplication
        R = ring()
        f = R.poly("x+y")
        expected = naive_pow(dict(f.terms), 4, 3)
        assert ch.pow_poly(f, 4).terms == expected
        assert poly_str(ch.pow_poly(f, 4)) == "x^4 + x^3*y + x*y^3 + y^4"

    @given(m=st.integers(min_value=0, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_everywhere(self, m):
        R = ring(5)
        f = R.poly("x + 2*y + 1")
        assert ch.pow_poly(f, m).terms == naive_pow(dict(f.terms), m, 5)

    def test_huge_exponent_stays_sparse(self):
        R = ring()
        f = ch.pow_poly(R.poly("x+y"), 3 ** 20)
        assert len(f.terms) == 2

    def test_overflow_aborts(self):
        R = ring()
        with pytest.raises(ch.ExponentOverflow):
            ch.pow_poly(R.poly("x"), 2 ** 63)


class TestOverflowBound:
    """Products check the largest |exponent| of each variable, so a product
    whose exponents all fit goes through however large they are."""

    HALF = 2 ** 62

    def test_different_variables_fit(self):
        R = ring()
        x, y = R.monomial((self.HALF, 0)), R.monomial((0, self.HALF))
        want = {(self.HALF, self.HALF): 1}
        assert (x * y).terms == want
        assert x.mul_monomial((0, self.HALF)).terms == want
        assert x.max_abs_exponents() == (self.HALF, 0)

    def test_same_variable_overflows(self):
        R = ring()
        x = R.monomial((self.HALF, 0))
        with pytest.raises(ch.ExponentOverflow):
            x * x
        with pytest.raises(ch.ExponentOverflow):
            x.mul_monomial((self.HALF, 0))
        # the largest y entries of the factors meet in y * y^(2^63 - 1)
        f = R.poly("x + y")
        with pytest.raises(ch.ExponentOverflow):
            f * R.monomial((0, 2 ** 63 - 1))
        assert (f * R.monomial((0, 2 ** 63 - 2))).terms == {
            (1, 2 ** 63 - 2): 1, (0, 2 ** 63 - 1): 1}

    def test_laurent_negative_exponents(self):
        L = ring(laurent=True)
        x, y = L.monomial((-self.HALF, 0)), L.monomial((0, -self.HALF))
        assert (x * y).terms == {(-self.HALF, -self.HALF): 1}
        assert x.mul_monomial((0, -self.HALF)).terms == \
            {(-self.HALF, -self.HALF): 1}
        assert x.max_abs_exponents() == (self.HALF, 0)
        with pytest.raises(ch.ExponentOverflow):
            x * x
        with pytest.raises(ch.ExponentOverflow):
            x.mul_monomial((-self.HALF, 0))

    def test_monomial_out_of_range_refused(self):
        # a product by 1 returns the other factor unchecked, so a monomial
        # past the range is refused where it is built
        for laurent, e in ((False, 2 ** 63), (True, -2 ** 63)):
            R = ring(laurent=laurent)
            with pytest.raises(ch.ExponentOverflow):
                R.monomial((e, 0))
            assert R.monomial((e - (1 if e > 0 else -1), 0))

    def test_zero_polynomial(self):
        R = ring()
        assert R.zero().max_abs_exponents() == (0, 0)
        assert (R.zero() * R.monomial((2 ** 63 - 1, 0))).is_zero()


class TestFrob:
    def test_basic(self):
        R = ring()
        assert poly_str(ch.frob(R.poly("x+y"), 1)) == "x^3 + y^3"
        assert poly_str(ch.frob(R.poly("2*x"), 2)) == "2*x^9"

    def test_laurent(self):
        L = ring(names=("x",), laurent=True)
        assert poly_str(ch.frob(L.poly("x^-1"), 1)) == "x^-3"

    @given(st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_frob_is_pow(self, e):
        R = ring()
        f = R.poly("x^2 + 2*x*y + 2")
        assert ch.frob(f, e) == ch.pow_poly(f, 3 ** e)


class TestDerivative:
    def test_examples(self):
        R = ring()
        assert poly_str(ch.partial_derivative(R.poly("x^2*y"), 0)) == "2*x*y"
        assert ch.partial_derivative(R.poly("x^3"), 0).is_zero()
        L = ring(names=("x",), laurent=True)
        assert poly_str(ch.partial_derivative(L.poly("x^-1"), 0)) == "2*x^-2"


def polys(p, names=("x", "y")):
    R = ring(p, names)
    monos = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return st.dictionaries(monos, st.integers(1, p - 1), max_size=5).map(
        lambda d: ch.Polynomial(R, {m: c for m, c in d.items()}))


@pytest.mark.parametrize("p", [2, 3, 5])
class TestRingAxioms:
    def test_axioms(self, p):
        @given(polys(p), polys(p), polys(p))
        @settings(max_examples=40, deadline=None)
        def check(f, g, h):
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + g == g + f
            assert f - f == f.ring.zero()
        check()

    def test_leibniz(self, p):
        @given(polys(p), polys(p))
        @settings(max_examples=40, deadline=None)
        def check(f, g):
            d = lambda u: ch.partial_derivative(u, 0)
            assert d(f * g) == d(f) * g + f * d(g)
        check()

    def test_print_parse_print_fixed_point(self, p):
        @given(polys(p))
        @settings(max_examples=40, deadline=None)
        def check(f):
            s = poly_str(f)
            assert poly_str(f.ring.poly(s)) == s
        check()


def test_ring_mismatch_rejected():
    a = ring(3).poly("x")
    b = ring(5).poly("x")
    with pytest.raises(ValueError):
        a + b


@st.composite
def factor_pairs(draw):
    """Two factors on one ring at p in {2, 3, 5, 32003}, polynomial or
    Laurent (exponents in [-4, 4]), each the unit 1, one term, or up to
    five terms."""
    p = draw(st.sampled_from([2, 3, 5, 32003]))
    laurent = draw(st.booleans())
    R = ring(p, laurent=laurent)
    lo = -4 if laurent else 0
    monos = st.tuples(st.integers(lo, 4), st.integers(lo, 4))
    coeffs = st.integers(1, p - 1)

    def factor():
        kind = draw(st.sampled_from(["one", "term", "general"]))
        if kind == "one":
            return R.one()
        size = (1, 1) if kind == "term" else (0, 5)
        return ch.Polynomial(R, draw(st.dictionaries(
            monos, coeffs, min_size=size[0], max_size=size[1])))

    return factor(), factor()


class TestProductIdentities:
    """Products by 1 return the other factor, one-term products shift
    exponents; both against the double loop of ``naive_mul``."""

    @given(factor_pairs())
    @settings(max_examples=300, deadline=None)
    def test_products_match_the_double_loop(self, case):
        f, g = case
        want = naive_mul(f.terms, g.terms, f.ring.p)
        assert (f * g).terms == want and (g * f).terms == want
        if f.is_one() and g:  # a factor comes back as it is (g, or f
            # when g is 1 too); a zero factor takes the double loop
            for h in (f * g, g * f):
                assert h is g or h is f and g.is_one()

    def test_unit_and_term_factors(self):
        R = ring(5, laurent=True)
        f = R.poly("x^-1 + 2*y + 3")
        assert R.one() * f is f and f * R.one() is f
        assert (R.poly("3*x*y^-2") * f).terms == \
            {(0, -2): 3, (1, -1): 1, (1, -2): 4}
        assert (R.const(2) * R.const(3)).terms == {(0, 0): 1}

    @given(st.integers(0, 8), st.integers(0, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_one_term_factor_near_the_limit(self, k, top, laurent):
        # x^(EXP_LIMIT - 1 - k) times a factor whose largest x exponent is
        # top overflows exactly when top > k; on Laurent rings the same
        # holds for the negated exponents
        R = ring(3, laurent=laurent)
        s = -1 if laurent else 1
        term = R.monomial((s * (EXP_LIMIT - 1 - k), 0), 2)
        other = ch.Polynomial(R, {(s * top, 1): 1, (0, 0): 2})
        if top > k:
            with pytest.raises(ch.ExponentOverflow):
                term * other
            with pytest.raises(ch.ExponentOverflow):
                other * term
        else:
            assert (term * other).terms == naive_mul(term.terms, other.terms, 3)

    def test_ring_equality_is_by_fields(self):
        a, b = ring(3), ring(3)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != ring(5) and a != ring(3, laurent=True)
        assert a != ring(3, ("x", "z")) and a != "ring"
        assert (a.poly("x+y") * b.poly("x")).terms == {(2, 0): 1, (1, 1): 1}
