import math
import random
import time
import tracemalloc
from itertools import islice, permutations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

import charp as ch
from charp import basischange as bc
from charp import poly_str


def ring(p=3, names=("x", "y"), laurent=False):
    return ch.RingCtx(tuple(names), ch.PrimeModulus(p), laurent=laurent)


class TestJacobian:
    def test_shear(self):
        R = ring()
        J = ch.jacobian([R.poly("x+y"), R.var("y")], R)
        assert [[poly_str(v) for v in row] for row in J.rows] == \
            [["1", "1"], ["0", "1"]]

    def test_power_rule(self):
        R = ring()
        J = ch.jacobian([R.poly("x+y^2"), R.var("y")], R)
        assert [[poly_str(v) for v in row] for row in J.rows] == \
            [["1", "2*y"], ["0", "1"]]
        assert poly_str(J.det()) == "1"

    def test_laurent_inverse(self):
        L = ring(names=("x",), laurent=True)
        J = ch.jacobian([L.poly("x^-1")], L)
        assert poly_str(J.det()) == "2*x^-2"


class TestValidateBasis:
    def test_coordinates(self):
        R = ring()
        assert ch.validate_basis(R.gens(), R) == (True, True)

    def test_cube_fails_both_ways(self):
        R = ring()
        assert ch.validate_basis([R.poly("x^3"), R.var("y")], R) == \
            (False, False)

    def test_shear_with_square(self):
        R = ring()
        assert ch.validate_basis([R.poly("x+y^2"), R.var("y")], R) == \
            (True, True)

    def test_laurent_inverse_is_basis(self):
        L = ring(names=("x",), laurent=True)
        assert ch.validate_basis([L.poly("x^-1")], L) == (True, True)

    def test_relative_chart_candidate(self):
        # over the base t, the single fiber element x + t^2 is a d/p-basis:
        # the Frobenius jacobian is unitriangular over S (x) F_* R
        S = ch.RingCtx(("t", "x"), ch.PrimeModulus(3), n_base=1)
        cand = [S.poly("x + t^2")]
        assert ch.validate_basis(cand, S) == (True, True)
        FJ = ch.frobenius_jacobian(cand, S)
        got = [[poly_str(v) for v in row] for row in FJ.rows]
        assert got == [["1", "t^2", "t^4"], ["0", "1", "2*t^2"],
                       ["0", "0", "1"]]

    def test_budget(self):
        R = ring(names=("x", "y", "z"))
        with pytest.raises(ch.BudgetExceeded):
            ch.frobenius_jacobian(R.gens(), R, 2)


class TestFrobeniusJacobian:
    def test_identity_on_same_basis(self):
        R = ring(names=("x",))
        FJ = ch.frobenius_jacobian([R.var("x")], R)
        for i, row in enumerate(FJ.rows):
            for j, v in enumerate(row):
                assert poly_str(v) == ("1" if i == j else "0")

    def test_identity_size_q_to_n(self):
        R = ring()
        FJ = ch.frobenius_jacobian(R.gens(), R)
        assert FJ.size == 9
        for i, row in enumerate(FJ.rows):
            for j, v in enumerate(row):
                assert v.is_one() if i == j else v.is_zero()

    def test_shift_basis(self):
        # columns decompose 1, x+1, (x+1)^2 over 1, x, x^2
        R = ring(names=("x",))
        FJ = ch.frobenius_jacobian([R.poly("x+1")], R)
        got = [[poly_str(v) for v in row] for row in FJ.rows]
        assert got == [["1", "1", "1"], ["0", "1", "2"], ["0", "0", "1"]]

    def test_laurent_permuted_scaled(self):
        L = ring(names=("x",), laurent=True)
        FJ = ch.frobenius_jacobian([L.poly("x^-1")], L)
        got = [[poly_str(v) for v in row] for row in FJ.rows]
        assert got == [["1", "0", "0"], ["0", "0", "x^-3"], ["0", "x^-3", "0"]]


class TestDualGeneratorRatio:
    def test_same_basis(self):
        R = ring()
        assert poly_str(ch.dual_generator_ratio(R.gens(), R)) == "1"

    def test_shear(self):
        R = ring()
        xi = ch.dual_generator_ratio([R.poly("x+y"), R.var("y")], R)
        assert poly_str(xi) == "1"

    def test_square_shear(self):
        R = ring()
        xi = ch.dual_generator_ratio([R.poly("x+y^2"), R.var("y")], R)
        assert poly_str(xi) == "1"

    def test_laurent_inverse(self):
        L = ring(names=("x",), laurent=True)
        xi = ch.dual_generator_ratio([L.poly("x^-1")], L)
        assert poly_str(xi) == "x^-4"
        det = ch.jacobian([L.poly("x^-1")], L).det()
        assert xi == ch.pow_poly(det, 2)

    def test_higher_level_cocycle_matches_direct(self):
        L = ring(names=("x",), laurent=True)
        for e in (1, 2):
            via_cocycle = ch.dual_generator_ratio([L.poly("x^-1")], L, e)
            direct = ch.dual_ratio_direct([L.poly("x^-1")], L, e)
            assert via_cocycle == direct
            det = ch.jacobian([L.poly("x^-1")], L).det()
            assert via_cocycle == ch.pow_poly(det, 3 ** e - 1)

    def test_scaled_laurent_basis(self):
        # y = 2 x^-1: det J = -2 x^-2 = x^-2, xi = x^-4
        L = ring(names=("x",), laurent=True)
        xi = ch.dual_generator_ratio([L.poly("2*x^-1")], L)
        det = ch.jacobian([L.poly("2*x^-1")], L).det()
        assert xi == ch.pow_poly(det, 2)

    def test_two_variable_laurent_basis(self):
        # {xy, y}: det J = y, a Laurent unit; xi = y^2
        L = ring(names=("x", "y"), laurent=True)
        cand = [L.poly("x*y"), L.var("y")]
        assert ch.validate_basis(cand, L) == (True, True)
        xi = ch.dual_generator_ratio(cand, L)
        assert poly_str(xi) == "y^2"
        assert ch.dual_generator_ratio(cand, L, 2) == \
            ch.dual_ratio_direct(cand, L, 2)

    def test_rejects_non_basis(self):
        R = ring()
        with pytest.raises(ValueError):
            ch.dual_generator_ratio([R.poly("x^3"), R.var("y")], R)


R3 = ring()
REL3 = ch.RingCtx(("t", "x"), ch.PrimeModulus(3), n_base=1)
LAU3 = ring(names=("x",), laurent=True)


@pytest.mark.parametrize("fn, R, cand, e, message", [
    (ch.frobenius_jacobian, R3, "x", 1, "fiber arity"),
    (ch.frobenius_jacobian, R3, "x;y;x+y", 1, "fiber arity"),
    (ch.dual_ratio_direct, R3, "x", 1, "fiber arity"),
    (ch.dual_ratio_direct, R3, "x;y;x", 1, "fiber arity"),
    (ch.dual_ratio_direct, REL3, "x", 1, "absolute charts"),
    (ch.dual_generator_ratio, LAU3, "x^-1", 0, "e must be positive"),
    (ch.dual_generator_ratio, LAU3, "x^-1", -1, "e must be positive"),
    (ch.frobenius_jacobian, LAU3, "x^-1", 0, "e must be positive"),
    (ch.dual_ratio_direct, LAU3, "x^-1", -1, "e must be positive"),
], ids=["jacobian-short", "jacobian-long", "direct-short", "direct-long",
        "direct-relative", "ratio-e0", "ratio-e-1", "jacobian-e0",
        "direct-e-1"])
def test_change_of_basis_refuses(fn, R, cand, e, message):
    """Wrong-size candidates, levels e < 1 and relative charts are refused,
    not truncated by ``zip`` or read as p^e < 1."""
    with pytest.raises(ValueError, match=message):
        fn([R.poly(s) for s in cand.split(";")], R, e)


def rebuilt_operator(dec, idx):
    """The operator at idx, rebuilt here from the paper's form of the
    component: F^e of the root, or the sum of F^e(s) * r over the pairs."""
    ring, comp = dec.ring, dec.component(idx)
    if not ring.n_base:
        return ch.frob(comp, dec.e)
    out = ring.zero()
    for s, r in comp:
        out = out + ch.frob(s, dec.e) * r
    return out


@st.composite
def candidate_charts(draw):
    """(ring, e, candidate): polynomial rings at p = 2, 3, 5, a Laurent ring
    and a relative ring with one base variable; e = 2 in one variable only.
    Half the candidates are triangular p-bases, the rest random lists that
    need not be p-bases."""
    p = draw(st.sampled_from((2, 3, 5)))
    kind = draw(st.sampled_from(("polynomial", "laurent", "relative")))
    e = draw(st.integers(1, 2))
    nf = 1 if e == 2 else draw(st.integers(1, 2))
    fiber = ("x", "y")[:nf]
    names, n_base = (("t",) + fiber, 1) if kind == "relative" else (fiber, 0)
    laurent = kind == "laurent"
    R = ch.RingCtx(names, ch.PrimeModulus(p), laurent=laurent, n_base=n_base)
    if draw(st.booleans()):
        # y_k = c x_k^(+-1) times, or plus, terms in the later fiber
        # variables: a triangular jacobian with unit diagonal, so a p-basis
        cand = []
        for k, name in enumerate(fiber):
            lead = R.var(name).scale(draw(st.integers(1, p - 1)))
            later = R.one()
            for other in fiber[k + 1:]:
                later = later * ch.pow_poly(R.var(other),
                                            draw(st.integers(0, 2)))
            if laurent:
                sign = draw(st.sampled_from((1, -1)))
                cand.append(ch.pow_poly(lead, sign) * later)
            else:
                cand.append(lead + later.scale(draw(st.integers(0, p - 1))))
        return R, e, cand
    low = -2 if laurent else 0
    monos = st.tuples(*[st.integers(low, 2)] * len(names))
    polys = st.dictionaries(monos, st.integers(1, p - 1), min_size=1,
                            max_size=3).map(lambda d: ch.Polynomial(R, d))
    return R, e, draw(st.lists(polys, min_size=nf, max_size=nf))


class TestOperatorForm:
    @given(candidate_charts())
    @settings(max_examples=150, deadline=None)
    def test_frobenius_jacobian_columns(self, chart):
        R, e, cand = chart
        q = R.p ** e
        pad = (0,) * R.n_base
        FJ = ch.frobenius_jacobian(cand, R, e)
        indices = list(iproduct(range(q), repeat=len(cand)))
        assert FJ.size == len(indices)
        for col, j in enumerate(indices):
            yj = R.one()
            for y, k in zip(cand, j):
                yj = yj * ch.pow_poly(y, k)
            dec = ch.decompose(yj, e)
            total = R.zero()
            for row, i in enumerate(indices):
                entry = FJ.rows[row][col]
                assert entry == rebuilt_operator(dec, i)
                total = total + entry.mul_monomial(pad + i)
            assert total == yj
        det = ch.jacobian(cand, R).det()
        if not R.n_base and det.is_unit():
            assert ch.dual_ratio_direct(cand, R, e) == \
                ch.pow_poly(det, q - 1)


class TestXiOperator:
    def test_identity_matrix(self):
        assert ch.xi_operator(((1, 0), (0, 1)), 3) == 1

    def test_diagonal(self):
        for p in (3, 5, 7):
            for c in range(1, p):
                mu = ((c, 0), (0, 1))
                assert ch.xi_operator(mu, p) == pow(c, p - 1, p)

    def test_worked_matrix(self):
        assert ch.xi_operator(((1, 1), (1, 2)), 3) == 1  # det = 1

    def test_singular_matrices_map_to_zero(self):
        for p in (3, 5):
            for mu in [((1, 1), (1, 1)), ((1, 2), (2, 4 % p)), ((0, 0), (0, 0))]:
                if ch.det_mod_p(mu, p) == 0:
                    assert ch.xi_operator(mu, p) == 0

    @pytest.mark.parametrize("mu", [((1, 2),), ((1,), (2,)), (),
                                    ((1, 0), (0,))])
    def test_non_square_rejected(self, mu):
        with pytest.raises(ValueError, match="n x n"):
            ch.xi_operator(mu, 3)
        with pytest.raises(ValueError, match="n x n"):
            ch.det_mod_p(mu, 3)

    def test_det_matches_leibniz(self):
        rng = random.Random(7)
        for p in (2, 3, 5, 7):
            for n in (1, 2, 3, 4):
                for _ in range(40):
                    mu = tuple(tuple(rng.randrange(-9, 10) for _ in range(n))
                               for _ in range(n))
                    want = 0
                    for perm in permutations(range(n)):
                        inversions = sum(a > b for i, a in enumerate(perm)
                                         for b in perm[i + 1:])
                        want += (-1) ** inversions * math.prod(
                            mu[i][perm[i]] for i in range(n))
                    assert ch.det_mod_p(mu, p) == want % p, (mu, p)

    @pytest.mark.parametrize("p", [4, 9, 1, 0])
    def test_det_needs_a_prime_modulus(self, p):
        # det ((2, 1), (1, 1)) = 1, but elimination mod 4 gave 2
        with pytest.raises(ValueError, match="not prime"):
            ch.det_mod_p(((2, 1), (1, 1)), p)
        assert ch.det_mod_p(((2, 1), (1, 1)), 5) == 1

    @given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_det_matches_leibniz_with_zero_pivots(self, p, n, data):
        # entries 0 and +-p force row swaps and pivots that vanish mod p
        entry = st.sampled_from((0, 0, 1, -1, 2, p, -p, 3 * p + 1))
        mu = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(n))
        want = 0
        for perm in permutations(range(n)):
            inversions = sum(a > b for i, a in enumerate(perm)
                             for b in perm[i + 1:])
            want += (-1) ** inversions * math.prod(
                mu[i][perm[i]] for i in range(n))
        assert ch.det_mod_p(mu, p) == want % p
        # the det table of the sweep, on the flat residues
        assert bc._det_flat(tuple(x % p for x in flat(mu)), p, n) == want % p

    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5, 7)
                                     for n in (1, 2)] + [(2, 3), (3, 3)])
    def test_det_table_matches_bareiss_everywhere(self, p, n):
        for m in iproduct(range(p), repeat=n * n):
            assert bc._det_flat(m, p, n) == \
                ch.det_mod_p(bc._rows(m, n), p), m

    def test_transpose_symmetry(self):
        import random
        rng = random.Random(1)
        for p, n in [(3, 2), (5, 2), (3, 3)]:
            for _ in range(25):
                mu = tuple(tuple(rng.randrange(p) for _ in range(n))
                           for _ in range(n))
                muT = tuple(zip(*mu))
                assert ch.xi_operator(mu, p) == ch.xi_operator(muT, p)

    def test_transpose_symmetry_polynomial_entries(self):
        S = ring(3, ("a", "b", "c", "d"))
        mu = [[S.var("a"), S.var("b")], [S.var("c"), S.var("d")]]
        muT = [[S.var("a"), S.var("c")], [S.var("b"), S.var("d")]]
        assert ch.xi_operator_poly(mu, 3) == ch.xi_operator_poly(muT, 3)

    def test_poly_non_square_rejected(self):
        S = ring(3, ("a", "b"))
        a, b = S.var("a"), S.var("b")
        # [[a, b]] gave a^2, silently dropping b; [[a], [b]] and [] died
        # with IndexError
        for mu in ([[a, b]], [[a], [b]], [], [[a, b], [b]]):
            with pytest.raises(ValueError, match="n x n"):
                ch.xi_operator_poly(mu, 3)

    def test_poly_characteristic_must_match(self):
        S = ring(3, ("a", "b"))
        a, b = S.var("a"), S.var("b")
        # p = 5 over F_3 gave a mixed-characteristic sum a^8 + a^6*b^2 + ...
        with pytest.raises(ValueError, match="characteristic 3"):
            ch.xi_operator_poly([[a, b], [b, a]], 5)
        assert ch.xi_operator_poly([[a, b], [b, a]], 3) == \
            ch.pow_poly(a * a - b * b, 2)

    def test_polynomial_identity_full_theorem(self):
        # xi and det^(p-1) agree as polynomials in n^2 symbolic entries
        for p, n in [(3, 2), (5, 2)]:
            names = tuple(f"m{i}{j}" for i in range(n) for j in range(n))
            S = ring(p, names)
            mu = [[S.var(f"m{i}{j}") for j in range(n)] for i in range(n)]
            lhs = ch.xi_operator_poly(mu, p)
            det = ch.PolyMatrix(S, mu).det()
            assert lhs == ch.pow_poly(det, p - 1)


class TestVerifyDetIdentity:
    def test_exhaustive_gl2_f3(self):
        rep = ch.verify_det_identity(3, 2, "exhaustive")
        assert rep.checked == 48
        assert rep.pairs_checked == 48 * 48
        assert rep.ok

    def test_random_gl2_f5(self):
        rep = ch.verify_det_identity(5, 2, "random", count=500, seed=1)
        assert rep.checked == 500 and rep.ok

    def test_random_gl3_f3(self):
        rep = ch.verify_det_identity(3, 3, "random", count=200, seed=2)
        assert rep.checked == 200 and rep.ok

    def test_seeded_reproducibility(self):
        a = ch.verify_det_identity(5, 2, "random", count=50, seed=9)
        b = ch.verify_det_identity(5, 2, "random", count=50, seed=9)
        assert a.checked == b.checked and a.ok == b.ok

    def test_n_equals_one(self):
        # xi(c) = c^(p-1) = det^(p-1) identically in one variable
        for p in (3, 5, 7):
            rep = ch.verify_det_identity(p, 1, "exhaustive")
            assert rep.ok and rep.checked == p - 1

    def test_exhaustive_budget(self):
        with pytest.raises(ch.BudgetExceeded):
            ch.verify_det_identity(101, 3, "exhaustive")

    @pytest.mark.parametrize("p,n,pairs", [
        (3, 3, "126,157,824"), (11, 2, "174,240,000"), (101, 3, None)])
    def test_exhaustive_budget_counts_pairs(self, p, n, pairs):
        # |GL_n(F_p)|^2 pairs; the enumeration guard p^(n^2) <= 10^6 let
        # GL3(F3) and GL2(F11) through, to run for minutes
        start = time.perf_counter()
        with pytest.raises(ch.BudgetExceeded, match=pairs or "pairs"):
            ch.verify_det_identity(p, n, "exhaustive")
        assert time.perf_counter() - start < 0.1

    def test_gl2_f7_is_within_the_budget(self, monkeypatch):
        # 2016^2 = 4,064,256 pairs: the sweep starts (and is stopped at its
        # first determinant instead of running for a second)
        class Started(Exception):
            pass

        def stop(m, p, n):
            raise Started

        monkeypatch.setattr(bc, "_det_flat", stop)
        with pytest.raises(Started):
            ch.verify_det_identity(7, 2, "exhaustive")

    @pytest.mark.parametrize("p,n,count,pinned", [
        (5, 2, 10_000, (10_000, 9_999, 480)),
        (3, 3, 1_000, (1_000, 999, 1_820)),
        (7, 2, 2_000, (2_000, 1_999, 1_743))])
    def test_seeded_reports_pinned(self, p, n, count, pinned):
        rep = ch.verify_det_identity(p, n, "random", count=count, seed=0)
        assert rep.ok
        assert (rep.checked, rep.pairs_checked, rep.distinct) == pinned

    def test_random_mode_keeps_no_sample_list(self):
        # the memos hold at most the 16 matrices of M2(F2); a list of the
        # samples peaked at 18.5 MB here
        tracemalloc.start()
        try:
            rep = ch.verify_det_identity(2, 2, "random", count=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok and rep.checked == 100_000
        assert peak < 1_000_000


class TestXiTermBudget:
    # admissible matrices, so xi terms, of (p, n): the largest targets of
    # ROADMAP item 6
    KEPT = [(7, 4, 132_724), (13, 3, 4_186), (5, 4, 10_147), (3, 5, 6_210)]

    @pytest.mark.parametrize("p,n,size", KEPT)
    def test_kept_tables(self, p, n, size):
        assert size <= bc.XI_TERM_BUDGET
        assert sum(1 for _ in ch.admissible_matrices(p, n)) == size

    @pytest.mark.parametrize("refused", [
        pytest.param(lambda: ch.verify_det_identity(101, 3, "random", count=1),
                     id="sweep-101-3"),
        pytest.param(lambda: ch.verify_det_identity(2 ** 31 - 1, 2, "random",
                                                    count=1),
                     id="sweep-2^31-1-2"),
        pytest.param(lambda: ch.verify_det_identity(3, 9, "random", count=1),
                     id="sweep-3-9"),
        pytest.param(lambda: ch.xi_operator(((1, 0, 0), (0, 1, 0),
                                             (0, 0, 1)), 101),
                     id="xi_operator-101-3"),
        # 13,268,976, 5,045,326 and 202,410 admissible matrices
        pytest.param(lambda: list(ch.admissible_matrices(101, 3)),
                     id="admissible-101-3"),
        pytest.param(lambda: list(ch.admissible_matrices(11, 4)),
                     id="admissible-11-4"),
        pytest.param(lambda: list(ch.admissible_matrices(3, 6)),
                     id="admissible-3-6"),
    ])
    def test_refused_within_seconds(self, refused):
        # each of these ran without end, or out of memory, unbudgeted
        start = time.perf_counter()
        with pytest.raises(ch.BudgetExceeded, match="xi term budget"):
            refused()
        assert time.perf_counter() - start < 5

    def test_budget_counts_yielded_matrices(self, monkeypatch):
        monkeypatch.setattr(bc, "XI_TERM_BUDGET", 21)
        assert len(list(ch.admissible_matrices(3, 3))) == 21
        monkeypatch.setattr(bc, "XI_TERM_BUDGET", 20)
        mats = ch.admissible_matrices(3, 3)
        assert len(list(islice(mats, 20))) == 20
        with pytest.raises(ch.BudgetExceeded):
            next(mats)

    def test_det_table_is_built_after_the_xi_table(self, monkeypatch):
        # n! <= #admissible(p, n), so a refused xi table also spares a det
        # table that may be too large: 9! = 362,880 at n = 9
        built = count_calls(monkeypatch, "_det_terms")
        with pytest.raises(ch.BudgetExceeded):
            ch.verify_det_identity(101, 3, "random", count=1)
        assert not built
        assert ch.verify_det_identity(3, 2, "random", count=5).ok
        assert set(built) == {2}


class TestSampleStream:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sample_is_the_randrange_stream(self, p, n):
        for seed in range(5):
            fast, slow = CountingRandom(seed), CountingRandom(seed)
            draws = bc._random_sample(fast, p, n)
            got = list(islice((mu for mu in draws
                               if bc.det_mod_p(bc._rows(mu, n), p)), 30))
            assert got == [flat(mu) for mu in oracle_sample(slow, p, n, 30)]
            assert fast.calls == slow.calls
            assert fast.getstate() == slow.getstate()


def oracle_verify(p, n, mode, count=1000, seed=0):
    """The loop that ``verify_det_identity`` replaced: no memo, xi_operator
    four times and det_mod_p twice per sample.  It looks both functions up on
    the module, so a monkeypatched fault reaches it as it reaches the fast
    path."""
    rep = ch.IdentityReport(p, n, mode)
    evaluated = set()

    def xi(mu):
        evaluated.add(mu)
        return bc.xi_operator(mu, p)

    def check_one(mu):
        rep.checked += 1
        lhs = xi(mu)
        rhs = pow(bc.det_mod_p(mu, p), p - 1, p)
        if lhs != rhs:
            rep.counterexamples.append(("identity", mu, lhs, rhs))

    def check_pair(mu, nu):
        rep.pairs_checked += 1
        prod = tuple(tuple(sum(mu[i][k] * nu[k][j] for k in range(n)) % p
                           for j in range(n)) for i in range(n))
        lhs = xi(prod)
        rhs = xi(mu) * xi(nu) % p
        if lhs != rhs:
            rep.counterexamples.append(("multiplicativity", (mu, nu), lhs, rhs))

    if mode == "exhaustive":
        flats = iproduct(range(p), repeat=n * n)
        group = [mu for mu in (tuple(f[i * n:(i + 1) * n] for i in range(n))
                               for f in flats) if bc.det_mod_p(mu, p)]
        for mu in group:
            check_one(mu)
        for mu in group:
            for nu in group:
                check_pair(mu, nu)
    else:
        sample = oracle_sample(random.Random(seed), p, n, count)
        for mu in sample:
            check_one(mu)
        for mu, nu in zip(sample, sample[1:]):
            check_pair(mu, nu)
    rep.distinct = len(evaluated)
    return rep


def tuple_product_report(p, n):
    """The exhaustive sweep as it was before products were looked up by
    index: each product built as a nested tuple and hashed into a memo of xi
    keyed by matrix, with xi_operator and det_mod_p looked up on the module."""
    group = [mu for mu in iproduct(iproduct(range(p), repeat=n), repeat=n)
             if bc.det_mod_p(mu, p)]
    xis = {}

    def xi(mu):
        if mu not in xis:
            xis[mu] = bc.xi_operator(mu, p)
        return xis[mu]

    rep = ch.IdentityReport(p, n, "exhaustive", len(group), len(group) ** 2)
    for mu in group:
        lhs, rhs = xi(mu), pow(bc.det_mod_p(mu, p), p - 1, p)
        if lhs != rhs:
            rep.counterexamples.append(("identity", mu, lhs, rhs))
    for mu in group:
        for nu in group:
            prod = tuple(tuple(sum(mu[i][k] * nu[k][j] for k in range(n)) % p
                               for j in range(n)) for i in range(n))
            lhs, rhs = xi(prod), xi(mu) * xi(nu) % p
            if lhs != rhs:
                rep.counterexamples.append(("multiplicativity", (mu, nu),
                                            lhs, rhs))
    rep.distinct = len(xis)
    return rep


def oracle_sample(rng, p, n, count):
    """``count`` invertible matrices drawn with ``randrange``, one entry at a
    time row by row, redrawing a singular matrix."""
    sample = []
    for _ in range(count):
        while True:
            mu = tuple(tuple(rng.randrange(p) for _ in range(n))
                       for _ in range(n))
            if bc.det_mod_p(mu, p):
                break
        sample.append(mu)
    return sample


class CountingRandom(random.Random):
    """A Random that counts its getrandbits calls; randrange goes through
    getrandbits, so both samplers are counted alike."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def same_report(a, b):
    return (a.checked, a.pairs_checked, a.counterexamples, a.distinct) == \
        (b.checked, b.pairs_checked, b.counterexamples, b.distinct)


def flat(mu):
    return tuple(x for row in mu for x in row)


def is_flat(mu, p, n):
    """Is ``mu`` a flat n x n tuple of residues mod p?"""
    return type(mu) is tuple and len(mu) == n * n and \
        all(type(x) is int and 0 <= x < p for x in mu)


def written_out_xi(mu, p):
    """xi(mu) as the sum over admissible a of prod_k (p-1)!/prod_l a_lk!
    times prod mu_lk^a_lk, enumerating a row by row."""
    n = len(mu)
    rows = [r for r in iproduct(range(p), repeat=n) if sum(r) == p - 1]
    total = 0
    for a in iproduct(rows, repeat=n):
        if any(sum(a[l][k] for l in range(n)) != p - 1 for k in range(n)):
            continue
        term = 1
        for k in range(n):
            term *= math.factorial(p - 1) // math.prod(
                math.factorial(a[l][k]) for l in range(n))
            for l in range(n):
                term *= mu[l][k] ** a[l][k]
        total += term
    return total % p


@st.composite
def scalar_matrices(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 3))
    entry = st.integers(-2 * p, 2 * p)
    return p, tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


def plant_fault(monkeypatch, bad):
    """Make xi wrong by 1 on the nested matrices in ``bad``, at the flat
    evaluator ``_xi_flat``, which the sweep calls and ``xi_operator`` (so
    the oracles) calls too."""
    real, bad = bc._xi_flat, {flat(mu) for mu in bad}
    monkeypatch.setattr(
        bc, "_xi_flat",
        lambda m, q, n: (real(m, q, n) + 1) % q if m in bad
        else real(m, q, n))


def count_calls(monkeypatch, name):
    """Record the first argument of every call of ``bc.<name>``: the
    matrix, or n for ``_det_terms``."""
    calls = []
    real = getattr(bc, name)

    def counted(mu, *args):
        calls.append(mu)
        return real(mu, *args)

    monkeypatch.setattr(bc, name, counted)
    return calls


class TestMemoisedVerifier:
    GROUPS = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (7, 2)]

    @pytest.mark.parametrize("p,n", GROUPS)
    def test_random_reports_match_oracle(self, p, n):
        for seed in range(3):
            fast = ch.verify_det_identity(p, n, "random", count=300, seed=seed)
            assert same_report(fast, oracle_verify(p, n, "random", 300, seed))

    # exhaustive pairs grow like |GL_n(F_p)|^2: the unmemoised oracle takes
    # seconds at GL2(F5) and is out of reach at GL3(F3) and GL2(F7)
    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
    def test_exhaustive_reports_match_oracle(self, p, n):
        fast = ch.verify_det_identity(p, n, "exhaustive")
        assert same_report(fast, oracle_verify(p, n, "exhaustive"))

    @pytest.mark.parametrize("p,n,mode,count,bad", [
        (2, 2, "exhaustive", 0, ((1, 1), (0, 1))),
        (3, 2, "exhaustive", 0, ((1, 1), (0, 1))),
        (2, 2, "random", 200, ((1, 1), (0, 1))),
        (3, 2, "random", 400, ((1, 1), (0, 1))),
        (5, 2, "random", 3000, ((1, 1), (0, 1))),
        (2, 3, "random", 500, ((1, 1, 0), (0, 1, 0), (0, 0, 1))),
    ])
    def test_planted_fault_lists_oracle_counterexamples(
            self, monkeypatch, p, n, mode, count, bad):
        plant_fault(monkeypatch, {bad})
        expected = oracle_verify(p, n, mode, count, seed=5)
        kinds = [c[0] for c in expected.counterexamples]
        assert "identity" in kinds and "multiplicativity" in kinds
        if mode == "random":  # the faulty matrix is drawn more than once
            assert kinds.count("identity") > 1
        fast = ch.verify_det_identity(p, n, mode, count=count, seed=5)
        assert same_report(fast, expected)
        assert not fast.ok

    @pytest.mark.parametrize("p,n,bad", [
        (2, 2, ()), (3, 2, ()), (5, 2, ()), (2, 3, ()), (7, 1, ()),
        (13, 1, ()),
        (3, 2, (((1, 1), (0, 1)), ((2, 0), (1, 1)))),
        (5, 2, (((1, 1), (0, 1)), ((0, 4), (1, 0)))),
        (2, 3, (((1, 1, 0), (0, 1, 0), (0, 0, 1)),)),
        (7, 1, (((3,),), ((6,),))),
    ])
    def test_exhaustive_index_matches_tuple_products(
            self, monkeypatch, p, n, bad):
        plant_fault(monkeypatch, bad)
        want = tuple_product_report(p, n)
        assert bool(want.counterexamples) == bool(bad)
        fast = ch.verify_det_identity(p, n, "exhaustive")
        assert same_report(fast, want) and fast.distinct == want.distinct

    @given(scalar_matrices())
    @settings(max_examples=80, deadline=None)
    def test_sparse_xi_matches_written_out_sum(self, case):
        p, mu = case
        assert ch.xi_operator(mu, p) == written_out_xi(mu, p)

    @pytest.mark.parametrize("p,n", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
    def test_memo_entry_of_every_matrix(self, p, n):
        # the one memo entry per drawn matrix: None exactly when det = 0,
        # else xi, the identity verdict, the nested rows and the columns
        for mu in iproduct(range(p), repeat=n * n):
            rows = tuple(mu[i * n:(i + 1) * n] for i in range(n))
            xis = {}
            entry = bc._entry(mu, p, n, xis)
            if not bc.det_mod_p(rows, p):
                assert entry is None and not xis
                continue
            x = bc.xi_operator(rows, p)
            assert entry == (x, None, rows, tuple(zip(*rows)))
            assert xis == {mu: x}
            assert bc._entry(mu, p, n, {mu: x + 1})[:2] == \
                (x + 1, ("identity", rows, x + 1, x))

    def test_sparse_terms_skip_zero_entries(self):
        for p, n in [(5, 2), (3, 3), (2, 4)]:
            terms = bc._xi_terms(p, n)
            admissible = list(ch.admissible_matrices(p, n))
            assert len(terms) == len(admissible)
            for (coeff, factors), a in zip(terms, admissible):
                assert coeff % p
                assert all(e > 0 for _, e in factors)
                assert sum(e for _, e in factors) == n * (p - 1)
                # (l*n + k, a_lk): the nonzero entries of a, row-major
                assert factors == tuple((i, e) for i, e in enumerate(flat(a))
                                        if e)

    # (p, n, count) -> flat det and flat xi evaluations at seed 0: every
    # drawn matrix gets one det, every distinct sample or product one xi
    WORK = [((5, 2, 10_000), 625, 480), ((3, 3, 1_000), 1_719, 1_820),
            ((7, 2, 2_000), 1_495, 1_743)]

    def test_random_work_count(self):
        for (p, n, count), n_det, n_xi in self.WORK:
            with pytest.MonkeyPatch.context() as monkeypatch:
                calls = count_calls(monkeypatch, "_xi_flat")
                dets = count_calls(monkeypatch, "_det_flat")
                public = [count_calls(monkeypatch, name)
                          for name in ("xi_operator", "det_mod_p")]
                rep = ch.verify_det_identity(p, n, "random", count=count,
                                             seed=0)
            assert rep.ok and rep.checked == count
            # the unmemoised loop made 39,997 xi calls for 10,000 of GL2(F5)
            assert (len(dets), len(calls)) == (n_det, n_xi)
            assert len(set(calls)) == len(calls) == rep.distinct
            assert len(set(dets)) == len(dets)  # one per drawn matrix
            # the sweep evaluates flat residue tuples, never through the
            # public functions, which would check and flatten each again
            assert all(is_flat(mu, p, n) for mu in calls + dets)
            assert public == [[], []]

    @given(st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 3),
           st.integers(1, 300), st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_random_reports_match_oracle_anywhere(self, p, n, count, seed):
        # one xi of GL3(F11) is a 2,211-term sum that the oracle evaluates
        # four times per sample; fewer samples keep that case near a second
        count = min(count, 30) if (p, n) == (11, 3) else count
        fast = ch.verify_det_identity(p, n, "random", count=count, seed=seed)
        assert same_report(fast, oracle_verify(p, n, "random", count, seed))

    @pytest.mark.parametrize("p,n,count,seed", [
        (7, 2, 60, 3), (3, 3, 40, 1), (11, 2, 50, 0), (5, 1, 20, 2)])
    def test_planted_fault_on_a_sampled_matrix(self, monkeypatch, p, n,
                                               count, seed):
        sample = oracle_sample(random.Random(seed), p, n, count)
        bad = sample[count // 2]
        plant_fault(monkeypatch, {bad})
        expected = oracle_verify(p, n, "random", count, seed)
        assert ("identity", bad) in [c[:2] for c in expected.counterexamples]
        fast = ch.verify_det_identity(p, n, "random", count=count, seed=seed)
        assert same_report(fast, expected) and not fast.ok

    @pytest.mark.parametrize("p,n,count,seed", [
        (7, 2, 60, 3), (3, 3, 40, 1), (11, 2, 50, 0), (5, 2, 30, 4)])
    def test_planted_fault_on_a_product_only(self, monkeypatch, p, n, count,
                                             seed):
        sample = oracle_sample(random.Random(seed), p, n, count)
        products = [tuple(tuple(sum(mu[i][k] * nu[k][j] for k in range(n)) % p
                                for j in range(n)) for i in range(n))
                    for mu, nu in zip(sample, sample[1:])]
        bad = next(prod for prod in products if prod not in sample)
        plant_fault(monkeypatch, {bad})
        expected = oracle_verify(p, n, "random", count, seed)
        kinds = {c[0] for c in expected.counterexamples}
        assert kinds == {"multiplicativity"}
        fast = ch.verify_det_identity(p, n, "random", count=count, seed=seed)
        assert same_report(fast, expected) and not fast.ok

    def test_exhaustive_work_count(self, monkeypatch):
        calls = count_calls(monkeypatch, "_xi_flat")
        dets = count_calls(monkeypatch, "_det_flat")
        public = [count_calls(monkeypatch, name)
                  for name in ("xi_operator", "det_mod_p")]
        rep = ch.verify_det_identity(3, 2, "exhaustive")
        assert rep.ok and rep.pairs_checked == 48 * 48
        assert len(calls) == rep.distinct == 48  # the unmemoised loop made 6,960
        assert len(dets) == 3 ** 4  # one per matrix; the loop made 81 + 48
        assert all(is_flat(mu, 3, 2) for mu in calls + dets)
        assert public == [[], []]

    @pytest.mark.parametrize("p,n,mode,count", [
        (4, 2, "exhaustive", 0), (1, 2, "exhaustive", 0),
        (3, -1, "exhaustive", 0), (5, 0, "random", 5), (5, 2, "random", -3),
        (5, 2, "random", 0)])
    def test_bad_group_or_count_rejected(self, p, n, mode, count):
        with pytest.raises(ValueError):
            ch.verify_det_identity(p, n, mode, count=count)


class TestCombinatorialIdentity:
    def test_worked_examples(self):
        assert ch.combinatorial_identity_check(3, 2, ((2, 0), (0, 2))) == \
            (1, 1, True)
        assert ch.combinatorial_identity_check(3, 2, ((1, 1), (1, 1))) == \
            (1, 1, True)
        assert ch.combinatorial_identity_check(3, 2, ((0, 2), (2, 0))) == \
            (1, 1, True)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            ch.combinatorial_identity_check(3, 2, ((2, 1), (0, 2)))

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 3)])
    def test_exhaustive(self, n, p):
        mats = list(ch.admissible_matrices(p, n))
        assert mats
        for a in mats:
            lhs, rhs, equal = ch.combinatorial_identity_check(p, n, a)
            assert equal, (a, lhs, rhs)

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 3), (3, 5)])
    def test_capped_sum_matches_uncapped_enumeration(self, n, p):
        """The signed sum over b, taken once over every b: S_n -> [0, p-1]
        with sum p-1 and no cap, grouped by the matrix each b builds."""
        perms = list(permutations(range(n)))
        rhs = {}
        for b in iproduct(range(p), repeat=len(perms)):
            if sum(b) != p - 1:
                continue
            built = [[0] * n for _ in range(n)]
            for b_s, sigma in zip(b, perms):
                for k in range(n):
                    built[k][sigma[k]] += b_s
            a = tuple(map(tuple, built))
            term = math.factorial(p - 1) // math.prod(map(math.factorial, b))
            for b_s, sigma in zip(b, perms):
                term *= bc._sgn(sigma) ** b_s
            rhs[a] = (rhs.get(a, 0) + term) % p
        mats = list(ch.admissible_matrices(p, n))
        assert set(mats) == set(rhs)
        for a in mats:
            assert ch.combinatorial_identity_check(p, n, a)[1] == rhs[a], a

    @pytest.mark.parametrize("p,n", [(4, 2), (1, 2), (5, 0), (3, -1)])
    def test_bad_group_rejected(self, p, n):
        with pytest.raises(ValueError):
            ch.admissible_matrices(p, n)
        with pytest.raises(ValueError):
            ch.combinatorial_identity_check(p, n, ((p - 1, 0), (0, p - 1)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            ch.combinatorial_identity_check(3, 3, ((2, 0), (0, 2)))

    def test_admissible_count_small(self):
        assert len(list(ch.admissible_matrices(3, 2))) == 3
        assert len(list(ch.admissible_matrices(5, 2))) == 5
        assert len(list(ch.admissible_matrices(3, 3))) == 21


@pytest.mark.parametrize("p", [0, 1, 4, 9, 15, -3])
def test_falling_factorial_needs_a_prime(p):
    # 0 and 1 died with KeyError, and a composite p returned False
    with pytest.raises(ValueError, match="not prime"):
        bc.falling_factorial_sums(p)
    with pytest.raises(ValueError, match="not prime"):
        ch.falling_factorial_claim_holds(p)


def test_falling_factorial_claim_at_two():
    assert bc.falling_factorial_sums(2) == {1: 1}
    assert ch.falling_factorial_claim_holds(2)


def test_falling_factorial_claim_all_primes_up_to_101():
    primes = [p for p in range(3, 102) if all(p % d for d in range(2, p))]
    for p in primes:
        assert ch.falling_factorial_claim_holds(p), p
