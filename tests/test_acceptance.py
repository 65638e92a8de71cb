"""Acceptance gate: one test per criterion of the build contract, each at its
stated tolerance and time budget, printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from fractions import Fraction as F
from random import Random

import pytest

import charp as ch
from charp import CartierAlgebraSpec, Ideal, MixedPair, TOperator


def _report(num, label, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"criterion {num:2d} {status} ({elapsed:6.1f}s / budget {budget}s) "
          f"{label}{extra}")
    return ok


def ring3():
    return ch.RingCtx(("x", "y"), ch.PrimeModulus(3))


@pytest.fixture(scope="module")
def R():
    return ring3()


@pytest.fixture(scope="module")
def three_lines(R):
    return [Ideal(R, [R.poly("x+y")]), Ideal(R, [R.poly("x*y")])]


_rasters = {}


def get_raster(three_lines, k):
    """Build (once) the three-lines family raster at mesh k; the first criterion
    that needs it pays for it inside its own timing."""
    if k not in _rasters:
        _rasters[k] = ch.constancy_raster(three_lines, 1, k)
    return _rasters[k]


def test_criterion_01_xi_identity_exhaustive():
    t0 = time.time()
    rep = ch.verify_det_identity(3, 2, "exhaustive")
    ok = rep.ok and rep.checked == 48 and rep.pairs_checked == 48 * 48
    elapsed = time.time() - t0
    assert _report(1, "xi = det^2 on GL2(F3), all pairs multiplicative",
                   ok and elapsed < 1.0, elapsed, 1,
                   f"{rep.checked} elements, {rep.pairs_checked} pairs")


def test_criterion_02_xi_identity_sampled():
    t0 = time.time()
    rep5 = ch.verify_det_identity(5, 2, "random", count=10_000, seed=0)
    rep3 = ch.verify_det_identity(3, 3, "random", count=1_000, seed=0)
    ok = rep5.ok and rep3.ok and rep5.checked == 10_000 and rep3.checked == 1_000
    elapsed = time.time() - t0
    assert _report(2, "xi = det^(p-1) sampled over GL2(F5) and GL3(F3)",
                   ok and elapsed < 10.0, elapsed, 10)


def test_criterion_03_combinatorial_identity():
    t0 = time.time()
    ok = True
    total = 0
    for n, p in [(2, 3), (2, 5), (3, 3)]:
        for a in ch.admissible_matrices(p, n):
            total += 1
            ok &= ch.combinatorial_identity_check(p, n, a)[2]
    elapsed = time.time() - t0
    assert _report(3, "combinatorial congruence, exhaustive",
                   ok and elapsed < 30.0, elapsed, 30,
                   f"{total} admissible matrices")


def test_criterion_04_dual_generator_ratio():
    t0 = time.time()
    L = ch.RingCtx(("x",), ch.PrimeModulus(3), laurent=True)
    xi_l = ch.dual_generator_ratio([L.poly("x^-1")], L)
    det_l = ch.jacobian([L.poly("x^-1")], L).det()
    ok = xi_l == L.poly("x^-4") == ch.pow_poly(det_l, 2)
    R = ring3()
    xi_p = ch.dual_generator_ratio([R.poly("x+y^2"), R.var("y")], R)
    ok &= xi_p.is_one()
    elapsed = time.time() - t0
    assert _report(4, "dual ratio: xi = x^-4 in F3[x^(+-1)], xi = 1 for "
                   "{x+y^2, y}", ok and elapsed < 1.0, elapsed, 1)


def test_criterion_05_three_lines_thresholds(R, three_lines):
    t0 = time.time()
    f1, f2 = three_lines
    expected = [(F(1, 3), F(2, 3)), (F(2, 3), F(2, 3)),
                (F(1, 9), F(8, 9)), (F(7, 9), F(5, 9))]
    ok = True
    for t1, target in expected:
        res = ch.fpt_search([(f1, t1)], f2, depth=6)
        ok &= res.candidate == target
    elapsed = time.time() - t0
    assert _report(5, "thresholds 2/3, 2/3, 8/9, 5/9 at depth 6, exact",
                   ok and elapsed < 120.0, elapsed, 120)


def test_criterion_06_staircase_consistency(R, three_lines):
    t0 = time.time()
    raster3 = get_raster(three_lines, 3)
    raster4 = get_raster(three_lines, 4)
    uh = Ideal(R, [R.one()]).content_hash()
    ok = True
    for (v1, v2) in ch.three_lines_staircase(3, 3):
        lo_idx = (max(0, math.floor(v1 * 81) - 1),
                  max(0, math.floor(v2 * 81) - 1))
        hi_idx = (min(81, math.ceil(v1 * 81)), min(81, math.ceil(v2 * 81)))
        ok &= raster4.class_at(lo_idx) == uh
        ok &= raster4.class_at(hi_idx) != uh
    count3 = raster3.class_count()
    count4 = raster4.class_count()
    shared = {raster4.class_at((3 * i, 3 * j))
              for i in range(28) for j in range(28)}
    ok &= count4 < 50  # finite and small
    ok &= len(shared) == count3
    ok &= all(raster4.class_at((3 * i, 3 * j)) == raster3.class_at((i, j))
              for i in range(28) for j in range(28))
    elapsed = time.time() - t0
    assert _report(6, "staircase(3,3) vertices separate classes at k=4",
                   ok and elapsed < 1800.0, elapsed, 1800,
                   f"classes k3={count3} k4={count4}")


def test_criterion_07_t_operator_invariance(R, three_lines):
    t0 = time.time()
    raster3 = get_raster(three_lines, 3)
    raster4 = get_raster(three_lines, 4)
    ok = True
    for p in (3, 5, 7):
        Rp = ch.RingCtx(("x", "y"), ch.PrimeModulus(p))
        fam = [Ideal(Rp, [Rp.poly("x+y")]), Ideal(Rp, [Rp.poly("x*y")])]
        N = Ideal(Rp, [Rp.var("x"), Rp.var("y")])
        for l in range((p - 1) // 2 + 1):
            out = ch.transform_chi_symbolic(N, (2 * l, p - l - 1), fam)
            ok &= out.basis_strings() == ("x", "y")
    N3 = Ideal(R, [R.var("x"), R.var("y")])
    chi4 = ch.chi_function(raster4, N3)
    chi3 = ch.chi_function(raster3, N3)
    for l in (0, 1):
        moved = ch.apply_T(chi4, TOperator(3, (2 * l, 3 - l - 1)))
        ok &= moved.values == chi3.values
    elapsed = time.time() - t0
    assert _report(7, "T_{p|(2l, p-l-1)} fixes chi^(x,y); raster agrees "
                   "cellwise", ok and elapsed < 60.0, elapsed, 60)


def test_criterion_08_scaling_and_skoda(R):
    t0 = time.time()
    full = CartierAlgebraSpec.full_algebra(R)
    grid = [F(1, 9), F(1, 3), F(5, 9), F(2, 3), F(1), F(10, 9), F(4, 3),
            F(3, 2), F(5, 3), F(2)]
    ok = True
    for expr in ("x+y", "x*y"):
        a = Ideal(R, [R.poly(expr)])
        for t in grid:
            lhs = ch.tau_mixed(MixedPair.of([(a, t / 3)]), full)
            rhs = ch.scale_test_ideal(
                ch.tau_mixed(MixedPair.of([(a, t)]), full), full)
            ok &= ch.ideal_eq(lhs, rhs)
            if t >= 1:
                skoda_lhs = ch.tau_mixed(MixedPair.of([(a, t)]), full)
                skoda_rhs = ch.product(
                    a, ch.tau_mixed(MixedPair.of([(a, t - 1)]), full))
                ok &= ch.ideal_eq(skoda_lhs, skoda_rhs)
    elapsed = time.time() - t0
    assert _report(8, "scaling and Skoda laws on a 10-point grid, exact",
                   ok and elapsed < 120.0, elapsed, 120)


def test_criterion_09_theorem_b_desk_check():
    t0 = time.time()
    ok = True
    for fiber in (("x",), ("x", "y")):
        chart = ch.RelativeChart.build(("t",), fiber, 3)
        Rb = chart.base_ring
        full = CartierAlgebraSpec.full_algebra(Rb)
        pair_t = MixedPair.of([(Ideal(Rb, [Rb.var("t")]), F(1, 2))])
        pair_tt1 = MixedPair.of([(Ideal(Rb, [Rb.poly("t*(t+1)")]), F(2, 3))])
        ok &= ch.theorem_b_check(full, pair_t, chart)
        ok &= ch.theorem_b_check(full, pair_tt1, chart)
        alg = CartierAlgebraSpec.from_twists(Rb, [(1, Rb.poly("t^4"))])
        sig_base = ch.sigma(alg, Ideal(Rb, [Rb.one()]))
        sig_top = ch.sigma(ch.pullback_cartier(alg, chart),
                           Ideal(chart.ring, [chart.ring.one()]))
        ok &= ch.ideal_eq(sig_top, chart.extend_ideal(sig_base))
    elapsed = time.time() - t0
    assert _report(9, "tau and sigma commute with the chart pullback",
                   ok and elapsed < 60.0, elapsed, 60)


def test_criterion_10_hausdorff_distance(R, three_lines):
    t0 = time.time()
    raster5 = get_raster(three_lines, 5)
    uh = Ideal(R, [R.one()]).content_hash()
    A = [raster5.coord(idx) for idx, h in raster5.items() if h == uh]
    B = [raster5.coord((i, j)) for i in range(244) for j in range(244)
         if F(i, 243) + 2 * F(j, 243) < 2]
    d = ch.hausdorff_distance(A, B)
    lo, hi = F(1, 3) - F(2, 243), F(1, 3) + F(2, 243)
    ok = lo <= d <= hi
    elapsed = time.time() - t0
    _report(10, "max-norm d_H(A_3, LCT region) at k=5 within 1/3 +- 2/3^5",
            ok and elapsed < 600.0, elapsed, 600, f"measured d_H = {d}")
    assert elapsed < 600.0
    # Faithful to the stated criterion.  The honest max-norm distance between
    # the regions comes out at ~1/(3p), not 1/p: see README, "deliberately
    # failing checks".
    assert lo <= d <= hi, (
        f"measured max-norm d_H = {d} ~ {float(d):.4f}; the stated interval "
        f"[{lo}, {hi}] reflects the source's 1/p figure, which measures the "
        f"horizontal slice gap rather than the max-norm set distance")


def test_criterion_11_series_check():
    t0 = time.time()
    partial = ch.staircase_partial_sum(3, 12)
    err = abs(float(partial) - 1.5)
    ok = err < 1e-3
    elapsed = time.time() - t0
    _report(11, "staircase_partial_sum(3, 12) within 1e-3 of 3/2",
            ok, elapsed, 1, f"partial = {float(partial):.6f}, err = {err:.6f}")
    # Faithful to the stated criterion.  The tail decays like (2/3)^K, so the
    # K = 12 truncation sits ~0.0116 away from 3/2; within-1e-3 first holds at
    # K = 19: see README, "deliberately failing checks".
    assert ok, (f"|{float(partial):.6f} - 1.5| = {err:.6f} >= 1e-3; "
                f"the 12-term truncation cannot meet the stated tolerance")


def test_criterion_12_property_suites(R):
    t0 = time.time()
    rng = Random(0)
    ok = True
    # decomposition round-trip
    for _ in range(30):
        terms = {(rng.randrange(10), rng.randrange(10)): rng.randrange(1, 3)
                 for _ in range(5)}
        f = ch.Polynomial(R, terms)
        for e in (1, 2):
            ok &= ch.decompose(f, e).recompose() == f
    # bracket-root Galois connection
    pool = ["x^4", "y^5", "x*y^2", "(x+y)^3", "x^2*y^2", "x^7 + y"]
    for _ in range(10):
        a = Ideal(R, [R.poly(s) for s in rng.sample(pool, 2)])
        b = Ideal(R, [R.poly(s) for s in rng.sample(pool, 2)])
        for e in (1, 2):
            ok &= (ch.frob_power(b, e).contains_ideal(a)
                   == b.contains_ideal(ch.bracket_root(a, e)))
    # Groebner canonicality across generator presentations
    for _ in range(10):
        gens = rng.sample(pool, 3)
        a = Ideal(R, [R.poly(s) for s in gens])
        shuffled = list(gens)
        rng.shuffle(shuffled)
        extra = a.gens[0] + a.gens[1]
        b = Ideal(R, [R.poly(s) for s in shuffled] + [extra])
        ok &= a.basis_strings() == b.basis_strings()
    # tau monotonicity on a rational grid
    full = CartierAlgebraSpec.full_algebra(R)
    fam = [Ideal(R, [R.poly("x+y")]), Ideal(R, [R.poly("x*y")])]
    pts = [(F(a, 9), F(b, 9)) for a in range(0, 10, 3) for b in range(0, 10, 3)]
    for (s1, s2) in pts:
        for (u1, u2) in pts:
            if s1 <= u1 and s2 <= u2:
                tau_s = ch.tau_mixed(
                    MixedPair.of([(fam[0], s1), (fam[1], s2)]), full)
                tau_u = ch.tau_mixed(
                    MixedPair.of([(fam[0], u1), (fam[1], u2)]), full)
                ok &= tau_s.contains_ideal(tau_u)
    # the mod-p binomial claim for p <= 101
    primes = [p for p in range(3, 102) if all(p % d for d in range(2, p))]
    for p in primes:
        ok &= ch.falling_factorial_claim_holds(p)
    elapsed = time.time() - t0
    assert _report(12, "property suites (round-trip, Galois, canonicality, "
                   "monotonicity, binomial claim)", ok and elapsed < 120.0,
                   elapsed, 120)
