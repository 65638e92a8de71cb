from fractions import Fraction as F

import pytest

import charp as ch
from charp import (CartierAlgebraSpec, Ideal, MixedPair, RegionFunction,
                   TOperator)
from howald_oracle import howald
from svg_oracle import cell_fills, column_runs, per_cell_svg, rects
from work_counts import count_bracket_roots


def ring(p=3):
    return ch.RingCtx(("x", "y"), ch.PrimeModulus(p))


@pytest.fixture(scope="module")
def R():
    return ring()


@pytest.fixture(scope="module")
def three_lines_family(R):
    return [Ideal(R, [R.poly("x+y")]), Ideal(R, [R.poly("x*y")])]


@pytest.fixture(scope="module")
def raster4(three_lines_family):
    return ch.constancy_raster(three_lines_family, 1, 4)


@pytest.fixture(scope="module")
def raster3(three_lines_family):
    return ch.constancy_raster(three_lines_family, 1, 3)


def unit_hash(R):
    return Ideal(R, [R.one()]).content_hash()


def indicator(p, T, k, predicate):
    side = int(F(T) * p ** k)
    values = {}
    for i in range(side + 1):
        for j in range(side + 1):
            t = (F(i, p ** k), F(j, p ** k))
            values[(i, j)] = F(1 if predicate(t) else 0)
    return RegionFunction(p, T, k, 2, values)


class TestApplyT:
    def test_identity_operator(self, R, raster3):
        chi = ch.chi_function(raster3, Ideal(R, [R.var("x"), R.var("y")]))
        out = ch.apply_T(chi, TOperator(1, (0, 0)))
        assert out.values == chi.values

    def test_halfplane_invariance(self):
        # T_{3|(2,1)} fixes the indicator of {t1 + 2 t2 < 2}
        ind = indicator(3, 1, 3, lambda t: t[0] + 2 * t[1] < 2)
        out = ch.apply_T(ind, TOperator(3, (2, 1)))
        expected = indicator(3, 1, 2, lambda t: t[0] + 2 * t[1] < 2)
        assert out.values == expected.values

    def test_three_lines_invariance(self, R, raster4, raster3):
        # T_{p|(2l, p-l-1)} chi^(x,y) = chi^(x,y) for l = 0, 1 at p = 3
        N = Ideal(R, [R.var("x"), R.var("y")])
        chi4 = ch.chi_function(raster4, N)
        chi3 = ch.chi_function(raster3, N)
        for l in (0, 1):
            moved = ch.apply_T(chi4, TOperator(3, (2 * l, 3 - l - 1)))
            assert moved.values == chi3.values

    def test_extension_by_zero(self):
        ind = indicator(3, 1, 2, lambda t: True)
        out = ch.apply_T(ind, TOperator(3, (3, 3)))
        # (t+3)/3 >= 1 leaves the box for t > 0
        assert out.at((0, 0)) == 1
        assert out.at((1, 0)) == 0 and out.at((3, 3)) == 0

    def test_mesh_compat_errors(self):
        ind = indicator(3, 1, 1, lambda t: True)
        with pytest.raises(ValueError):
            ch.apply_T(ind, TOperator(9, (0, 0)))

    @pytest.mark.parametrize("q", [0, -3])
    def test_q_below_one_rejected(self, q):
        # TOperator(0, (0, 0)) used to have level 0, so apply_T read it as
        # the identity and compose_T multiplied q by 0
        with pytest.raises(ValueError, match="at least 1"):
            TOperator(q, (0, 0))

    def test_compose_refuses_mismatched_offsets(self):
        # the pair used to compose to TOperator(9, (4,)), dropping an axis
        with pytest.raises(ValueError, match="offset arity mismatch"):
            ch.compose_T(TOperator(3, (1, 2)), TOperator(3, (1,)), 3)

    def test_semigroup_law(self, R, raster4):
        chi = ch.chi_function(raster4, Ideal(R, [R.var("x"), R.var("y")]))
        op1 = TOperator(3, (1, 2))
        op2 = TOperator(3, (2, 0))
        two = ch.apply_T(ch.apply_T(chi, op1), op2)
        one = ch.apply_T(chi, ch.compose_T(op1, op2, 3))
        assert two.values == one.values


class TestSymbolicTransform:
    def test_three_lines_values(self, R, three_lines_family):
        N = Ideal(R, [R.var("x"), R.var("y")])
        for l, p in [(0, 3), (1, 3)]:
            out = ch.transform_chi_symbolic(N, (2 * l, p - l - 1), three_lines_family)
            assert out.basis_strings() == ("x", "y")

    def test_unit_ideal(self, R, three_lines_family):
        out = ch.transform_chi_symbolic(Ideal(R, [R.one()]), (1, 1),
                                        three_lines_family)
        assert out.basis_strings() == ("1",)

    def test_all_primes_invariance(self):
        for p in (3, 5, 7):
            Rp = ring(p)
            fam = [Ideal(Rp, [Rp.poly("x+y")]), Ideal(Rp, [Rp.poly("x*y")])]
            N = Ideal(Rp, [Rp.var("x"), Rp.var("y")])
            for l in range((p - 1) // 2 + 1):
                out = ch.transform_chi_symbolic(N, (2 * l, p - l - 1), fam)
                assert out.basis_strings() == ("x", "y")

    def test_non_principal_rejected(self, R):
        N = Ideal(R, [R.var("x"), R.var("y")])
        with pytest.raises(ValueError):
            ch.transform_chi_symbolic(N, (1,), [N])

    def test_cross_validates_against_raster(self, R, three_lines_family, raster4,
                                            raster3):
        # symbolic and raster routes agree cellwise for several offsets
        for b in [(2, 1), (0, 2), (1, 1), (3, 0)]:
            Nprime = ch.transform_chi_symbolic(
                Ideal(R, [R.var("x"), R.var("y")]), b, three_lines_family)
            via_raster = ch.apply_T(
                ch.chi_function(raster4, Ideal(R, [R.var("x"), R.var("y")])),
                TOperator(3, b))
            direct = ch.chi_function(raster3, Nprime)
            assert via_raster.values == direct.values


class TestConstancyRaster:
    def test_coarse_grid(self, R, three_lines_family):
        ras = ch.constancy_raster(three_lines_family, 1, 1)
        assert len(ras.cells) == 16
        uh = unit_hash(R)
        for (i, j), h in ras.items():
            t = (F(i, 3), F(j, 3))
            # strictly below the staircase: under the LCT line, left of the
            # right edge, and off the flat corner (1/3, 2/3)
            below = (t[0] + 2 * t[1] < 2 and t[0] < 1
                     and t != (F(1, 3), F(2, 3)))
            assert (h == uh) == below

    def test_trivial_grid(self, R, three_lines_family):
        ras = ch.constancy_raster(three_lines_family, 0, 0)
        assert len(ras.cells) == 1
        assert set(ras.cells) == {unit_hash(R)}

    def test_three_lines_cut_point_class(self, R, raster3):
        assert raster3.class_at((9, 18)) != unit_hash(R)  # (1/3, 2/3)

    def test_refinement_keeps_classes_at_shared_points(self, raster3, raster4):
        for (i, j), h in raster3.items():
            assert raster4.class_at((3 * i, 3 * j)) == h
        assert raster3.class_count() == raster4.class_count()

    def test_rho_decomposition(self, R, raster3):
        # rho_c = prod chi^{N_i} - chi^P on the finite class lattice
        at = (9, 18)  # the class of tau = (x,y)
        P = raster3.ideals[raster3.class_at(at)]
        strictly_inside = [N for h, N in raster3.ideals.items()
                           if P.contains_ideal(N) and not N.contains_ideal(P)]
        rho = ch.rho_function(raster3, at)
        chi_p = ch.chi_function(raster3, P)
        chis = [ch.chi_function(raster3, N) for N in strictly_inside]
        for idx in rho.values:
            prod = F(1)
            for c in chis:
                prod *= c.at(idx)
            assert rho.at(idx) == prod - chi_p.at(idx)


def oracle_cases():
    three_lines = ("x+y", "x*y")
    cases = []
    for k in range(4):
        for T in (F(1), F(2), F(1, 3)):
            if (T * 3 ** k).denominator == 1:
                cases.append((3, three_lines, T, k))
    for k in range(4):
        cases.append((5, ("x^2+y^3",), F(1), k))
    for k in range(3):
        cases.append((3, ("x", "y", "x+y"), F(1), k))
        cases.append((7, three_lines, F(1), k))
    return [pytest.param(*c, id=f"p{c[0]}-{','.join(c[1])}-T{c[2]}-k{c[3]}")
            for c in cases]


class TestDigitRecursion:
    @pytest.mark.parametrize("k", [4, 5])
    def test_bracket_roots_per_class_not_per_cell(self, monkeypatch,
                                                  three_lines_family, k):
        calls = count_bracket_roots(monkeypatch)
        ras = ch.constancy_raster(three_lines_family, 1, k)
        assert len(ras.cells) == (3 ** k + 1) ** 2
        assert ras.class_count() == 5
        assert 0 < len(calls) <= 40

    @pytest.mark.parametrize("p,polys,T,k,roots,csv", [
        (3, ("x,y", "x^2,y^3"), 1, 4, 400, "749041bfea81"),
        (3, ("x^3,x*y,y^3", "x,y^2"), 2, 3, 1229, "ea2e6a38bf67"),
        (5, ("x,y", "x^2,y^3"), 1, 3, 1296, "dc7f1b469e45"),
        (3, ("x+y", "x*y"), 1, 4, 18, "52cec39bd9d7"),
        (5, ("x^3,x*y,y^3", "x,y^2"), 2, 2, 3982, "0a13db03a0e0")])
    def test_one_root_per_digit_sum_vector_and_class(self, monkeypatch, p,
                                                     polys, T, k, roots, csv):
        # from an empty store; one root per digit vector and class took
        # 1,296, 8,532 and 10,000 on the non-principal families, with the
        # same CSV bytes
        from hashlib import sha256
        from charp.regions import raster_csv
        calls = count_bracket_roots(monkeypatch)
        Rp = ring(p)
        fam = [Ideal(Rp, [Rp.poly(g) for g in s.split(",")]) for s in polys]
        ras = ch.constancy_raster(fam, T, k)
        assert len(calls) == roots
        assert sha256(raster_csv(ras).encode()).hexdigest()[:12] == csv

    @pytest.mark.parametrize("p,k,fam", [
        (p, k, fam) for p, k in ((2, 3), (3, 2), (5, 1), (7, 1))
        for fam in ("x,y;x^2,y^3", "x^3,x*y,y^3;x,y^2")]
        + [(11, 1, "x,y;x^2,y^3")])
    def test_monomial_family_matches_mixed_howald(self, monkeypatch, p, k,
                                                  fam):
        # every cell of a monomial family's raster on [0, 2]^2 is the mixed
        # Howald ideal at its coordinates, which shares no code with tau
        from charp import cartier
        monkeypatch.setattr(cartier, "_tau_cache", {})
        Rp = ring(p)
        ideals = [[Rp.poly(g) for g in s.split(",")] for s in fam.split(";")]
        exps = [[next(iter(g.terms)) for g in gens] for gens in ideals]
        ras = ch.constancy_raster([Ideal(Rp, g) for g in ideals], 2, k)
        for idx, h in ras.items():
            want = howald(Rp, *zip(exps, ras.coord(idx)))
            assert ras.ideals[h].groebner() == want.groebner(), idx

    @pytest.mark.parametrize("p,polys,T,k", oracle_cases())
    def test_matches_per_cell_tau(self, monkeypatch, p, polys, T, k):
        # the oracle is the one-shot identity tau = (prod f_i^m_i)^[1/p^k],
        # which shares no code with the digit walk, and tau_mixed on a store
        # of its own
        from charp import cartier
        monkeypatch.setattr(cartier, "_tau_cache", {})
        Rp = ring(p)
        fs = [Rp.poly(s) for s in polys]
        fam = [Ideal(Rp, [f]) for f in fs]
        full = CartierAlgebraSpec.full_algebra(Rp)
        ras = ch.constancy_raster(fam, T, k)
        monkeypatch.setattr(cartier, "_tau_cache", {})
        assert len(ras.cells) == (ras.side + 1) ** len(fam)
        for idx, h in ras.items():
            g = Rp.one()
            for f, m in zip(fs, idx):
                g = g * ch.pow_poly(f, m)
            want = Ideal(Rp, [g])
            if k:
                want = ch.bracket_root(want, k)
            assert want.content_hash() == h
            pair = MixedPair(tuple(fam), ras.coord(idx))
            assert ch.tau_mixed(pair, full).content_hash() == h
        assert ras.class_count() == len(set(ras.cells))
        assert all(I.content_hash() == h for h, I in ras.ideals.items())

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("twists", [
        ["x"], ["x", "y"], ["x+y"], ["x^{p1}"], ["x^{p1}*y"], ["2"],
        ["x^{p}"], ["y^{p2}"]])
    def test_dispatch_matches_per_cell_tau(self, monkeypatch, p, twists):
        # twists with C_+(R) = R take the digit recursion, since then
        # tau(a^(m/p^k)) = C_k(a^m), for principal, non-principal and mixed
        # families alike (an ideal is written as its comma-separated
        # generators); x^p and y^(2p-1) give C_+(R) != R, and the twist 2
        # is 0 at p = 2
        from charp import cartier, regions
        Rp = ring(p)
        C = CartierAlgebraSpec.from_twists(Rp, [
            (1, Rp.poly(g.format(p=p, p1=p - 1, p2=2 * p - 1)))
            for g in twists])
        recursion = C.fixes_unit()
        assert recursion == (twists[0] not in ("x^{p}", "y^{p2}")
                             and (p, twists) != (2, ["2"]))
        tails, cells = spy(monkeypatch, regions, "_tau_state", "_tau_at_cell")
        family_sizes = [(("x+y", "x*y"), {2: 3, 3: 2, 5: 1}[p]),
                        (("x^2+y^3",), 3), (("x,y",), 2),
                        (("x,y^2", "x+y"), 2 if p < 5 else 1),
                        (("x^2,y", "x,y^3"), 1)]
        for polys, top in family_sizes:
            fam = [Ideal(Rp, [Rp.poly(g) for g in s.split(",")])
                   for s in polys]
            for k in (0, top) if recursion else (1,):
                ras = ch.constancy_raster(fam, 1, k, C)
                monkeypatch.setattr(cartier, "_tau_cache", {})
                for idx, h in ras.items():
                    assert cartier.tau_mixed(MixedPair(tuple(fam), ras.coord(
                        idx)), C).content_hash() == h, (polys, k, idx)
        assert bool(tails) == recursion and bool(cells) != recursion

    def test_non_principal_raster_takes_no_cell(self, monkeypatch, R):
        # ((x, y^2), x+y) at mesh 3^-4: 6,724 cells, one tau_mixed each
        # before the digit table walked carry states
        import time
        from charp import cartier, regions
        monkeypatch.setattr(cartier, "_tau_cache", {})
        _, cells = spy(monkeypatch, regions, "_tau_state", "_tau_at_cell")
        fam = [Ideal(R, [R.poly("x"), R.poly("y^2")]),
               Ideal(R, [R.poly("x+y")])]
        start = time.perf_counter()
        ras = ch.constancy_raster(fam, 1, 4)
        elapsed = time.perf_counter() - start
        assert len(ras.cells) == 82 ** 2 and not cells
        assert elapsed < 0.1, elapsed

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_twisted_algebra_stays_per_cell(self, monkeypatch, R,
                                            three_lines_family, k):
        # the twist x^3 gives C_+(R) = (x), so the digit recursion does not
        # hold and every cell takes tau_mixed
        from charp import cartier
        C = CartierAlgebraSpec.from_twists(R, [(1, R.poly("x^3"))])
        ras = ch.constancy_raster(three_lines_family, 1, k, C)
        full = ch.constancy_raster(three_lines_family, 1, k)
        monkeypatch.setattr(cartier, "_tau_cache", {})
        for idx, h in ras.items():
            pair = MixedPair(tuple(three_lines_family), ras.coord(idx))
            assert ch.tau_mixed(pair, C).content_hash() == h
        if k:
            assert ras.cells != full.cells

    @pytest.mark.parametrize("T,k,n", [(1, 40, 1), (1, 13, 1), (1, 7, 2),
                                       (F(1, 3), 10 ** 9, 1), (2, 4, 3)])
    def test_over_the_cell_budget_fails_at_once(self, monkeypatch, R, T, k,
                                                n):
        # refused before any automaton, walk or tau is built
        from charp import cartier, regions, thresholds

        def forbidden(*args):
            raise AssertionError("work started")

        for mod, name in [(regions, "_automaton"), (regions, "_tau_state"),
                          (cartier, "_digit_walk"),
                          (regions, "_tau_at_cell"), (regions, "tau_mixed"),
                          (thresholds, "_digit_recursion")]:
            monkeypatch.setattr(mod, name, forbidden)
        fam = [Ideal(R, [R.poly(s)]) for s in FAMILIES[n]]
        with pytest.raises(ch.BudgetExceeded, match="budget of 1,000,000"):
            ch.constancy_raster(fam, T, k)
        if n == 1:
            with pytest.raises(ch.BudgetExceeded):
                ch.jumping_numbers([], fam[0], T, k)

    def test_cell_budget_boundary(self, monkeypatch, three_lines_family):
        # 4^2 = 16 cells at mesh 3^-1
        from charp import regions
        monkeypatch.setattr(regions, "RASTER_CELL_BUDGET", 16)
        assert len(ch.constancy_raster(three_lines_family, 1, 1).cells) == 16
        monkeypatch.setattr(regions, "RASTER_CELL_BUDGET", 15)
        with pytest.raises(ch.BudgetExceeded):
            ch.constancy_raster(three_lines_family, 1, 1)

    @pytest.mark.parametrize("twisted", [False, True])
    def test_hash_collision_is_refused(self, monkeypatch, R,
                                       three_lines_family, twisted):
        C = CartierAlgebraSpec.from_twists(R, [(1, R.var("x"))]) \
            if twisted else None
        monkeypatch.setattr(Ideal, "content_hash", lambda self: "0" * 16)
        with pytest.raises(ch.VerificationError, match="two tau classes"):
            ch.constancy_raster(three_lines_family, 1, 1, C)


def fraction_csv(ras):
    """The CSV loop that ``raster_csv`` replaced, one Fraction per
    coordinate, kept as its oracle.  It visits the cells in sorted index
    order and reads each through ``class_at``, not through the flat order
    of ``cells``."""
    from itertools import product as iproduct
    header = ",".join(f"t{i+1}_num,t{i+1}_den" for i in range(ras.n))
    lines = [header + ",class_hash"]
    for idx in sorted(iproduct(range(ras.side + 1), repeat=ras.n)):
        row = ",".join(f"{c.numerator},{c.denominator}"
                       for c in ras.coord(idx))
        lines.append(f"{row},{ras.class_at(idx)}")
    return "\n".join(lines) + "\n"


def dictcomp_digit_recursion(ideals, grid, C, fixed=()):
    """The level loop that the block fill of ``_digit_recursion`` replaced,
    for principal ideals: one dict per level, two index tuples and one
    class step per cell, as tau(f^s) = C_+(f^D_1 tau(f^(r_1))) for the top
    digit D_1, integer part included.  The last level is laid out as
    ``grid.cells`` in sorted index order."""
    from charp.cartier import _ClassAutomaton, _digit_walk
    from charp.regions import _class_hash
    from itertools import product as iproduct
    p, k, n, side = grid.p, grid.k, grid.n, grid.side
    auto = _ClassAutomaton(tuple(a.gens for a in ideals), C)
    steps = {}

    def step(d, c):  # C_+(prod f_i^d_i J), the top digit d_i up to p
        if (d, c) not in steps:
            twisted = [t.twist for t in C.generators]
            for a, x in zip(ideals, d):
                twisted = [g * ch.pow_poly(a.gens[0], x) for g in twisted]
            steps[d, c] = auto.intern(
                _digit_walk(twisted, auto.classes[c], C))
        return steps[d, c]

    rs = [tuple(fixed)]
    for _ in range(k):
        rs.append(tuple(x * p - int(x * p) for x in rs[-1]))
    tail = auto.intern(ch.tau_mixed(MixedPair(tuple(ideals),
                                              rs[k] + (F(0),) * n), C)) \
        if fixed else auto.unit
    top = side if k == 0 else 0
    zeros = (0,) * len(fixed)
    table = {m: auto.walk(zeros + m, 0, tail)
             for m in iproduct(range(top + 1), repeat=n)}
    for j in range(1, k + 1):
        q = p ** (j - 1)
        top = side if j == k else min(side, p ** j - 1)
        lead = tuple(int(x * p) for x in rs[k - j])
        table = {m: step(lead + tuple(x // q for x in m),
                         table[tuple(x % q for x in m)])
                 for m in iproduct(range(top + 1), repeat=n)}
    hashes = {cid: _class_hash(grid, auto.classes[cid])
              for cid in sorted(set(table.values()))}
    grid.cells = [hashes[table[m]] for m in sorted(table)]


def spy(monkeypatch, module, *names):
    """Wrap each function ``names`` of ``module`` to record its calls;
    returns one list of argument tuples per name."""
    logs = []
    for name in names:
        real, log = getattr(module, name), []
        monkeypatch.setattr(module, name, lambda *a, real=real, log=log:
                            log.append(a) or real(*a))
        logs.append(log)
    return logs


FAMILIES = {1: ("x^2+y^3",), 2: ("x+y", "x*y"), 3: ("x", "y", "x+y")}


def writer_cases():
    """p in {2, 3, 5}, T in {1, 2, 1/3} where some T p^k is an integer, and
    n = 1, 2, 3 pairs, on the digit recursion and on the per-cell path (the
    twist x^p has C_+(R) = (x) != R).  Per-cell grids stay small."""
    cases = []
    for p in (2, 3, 5):
        for T in (F(1), F(2), F(1, 3)):
            if T.denominator != 1 and p != 3:
                continue
            for n in (1, 2, 3):
                cases.append((p, T, n, 4 - n, False))
                cases.append((p, T, n, 1 if n == 1 or T < 1 else 0, True))
    return [pytest.param(*c, id=f"p{c[0]}-T{c[1]}-n{c[2]}-k{c[3]}"
                         + ("-cell" if c[4] else "-digits")) for c in cases]


def writer_raster(p, T, n, k, per_cell):
    """The raster of the family ``FAMILIES[n]`` for a ``writer_cases`` case,
    under the twist x^p on the per-cell path."""
    Rp = ring(p)
    fam = [Ideal(Rp, [Rp.poly(s)]) for s in FAMILIES[n]]
    C = CartierAlgebraSpec.from_twists(Rp, [(1, Rp.poly(f"x^{p}"))]) \
        if per_cell else None
    assert per_cell == (C is not None and not C.fixes_unit())
    ras = ch.constancy_raster(fam, T, k, C)
    assert len(ras.cells) == (T * p ** k + 1) ** n
    return ras


class TestRasterWriter:
    @pytest.mark.parametrize("p,T,n,k,per_cell", writer_cases())
    def test_csv_matches_fraction_writer(self, p, T, n, k, per_cell):
        ras = writer_raster(p, T, n, k, per_cell)
        assert ch.raster_csv(ras) == fraction_csv(ras)

    @pytest.mark.parametrize("p,T,n,k,per_cell", [
        c for c in writer_cases() if c.values[2] == 2] + [
        pytest.param(3, F(1), 2, 0, False, id="p3-T1-n2-k0-digits")])
    def test_svg_matches_per_cell_writer(self, p, T, n, k, per_cell):
        # one rect per run of equal classes up a column, painting every
        # cell as the per-cell writer does, with the same other lines
        from charp.cli import _raster_svg
        ras = writer_raster(p, T, n, k, per_cell)
        for overlay in (False, True) if p % 2 else (False,):
            svg, ref = "".join(_raster_svg(ras, overlay)), \
                per_cell_svg(ras, overlay)
            assert cell_fills(svg, ref) == [h[:6] for h in ras.cells]
            found, other = rects(svg)
            assert len(found) == column_runs(ras)
            assert other == rects(ref)[1]

    @pytest.mark.parametrize("p,T,n,k", [
        c.values[:4] for c in writer_cases() if not c.values[4]])
    def test_digit_table_matches_dictcomp(self, p, T, n, k):
        from charp.regions import RasterGrid, _digit_recursion
        Rp = ring(p)
        fam = [Ideal(Rp, [Rp.poly(s)]) for s in FAMILIES[n]]
        full = CartierAlgebraSpec.full_algebra(Rp)
        grids = [RasterGrid(p, T, k, n, [], {}) for _ in range(2)]
        _digit_recursion(fam, grids[0], full)
        dictcomp_digit_recursion(fam, grids[1], full)
        assert len(grids[1].cells) == (T * p ** k + 1) ** n
        for idx, h in grids[1].items():
            assert grids[0].class_at(idx) == h, idx
        assert grids[0].cells == grids[1].cells
        # class ids are interned in a different order, which only reorders
        # the ideals registry
        assert {h: I.groebner() for h, I in grids[0].ideals.items()} == \
            {h: I.groebner() for h, I in grids[1].ideals.items()}

    @pytest.mark.parametrize("p,fixed,free,T,depth", [
        (3, [("x+y", F(1, 3))], "x*y", F(1), 4),
        (3, [("x+y", F(7, 9)), ("x", F(1, 2))], "x*y", F(2), 3),
        (2, [("x^2+y^3", F(1, 5))], "x+y", F(1), 5),
        (5, [("x", F(7, 4))], "x^2+y^3", F(2), 2),
    ])
    def test_jumps_match_dictcomp(self, monkeypatch, p, fixed, free, T,
                                  depth):
        from charp import thresholds
        Rp = ring(p)
        pairs = [(Ideal(Rp, [Rp.poly(s)]), t) for s, t in fixed]
        free = Ideal(Rp, [Rp.poly(free)])
        runs = ch.jumping_numbers(pairs, free, T, depth)
        grids = []

        def oracle(ideals, grid, C, fixed=()):
            grids.append(grid)
            dictcomp_digit_recursion(ideals, grid, C, fixed)

        monkeypatch.setattr(thresholds, "_digit_recursion", oracle)
        assert runs == ch.jumping_numbers(pairs, free, T, depth)
        # the run loop that reading runs off ``cells`` replaced: one
        # Fraction per grid point
        want = []
        for idx, h in grids[0].items():
            t = grids[0].coord(idx)[0]
            if want and want[-1][2] == h:
                want[-1] = (want[-1][0], t, h)
            else:
                want.append((t, t, h))
        assert runs == want


class TestThreeParameterFamilies:
    def test_raster_and_chi_in_three_parameters(self, R):
        fam = [Ideal(R, [R.poly(s)]) for s in ("x", "y", "x+y")]
        ras = ch.constancy_raster(fam, 1, 0)
        assert len(ras.cells) == 8
        assert ras.class_at((0, 0, 0)) == unit_hash(R)
        assert ras.class_at((1, 1, 1)) != unit_hash(R)
        chi = ch.chi_function(ras, Ideal(R, [R.var("x"), R.var("y")]))
        moved = ch.apply_T(chi, TOperator(1, (0, 1, 0)))
        assert moved.at((0, 0, 0)) == chi.at((0, 1, 0))

    def test_hausdorff_in_three_dimensions(self):
        A = {(F(0), F(0), F(0))}
        B = {(F(1, 2), F(1, 4), F(0))}
        assert ch.hausdorff_distance(A, B) == F(1, 2)


class TestStaircase:
    def test_depth_zero_is_diagonal(self):
        assert ch.three_lines_staircase(3, 0) == [(F(0), F(1)), (F(1), F(1, 2))]

    def test_depth_one(self):
        verts = ch.three_lines_staircase(3, 1)
        assert (F(1, 3), F(2, 3)) in verts
        assert (F(2, 3), F(2, 3)) in verts

    def test_depth_two_flats(self):
        verts = ch.three_lines_staircase(3, 2)
        assert (F(1, 9), F(8, 9)) in verts and (F(2, 9), F(8, 9)) in verts
        assert (F(7, 9), F(5, 9)) in verts and (F(8, 9), F(5, 9)) in verts

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            ch.three_lines_staircase(2, 1)

    @pytest.mark.parametrize("p", [1, 9, 15, 2, -3])
    def test_non_prime_rejected(self, p):
        # p = 9 used to give a "staircase" and a partial sum for a non-prime
        with pytest.raises(ValueError, match="odd prime"):
            ch.three_lines_staircase(p, 1)
        with pytest.raises(ValueError, match="odd prime"):
            ch.staircase_partial_sum(p, 3)

    def test_negative_depth_rejected(self):
        # it used to recurse until RecursionError
        with pytest.raises(ValueError, match="depth >= 0"):
            ch.three_lines_staircase(3, -1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_vertex_count_recurrence(self, p):
        # n_0 = 2, n_k = (p+1)/2 n_(k-1) + (p-1)/2: 3 2^k - 1 at p = 3
        n = 2
        for depth in range(4):
            assert len(ch.three_lines_staircase(p, depth)) == n
            n = (p + 1) // 2 * n + (p - 1) // 2

    def test_over_the_budget_refused_before_building(self, monkeypatch):
        from charp import regions
        monkeypatch.setattr(regions, "RASTER_CELL_BUDGET", 46)
        assert len(ch.three_lines_staircase(3, 3)) == 23
        with pytest.raises(ch.BudgetExceeded, match="vertices"):
            ch.three_lines_staircase(3, 4)  # 47 vertices
        with pytest.raises(ch.BudgetExceeded):  # the count stops at once
            ch.three_lines_staircase(3, 10 ** 6)

    def test_vertices_separate_raster_classes(self, R, raster4):
        # every staircase(3,3) vertex has a unit-class cell just inside and a
        # non-unit class at its rounded-up cell
        import math
        uh = unit_hash(R)
        for (v1, v2) in ch.three_lines_staircase(3, 3):
            lo_idx = (max(0, math.floor(v1 * 81) - 1),
                      max(0, math.floor(v2 * 81) - 1))
            hi_idx = (min(81, math.ceil(v1 * 81)),
                      min(81, math.ceil(v2 * 81)))
            assert raster4.class_at(lo_idx) == uh
            assert raster4.class_at(hi_idx) != uh


class TestLengthsAndSums:
    def test_partial_sum_values(self):
        assert ch.staircase_partial_sum(3, 1) == F(1, 2)
        # the series converges to 3/2 from below
        prev = F(0)
        for K in range(1, 25):
            s = ch.staircase_partial_sum(3, K)
            assert prev < s < F(3, 2)
            prev = s
        assert F(3, 2) - ch.staircase_partial_sum(3, 60) < F(1, 10 ** 9)

    def test_negative_term_count_rejected(self):
        # it used to return the empty sum 0
        assert ch.staircase_partial_sum(3, 0) == 0
        with pytest.raises(ValueError):
            ch.staircase_partial_sum(3, -2)

    def test_diagonal_length(self):
        bl = ch.boundary_length(ch.three_lines_staircase(3, 0))
        assert bl.axis == 0
        assert abs(bl.diagonal - (5 ** 0.5) / 2) < 1e-12

    def test_staircase_length_converges_to_series(self):
        # axis-parallel part of staircase(k) equals the k-term partial sum
        for k in (1, 2, 3):
            bl = ch.boundary_length(ch.three_lines_staircase(3, k))
            assert bl.axis == ch.staircase_partial_sum(3, k)


class TestHausdorff:
    def test_identity(self):
        A = {(F(0), F(0)), (F(1, 3), F(2, 3))}
        assert ch.hausdorff_distance(A, A) == 0

    def test_two_points(self):
        assert ch.hausdorff_distance({(F(0), F(0))}, {(F(1, 3), F(0))}) \
            == F(1, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ch.hausdorff_distance(set(), {(F(0), F(0))})

    def test_points_of_different_dimension_rejected(self):
        # zip dropped the extra coordinate, giving 1
        with pytest.raises(ValueError, match="one dimension"):
            ch.hausdorff_distance([(0, 0)], [(1,)])

    @pytest.mark.parametrize("A,B,chamfer", [
        # a 14,001 x 2,000,001 grid against 2,001^2 pairs: brute force
        ([(F(i, 1000), F(0)) for i in range(2001)],
         [(F(0), F(j, 7)) for j in range(2001)], False),
        ([(F(0), F(0)), (F(1), F(0))], [(F(0), F(0)), (F(3), F(0))], True),
        ([(F(0), F(0)), (F(1), F(0))], [(F(0), F(0)), (F(4), F(0))], False),
        ([(F(0), F(0), F(0))] * 3, [(F(1), F(0), F(0))] * 3, False)])
    def test_chamfer_only_on_a_grid_no_larger_than_the_pairs(
            self, monkeypatch, A, B, chamfer):
        # both paths stubbed, so no grid is built
        from charp import regions
        used = []
        for name in ("_directed_chamfer", "_directed_brute"):
            monkeypatch.setattr(regions, name, lambda X, Y, name=name:
                                used.append(name) or 0)
        assert ch.hausdorff_distance(A, B) == 0
        want = "_directed_chamfer" if chamfer else "_directed_brute"
        assert used == [want, want]

    def test_criterion_10_sets_take_the_chamfer(self, monkeypatch, R,
                                                three_lines_family):
        # a 244 x 244 box against 42,187 x 44,530 pairs
        from charp import regions
        ras = ch.constancy_raster(three_lines_family, 1, 5)
        A = [ras.coord(idx) for idx, h in ras.items() if h == unit_hash(R)]
        B = [ras.coord((i, j)) for i in range(244) for j in range(244)
             if F(i, 243) + 2 * F(j, 243) < 2]
        assert (len(A), len(B)) == (42187, 44530)
        used = []
        monkeypatch.setattr(regions, "_directed_chamfer",
                            lambda X, Y: used.append(len(X)) or 0)
        monkeypatch.setattr(regions, "_directed_brute", None)
        ch.hausdorff_distance(A, B)
        assert used == [42187, 44530]

    def test_chamfer_matches_brute_force(self):
        from charp.regions import _directed_brute, _directed_chamfer
        import random
        rng = random.Random(9)
        A = [(rng.randrange(30), rng.randrange(30)) for _ in range(60)]
        B = [(rng.randrange(30), rng.randrange(30)) for _ in range(50)]
        assert _directed_chamfer(A, B) == _directed_brute(A, B)
        assert _directed_chamfer(B, A) == _directed_brute(B, A)


class TestSpanRank:
    def test_constant_function(self):
        ones = indicator(3, 1, 3, lambda t: True)
        r = ch.pfractal_span_rank(ones, 2)
        assert 1 <= r <= 16

    def test_zero_function(self):
        zero = indicator(3, 1, 2, lambda t: False)
        assert ch.pfractal_span_rank(zero, 1) == 0

    def test_rank_is_exact_on_integer_rows(self):
        # row 3 = 3 row 1 + row 2; dividing ints by ints would make the
        # pivots floats and this rank 3
        from charp.regions import _rank_over_q
        assert _rank_over_q([[6, 8, -6], [2, 4, 1], [20, 32, -8]]) == 2

    def test_region_values_are_ints(self, R, raster3):
        chi = ch.chi_function(raster3, Ideal(R, [R.var("x"), R.var("y")]))
        rho = ch.rho_function(raster3, (0, 0))
        moved = ch.apply_T(chi, TOperator(3, (2, 1)))
        for phi in (chi, rho, moved):
            assert {type(v) for v in phi.values.values()} == {int}
        assert type(chi.at((99, 99))) is int and chi.at((99, 99)) == 0

    def test_nondecreasing_on_matched_mesh(self, R, raster4):
        chi = ch.chi_function(raster4, Ideal(R, [R.var("x"), R.var("y")]))
        r1 = ch.pfractal_span_rank(chi, 1, out_mesh=2)
        r2 = ch.pfractal_span_rank(chi, 2, out_mesh=2)
        assert r1 <= r2

    def test_three_lines_chi_rank_stabilizes(self, R, raster4):
        # the p-fractal witness: the T-orbit span rank is the same at
        # c_max = 2 and c_max = 3
        chi = ch.chi_function(raster4, Ideal(R, [R.var("x"), R.var("y")]))
        r2 = ch.pfractal_span_rank(chi, 2)
        r3 = ch.pfractal_span_rank(chi, 3)
        assert r2 == r3 > 0
