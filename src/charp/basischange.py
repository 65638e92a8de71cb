"""Change of p-basis machinery: jacobians, Frobenius jacobians, the dual
generator ratio xi with its det^(p-1) identity, the xi operator on matrices,
and the combinatorial identity behind the same result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import (accumulate, chain, permutations, product as iproduct,
                       repeat)
from operator import add, mul, sub
from random import Random

from .frobenius import decompose
from .ideals import BudgetExceeded, VerificationError, exact_div
from .rings import (Polynomial, RingCtx, _is_prime, frob, partial_derivative,
                    poly_str, pow_poly)

FROBJAC_SIZE_BUDGET = 81
EXHAUSTIVE_PAIR_BUDGET = 5_000_000  # |GL_n(F_p)|^2 pairs in one sweep
XI_TERM_BUDGET = 200_000  # admissible matrices, so xi terms, of one (p, n)


class PolyMatrix:
    """Square matrix over a polynomial ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: RingCtx, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        if n < 1 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and nonempty")

    @property
    def size(self):
        return len(self.rows)

    def det(self) -> Polynomial:
        return det_poly(self.ring, [list(r) for r in self.rows])

    def __repr__(self):
        body = "; ".join(", ".join(poly_str(x) for x in r) for r in self.rows)
        return f"PolyMatrix[{body}]"


def det_poly(ring: RingCtx, rows) -> Polynomial:
    """Fraction-free (Bareiss) determinant with column pivoting."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero()),
                         None)
            if pivot is None:
                return ring.zero()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = ring.zero() if num.is_zero() else exact_div(num, prev)
            m[i][k] = ring.zero()
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d.scale(sign % ring.p) if sign != 1 else d


def jacobian(new_basis, ring: RingCtx) -> PolyMatrix:
    """J with dy_i = sum_j J_ij dx_j, derivatives along the fiber variables."""
    fiber = list(ring.fiber_indices)
    if len(new_basis) != len(fiber):
        raise ValueError("candidate basis size must match the fiber arity")
    rows = [[partial_derivative(y, j) for j in fiber] for y in new_basis]
    return PolyMatrix(ring, rows)


def _level(ring: RingCtx, e: int) -> int:
    """q = p^e for a level e >= 1; any other e is a usage error."""
    if e < 1:
        raise ValueError("e must be positive")
    return ring.p ** e


def _basis_powers(new_basis, ring: RingCtx, e: int) -> dict:
    """{j: y^j} for the candidate fiber basis y and every j in [0, q)^n,
    q = p^e and n the fiber arity, in lexicographic order of j."""
    n = len(ring.fiber_indices)
    if len(new_basis) != n:
        raise ValueError("candidate basis size must match the fiber arity")
    one = ring.one()
    return {j: math.prod(map(pow_poly, new_basis, j), start=one)
            for j in iproduct(range(_level(ring, e)), repeat=n)}


def frobenius_jacobian(new_basis, ring: RingCtx, e: int = 1) -> PolyMatrix:
    """The q^n x q^n change-of-basis matrix between the Frobenius monomial
    bases: entry (i, j) is ``decompose(y^j).operator(i)``, the operator on
    F^e_* S that ``decompose`` stores for y^j at the chart's own fiber
    monomial x^i, the fiber being the variables after ``n_base``.  Rows and
    columns follow ``_basis_powers``; every decomposition must recompose to
    its y^j."""
    size = _level(ring, e) ** len(ring.fiber_indices)
    if size > FROBJAC_SIZE_BUDGET:
        raise BudgetExceeded(f"Frobenius jacobian of size {size} exceeds "
                             f"the budget {FROBJAC_SIZE_BUDGET}")
    powers = _basis_powers(new_basis, ring, e)
    columns = [decompose(yj, e) for yj in powers.values()]
    if any(dec.recompose() != yj
           for dec, yj in zip(columns, powers.values())):
        raise VerificationError("Frobenius jacobian recomposition failed; "
                                "this is an internal error")
    return PolyMatrix(ring, [[dec.operator(i) for dec in columns]
                             for i in powers])


def _is_unit_operator(det: Polynomial, ring: RingCtx, q: int) -> bool:
    """Is an operator-form determinant a unit of S (x) F^e_* R?"""
    if det.is_zero():
        return False
    if not ring.laurent:
        return det.is_constant()
    if len(det.terms) != 1:
        return False
    (m, _), = det.terms.items()
    return all(m[i] % q == 0 for i in ring.fiber_indices)


def validate_basis(candidate, ring: RingCtx):
    """(is_d_basis, is_p_basis) for a candidate fiber basis.

    d-basis: det of the jacobian is a unit.  p-basis: the Frobenius jacobian
    at e = 1 is invertible over S (x) F_* R.  The two answers must agree
    (they are equivalent for regular charts); disagreement is a fatal
    internal error.
    """
    is_d = jacobian(candidate, ring).det().is_unit()
    Xi = frobenius_jacobian(candidate, ring)
    is_p = _is_unit_operator(Xi.det(), ring, ring.p)
    if is_d != is_p:
        raise VerificationError(
            f"d-basis/p-basis disagreement for {[poly_str(c) for c in candidate]}: "
            f"d={is_d}, p={is_p}; this is an internal error")
    return is_d, is_p


def dual_generator_ratio(new_basis, ring: RingCtx, e: int = 1) -> Polynomial:
    """The unit xi with (F_* x^(q-1))^dual = (F_* y^(q-1))^dual . F_* xi.

    Extracted from the top row of the base-change relation at e = 1
    (``dual_ratio_direct``, which refuses charts with base variables);
    larger e reuses it through the cocycle xi_{e+1} = xi_1 * frob(xi_e, 1).
    The identity xi = det(J)^(q-1) is asserted before returning.
    """
    _level(ring, e)  # a bad e is refused before the basis is validated
    is_d, is_p = validate_basis(new_basis, ring)
    if not (is_d and is_p):
        raise ValueError("candidate is not a p-basis")
    return _validated_ratio(new_basis, ring, e)


def _validated_ratio(new_basis, ring: RingCtx, e: int) -> Polynomial:
    """``dual_generator_ratio`` for a candidate that ``validate_basis`` has
    already found a p-basis, which ``charp basis-change`` validates once
    itself."""
    q = _level(ring, e)
    xi_1 = dual_ratio_direct(new_basis, ring, 1)
    xi = xi_1
    for _ in range(e - 1):
        xi = xi_1 * frob(xi, 1)
    expected = pow_poly(jacobian(new_basis, ring).det(), q - 1)
    if xi != expected:
        raise VerificationError("xi != det(J)^(q-1); this is an internal error")
    return xi


def dual_ratio_direct(new_basis, ring: RingCtx, e: int) -> Polynomial:
    """Level-e extraction done in one shot: the sum over j in [0, q)^n of
    the top component of y^j, as an operator, times y^(q-1-j), both powers
    read from ``_basis_powers``.  Defined on absolute charts only.
    ``dual_generator_ratio`` uses it at e = 1; at e >= 2 it cross-checks
    that function's cocycle route."""
    if ring.n_base != 0:
        raise ValueError("dual generator ratio is defined on absolute charts")
    powers = _basis_powers(new_basis, ring, e)
    q = ring.p ** e
    top = (q - 1,) * ring.nvars
    xi = ring.zero()
    for j, yj in powers.items():
        xi = xi + decompose(yj, e).operator(top) \
            * powers[tuple(q - 1 - k for k in j)]
    return xi


# --- the xi operator on scalar matrices -------------------------------------------


def _check_prime(p: int):
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _check_group(p: int, n: int):
    """GL_n(F_p) needs a prime p and n >= 1; anything else is a usage error."""
    _check_prime(p)
    if n < 1:
        raise ValueError(f"matrix size n = {n} must be at least 1")


def admissible_matrices(p: int, n: int):
    """All n x n matrices with entries in [0, p-1] whose rows and columns each
    sum to p-1, at most XI_TERM_BUDGET of them: the next one raises
    BudgetExceeded instead.  Every prefix of rows extends to a matrix, and
    the last row is forced, the column sums left over, so the enumeration
    takes time in proportion to its output."""
    _check_group(p, n)
    target = p - 1

    def rows(remaining_cols, depth):
        if depth == 1:
            yield (remaining_cols,)
            return
        for row in _compositions(target, n, remaining_cols):
            rest = tuple(map(sub, remaining_cols, row))
            for tail in rows(rest, depth - 1):
                yield (row,) + tail

    def bounded():
        for count, a in enumerate(rows((target,) * n, n)):
            if count == XI_TERM_BUDGET:
                raise BudgetExceeded(
                    f"more than {XI_TERM_BUDGET:,} admissible {n} x {n} "
                    f"matrices for p = {p}, over the xi term budget")
            yield a

    return bounded()


def _compositions(total, parts, caps):
    """The tuples of ``parts`` entries in [0, caps[k]] summing to ``total``,
    in lexicographic order; a head that leaves more than the caps after it
    can hold is skipped, and a zero total ends in zeros at once."""
    if not total:
        yield (0,) * parts
        return
    if parts == 1:
        if total <= caps[0]:
            yield (total,)
        return
    low = max(0, total - sum(caps[1:]))
    for head in range(low, min(total, caps[0]) + 1):
        for tail in _compositions(total - head, parts - 1, caps[1:]):
            yield (head,) + tail


def _xi_terms(p: int, n: int):
    """One (multinomial coefficient mod p, ((l*n + k, a_lk), ...)) pair per
    admissible matrix a, listing only its nonzero entries by their row-major
    flat index.  The matrices are all listed, under XI_TERM_BUDGET, before
    any term is built, and the terms share one tuple per (l*n + k, a_lk).
    By Wilson's theorem, (p-1)! = -1 mod p, so c(a) = prod_k (p-1)!/prod_l
    a_lk! is (-1)^n / prod a_lk! mod p."""
    key = (p, n)
    cached = _XI_TERMS_CACHE.get(key)
    if cached is None:
        pair = {}
        supports = [tuple([pair.setdefault(ie, ie)
                           for ie in enumerate(chain(*a)) if ie[1]])
                    for a in list(admissible_matrices(p, n))]
        inv = _inverse_factorials(p, {e for f in supports for _, e in f})
        cached = _XI_TERMS_CACHE[key] = tuple(
            ((-1) ** n * math.prod(inv[e] for _, e in f) % p, f)
            for f in supports)
    return cached


def _inverse_factorials(p: int, values) -> dict:
    """{a: 1/a! mod p} for the a in ``values``, each in [0, p).  Wilson's
    theorem gives a! (p-1-a)! = (-1)^(a+1) mod p, so 1/a! is
    (-1)^(a+1) (p-1-a)! and no factorial past (p-1)/2 is multiplied out:
    the one entry p-1 of a 1 x 1 table costs nothing at any p."""
    top = max(min(a, p - 1 - a) for a in values)
    fact = list(accumulate(range(1, top + 1), lambda f, i: f * i % p,
                           initial=1))
    return {a: pow(fact[a], -1, p) if 2 * a < p else
            (-1) ** (a + 1) * fact[p - 1 - a] % p for a in values}


_XI_TERMS_CACHE: dict = {}


def _det_terms(n: int):
    """Leibniz's expansion of an n x n determinant in the same form: one
    (sgn sigma, ((i*n + sigma(i), 1), ...)) per permutation sigma.  Each
    (p-1) P_sigma is admissible, so n! is at most the length of any
    ``_xi_terms(p, n)``: a caller that has that table may build this one."""
    cached = _DET_TERMS_CACHE.get(n)
    if cached is None:
        cached = _DET_TERMS_CACHE[n] = tuple(
            (_sgn(sigma), tuple((i * n + j, 1) for i, j in enumerate(sigma)))
            for sigma in permutations(range(n)))
    return cached


_DET_TERMS_CACHE: dict = {}


def _term_sum(m, terms, p: int) -> int:
    """The sum mod p of coeff * prod m[i]^e over the (coeff, ((i, e), ...))
    of ``terms``, for a flat matrix ``m`` of residues; every e > 0, so a
    zero entry ends its term."""
    total = 0
    for coeff, factors in terms:
        for i, e in factors:
            if not m[i]:
                break
            coeff *= m[i] ** e
        else:
            total += coeff
    return total % p


def _xi_flat(m, p: int, n: int) -> int:
    """xi of a flat, row-major n x n matrix of residues mod p."""
    return _term_sum(m, _xi_terms(p, n), p)


def _det_flat(m, p: int, n: int) -> int:
    """det mod p of a flat, row-major n x n matrix of residues mod p."""
    return _term_sum(m, _det_terms(n), p)


def _square_size(mu) -> int:
    """n for an n x n matrix ``mu`` with n >= 1, else ValueError."""
    n = len(mu)
    if not n or {*map(len, mu)} != {n}:
        raise ValueError(f"expected an n x n matrix with n >= 1, got row "
                         f"lengths {[len(row) for row in mu]}")
    return n


def xi_operator(mu, p: int) -> int:
    """Exact evaluation mod p of the sum over arithmetic doubly stochastic
    matrices a of (p-1)!^n / prod a_lk! * prod mu_lk^a_lk."""
    n = _square_size(mu)
    return _xi_flat(tuple([x % p for row in mu for x in row]), p, n)


def xi_operator_poly(mu_rows, p: int) -> Polynomial:
    """Same sum with polynomial entries; the ring-level identity oracle.  The
    rows must form an n x n matrix, n >= 1, over a ring of characteristic p."""
    n = _square_size(mu_rows)
    ring = mu_rows[0][0].ring
    if p != ring.p:
        raise ValueError(f"p = {p} but the entries lie in a ring of "
                         f"characteristic {ring.p}")
    m = [x for row in mu_rows for x in row]
    total = ring.zero()
    for coeff, factors in _xi_terms(p, n):
        prod = ring.const(coeff)
        for i, e in factors:
            prod = prod * pow_poly(m[i], e)
        total = total + prod
    return total


def det_mod_p(mu, p: int) -> int:
    """Determinant of a square integer matrix mod a prime p, by fraction-free
    (Bareiss) elimination over the integers, reduced mod p at the end.  The
    public determinant for any n; ``verify_det_identity`` reads its dets off
    Leibniz's expansion instead (``_det_flat``)."""
    n = _square_size(mu)
    _check_prime(p)
    m = [list(row) for row in mu]
    sign = prev = 1
    for k in range(n - 1):
        row = m[k]
        if not row[k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    break
            else:
                return 0
            m[k], m[i] = m[i], row
            row = m[k]
            sign = -sign
        pivot = row[k]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(pivot * x - f * y) // prev for x, y in zip(m[i], row)]
        prev = pivot
    return sign * m[-1][-1] % p


@dataclass
class IdentityReport:
    p: int
    n: int
    mode: str
    checked: int = 0
    pairs_checked: int = 0
    counterexamples: list = field(default_factory=list)
    distinct: int = 0  # matrices whose xi was evaluated

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_det_identity(p: int, n: int, mode: str = "exhaustive",
                        count: int = 1000, seed: int = 0) -> IdentityReport:
    """Check xi(mu) = det(mu)^(p-1) and multiplicativity xi(mu nu) =
    xi(mu) xi(nu) over GL_n(F_p), exhaustively or on seeded random samples.

    Matrices are handled as flat row-major tuples of residues, and (p, n) is
    checked once, here: det and xi are sparse term sums over the flat tuple
    (``_det_flat`` and ``_xi_flat``).  The xi table is fetched first, so a
    (p, n) with more than XI_TERM_BUDGET admissible matrices raises
    BudgetExceeded before any matrix is drawn, and the det table, no longer
    than it, is built only after it.  Every sample and pair is checked, but each
    distinct matrix gets one memo entry (``_entry``) and xi is evaluated
    once per distinct matrix, in memos local to this call; no sample list is
    kept.  An exhaustive sweep of more than EXHAUSTIVE_PAIR_BUDGET pairs is
    refused; it looks products up by index (``_exhaustive_pairs``)."""
    _check_group(p, n)
    if mode == "exhaustive":
        pairs = math.prod(p ** n - p ** k for k in range(n)) ** 2
        if pairs > EXHAUSTIVE_PAIR_BUDGET:
            raise BudgetExceeded(f"exhaustive GL{n}(F{p}) has {pairs:,} pairs, "
                                 f"over the budget of {EXHAUSTIVE_PAIR_BUDGET:,}")
    elif mode != "random":
        raise ValueError(f"unknown mode {mode!r}")
    elif count < 1:
        raise ValueError(f"random sample count {count} must be at least 1")
    _xi_terms(p, n)  # first: its budget bounds the det table _entry builds
    xis = {}
    if mode == "exhaustive":
        group = [(mu, entry) for mu in iproduct(range(p), repeat=n * n)
                 if (entry := _entry(mu, p, n, xis))]
        bad = [entry[1] for _, entry in group if entry[1]]
        return IdentityReport(p, n, mode, len(group), pairs,
                              bad + _exhaustive_pairs(group, p, n), len(xis))
    memo, bad, bad_pairs = {}, [], []
    get, xi_get = memo.get, xis.get
    left, prev = count, None  # prev: (xi, rows) of the previous sample
    for mu in _random_sample(Random(seed), p, n):
        entry = get(mu, False)
        if entry is False:
            entry = memo[mu] = _entry(mu, p, n, xis)
        if entry is None:  # singular: drawn again
            continue
        x, fault, rows, cols = entry
        if fault:
            bad.append(fault)
        if prev:
            y, prev_rows = prev
            prod = tuple([sum(map(mul, row, col)) % p
                          for row in prev_rows for col in cols])
            lhs = xi_get(prod)
            if lhs is None:
                lhs = xis[prod] = _xi_flat(prod, p, n)
            if lhs != y * x % p:
                bad_pairs.append(("multiplicativity", (prev_rows, rows), lhs,
                                  y * x % p))
        left -= 1
        if not left:
            break
        prev = x, rows
    return IdentityReport(p, n, mode, count, count - 1, bad + bad_pairs,
                          len(xis))


def _rows(mu, n):
    """The nested rows of a flat n x n matrix ``mu``."""
    return tuple([mu[i:i + n] for i in range(0, n * n, n)])


def _entry(mu, p, n, xis):
    """The memo entry of a flat matrix ``mu`` of residues mod p: None if it
    is singular, else (xi(mu), its identity counterexample or None, its
    nested rows, its columns).  det and xi are read off the flat tuple by
    ``_det_flat`` and ``_xi_flat``, with (p, n) already checked; xi comes
    from the memo ``xis`` if a product has already put it there."""
    d = _det_flat(mu, p, n)
    if not d:
        return None
    x = xis.get(mu)
    if x is None:
        x = xis[mu] = _xi_flat(mu, p, n)
    rows = _rows(mu, n)
    rhs = pow(d, p - 1, p)
    return (x, ("identity", rows, x, rhs) if x != rhs else None, rows,
            tuple([mu[j::n] for j in range(n)]))


def _exhaustive_pairs(group, p, n):
    """The multiplicativity counterexamples over all pairs (mu, nu) of
    ``group``, mu outer, for ``group`` the (flat mu, ``_entry`` of mu) of
    every element of GL_n(F_p).

    A product lies in the group, so its xi is looked up by index: the code
    of a flat matrix e is sum e_k p^k, and ``xi_of[code]`` holds xi.
    With c_j(nu) the index of column j of nu among the vectors of F_p^n,
    the code of mu nu is sum_j p^j V[c_j(nu)], where
    V[c] = sum_i (row_i(mu) . c mod p) p^(i n) is built once per mu.  So
    the codes of mu nu for every nu come from n list lookups per nu, all
    inside ``map``, and a row of pairs is compared in one go."""
    index = {v: i for i, v in enumerate(iproduct(range(p), repeat=n))}
    xi_of = [None] * p ** (n * n)
    for mu, entry in group:
        xi_of[sum(e * p ** k for k, e in enumerate(mu))] = entry[0]
    cols = [[index[mu[j::n]] for mu, _ in group] for j in range(n)]
    ys = [entry[0] for _, entry in group]
    want, bad = {}, []
    for _, (x, _, rows, _) in group:
        V = [0] * len(index)
        for i, row in enumerate(rows):
            dots = [0]  # row . v mod p for v in F_p^n, in ``index`` order
            for r in row:
                dots = [(a + r * d) % p for a in dots for d in range(p)]
            w = p ** (i * n)
            V = [v + w * c for v, c in zip(V, dots)]
        codes = map(V.__getitem__, cols[0])
        for j in range(1, n):
            w = p ** j
            codes = map(add, codes, map([w * c for c in V].__getitem__,
                                        cols[j]))
        lhs = list(map(xi_of.__getitem__, codes))
        rhs = want.get(x)
        if rhs is None:
            rhs = want[x] = [x * y % p for y in ys]
        if lhs != rhs:
            bad += [("multiplicativity", (rows, nu), l, r)
                    for (_, (_, _, nu, _)), l, r in zip(group, lhs, rhs)
                    if l != r]
    return bad


def _random_sample(rng, p, n):
    """Flat n x n matrices mod p, without end: the entries, row-major, are
    the values ``rng.randrange(p)`` would draw, each the first of the
    ``rng.getrandbits(p.bit_length())`` calls to fall below p, and no call is
    made before its matrix is asked for."""
    draws = filter(p.__gt__, map(rng.getrandbits, repeat(p.bit_length())))
    return zip(*[draws] * (n * n))


# --- the combinatorial identity ----------------------------------------------------


def _sgn(sigma) -> int:
    inv = sum(1 for i in range(len(sigma)) for j in range(i + 1, len(sigma))
              if sigma[i] > sigma[j])
    return -1 if inv % 2 else 1


def combinatorial_identity_check(p: int, n: int, a):
    """For an admissible matrix a, compare the multinomial side with the
    signed sum over b: S_n -> [0, p-1] with sum b = p-1 and
    sum_sigma b_sigma P_sigma = a.  Returns (lhs, rhs, equal) mod p."""
    _check_group(p, n)
    a = tuple(tuple(row) for row in a)
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError(f"a must be an {n} x {n} matrix")
    if any(not 0 <= x <= p - 1 for row in a for x in row):
        raise ValueError("entries must lie in [0, p-1]")
    if any(sum(row) != p - 1 for row in a) or \
       any(sum(a[l][k] for l in range(n)) != p - 1 for k in range(n)):
        raise ValueError("rows and columns must each sum to p-1")
    fact = math.factorial
    lhs = math.prod(fact(p - 1) // math.prod(map(fact, col))
                    for col in zip(*a)) % p
    perms = list(permutations(range(n)))
    signs = [_sgn(s) for s in perms]
    # sum_sigma b_sigma P_sigma = a forces b_sigma <= a[k][sigma(k)] for all k
    caps = [min(a[k][s[k]] for k in range(n)) for s in perms]
    rhs = 0
    for b in _compositions(p - 1, len(perms), caps):
        built = [[0] * n for _ in range(n)]
        for b_s, sigma in zip(b, perms):
            for k in range(n):
                built[k][sigma[k]] += b_s
        if tuple(tuple(r) for r in built) != a:
            continue
        coeff = fact(p - 1)
        for x in b:
            coeff //= fact(x)
        sign = 1
        for b_s, s in zip(b, signs):
            if s < 0 and b_s % 2:
                sign = -sign
        rhs = (rhs + sign * coeff) % p
    return lhs, rhs, lhs == rhs


def falling_factorial_sums(p: int):
    """sum_{j=i}^{p-1} prod_{k<i} (j-k) mod p for i = 1..p-1; the claim is
    0 for i <= p-2 and -1 for i = p-1.  A non-prime p raises ValueError."""
    _check_prime(p)
    sums = [0] * p  # index i
    for j in range(p):
        ff = 1
        for i in range(1, j + 1):
            ff = ff * (j - i + 1) % p
            sums[i] = (sums[i] + ff) % p
    return {i: sums[i] for i in range(1, p)}


def falling_factorial_claim_holds(p: int) -> bool:
    sums = falling_factorial_sums(p)
    return all(v == 0 for i, v in sums.items() if i <= p - 2) and \
        sums[p - 1] == (p - 1) % p
