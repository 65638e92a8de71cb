"""Constancy-region analytics for mixed test ideals.

Rasterized tau-class grids, characteristic functions chi_a^N, the
self-similarity operators T_{q|b} (raster and symbolic forms), the staircase
boundary generator for the three-lines example, boundary length, exact
max-norm Hausdorff distance, and the p-fractal span rank.

Regions are always compared as finite cell sets at a declared mesh: a cell
grid at mesh exponent k has lattice points m/p^k, 0 <= m <= T*p^k, per axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import lcm

from .cartier import CartierAlgebraSpec, MixedPair, _digit_walk, tau_mixed
from .ideals import Ideal, colon, frob_power
from .rings import pow_poly


@dataclass(frozen=True)
class TOperator:
    """The reindexing operator Phi(t) -> Phi((t + b)/q), q = p^c."""

    q: int
    offset: tuple

    def __post_init__(self):
        for b in self.offset:
            if not 0 <= b <= self.q:
                raise ValueError(f"offset {b} outside [0, {self.q}]")

    def level(self, p: int) -> int:
        c = 0
        q = self.q
        while q > 1:
            if q % p:
                raise ValueError(f"q = {self.q} is not a power of p = {p}")
            q //= p
            c += 1
        return c


class RasterGrid:
    """Per-cell tau-class ids on [0, T]^n at mesh p^-k.

    ``classes`` maps integer lattice tuples to the content hash of the
    reduced tau basis; ``ideals`` keeps one representative Ideal per class.
    """

    __slots__ = ("p", "T", "k", "n", "classes", "ideals")

    def __init__(self, p, T, k, n, classes, ideals):
        self.p = p
        self.T = Fraction(T)
        self.k = k
        self.n = n
        self.classes = classes
        self.ideals = ideals

    @property
    def side(self) -> int:
        """Lattice points per axis minus one (the top index)."""
        M = self.T * self.p ** self.k
        if M.denominator != 1:
            raise ValueError("T*p^k must be an integer")
        return int(M)

    def coord(self, idx):
        return tuple(Fraction(i, self.p ** self.k) for i in idx)

    def class_at(self, idx):
        return self.classes[tuple(idx)]

    def class_count(self) -> int:
        return len(self.ideals)


class RegionFunction:
    """Rational-valued function on a raster grid, with an optional ideal label
    marking it as the characteristic function chi_a^N."""

    __slots__ = ("p", "T", "k", "n", "values", "label")

    def __init__(self, p, T, k, n, values, label=None):
        self.p = p
        self.T = Fraction(T)
        self.k = k
        self.n = n
        self.values = values
        self.label = label
        if label is not None and any(v not in (0, 1) for v in values.values()):
            raise ValueError("chi-labeled functions take values in {0, 1}")

    @property
    def side(self) -> int:
        return int(self.T * self.p ** self.k)

    def at(self, idx):
        return self.values.get(tuple(idx), Fraction(0))


def _tau_at_cell(ideals, exponents, C):
    return tau_mixed(MixedPair(tuple(ideals), tuple(exponents)), C)


def constancy_raster(ideals, T, k, C=None) -> RasterGrid:
    """Evaluate tau at every lattice point of [0, T]^n at mesh p^-k.

    ``ideals`` lists the mixed family a_1..a_n; cell coordinates are the
    exponent vectors.  Principal a_i = (f_i) under the full algebra take the
    digit recursion of ``_digit_recursion``; twisted algebras and
    non-principal ideals evaluate ``tau_mixed`` cell by cell.
    """
    ideals = tuple(ideals)
    ring = ideals[0].ring
    if C is None:
        C = CartierAlgebraSpec.full_algebra(ring)
    grid = RasterGrid(ring.p, T, k, len(ideals), {}, {})
    if C.full and all(len(a.gens) == 1 for a in ideals):
        classes, table = _digit_recursion([a.gens[0] for a in ideals], grid, C)
        hashes = {cid: _class_hash(grid, classes[cid])
                  for cid in sorted(set(table.values()))}
        grid.classes = {idx: hashes[cid] for idx, cid in table.items()}
    else:
        for idx in iproduct(range(grid.side + 1), repeat=grid.n):
            tau = _tau_at_cell(ideals, grid.coord(idx), C)
            grid.classes[idx] = _class_hash(grid, tau)
    return grid


def _class_hash(grid: RasterGrid, tau: Ideal) -> str:
    """Register ``tau`` in ``grid.ideals`` under its content hash, refusing to
    let two different reduced bases share one hash."""
    h = tau.content_hash()
    seen = grid.ideals.setdefault(h, tau)
    if seen is not tau and seen.groebner() != tau.groebner():
        raise ArithmeticError(f"content hash {h} names two tau classes: "
                              f"{seen.canonical_str()} and {tau.canonical_str()}")
    return h


def _digit_recursion(fs, grid: RasterGrid, C: CartierAlgebraSpec):
    """tau at every cell of ``grid`` for a_i = (f_i) under the full algebra.

    Returns the classes (Ideals generated by their reduced bases) and the
    table cell -> class index.  The cell m has tau_k(m), where
    tau_j(m) = (prod f_i^m_i)^[1/p^j] (Blickle-Mustata-Smith 2008).  Write
    m = d p^(j-1) + r with r in [0, p^(j-1))^n: ``_digit_walk`` takes the
    digits of r first and d whole in its last step, so

        tau_j(m) = _digit_walk(fs, d, 1, tau_(j-1)(r), C).

    The table is built level by level from tau_0(m) = (prod f_i^m_i): for
    k >= 1 level 0 is the single cell tau_0(0) = (1), and for k = 0 it is the
    whole grid with no root taken.  Level j < k covers [0, p^j)^n capped at
    the grid side, which is all that level j + 1 looks up, so its top digits
    d lie in [0, p)^n; level k covers the grid, where d_i runs up to
    side // p^(k-1).  The step (d, class of
    tau_(j-1)(r)) -> class of tau_j(m) does not depend on j, so one memo
    serves every level.  Classes are interned by their reduced Groebner basis,
    so the memo key is canonical.
    """
    ring = fs[0].ring
    p, k, n, side = grid.p, grid.k, grid.n, grid.side
    classes = []
    index = {}  # reduced Groebner basis -> class index

    def intern(I):
        gb = I.groebner()
        cid = index.get(gb)
        if cid is None:
            cid = index[gb] = len(classes)
            classes.append(Ideal(ring, list(gb)))
        return cid

    steps = {}

    def step(d, cid):
        out = steps.get((d, cid))
        if out is None:
            out = steps[d, cid] = intern(_digit_walk(fs, d, 1, classes[cid], C))
        return out

    unit = Ideal(ring, [ring.one()])
    top = side if k == 0 else 0
    table = {m: intern(_digit_walk(fs, m, 0, unit, C))
             for m in iproduct(range(top + 1), repeat=n)}
    for j in range(1, k + 1):
        q = p ** (j - 1)
        top = side if j == k else min(side, p ** j - 1)
        table = {m: step(tuple(x // q for x in m),
                         table[tuple(x % q for x in m)])
                 for m in iproduct(range(top + 1), repeat=n)}
    return classes, table


def chi_function(raster: RasterGrid, N: Ideal) -> RegionFunction:
    """chi_a^N: cell value 1 iff tau at the cell is not contained in N."""
    escapes = {}
    for h, tau in raster.ideals.items():
        escapes[h] = 0 if N.contains_ideal(tau) else 1
    values = {idx: Fraction(escapes[h]) for idx, h in raster.classes.items()}
    return RegionFunction(raster.p, raster.T, raster.k, raster.n, values, label=N)


def rho_function(raster: RasterGrid, at_idx) -> RegionFunction:
    """rho_c: the indicator of the constancy region of the cell ``at_idx``."""
    target = raster.class_at(at_idx)
    values = {idx: Fraction(1 if h == target else 0)
              for idx, h in raster.classes.items()}
    return RegionFunction(raster.p, raster.T, raster.k, raster.n, values)


def apply_T(phi: RegionFunction, op: TOperator) -> RegionFunction:
    """Pointwise reindexing t -> (t + b)/q with extension by zero outside the
    source box.  The result lives at mesh k - c."""
    c = op.level(phi.p)
    if phi.k < c:
        raise ValueError(f"mesh exponent {phi.k} too coarse for q = {op.q}")
    if len(op.offset) != phi.n:
        raise ValueError("offset arity mismatch")
    k_t = phi.k - c
    p = phi.p
    side_t = int(phi.T * p ** k_t)
    side_s = phi.side
    values = {}
    for idx in iproduct(range(side_t + 1), repeat=phi.n):
        # (m/p^k_t + b)/q = (m + b p^k_t)/p^(k_t + c) on the source lattice
        j = tuple(m + b * p ** k_t for m, b in zip(idx, op.offset))
        if all(0 <= x <= side_s for x in j):
            values[idx] = phi.values.get(j, Fraction(0))
        else:
            values[idx] = Fraction(0)
    return RegionFunction(p, phi.T, k_t, phi.n, values, label=phi.label)


def compose_T(first: TOperator, then: TOperator, p: int) -> TOperator:
    """The single operator equal to ``then`` applied after ``first``:
    T_{q'|b'} (T_{q|b} Phi) = T_{q q' | b' + q' b} Phi."""
    q, b = first.q, first.offset
    qp, bp = then.q, then.offset
    return TOperator(q * qp, tuple(x + qp * y for x, y in zip(bp, b)))


def transform_chi_symbolic(N: Ideal, offsets, ideals) -> Ideal:
    """Symbolic form of T_{p|b} chi_a^N for principal a_i = (f_i) under the
    full algebra: returns N' = (N^[p] : prod f_i^b_i) with the guarantee
    T_{p|b} chi_a^N = chi_a^N'."""
    ring = N.ring
    p = ring.p
    fs = []
    for a in ideals:
        if len(a.gens) != 1:
            raise ValueError("transform requires principal ideals")
        fs.append(a.gens[0])
    if len(offsets) != len(fs):
        raise ValueError("offset arity mismatch")
    for b in offsets:
        if not 0 <= b <= p:
            raise ValueError(f"offset {b} outside [0, {p}]")
    mult = ring.one()
    for f, b in zip(fs, offsets):
        mult = mult * pow_poly(f, b)
    return colon(frob_power(N, 1), Ideal(ring, [mult]))


# --- the three-lines staircase ----------------------------------------------------


def three_lines_staircase(p: int, depth: int):
    """Exact boundary polyline of the first constancy region for the pair
    (x+y, xy) down to lattice p^-depth.

    Flats sit at t2 = 1 - (b+1)/(2 p^j) over t1 in [b/p^j, (b+1)/p^j] for b odd
    with all leading base-p digits even; elsewhere the boundary follows the
    diagonal t2 = 1 - t1/2 at this resolution.
    """
    if p < 3:
        raise ValueError("staircase requires an odd prime")

    def build(k):
        if k == 0:
            return [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1, 2))]
        sub = build(k - 1)
        verts = []
        for a in range(p):
            if a % 2 == 1:
                top = (Fraction(a, p), 1 - Fraction(a, 2 * p))
                bottom = (Fraction(a, p), 1 - Fraction(a + 1, 2 * p))
                end = (Fraction(a + 1, p), 1 - Fraction(a + 1, 2 * p))
                verts.extend([top, bottom, end])
            else:
                l = a // 2
                for (s, y) in sub:
                    verts.append((Fraction(s + a, p), Fraction(y + p - l - 1, p)))
        out = []
        for v in verts:
            if not out or out[-1] != v:
                out.append(v)
        return out

    return build(depth)


@dataclass(frozen=True)
class BoundaryLength:
    """Arc length split by exactness: axis-aligned parts are exact rationals,
    diagonal parts are double precision."""

    axis: Fraction
    diagonal: float

    @property
    def total(self) -> float:
        return float(self.axis) + self.diagonal


def boundary_length(polyline) -> BoundaryLength:
    axis = Fraction(0)
    diag = 0.0
    for (x0, y0), (x1, y1) in zip(polyline, polyline[1:]):
        dx, dy = x1 - x0, y1 - y0
        if dx == 0 or dy == 0:
            axis += abs(dx) + abs(dy)
        else:
            diag += float(dx * dx + dy * dy) ** 0.5
    return BoundaryLength(axis, diag)


def staircase_partial_sum(p: int, K: int) -> Fraction:
    """Partial sum of the staircase length series:
    sum_{k=1..K} (3/2) p^-k ((p+1)/2)^(k-1) (p-1)/2; the full series sums
    to 3/2."""
    total = Fraction(0)
    for k in range(1, K + 1):
        total += (Fraction(3, 2) * Fraction(1, p ** k)
                  * Fraction(p + 1, 2) ** (k - 1) * Fraction(p - 1, 2))
    return total


# --- Hausdorff distance -----------------------------------------------------------


def hausdorff_distance(A, B) -> Fraction:
    """Exact max-norm Hausdorff distance between two finite point sets whose
    coordinates are rationals.  Uses a chessboard distance transform when both
    sets live on a common 2D lattice and are large; otherwise brute force."""
    A, B = list(A), list(B)
    if not A or not B:
        raise ValueError("Hausdorff distance needs nonempty sets")
    L = lcm(*{c.denominator for pt in A + B for c in map(Fraction, pt)})
    Ai = [tuple(int(Fraction(c) * L) for c in pt) for pt in A]
    Bi = [tuple(int(Fraction(c) * L) for c in pt) for pt in B]
    n = len(Ai[0])
    if n == 2 and len(Ai) * len(Bi) > 4_000_000:
        d = max(_directed_chamfer(Ai, Bi), _directed_chamfer(Bi, Ai))
    else:
        d = max(_directed_brute(Ai, Bi), _directed_brute(Bi, Ai))
    return Fraction(d, L)


def _directed_brute(A, B) -> int:
    worst = 0
    for a in A:
        best = None
        for b in B:
            d = max(abs(x - y) for x, y in zip(a, b))
            if best is None or d < best:
                best = d
                if best <= worst:
                    break
        if best > worst:
            worst = best
    return worst


def _directed_chamfer(A, B) -> int:
    """sup_{a in A} min_{b in B} Chebyshev(a, b) on a 2D integer lattice,
    by an exact two-pass chessboard distance transform."""
    pts = A + B
    x0 = min(p[0] for p in pts)
    x1 = max(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    y1 = max(p[1] for p in pts)
    W, H = x1 - x0 + 1, y1 - y0 + 1
    INF = W + H + 1
    dist = [[INF] * W for _ in range(H)]
    for (x, y) in B:
        dist[y - y0][x - x0] = 0
    for r in range(H):
        row = dist[r]
        up = dist[r - 1] if r > 0 else None
        for c in range(W):
            d = row[c]
            if c > 0 and row[c - 1] + 1 < d:
                d = row[c - 1] + 1
            if up is not None:
                if up[c] + 1 < d:
                    d = up[c] + 1
                if c > 0 and up[c - 1] + 1 < d:
                    d = up[c - 1] + 1
                if c < W - 1 and up[c + 1] + 1 < d:
                    d = up[c + 1] + 1
            row[c] = d
    for r in range(H - 1, -1, -1):
        row = dist[r]
        down = dist[r + 1] if r < H - 1 else None
        for c in range(W - 1, -1, -1):
            d = row[c]
            if c < W - 1 and row[c + 1] + 1 < d:
                d = row[c + 1] + 1
            if down is not None:
                if down[c] + 1 < d:
                    d = down[c] + 1
                if c > 0 and down[c - 1] + 1 < d:
                    d = down[c - 1] + 1
                if c < W - 1 and down[c + 1] + 1 < d:
                    d = down[c + 1] + 1
            row[c] = d
    return max(dist[y - y0][x - x0] for (x, y) in A)


# --- p-fractal span rank ----------------------------------------------------------


def pfractal_span_rank(phi: RegionFunction, c_max: int,
                       out_mesh: int | None = None) -> int:
    """Rank over Q of the span of all T_{q|b} phi_0 with q = p^c, c <= c_max,
    rasterized on a common mesh (default: the coarsest supported, k - c_max).

    Passing the same ``out_mesh`` for several values of c_max compares nested
    row families, making the rank non-decreasing in c_max."""
    if phi.k < c_max:
        raise ValueError("grid mesh does not support all requested operators")
    p = phi.p
    k_t = phi.k - c_max if out_mesh is None else out_mesh
    if k_t < 0 or k_t > phi.k - c_max:
        raise ValueError("out_mesh incompatible with the source mesh")
    side_t = int(phi.T * p ** k_t)
    cols = list(iproduct(range(side_t + 1), repeat=phi.n))
    rows = set()
    for c in range(c_max + 1):
        q = p ** c
        for offset in iproduct(range(q + 1), repeat=phi.n):
            row = []
            for idx in cols:
                j = tuple((m + b * p ** k_t) * p ** (phi.k - k_t - c)
                          for m, b in zip(idx, offset))
                if all(0 <= x <= phi.side for x in j):
                    row.append(phi.values.get(j, Fraction(0)))
                else:
                    row.append(Fraction(0))
            rows.add(tuple(row))
    return _rank_over_q([list(r) for r in rows])


def _rank_over_q(rows) -> int:
    pivots = []
    for row in rows:
        row = list(row)
        for pcol, prow in pivots:
            f = row[pcol]
            if f:
                row = [a - f * b for a, b in zip(row, prow)]
        lead = next((i for i, v in enumerate(row) if v), None)
        if lead is not None:
            lv = row[lead]
            pivots.append((lead, [v / lv for v in row]))
    return len(pivots)
