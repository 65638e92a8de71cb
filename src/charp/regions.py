"""Constancy-region analytics for mixed test ideals.

Rasterized tau-class grids, characteristic functions chi_a^N, the
self-similarity operators T_{q|b} (raster and symbolic forms), the staircase
boundary generator for the three-lines example, boundary length, exact
max-norm Hausdorff distance, and the p-fractal span rank.

Regions are always compared as finite cell sets at a declared mesh: a cell
grid at mesh exponent k has lattice points m/p^k, 0 <= m <= T*p^k, per axis.
A ``RasterGrid`` keeps its classes as one flat list over those points in
``itertools.product`` order, the order the digit recursion fills and the
CSV writer reads row by row through ``raster_rows`` (the SVG writer,
``cli._raster_svg``, reads it a column at a time); no writer builds a
per-cell index, Fraction or string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm

from .cartier import (CartierAlgebraSpec, MixedPair, _automaton, _tau_state,
                      tau_mixed)
from .ideals import BudgetExceeded, Ideal, VerificationError, colon, frob_power
from .rings import _is_prime, pow_poly

RASTER_CELL_BUDGET = 1_000_000  # lattice points (side + 1)^n in one raster
ROW_RUN = 1024  # most cells in one piece of ``raster_rows``


@dataclass(frozen=True)
class TOperator:
    """The reindexing operator Phi(t) -> Phi((t + b)/q), q = p^c."""

    q: int
    offset: tuple

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q = {self.q} must be at least 1")
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
    """Per-cell tau classes on [0, T]^n at mesh p^-k.

    ``cells`` holds the content hash of the reduced tau basis at every
    lattice point of [0, side]^n, in ``itertools.product`` order (the last
    axis fastest); ``ideals`` keeps one representative Ideal per class.
    A grid of more than RASTER_CELL_BUDGET points is refused on creation.
    """

    __slots__ = ("p", "T", "k", "n", "side", "cells", "ideals")

    def __init__(self, p, T, k, n, cells, ideals):
        self.p = p
        self.T = Fraction(T)
        self.k = k
        self.n = n
        if k < 0 or self.T < 0:
            raise ValueError("T*p^k must be a nonnegative integer, k >= 0")
        # T >= 1/den(T) > 0 gives T p^k >= 2^k / den(T): refuse a huge k
        # before building p^k
        cap = RASTER_CELL_BUDGET * self.T.denominator
        if self.T and k > cap.bit_length():
            raise BudgetExceeded(f"a raster at mesh {p}^-{k} exceeds the "
                                 f"budget of {RASTER_CELL_BUDGET:,} cells")
        M = self.T * p ** k
        if M.denominator != 1:
            raise ValueError("T*p^k must be a nonnegative integer, k >= 0")
        self.side = int(M)  # lattice points per axis minus one
        if (self.side + 1) ** n > RASTER_CELL_BUDGET:
            raise BudgetExceeded(f"a raster of {self.side + 1}^{n} cells "
                                 f"exceeds the budget of "
                                 f"{RASTER_CELL_BUDGET:,}")
        self.cells = cells
        self.ideals = ideals

    def coord(self, idx):
        return tuple(Fraction(i, self.p ** self.k) for i in idx)

    def class_at(self, idx):
        if len(idx) != self.n or not all(0 <= i <= self.side for i in idx):
            raise KeyError(tuple(idx))
        offset = 0
        for i in idx:
            offset = offset * (self.side + 1) + i
        return self.cells[offset]

    def items(self):
        """(lattice index, class hash) pairs, in ``cells`` order."""
        return zip(iproduct(range(self.side + 1), repeat=self.n), self.cells)

    def class_count(self) -> int:
        return len(self.ideals)


def raster_rows(ras: RasterGrid, leads, label, tails):
    """The text of the cells of ``ras``, one line per cell, for the CSV
    writer: one piece per grid row (the side + 1 cells that share their
    first n - 1 indices), in ``cells`` order; a row of more than ROW_RUN
    cells, such as the single row of a one-parameter raster, comes as runs
    of ROW_RUN cells along the last axis.

    The cell (..., j) of class h is the line lead + label(j) + tails[h],
    where lead is the row's entry of ``leads`` and each tail ends in a
    newline.  A piece is joined from one list whose label slots are set
    once, whose lead slots are set once per piece and whose tail slots are
    one dict lookup per cell, so no cell builds a string of its own.  Only
    a long row's runs take labels of their own (by the cell budget only a
    one-parameter raster, a single row, has such a row).  A caller that
    writes each piece as it comes holds the text of at most ROW_RUN cells
    at a time.
    """
    w = ras.side + 1
    run = min(w, ROW_RUN)
    parts = [None] * (3 * run)
    parts[1::3] = map(label, range(run))
    cells = ras.cells
    for start, lead in zip(range(0, len(cells), w), leads):
        for lo in range(0, w, run):
            hi = min(lo + run, w)
            if w > run:
                parts = [None] * (3 * (hi - lo))
                parts[1::3] = map(label, range(lo, hi))
            parts[::3] = [lead] * (hi - lo)
            parts[2::3] = map(tails.__getitem__, cells[start + lo:start + hi])
            yield "".join(parts)


def raster_csv_pieces(ras: RasterGrid):
    """The raster's CSV text in pieces: the header line, then the pieces of
    ``raster_rows``.  A cell's line is its coordinates i/p^k, each written
    reduced as NUM,DEN, and its class hash last.  A row's lead is the labels
    NUM,DEN, of its first n - 1 indices."""
    P = ras.p ** ras.k

    def label(i):
        g = gcd(i, P)
        return f"{i // g},{P // g},"

    yield ",".join(f"t{i+1}_num,t{i+1}_den"
                   for i in range(ras.n)) + ",class_hash\n"
    # the labels of the first n - 1 axes; a one-parameter raster has none
    axis = list(map(label, range(ras.side + 1))) if ras.n > 1 else ()
    leads = map("".join, iproduct(axis, repeat=ras.n - 1))
    yield from raster_rows(ras, leads, label,
                           {h: h + "\n" for h in ras.ideals})


def raster_csv(ras: RasterGrid) -> str:
    """The raster as CSV text: the join of ``raster_csv_pieces``."""
    return "".join(raster_csv_pieces(ras))


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
        return self.values.get(tuple(idx), 0)


def _tau_at_cell(ideals, exponents, C):
    return tau_mixed(MixedPair(tuple(ideals), tuple(exponents)), C)


def constancy_raster(ideals, T, k, C=None) -> RasterGrid:
    """Evaluate tau at every lattice point of [0, T]^n at mesh p^-k.

    ``ideals`` lists the mixed family a_1..a_n; cell coordinates are the
    exponent vectors.  Under an algebra of degree 1 with C_+(R) = R, the
    full algebra among them, every family takes the digit recursion of
    ``_digit_recursion``; other algebras evaluate ``tau_mixed`` cell by
    cell.  A grid of more than RASTER_CELL_BUDGET points raises
    ``BudgetExceeded`` before any tau.
    """
    ideals = tuple(ideals)
    ring = ideals[0].ring
    if C is None:
        C = CartierAlgebraSpec.full_algebra(ring)
    grid = RasterGrid(ring.p, T, k, len(ideals), [], {})
    if C.degree() == 1 and C.fixes_unit():
        _digit_recursion(ideals, grid, C)
    else:
        grid.cells = [
            _class_hash(grid, _tau_at_cell(ideals, grid.coord(idx), C))
            for idx in iproduct(range(grid.side + 1), repeat=grid.n)]
    return grid


def _class_hash(grid: RasterGrid, tau: Ideal) -> str:
    """Register ``tau`` in ``grid.ideals`` under its content hash, refusing to
    let two different reduced bases share one hash."""
    h = tau.content_hash()
    seen = grid.ideals.setdefault(h, tau)
    if seen is not tau and seen.groebner() != tau.groebner():
        raise VerificationError(f"content hash {h} names two tau classes: "
                                f"{seen.canonical_str()} and {tau.canonical_str()}")
    return h


def _digit_recursion(ideals, grid: RasterGrid, C: CartierAlgebraSpec,
                     fixed=()):
    """Fill ``grid.cells`` with tau for the ideals a_i under an algebra C of
    degree 1 with C_+(R) = R: the first len(``fixed``) a_i at the exponents
    r = ``fixed``, the others at m/p^k in the cell m.

    The table walks carry states on the automaton of the a_i.  With r_0 = r
    and r_j = frac(r p^j), level 0 is the state that ``tau_mixed`` closes at
    (r_k, 0) (``_tau_state``), not its class, as r_k may keep p in its
    denominator; k = 0 closes it at (floor r, m).  Level j holds, for m in
    [0, p^j)^n capped at the grid side, a state closing at 0 to tau at
    (r_(k-j), m/p^j).  Walks take digits lowest first, so for
    m = d p^(j-1) + m', m' < p^(j-1), level j walks the state at m' by
    D = (floor(p r_(k-j)), d).  Only at level k, on the whole grid, can D
    reach p: it walks D mod p and closes at D // p.

    Each level is a flat list in ``iproduct`` order of states interned to
    ints, filled by blocks: the cells d p^(j-1) + [0, p^(j-1))^n share d,
    so the map of the states of level j - 1 under d is built once, and each
    row of level j is the matching rows of level j - 1 sent through the
    maps of its blocks, clipped at the top.  So a cell costs one int-keyed
    lookup.  Level k, each class id replaced by its hash, is ``grid.cells``.
    """
    p, k, n, side = grid.p, grid.k, grid.n, grid.side
    auto = _automaton(ideals, C)
    rs = [tuple(fixed)]
    for _ in range(k):
        rs.append(tuple(x * p - int(x * p) for x in rs[-1]))
    m0, tail, _ = _tau_state(auto, rs[k] + (Fraction(0),) * n, True)
    ids = {tail: 0}  # state -> its int id, in the order interned
    table = [auto.close(m0[:len(fixed)] + list(m), tail)
             for m in iproduct(range(side + 1), repeat=n)] if k == 0 else [0]
    top = 0
    for j in range(1, k + 1):
        q, width = p ** (j - 1), top + 1  # width: level j - 1 per axis
        top = side if j == k else min(side, p ** j - 1)
        lead = tuple(int(x * p) for x in rs[k - j])
        states, present = list(ids), set(table)

        def move(d, sid):
            out = auto.carry(tuple(x % p for x in lead + d), 1, states[sid])
            if j < k:
                return ids.setdefault(out, len(ids))
            return auto.close([x // p for x in lead + d], out)

        step = {d: {s: move(d, s) for s in present}.__getitem__
                for d in iproduct(range(top // q + 1), repeat=n)}
        blocks = [(d, min(q, top + 1 - d * q)) for d in range(top // q + 1)]
        out = []
        for head in iproduct(range(top + 1), repeat=n - 1):
            row = 0  # where the row of level j - 1 under ``head`` starts
            for x in head:
                row = row * width + x % q
            row *= width
            dh = tuple(x // q for x in head)
            for d, w in blocks:
                out += map(step[dh + (d,)], table[row:row + w])
        table = out
    hashes = {cid: _class_hash(grid, auto.classes[cid])
              for cid in sorted(set(table))}
    grid.cells = list(map(hashes.__getitem__, table))


def chi_function(raster: RasterGrid, N: Ideal) -> RegionFunction:
    """chi_a^N: cell value 1 iff tau at the cell is not contained in N."""
    escapes = {}
    for h, tau in raster.ideals.items():
        escapes[h] = 0 if N.contains_ideal(tau) else 1
    values = {idx: escapes[h] for idx, h in raster.items()}
    return RegionFunction(raster.p, raster.T, raster.k, raster.n, values, label=N)


def rho_function(raster: RasterGrid, at_idx) -> RegionFunction:
    """rho_c: the indicator of the constancy region of the cell ``at_idx``."""
    target = raster.class_at(at_idx)
    values = {idx: 1 if h == target else 0 for idx, h in raster.items()}
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
            values[idx] = phi.values.get(j, 0)
        else:
            values[idx] = 0
    return RegionFunction(p, phi.T, k_t, phi.n, values, label=phi.label)


def compose_T(first: TOperator, then: TOperator, p: int) -> TOperator:
    """The single operator equal to ``then`` applied after ``first``:
    T_{q'|b'} (T_{q|b} Phi) = T_{q q' | b' + q' b} Phi."""
    q, b = first.q, first.offset
    qp, bp = then.q, then.offset
    if len(b) != len(bp):
        raise ValueError("offset arity mismatch")
    return TOperator(q * qp, tuple(x + qp * y for x, y in zip(bp, b)))


def transform_chi_symbolic(N: Ideal, offsets, ideals) -> Ideal:
    """Symbolic form of T_{p|b} chi_a^N for principal a_i = (f_i) under the
    full algebra: returns N' = (N^[p] : prod f_i^b_i) with the guarantee
    T_{p|b} chi_a^N = chi_a^N'.  ``colon`` reduces the divisor modulo the
    generators of N^[p] first; for N = (x, y), f = (x+y, xy) and b =
    (2l, p-l-1) that leaves the one term binom(2l, l) x^(p-1) y^(p-1).  As
    N^[p] = (x^p, y^p) is monomial, the colon by that term is exponent
    subtraction, with no elimination: (x^p, y^p) : x^(p-1) y^(p-1) = (x, y)."""
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


def _check_odd_prime(p: int):
    if p == 2 or not _is_prime(p):
        raise ValueError(f"staircase requires an odd prime, got p = {p}")


def three_lines_staircase(p: int, depth: int):
    """Exact boundary polyline of the first constancy region for the pair
    (x+y, xy) down to lattice p^-depth.

    Flats sit at t2 = 1 - (b+1)/(2 p^j) over t1 in [b/p^j, (b+1)/p^j] for b odd
    with all leading base-p digits even; elsewhere the boundary follows the
    diagonal t2 = 1 - t1/2 at this resolution.

    Each level puts (p+1)/2 copies of the level below and (p-1)/2 three-vertex
    flats in a row, each flat sharing its end vertices with its neighbours,
    so level k has n_k = (p+1)/2 n_(k-1) + (p-1)/2 vertices, n_0 = 2.  That
    count is taken first: past RASTER_CELL_BUDGET vertices the staircase is
    refused with ``BudgetExceeded``, before any vertex is built.
    """
    _check_odd_prime(p)
    if depth < 0:
        raise ValueError("staircase requires depth >= 0")
    count = 2
    for _ in range(depth):
        count = (p + 1) // 2 * count + (p - 1) // 2
        if count > RASTER_CELL_BUDGET:
            raise BudgetExceeded(
                f"staircase at p = {p}, depth {depth} has more than "
                f"{RASTER_CELL_BUDGET:,} vertices")

    def build(k):
        """Vertices at depth k as integer pairs over 2 p^k."""
        if k == 0:
            return [(0, 2), (2, 1)]
        sub, h = build(k - 1), p ** (k - 1)  # sub is over 2h
        verts = []
        for a in range(p):
            if a % 2:  # x = a/p, (a+1)/p and y = 1 - a/(2p), 1 - (a+1)/(2p)
                y0, y1 = (2 * p - a) * h, (2 * p - a - 1) * h
                verts += [(2 * a * h, y0), (2 * a * h, y1), (2 * (a + 1) * h, y1)]
            else:
                verts += [(s + 2 * a * h, y + (2 * p - a - 2) * h) for s, y in sub]
        return [v for i, v in enumerate(verts) if not i or verts[i - 1] != v]

    den = 2 * p ** depth
    return [(Fraction(x, den), Fraction(y, den)) for x, y in build(depth)]


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
    _check_odd_prime(p)
    if K < 0:
        raise ValueError(f"the number of terms must be >= 0, got {K}")
    total = Fraction(0)
    for k in range(1, K + 1):
        total += (Fraction(3, 2) * Fraction(1, p ** k)
                  * Fraction(p + 1, 2) ** (k - 1) * Fraction(p - 1, 2))
    return total


# --- Hausdorff distance -----------------------------------------------------------


def hausdorff_distance(A, B) -> Fraction:
    """Exact max-norm Hausdorff distance between two finite point sets whose
    coordinates are rationals.  Uses a chessboard distance transform when both
    sets live on a common 2D lattice whose bounding box has no more points
    than the |A| |B| pairs brute force compares; otherwise brute force."""
    A, B = list(A), list(B)
    if not A or not B:
        raise ValueError("Hausdorff distance needs nonempty sets")
    if len({len(pt) for pt in A + B}) > 1:
        raise ValueError("Hausdorff distance needs points of one dimension")
    L = lcm(*{c.denominator for pt in A + B for c in map(Fraction, pt)})
    Ai = [tuple(int(Fraction(c) * L) for c in pt) for pt in A]
    Bi = [tuple(int(Fraction(c) * L) for c in pt) for pt in B]
    box = [max(c) - min(c) + 1 for c in zip(*Ai, *Bi)]
    if len(box) == 2 and box[0] * box[1] <= len(Ai) * len(Bi):
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
    by an exact chessboard distance transform: one sweep, in which each cell
    takes one more than its left and three upper neighbours if that is less,
    run on the grid and then on the grid turned by 180 degrees."""
    x0, y0 = (min(c) for c in zip(*A, *B))
    x1, y1 = (max(c) for c in zip(*A, *B))
    W, H = x1 - x0 + 1, y1 - y0 + 1
    dist = [[W + H + 1] * W for _ in range(H)]
    for (x, y) in B:
        dist[y - y0][x - x0] = 0
    for _ in range(2):
        for r, row in enumerate(dist):
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
        dist = [row[::-1] for row in reversed(dist)]
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
        q, s = p ** c, p ** (phi.k - k_t - c)
        # phi restricted to the mesh k_t + c, which T_{q|b} takes to k_t
        coarse = RegionFunction(p, phi.T, k_t + c, phi.n, {
            tuple(x // s for x in idx): v for idx, v in phi.values.items()
            if not any(x % s for x in idx)})
        for offset in iproduct(range(q + 1), repeat=phi.n):
            moved = apply_T(coarse, TOperator(q, offset)).values
            rows.add(tuple(moved[idx] for idx in cols))
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
            pivots.append((lead, [Fraction(v) / lv for v in row]))
    return len(pivots)
