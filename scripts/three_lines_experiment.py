#!/usr/bin/env python3
"""End-to-end run of the three-lines example (f1 = x+y, f2 = xy over F_3):
thresholds, staircase geometry, constancy raster with artifacts, T-operator
invariance, span rank, and both Hausdorff figures (max-norm set distance and
the horizontal slice gap).

Usage: python scripts/three_lines_experiment.py [--mesh K] [--out DIR]
"""

import argparse
import os
import sys
import time
from fractions import Fraction as F

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import charp as ch


def horizontal_slice_gap(raster, unit_hash):
    """sup over grid rows of (right end of the sub-LCT slice) minus (right end
    of the tau-trivial slice); this is the quantity behind the 1/p figure."""
    side = raster.side
    p_k = raster.p ** raster.k
    worst = F(0)
    for j in range(side + 1):
        t2 = F(j, p_k)
        b_end = None
        a_end = None
        for i in range(side, -1, -1):
            t1 = F(i, p_k)
            if b_end is None and t1 + 2 * t2 < 2:
                b_end = t1
            if a_end is None and raster.class_at((i, j)) == unit_hash:
                a_end = t1
            if b_end is not None and a_end is not None:
                break
        if b_end is not None and a_end is not None:
            worst = max(worst, b_end - a_end)
    return worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mesh", type=int, default=4)
    ap.add_argument("--out", default="out")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    R = ch.RingCtx(("x", "y"), ch.PrimeModulus(3))
    f1 = ch.Ideal(R, [R.poly("x+y")])
    f2 = ch.Ideal(R, [R.poly("x*y")])
    unit = ch.Ideal(R, [R.one()]).content_hash()

    print("== thresholds along the staircase ==")
    for t1 in (F(0), F(1, 9), F(1, 3), F(2, 3), F(7, 9)):
        res = ch.fpt_search([(f1, t1)], f2, depth=6)
        windows = ch.thresholds.avoidance_windows(res.candidate, 3)
        print(f"  t1 = {t1!s:>5}: threshold = {res.candidate} "
              f"(bracket [{res.lo}, {res.hi}], "
              f"{len(res.transcript)} tau evaluations, "
              f"avoidance windows hit: {windows})")

    print("== staircase boundary ==")
    for k in (1, 2, 3):
        verts = ch.three_lines_staircase(3, k)
        bl = ch.boundary_length(verts)
        print(f"  depth {k}: {len(verts)} vertices, flats sum {bl.axis} "
              f"(= partial series {ch.staircase_partial_sum(3, k)}), "
              f"diagonal part {bl.diagonal:.6f}")
    print(f"  flat-series limit: {float(ch.staircase_partial_sum(3, 40)):.6f} "
          f"(closed form 3/2)")

    t0 = time.time()
    print(f"== constancy raster at mesh 3^-{args.mesh} ==")
    ras = ch.constancy_raster([f1, f2], 1, args.mesh)
    print(f"  {len(ras.cells)} cells in {time.time() - t0:.1f}s; "
          f"{ras.class_count()} classes:")
    for h, ideal in sorted(ras.ideals.items()):
        print(f"    {h} = {ideal.canonical_str():<16} "
              f"{ras.cells.count(h)} cells")

    print("== T-operator invariance ==")
    N = ch.Ideal(R, [R.var("x"), R.var("y")])
    chi = ch.chi_function(ras, N)
    coarse = ch.constancy_raster([f1, f2], 1, args.mesh - 1)
    chi_coarse = ch.chi_function(coarse, N)
    for l in (0, 1):
        op = ch.TOperator(3, (2 * l, 3 - l - 1))
        ok = ch.apply_T(chi, op).values == chi_coarse.values
        sym = ch.transform_chi_symbolic(N, (2 * l, 3 - l - 1), [f1, f2])
        print(f"  l = {l}: raster invariance {ok}, "
              f"symbolic image {sym.canonical_str()}")

    print("== p-fractal span rank ==")
    out_mesh = max(0, args.mesh - 3)
    r2 = ch.pfractal_span_rank(chi, 2, out_mesh=out_mesh)
    r3 = ch.pfractal_span_rank(chi, 3, out_mesh=out_mesh) \
        if args.mesh >= 3 else None
    print(f"  rank(c_max = 2) = {r2}, rank(c_max = 3) = {r3} "
          f"(common mesh 3^-{out_mesh})")

    print("== Hausdorff figures ==")
    A = [ras.coord(i) for i, h in ras.items() if h == unit]
    p_k = 3 ** args.mesh
    B = [ras.coord((i, j)) for i in range(p_k + 1) for j in range(p_k + 1)
         if F(i, p_k) + 2 * F(j, p_k) < 2]
    d = ch.hausdorff_distance(A, B)
    gap = horizontal_slice_gap(ras, unit)
    print(f"  max-norm d_H(A_3, LCT region) = {d} ~ {float(d):.5f}")
    print(f"  horizontal slice gap          = {gap} ~ {float(gap):.5f} "
          f"(the 1/p figure)")

    csv_path = os.path.join(args.out, f"regions_k{args.mesh}.csv")
    with open(csv_path, "w") as fh:
        fh.writelines(ch.raster_csv_pieces(ras))
    print(f"wrote {csv_path}")


if __name__ == "__main__":
    main()
