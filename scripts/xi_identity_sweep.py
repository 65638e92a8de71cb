#!/usr/bin/env python3
"""Sweep the xi = det^(p-1) identity: exhaustive over small general linear
groups, sampled at larger sizes and at one large p, polynomial-entry
identity at symbolic level, and the combinatorial congruence behind it.
Each sweep prints the number of terms of its xi table, one per admissible
matrix, and one (p, n) over the term budget shows its refusal.

Usage: python scripts/xi_identity_sweep.py [--seed N]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import charp as ch


def xi_terms(p, n):
    """The number of terms of the xi table of (p, n), one per admissible
    matrix."""
    return sum(1 for _ in ch.admissible_matrices(p, n))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("== exhaustive sweeps ==")
    for p, n in [(2, 2), (3, 2), (5, 2), (2, 3)]:
        t0 = time.time()
        rep = ch.verify_det_identity(p, n, "exhaustive")
        print(f"  GL_{n}(F_{p}): {rep.checked} elements, "
              f"{rep.pairs_checked} pairs, ok = {rep.ok}, "
              f"{xi_terms(p, n)} xi terms ({time.time() - t0:.2f}s)")

    print("== sampled sweeps ==")
    # the last at a large p, where each power in a term is taken mod p
    for p, n, count in [(5, 2, 10_000), (3, 3, 1_000), (7, 2, 2_000),
                        (11, 2, 500), (5, 3, 200), (10007, 2, 5)]:
        t0 = time.time()
        rep = ch.verify_det_identity(p, n, "random", count=count,
                                     seed=args.seed)
        print(f"  GL_{n}(F_{p}) x{count}: ok = {rep.ok}, xi evaluated on "
              f"{rep.distinct} distinct matrices, {xi_terms(p, n)} xi terms "
              f"({time.time() - t0:.2f}s)")

    print("== over the xi term budget ==")
    t0 = time.time()
    try:
        ch.verify_det_identity(101, 3, "random", count=10, seed=args.seed)
        print("  GL_3(F_101): not refused")
    except ch.BudgetExceeded as exc:
        print(f"  GL_3(F_101): refused, BudgetExceeded: {exc} "
              f"({time.time() - t0:.2f}s)")

    print("== polynomial-entry identity (symbolic matrices) ==")
    for p, n in [(3, 2), (5, 2), (3, 3)]:
        t0 = time.time()
        names = tuple(f"m{i}{j}" for i in range(n) for j in range(n))
        S = ch.RingCtx(names, ch.PrimeModulus(p))
        mu = [[S.var(f"m{i}{j}") for j in range(n)] for i in range(n)]
        lhs = ch.xi_operator_poly(mu, p)
        rhs = ch.pow_poly(ch.PolyMatrix(S, mu).det(), p - 1)
        print(f"  n = {n}, p = {p}: xi == det^(p-1) as polynomials: "
              f"{lhs == rhs} ({time.time() - t0:.2f}s)")

    print("== combinatorial congruence ==")
    for n, p in [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5)]:
        t0 = time.time()
        mats = list(ch.admissible_matrices(p, n))
        ok = all(ch.combinatorial_identity_check(p, n, a)[2] for a in mats)
        print(f"  n = {n}, p = {p}: {len(mats)} admissible matrices, "
              f"all congruences hold: {ok} ({time.time() - t0:.2f}s)")

    print("== falling-factorial sums ==")
    primes = [q for q in range(3, 102) if all(q % d for d in range(2, q))]
    assert all(ch.falling_factorial_claim_holds(q) for q in primes)
    print(f"  verified for all odd primes up to 101 ({len(primes)} primes)")


if __name__ == "__main__":
    main()
