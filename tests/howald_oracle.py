"""Mixed Howald, the test ideal of monomial ideals in two variables.

For monomial ideals a_1..a_n and exponents t_i >= 0, tau(prod a_i^t_i) is
generated by the x^v with v + (1, 1) in the interior of the Minkowski sum
sum t_i Newt(a_i), in every characteristic (Howald 2001; Hara-Yoshida 2003,
Thm 4.8).  The support function of that sum in a direction n >= 0 is
sum t_i min_(e in a_i) <n, e>, and every facet normal of the sum is a facet
normal of one summand.  This module shares no code with charp's tau.
"""

from charp import Ideal


def _normals(exps):
    """The coordinate normals and the normal of every pair of generators
    on a falling line: every facet normal of Newt(exps) is among them, and
    every n >= 0 gives a valid inequality."""
    return {(1, 0), (0, 1)} | {
        (abs(b - d), abs(a - c)) for i, (a, b) in enumerate(exps)
        for c, d in exps[:i] if (a - c) * (b - d) < 0}


def howald(R, *pairs):
    """tau(prod a_i^t_i) for ``pairs`` of (exponent vectors of a_i, t_i):
    for each x-exponent i below the box side, the least y-exponent j with
    (i + 1, j + 1) strictly inside every inequality.  The box side bounds
    sum t_i times the largest exponent of a_i, so each minimal generator
    lies in the box."""
    normals = set().union(*(_normals(exps) for exps, _ in pairs))
    need = [(n, sum(t * min(n[0] * a + n[1] * b for a, b in exps)
                    for exps, t in pairs)) for n in normals]
    top = int(sum(t * max(map(max, exps)) for exps, t in pairs)) + 2
    gens = []
    for i in range(top):
        for j in range(top):
            if all(n[0] * (i + 1) + n[1] * (j + 1) > v for n, v in need):
                gens.append(R.monomial((i, j)))
                break
    return Ideal(R, gens)
