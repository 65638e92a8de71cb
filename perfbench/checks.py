"""Reference arithmetic written independently of charp.

The benchmark checks charp's outputs with these functions, so a check never
trusts the code it checks.  Polynomials are plain dicts from exponent tuples
to coefficients in [1, p-1]; the term order is graded reverse lexicographic,
matching charp's default ring order.
"""

from hashlib import blake2b
from itertools import permutations


def grevlex(m):
    """Sort key: the larger key is the larger monomial."""
    return (sum(m), tuple(-x for x in reversed(m)))


def lead(f):
    m = max(f, key=grevlex)
    return m, f[m]


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _add_scaled(acc, g, c, shift, p):
    """acc += c * x^shift * g, in place."""
    for m, v in g.items():
        t = tuple(x + y for x, y in zip(m, shift))
        w = (acc.get(t, 0) + c * v) % p
        if w:
            acc[t] = w
        else:
            acc.pop(t, None)


def remainder(f, divisors, p):
    """Full remainder of f on division by the divisors."""
    work = dict(f)
    leads = [(lead(g), g) for g in divisors]
    rem = {}
    while work:
        m = max(work, key=grevlex)
        c = work[m]
        for (gm, gc), g in leads:
            if divides(gm, m):
                shift = tuple(x - y for x, y in zip(m, gm))
                _add_scaled(work, g, -c * pow(gc, -1, p), shift, p)
                break
        else:
            rem[m] = work.pop(m)
    return rem


def s_poly(f, g, p):
    (fm, fc), (gm, gc) = lead(f), lead(g)
    lcm = tuple(max(x, y) for x, y in zip(fm, gm))
    out = {}
    _add_scaled(out, f, pow(fc, -1, p), tuple(x - y for x, y in zip(lcm, fm)), p)
    _add_scaled(out, g, -pow(gc, -1, p), tuple(x - y for x, y in zip(lcm, gm)), p)
    return out


def groebner_defects(basis, gens, p):
    """Reasons why ``basis`` is not the reduced Groebner basis of (gens).

    Buchberger's criterion: every S-pair of the basis reduces to zero, and
    every input generator reduces to zero, so the basis spans at least the
    input ideal.  Reducedness: monic leads and no term divisible by the lead
    of another element.  An empty list means no defect was found.
    """
    defects = []
    for i, g in enumerate(gens):
        if remainder(g, basis, p):
            defects.append(f"input generator {i} does not reduce to zero")
    for i in range(len(basis)):
        for j in range(i):
            if remainder(s_poly(basis[i], basis[j], p), basis, p):
                defects.append(f"S-pair ({i}, {j}) does not reduce to zero")
    leads = [lead(g) for g in basis]
    for i, g in enumerate(basis):
        if leads[i][1] != 1:
            defects.append(f"element {i} is not monic")
        for j, (lm, _) in enumerate(leads):
            if j != i and any(divides(lm, m) for m in g):
                defects.append(f"element {i} has a term divisible by lead {j}")
    return defects


def mul(f, g, p):
    out = {}
    for m, c in f.items():
        _add_scaled(out, g, c, m, p)
    return out


def power(f, k, p):
    out = {(0,) * len(next(iter(f))): 1}
    for _ in range(k):
        out = mul(out, f, p)
    return out


def generic_det(n, p):
    """det of the n x n matrix of indeterminates m_ij (variable i*n + j),
    by the Leibniz formula."""
    det = {}
    for sigma in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if sigma[i] > sigma[j])
        exps = [0] * (n * n)
        for i in range(n):
            exps[i * n + sigma[i]] = 1
        det[tuple(exps)] = (-1) ** inversions % p
    return det


def class_hash(canonical):
    """charp's documented class hash: 64-bit blake2b of the printed basis."""
    return blake2b(canonical.encode(), digest_size=8).hexdigest()


def raster_rows(csv_bytes, side):
    """Parse a two-parameter raster CSV whose coordinates are reduced
    fractions of the unit box: the header line and one ((i, j), class hash,
    line) triple per row, with (i, j) the lattice indices at ``side``."""
    lines = csv_bytes.decode().splitlines()
    rows = []
    for line in lines[1:]:
        n1, d1, n2, d2, h = line.split(",")
        rows.append(((int(n1) * side // int(d1), int(n2) * side // int(d2)),
                     h, line))
    return lines[0], rows
