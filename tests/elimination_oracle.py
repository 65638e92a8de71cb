"""The elimination routines that ``ideals`` replaced, kept as an oracle.

Each one reduces the whole elimination basis, and ``colon`` here rebuilds
every quotient's basis with a further Buchberger run: three runs for a
principal divisor where ``ideals.colon`` takes one.  The bodies of
``oracle_intersect``, ``oracle_colon_single`` and ``oracle_saturate_gens``
are the replaced ones; they call each other and ``oracle_groebner`` instead
of the package's functions, so no step of the oracle goes through the code
it checks.  On Laurent rings they saturate every input first and eliminate
on the saturated bases, where ``ideals`` runs on the cleared twins and
saturates the result once.
"""

from charp.ideals import (Ideal, _drop, _ext_ring, _lift, _strip_to_poly,
                          _twin_poly_ring, buchberger, exact_div, reduce_basis)
from charp.rings import Polynomial


def oracle_groebner(I: Ideal):
    """The reduced basis as ``Ideal.groebner`` computed it: one Buchberger
    run on polynomial rings, the saturation of the stripped generators
    followed by ``reduce_basis`` on Laurent rings."""
    if not I.gens:
        return ()
    if not I.ring.laurent:
        return reduce_basis(buchberger(list(I.gens)))
    twin = _twin_poly_ring(I.ring)
    stripped = [_strip_to_poly(g, twin) for g in I.gens]
    if any(g.is_unit() for g in stripped):
        sat = [twin.one()]
    else:
        sat = oracle_saturate_gens(stripped, twin)
    back = [Polynomial(I.ring, dict(g.terms)) for g in sat]
    return reduce_basis(back) if back else ()


def oracle_saturate_gens(gens, ring):
    """Generators of (gens) : (x_1*...*x_n)^infinity, by the Rabinowitsch trick."""
    if not gens:
        return []
    ext = _ext_ring(ring, 1)
    m_all = ext.monomial((0,) + (1,) * ring.nvars)
    sys = [_lift(g, ext, 1) for g in gens]
    sys.append(ext.one() - ext.var("@e0") * m_all)
    gb = buchberger(sys)
    return [_drop(g, ring, 1) for g in reduce_basis(gb)
            if all(m[0] == 0 for m in g.terms)]


def oracle_intersect(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    ring = a.ring
    if ring.laurent:
        # work with the saturated polynomial representatives
        a = Ideal(ring, list(oracle_groebner(a)))
        b = Ideal(ring, list(oracle_groebner(b)))
    work = _twin_poly_ring(ring) if ring.laurent else ring
    ext = _ext_ring(work, 1)
    t = ext.var("@e0")
    one = ext.one()
    sys = [t * _lift(Polynomial(work, dict(g.terms)), ext, 1) for g in a.gens]
    sys += [(one - t) * _lift(Polynomial(work, dict(g.terms)), ext, 1)
            for g in b.gens]
    gb = reduce_basis(buchberger(sys))
    gens = [_drop(g, work, 1) for g in gb if all(m[0] == 0 for m in g.terms)]
    return Ideal(ring, [Polynomial(ring, dict(g.terms)) for g in gens])


def oracle_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) as the intersection of the quotients by J's generators."""
    if oracle_groebner(J) == ():
        raise ValueError("colon by the zero ideal")
    result = None
    for g in J.gens:
        part = oracle_colon_single(I, g)
        result = part if result is None else oracle_intersect(result, part)
    return result


def oracle_colon_single(I: Ideal, g: Polynomial) -> Ideal:
    if g.is_zero():
        raise ValueError("colon by zero generator")
    ring = I.ring
    if ring.laurent:
        twin = _twin_poly_ring(ring)
        g = Polynomial(ring, dict(_strip_to_poly(g, twin).terms))
    if g.is_unit():
        return Ideal._reduced(ring, oracle_groebner(I))
    meet = oracle_intersect(I, Ideal(ring, [g]))
    return Ideal(ring, [exact_div(f, g) for f in meet.gens])
