"""Exact arithmetic over F_p: scalars, sparse (Laurent) polynomials, expression parser.

Everything here is immutable after construction and safe to share between
threads or worker processes.  Coefficients are plain ints in [0, p); exponents
are signed ints bounded by |e| < 2**63 (exceeding that aborts loudly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import add

EXP_LIMIT = 2 ** 63


class ExponentOverflow(OverflowError):
    """An exponent left the supported signed 64-bit range."""


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid for n < 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """The ambient characteristic p, validated prime at construction."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2 ** 31):
            raise ValueError(f"modulus must satisfy 2 <= p < 2^31, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    # scalar field operations; residues are plain ints in [0, p)
    def normalize(self, c: int) -> int:
        return c % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)


@dataclass(frozen=True)
class RingCtx:
    """A polynomial (or Laurent) ring F_p[x_1..x_n] with a fixed term order.

    ``names`` lists the variables; the first ``n_base`` of them are the base
    variables of a relative chart and the remaining suffix are the fiber
    variables.  ``order`` is ``("grevlex",)`` for user-facing rings; internal
    elimination rings use ``("elim", k)`` which eliminates the first k
    variables (block grevlex order).  The order's sort keys are built once,
    at construction (see ``order_key`` and ``heap_key``).
    """

    names: tuple
    modulus: PrimeModulus
    laurent: bool = False
    n_base: int = 0
    order: tuple = ("grevlex",)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        if not (0 <= self.n_base <= len(self.names)):
            raise ValueError("n_base out of range")
        if self.order[0] == "grevlex":
            keys = (_grevlex_key, _grevlex_heap_key)
        elif self.order[0] == "elim":
            keys = (partial(_elim_key, self.order[1]),
                    partial(_elim_heap_key, self.order[1]))
        else:
            raise ValueError(f"unknown term order {self.order}")
        # plain attributes, not fields: they take no part in eq and hash
        object.__setattr__(self, "_keys", keys)

    def __eq__(self, other):
        """Field by field, as the dataclass would compare, but at once when
        both sides are one object, as the ring checks of every operation
        mostly see."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.names, self.modulus, self.laurent, self.n_base,
                self.order) == (other.names, other.modulus, other.laurent,
                                other.n_base, other.order)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def base_names(self) -> tuple:
        return self.names[: self.n_base]

    @property
    def fiber_names(self) -> tuple:
        return self.names[self.n_base:]

    @property
    def fiber_indices(self) -> range:
        return range(self.n_base, len(self.names))

    def index(self, name: str) -> int:
        return self.names.index(name)

    # --- polynomial constructors -------------------------------------------------
    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c: int):
        c = self.modulus.normalize(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str):
        return self.monomial({name: 1})

    def gens(self):
        return [self.var(n) for n in self.names]

    def monomial(self, exps, coeff: int = 1):
        """Monomial from {name: exponent} or an exponent tuple."""
        if isinstance(exps, dict):
            vec = [0] * self.nvars
            for name, e in exps.items():
                vec[self.index(name)] = e
            exps = tuple(vec)
        else:
            exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector length mismatch")
        if not self.laurent and any(e < 0 for e in exps):
            raise ValueError(f"negative exponent {exps} in non-Laurent ring")
        if max(map(abs, exps), default=0) >= EXP_LIMIT:
            raise ExponentOverflow(f"exponent in {exps} exceeds the 64-bit range")
        c = self.modulus.normalize(coeff)
        if c == 0:
            return self.zero()
        return Polynomial(self, {exps: c})

    def poly(self, text: str):
        return parse_poly(text, self)


def order_key(ring: RingCtx):
    """Sort key on exponent tuples; larger key = larger monomial."""
    return ring._keys[0]


def heap_key(ring: RingCtx):
    """Sort key on exponent tuples; smaller key = larger monomial, so a
    min-heap on it pops the largest monomial first."""
    return ring._keys[1]


def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _grevlex_heap_key(e):
    return (-sum(e),) + e[::-1]


def _elim_key(k, e):
    a, b = e[:k], e[k:]
    return (sum(a), tuple(-x for x in reversed(a)),
            sum(b), tuple(-x for x in reversed(b)))


def _elim_heap_key(k, e):
    a, b = e[:k], e[k:]
    return (-sum(a),) + a[::-1] + (-sum(b),) + b[::-1]


class Polynomial:
    """Sparse polynomial: dict from exponent tuple to nonzero coefficient.

    ``terms`` is never mutated after construction: the hash, the largest
    |exponent| of each variable, the leading term and the monic split are
    cached on first use.
    """

    __slots__ = ("ring", "terms", "_h", "_maxabs", "_lead", "_monic")

    def __init__(self, ring: RingCtx, terms: dict):
        self.ring = ring
        self.terms = terms
        self._h = None
        self._maxabs = None
        self._lead = None
        self._monic = None

    def max_abs_exponents(self) -> tuple:
        """The largest |exponent| of each variable over the terms (0 for the
        zero polynomial).  A product's exponent of x_i is at most the sum of
        its factors' entries for x_i, so the overflow checks add these
        tuples; for nonnegative exponents two terms of the factors reach
        that sum, so the check is exact there."""
        if self._maxabs is None:
            cols = zip(*self.terms)
            if self.ring.laurent:
                cols = (map(abs, c) for c in cols)
            self._maxabs = tuple(map(max, cols)) or (0,) * self.ring.nvars
        return self._maxabs

    # --- basic structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.ring.nvars: 1}

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {(0,) * self.ring.nvars}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_unit(self) -> bool:
        """Units: nonzero constants; in Laurent rings any single term."""
        if not self.terms:
            return False
        if self.ring.laurent:
            return len(self.terms) == 1
        return self.is_constant()

    def sorted_terms(self):
        key = order_key(self.ring)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def lead(self):
        """(exponent tuple, coefficient) of the leading term under the ring order."""
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            m = min(self.terms, key=heap_key(self.ring))
            self._lead = (m, self.terms[m])
        return self._lead

    def monic(self):
        """(lead monomial, tail of self / lc(self) as a list of terms); the
        form every division and S-polynomial reads a divisor in."""
        if self._monic is None:
            m, c = self.lead()
            p = self.ring.p
            inv = self.ring.modulus.inv(c)
            self._monic = (m, [(t, v * inv % p)
                               for t, v in self.terms.items() if t != m])
        return self._monic

    def coeff(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        if self._h is None:
            self._h = hash((self.ring, frozenset(self.terms.items())))
        return self._h

    def _same_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("ring contexts of operands disagree")

    # --- arithmetic --------------------------------------------------------------
    def __add__(self, other):
        self._same_ring(other)
        p = self.ring.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = (res.get(m, 0) + c) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res)

    def __sub__(self, other):
        self._same_ring(other)
        p = self.ring.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = (res.get(m, 0) - c) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res)

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()})

    def __mul__(self, other):
        """The product.  A factor 1 returns the other factor itself, and a
        one-term factor c x^m shifts the other's exponents by m and scales
        its coefficients by c, after the same overflow check as the double
        loop over term pairs that every other product runs; both give the
        double loop's terms in its order."""
        if isinstance(other, int):
            return self.scale(other)
        self._same_ring(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
            self, other = other, self
        if len(a) == 1:
            if self.is_one():
                return other
            if len(b) == 1 and other.is_one():
                return self
        if max(map(add, self.max_abs_exponents(), other.max_abs_exponents()),
               default=0) >= EXP_LIMIT:
            raise ExponentOverflow("product exponent exceeds the 64-bit range")
        p = self.ring.p
        if len(a) == 1:
            (m, c), = a.items()
            return Polynomial(self.ring, {tuple(map(add, t, m)): w
                                          for t, v in b.items()
                                          if (w := v * c % p)})
        res = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(int.__add__, m1, m2))
                v = (res.get(m, 0) + c1 * c2) % p
                if v:
                    res[m] = v
                else:
                    res.pop(m, None)
        return Polynomial(self.ring, res)

    __rmul__ = __mul__

    def scale(self, c: int):
        c = self.ring.modulus.normalize(c)
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        p = self.ring.p
        return Polynomial(self.ring, {m: (v * c) % p for m, v in self.terms.items()})

    def mul_monomial(self, exps, coeff: int = 1):
        exps = tuple(exps)
        p = self.ring.p
        c = coeff % p
        if c == 0:
            return self.ring.zero()
        if max(map(add, self.max_abs_exponents(), map(abs, exps)),
               default=0) >= EXP_LIMIT:
            raise ExponentOverflow("product exponent exceeds the 64-bit range")
        return Polynomial(self.ring, {tuple(map(add, m, exps)): v * c % p
                                      for m, v in self.terms.items()})

    def inverse_unit(self):
        if not self.is_unit():
            raise ValueError("not a unit")
        (m, c), = self.terms.items()
        return self.ring.monomial(tuple(-e for e in m), self.ring.modulus.inv(c))

    def __pow__(self, m: int):
        return pow_poly(self, m)


def pow_poly(f: Polynomial, m: int) -> Polynomial:
    """f**m.  One term c x^a is powered in closed form, c^m x^(m a); any
    other f by base-p splitting, f^m = f^(m mod p) * frob(f^(m//p), 1), which
    keeps huge exponents tractable because frob only rescales exponent
    vectors, and each digit power by the ladder of ``_pow_cached``.
    Negative m is allowed exactly when f is a unit.
    """
    if m < 0:
        return pow_poly(f.inverse_unit(), -m)
    if m >= EXP_LIMIT:
        raise ExponentOverflow(f"exponent {m} exceeds the 64-bit range")
    return _pow_cached(f, m)


POW_CACHE_SIZE = 4096
_climbing = set()  # the f whose digit powers a cold call is filling in


@lru_cache(maxsize=POW_CACHE_SIZE)
def _pow_cached(f: Polynomial, m: int) -> Polynomial:
    """f^m, memoised.  A digit power f^r, 1 < r < p, is f^(r-1) f with
    f^(r-1) read from this cache, one product by f: a Cartier step asks for
    f^s at every digit s < p.  The outermost cold call fills the
    powers below r lowest first, so each of them finds its predecessor
    cached and no call recurses more than two frames.  Where p - 1 exceeds
    the cache, a ladder would evict its own links, and the digit power is
    taken by squaring instead."""
    ring = f.ring
    if m == 0:
        return ring.one()
    if m == 1:
        return f
    if len(f.terms) == 1:
        if max(f.max_abs_exponents(), default=0) * m >= EXP_LIMIT:
            raise ExponentOverflow("power exponent exceeds the 64-bit range")
        (a, c), = f.terms.items()
        return Polynomial(ring, {tuple(x * m for x in a): pow(c, m, ring.p)})
    p = ring.p
    r, q = m % p, m // p
    if q:
        return _pow_cached(f, r) * frob(_pow_cached(f, q), 1)
    if p - 1 > POW_CACHE_SIZE:
        return _binary_pow(f, r)
    if f not in _climbing:
        _climbing.add(f)
        try:
            for j in range(2, r):
                _pow_cached(f, j)
        finally:
            _climbing.discard(f)
    return _pow_cached(f, r - 1) * f


def _binary_pow(f: Polynomial, r: int) -> Polynomial:
    acc = f.ring.one()
    sq = f
    while r:
        if r & 1:
            acc = acc * sq
        r >>= 1
        if r:
            sq = sq * sq
    return acc


def frob(f: Polynomial, e: int) -> Polynomial:
    """The e-th Frobenius power f^(p^e); rescales every exponent by p^e."""
    if e < 0:
        raise ValueError("e must be nonnegative")
    if e == 0:
        return f
    q = f.ring.p ** e
    if max(f.max_abs_exponents(), default=0) * q >= EXP_LIMIT:
        raise ExponentOverflow("Frobenius exponent exceeds the 64-bit range")
    return Polynomial(f.ring,
                      {tuple(x * q for x in m): c for m, c in f.terms.items()})


def partial_derivative(f: Polynomial, var: int) -> Polynomial:
    """Formal partial derivative with respect to the var-th variable."""
    p = f.ring.p
    res = {}
    for m, c in f.terms.items():
        k = m[var]
        v = (c * k) % p
        if v:
            m2 = m[:var] + (k - 1,) + m[var + 1:]
            if k - 1 < 0 and not f.ring.laurent:
                raise ValueError("derivative produced a negative exponent "
                                 "in a non-Laurent ring")
            res[m2] = (res.get(m2, 0) + v) % p
            if not res[m2]:
                del res[m2]
    return Polynomial(f.ring, res)


# --- printing ----------------------------------------------------------------


def poly_str(f: Polynomial) -> str:
    """Canonical string: terms in descending term order, re-parseable."""
    if not f.terms:
        return "0"
    parts = []
    for m, c in f.sorted_terms():
        factors = []
        for name, e in zip(f.ring.names, m):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


# --- parser --------------------------------------------------------------------

_TOKEN_CHARS = {"+", "-", "*", "^", "(", ")"}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent for: expr := term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := base ('^' int)?;
    base := int | var | '(' expr ')'.
    """

    def __init__(self, text: str, ring: RingCtx):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, got {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        f = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return f

    def expr(self):
        f = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self):
        f = self.factor()
        while self.peek()[0] == "*":
            self.take()
            f = f * self.factor()
        return f

    def factor(self):
        f = self.base()
        if self.peek()[0] == "^":
            self.take()
            pos = self.peek()[2]
            m = self.int_literal()
            if m < 0 and not f.is_unit():
                if not self.ring.laurent:
                    raise ParseError("negative exponent in non-Laurent ring", pos)
                raise ParseError("negative exponent on a non-unit", pos)
            f = pow_poly(f, m)
        return f

    def int_literal(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take("int")
        return sign * int(tok[1])

    def base(self):
        tok = self.peek()
        if tok[0] == "(":
            self.take()
            f = self.expr()
            self.take(")")
            return f
        if tok[0] == "int" or tok[0] == "-":
            return self.ring.const(self.int_literal())
        if tok[0] == "name":
            self.take()
            if tok[1] not in self.ring.names:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
            return self.ring.var(tok[1])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_poly(text: str, ring: RingCtx) -> Polynomial:
    """Parse an expression string into a canonical Polynomial."""
    return _Parser(text, ring).parse()
