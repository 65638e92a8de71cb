"""F-jumping numbers and mixed F-pure thresholds by exact p-adic bisection.

The search lattice refines denominators by exactly one power of p per level,
matching the self-similarity lattice of the T_{q|b} operators.  Thresholds
are certified intervals first; an exact p-power-denominator candidate is
reported only after a confirming evaluation just below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartier import CartierAlgebraSpec, MixedPair, scale_test_ideal, tau_mixed
from .ideals import Ideal, VerificationError, ideal_eq


class ThresholdError(RuntimeError):
    pass


@dataclass(frozen=True)
class ThresholdResult:
    """Certified bracket [lo, hi] with tau = (1) at lo and tau != (1) at hi,
    plus the exact candidate when confirmed, and the evaluation transcript."""

    lo: Fraction
    hi: Fraction
    candidate: Fraction | None
    transcript: tuple

    def width(self) -> Fraction:
        return self.hi - self.lo


class _TauProbe:
    def __init__(self, fixed, free, C):
        self.ideals = tuple(I for I, _ in fixed) + (free,)
        self.ts = tuple(Fraction(t) for _, t in fixed)
        self.C = C if C is not None else CartierAlgebraSpec.full_algebra(free.ring)
        self.transcript = []

    def tau(self, t: Fraction) -> Ideal:
        pair = MixedPair(self.ideals, self.ts + (Fraction(t),))
        tau = tau_mixed(pair, self.C)
        self.transcript.append((Fraction(t), tau.content_hash()))
        return tau

    def is_unit_at(self, t) -> bool:
        return self.tau(t).is_unit()


def fpt_search(fixed, free: Ideal, depth: int, C=None, confirm_depth: int = 2,
               hi_cap: int = 64) -> ThresholdResult:
    """Mixed F-pure threshold in the free exponent: bisection on p-adic
    rationals, refining the denominator by a factor of p per level.

    ``fixed`` is a list of (Ideal, exponent) pairs held constant; the slice
    must be F-regular at free exponent 0.
    """
    probe = _TauProbe(fixed, free, C)
    p = free.ring.p
    if not probe.is_unit_at(Fraction(0)):
        raise ThresholdError("slice is not F-regular at free exponent 0")
    hi = None
    for h in range(1, hi_cap + 1):
        if not probe.is_unit_at(Fraction(h)):
            hi = Fraction(h)
            break
    if hi is None:
        raise ThresholdError(f"no bracket found with free exponent up to {hi_cap}")
    lo = hi - 1
    for _ in range(depth):
        step = (hi - lo) / p
        found = None
        for m in range(1, p):
            t = lo + m * step
            if not probe.is_unit_at(t):
                found = t
                break
        if found is None:
            lo = hi - step
        else:
            hi = found
            lo = found - step
    candidate = None
    # hi has a p-power denominator; confirm confirm_depth levels finer
    below = hi - Fraction(1, hi.denominator * p ** confirm_depth)
    if below <= lo or probe.is_unit_at(below):
        candidate = hi
    return ThresholdResult(lo, hi, candidate, tuple(probe.transcript))


def jumping_numbers(fixed, free: Ideal, T, depth: int, C=None):
    """Partition [0, T] into maximal constancy runs at resolution p^-depth.

    Returns a list of (start, end, class_hash) covering the grid; breakpoints
    are the boundaries between consecutive runs.
    """
    probe = _TauProbe(fixed, free, C)
    p = free.ring.p
    T = Fraction(T)
    M = T * p ** depth
    if M.denominator != 1:
        raise ValueError("T*p^depth must be an integer")
    runs = []
    for m in range(int(M) + 1):
        t = Fraction(m, p ** depth)
        h = probe.tau(t).content_hash()
        if runs and runs[-1][2] == h:
            runs[-1] = (runs[-1][0], t, h)
        else:
            runs.append((t, t, h))
    return runs


def breakpoints(runs):
    """The left endpoints of every run after the first."""
    return [start for start, _, _ in runs[1:]]


def avoidance_windows(candidate, p: int, max_e: int = 4):
    """Windows (a/q, a/(q-1)), q = p^e, that strictly contain the candidate.

    Purely observational: single-hypersurface thresholds are known to avoid
    the window tied to their own q-level, but mixed thresholds do land inside
    coarser windows (8/9 sits in (2/3, 1)).  Callers log, never assert.
    """
    t = Fraction(candidate)
    hits = []
    for e in range(1, max_e + 1):
        q = p ** e
        for a in range(1, q):
            if Fraction(a, q) < t < Fraction(a, q - 1):
                hits.append((q, a))
    return hits


def jump_scaling_probe(free: Ideal, t, T, depth: int):
    """Check that p*t is a breakpoint whenever t is, for the one-parameter
    family free^t, using the scaling law tau(a^s) = C_1 tau(a^(p s)).

    Returns True when verified, or the string "vacuous" when p*t is out of
    range.  The scaling law itself is asserted; a violation raises.
    """
    ring = free.ring
    p = ring.p
    t = Fraction(t)
    if t == 0:
        return True
    if p * t > Fraction(T):
        return "vacuous"
    C = CartierAlgebraSpec.full_algebra(ring)
    probe = _TauProbe([], free, C)
    eps = Fraction(1, p ** depth)
    tau_t = probe.tau(t)
    tau_t_eps = probe.tau(t - eps)
    tau_pt = probe.tau(p * t)
    tau_pt_eps = probe.tau(p * t - p * eps)
    if not ideal_eq(scale_test_ideal(tau_pt, C), tau_t):
        raise VerificationError("scaling law failed at p*t")
    if not ideal_eq(scale_test_ideal(tau_pt_eps, C), tau_t_eps):
        raise VerificationError("scaling law failed below p*t")
    jump_at_t = tau_t.content_hash() != tau_t_eps.content_hash()
    jump_at_pt = tau_pt.content_hash() != tau_pt_eps.content_hash()
    if jump_at_t and not jump_at_pt:
        return False
    return True
