"""Trace simplex of the crossed product, read from the certified tail product.

A tracial state restricts at stage n to a weight pair (r_n, s_n) with
r_n + s_n = 1, one weight per matrix summand.  Consecutive stages are linked
by the doubly stochastic mixing matrix [[(1 + g)/2, (1 - g)/2], [(1 - g)/2,
(1 + g)/2]] of the stage gap ratio g.  These matrices multiply like their
parameters, so the simplex is swept out by the matrix of the tail gap product
L applied to an endpoint (r, 1 - r); its two extreme traces have weights
((1 + L)/2, (1 - L)/2) and the swap.  Every weight is a `RatInterval` inside
[0, 1], exact when lo == hi: the two ends of the certified enclosure of L give
the ends of the weight enclosures, so no interval arithmetic is needed.  When
every tail product vanishes the simplex is a point and only the flip-invariant
trace (1/2, 1/2) exists; extreme-trace queries then refuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .actions import ActionSpec
from .classify import UNKNOWN, UndecidedError, extreme_trace_count
from .intervals import RatInterval
from .products import DEFAULT_CUTOFF, gap_product_tail


class UniqueTraceError(ValueError):
    """Extreme-trace queries are refused when the trace simplex is a point."""


@dataclass(frozen=True)
class TraceVector:
    """Stage weight pair; represents the trace (a, b) -> r*tr(a) + s*tr(b)."""

    stage: int
    r: RatInterval
    s: RatInterval

    def __post_init__(self):
        for what, w in (("trace weight r", self.r), ("trace weight s", self.s)):
            if type(w) is not RatInterval:
                raise ValueError("trace weights must be RatInterval enclosures")
            if w.lo < 0 or w.hi > 1:
                raise ValueError(f"{what} must lie in [0, 1], got {w}")
        lo, hi = self.r.lo + self.s.lo, self.r.hi + self.s.hi
        if not lo <= 1 <= hi:
            raise ValueError(f"weights must sum to 1, got enclosure {RatInterval(lo, hi)}")


def invariant_trace_vector(spec: ActionSpec, n: int) -> TraceVector:
    """The flip-fixed trace weights: exactly (1/2, 1/2) at every stage."""
    if n < 0:
        raise ValueError("stage must be >= 0")
    half = RatInterval(Fraction(1, 2), Fraction(1, 2))
    return TraceVector(n, half, half)


def extreme_trace_vector(
    spec: ActionSpec, extreme: int, n: int, cutoff: int = DEFAULT_CUTOFF
) -> TraceVector:
    """Stage weights of one of the two extreme traces.

    With L the certified tail gap product from stage n, extreme 1 has weights
    ((1 + L)/2, (1 - L)/2) and extreme 0 the swap.  Requires a spec whose
    trace simplex actually has two extreme points.
    """
    if extreme not in (0, 1):
        raise ValueError("extreme must be 0 or 1")
    if n < 0:
        raise ValueError("stage must be >= 0")
    count = extreme_trace_count(spec, cutoff)
    if count == 1:
        raise UniqueTraceError(
            f"action {spec.name!r} has a unique tracial state; "
            "only the invariant trace vector exists"
        )
    if count == UNKNOWN:
        raise UndecidedError(
            f"trace count undecided at cutoff {cutoff} for action {spec.name!r}"
        )
    # the tail settles by the cutoff, so the tail product is decided
    tail = gap_product_tail(spec, n, cutoff)
    r = RatInterval((1 + tail.lo) / 2, (1 + tail.hi) / 2)
    s = RatInterval((1 - tail.hi) / 2, (1 - tail.lo) / 2)
    if extreme == 1:
        return TraceVector(n, r, s)
    return TraceVector(n, s, r)
