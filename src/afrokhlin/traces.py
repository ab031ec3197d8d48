"""Trace simplex of the crossed product, read from the certified tail product.

A tracial state restricts at stage n to a weight pair (r_n, s_n) with
r_n + s_n = 1, one weight per matrix summand.  Consecutive stages are linked
by the doubly stochastic mixing matrix [[(1 + g)/2, (1 - g)/2], [(1 - g)/2,
(1 + g)/2]] of the stage gap ratio g.  These matrices multiply like their
parameters, so the simplex is swept out by the matrix of the tail gap product
L applied to an endpoint (r, 1 - r); its two extreme traces have weights
((1 + L)/2, (1 - L)/2) and the swap.  Both ends of the certified enclosure of
L map to ends of the weight enclosures, so no interval arithmetic is needed.
When every tail product vanishes the simplex is a point and only the
flip-invariant trace (1/2, 1/2) exists; extreme-trace queries then refuse.

A weight is a `Fraction` when it is known exactly and otherwise a
`RatInterval` with lo < hi that encloses it; every weight lies in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .actions import ActionSpec
from .classify import UNKNOWN, UndecidedError, extreme_trace_count
from .intervals import RatInterval
from .products import DEFAULT_CUTOFF, TailZero, gap_product_tail

Weight = Fraction | RatInterval


def _unit_ends(w: Weight, what: str) -> tuple[Fraction, Fraction]:
    """The ends of w, which must lie inside [0, 1]."""
    lo, hi = (w.lo, w.hi) if isinstance(w, RatInterval) else (w, w)
    if lo < 0 or hi > 1:
        raise ValueError(f"{what} must lie in [0, 1], got {w}")
    return lo, hi


class UniqueTraceError(ValueError):
    """Extreme-trace queries are refused when the trace simplex is a point."""


@dataclass(frozen=True)
class TraceVector:
    """Stage weight pair; represents the trace (a, b) -> r*tr(a) + s*tr(b)."""

    stage: int
    r: Weight
    s: Weight

    def __post_init__(self):
        r_lo, r_hi = _unit_ends(self.r, "trace weight r")
        s_lo, s_hi = _unit_ends(self.s, "trace weight s")
        lo, hi = r_lo + s_lo, r_hi + s_hi
        if not lo <= 1 <= hi:
            raise ValueError(f"weights must sum to 1, got enclosure {RatInterval(lo, hi)}")


def invariant_trace_vector(spec: ActionSpec, n: int) -> TraceVector:
    """The flip-fixed trace weights: exactly (1/2, 1/2) at every stage."""
    if n < 0:
        raise ValueError("stage must be >= 0")
    return TraceVector(n, Fraction(1, 2), Fraction(1, 2))


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
    result = gap_product_tail(spec, n, cutoff)
    lo, hi = (0, 0) if isinstance(result, TailZero) else (result.lower, result.upper)
    if lo == hi:
        r, s = Fraction(1 + lo, 2), Fraction(1 - lo, 2)
    else:
        r = RatInterval((1 + lo) / 2, (1 + hi) / 2)
        s = RatInterval((1 - hi) / 2, (1 - lo) / 2)
    if extreme == 1:
        return TraceVector(n, r, s)
    return TraceVector(n, s, r)
