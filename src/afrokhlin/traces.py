"""Trace simplex of the crossed product, parametrized through mixing matrices.

A tracial state restricts at stage n to a weight pair (r_n, s_n) with
r_n + s_n = 1, one weight per matrix summand.  Consecutive stages are linked
by the doubly stochastic mixing matrix of the stage gap ratio, and the whole
simplex is swept out by applying the mixing matrix of the certified tail gap
product to an endpoint parameter (r, 1 - r).  When every tail product
vanishes the simplex is a point and only the flip-invariant trace (1/2, 1/2)
exists; extreme-trace queries then refuse.

A weight is a `Fraction` when it is known exactly and otherwise a
`RatInterval` with lo < hi that encloses it; every weight lies in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .actions import ActionSpec
from .classify import UNKNOWN, UndecidedError, extreme_trace_count
from .intervals import RatInterval, collapse
from .products import DEFAULT_CUTOFF, TailZero, gap_product_tail

Weight = Fraction | RatInterval


def _unit_hull(w: Weight, what: str) -> RatInterval:
    """The enclosure of w, which must lie inside [0, 1]."""
    hull = RatInterval.hull(w)
    if hull.lo < 0 or hull.hi > 1:
        raise ValueError(f"{what} must lie in [0, 1], got {w}")
    return hull


class UniqueTraceError(ValueError):
    """Extreme-trace queries are refused when the trace simplex is a point."""


@dataclass(frozen=True)
class TraceVector:
    """Stage weight pair; represents the trace (a, b) -> r*tr(a) + s*tr(b)."""

    stage: int
    r: Weight
    s: Weight

    def __post_init__(self):
        total = _unit_hull(self.r, "trace weight r") + _unit_hull(self.s, "trace weight s")
        if 1 not in total:
            raise ValueError(f"weights must sum to 1, got enclosure {total}")


@dataclass(frozen=True)
class MixingMatrix:
    """The doubly stochastic matrix with entries (1 +- lam)/2.

    Multiplicative in lam: the entrywise product of the matrices for lam and
    mu is the matrix for lam * mu, and lam = 1 gives the identity.
    """

    lam: Weight

    def __post_init__(self):
        _unit_hull(self.lam, "mixing parameter")

    @property
    def entries(self) -> tuple[tuple[Weight, Weight], tuple[Weight, Weight]]:
        lam = RatInterval.hull(self.lam)
        same = collapse((1 + lam) / 2)
        cross = collapse((1 - lam) / 2)
        return ((same, cross), (cross, same))

    def apply(self, r: Weight, s: Weight) -> tuple[Weight, Weight]:
        (same, cross), _ = self.entries
        new_r = RatInterval.hull(same) * r + cross * s
        new_s = RatInterval.hull(cross) * r + same * s
        return collapse(new_r), collapse(new_s)


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
    tail = 0 if isinstance(result, TailZero) else RatInterval(result.lower, result.upper)
    (r, s), _ = MixingMatrix(tail).entries
    if extreme == 1:
        return TraceVector(n, r, s)
    return TraceVector(n, s, r)
