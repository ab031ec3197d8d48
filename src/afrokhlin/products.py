"""Exact gap ratios, their finite products, and certified tail products.

Every factor ``(p, q)`` carries a gap ratio ``(p - q) / (p + q)`` in [0, 1]
(after normalization).  The master invariants of the whole toolkit are the
finite products of gap ratios over factor ranges and their limits along the
tail.  A tail product is zero exactly when some later factor has gap zero or
the sum of ``1 - gap`` diverges; each supported tail family admits a closed
form divergence test, so the zero/positive decision is exact.  Positive tail
products are certified by rational intervals: an explicit partial product
times a geometric remainder bound.

No floating point enters any result; see `afrokhlin.intervals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .actions import ActionSpec, FiniteActionError, RankPair
from .intervals import RatInterval

DEFAULT_CUTOFF = 64


@dataclass(frozen=True)
class TailZero:
    """The tail product is exactly zero.

    Exactly one witness field is set: ``zero_index`` points at a factor with
    gap zero beyond the range start, ``divergence`` names the comparison test
    certifying that the sum of (1 - gap) diverges.
    """

    zero_index: int | None = None
    divergence: str | None = None

    def __post_init__(self):
        if (self.zero_index is None) == (self.divergence is None):
            raise ValueError("TailZero needs exactly one witness")


@dataclass(frozen=True)
class TailPositive:
    """Certified enclosure 0 < lower <= true tail product <= upper <= 1."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if not (0 < self.lower <= self.upper <= 1):
            raise ValueError(f"invalid positive enclosure [{self.lower}, {self.upper}]")

    @property
    def interval(self) -> RatInterval:
        return RatInterval(self.lower, self.upper)


@dataclass(frozen=True)
class TailUnknown:
    """Cutoff exhausted before a certificate applied; partial enclosure only."""

    cutoff: int
    lower: Fraction
    upper: Fraction

    @property
    def interval(self) -> RatInterval:
        return RatInterval(self.lower, self.upper)


TailProductResult = TailZero | TailPositive | TailUnknown


def gap(spec: ActionSpec, n: int) -> Fraction:
    """Gap ratio (p - q)/(p + q) of the normalized factor at index n."""
    return spec.factor(n).gap


def gap_product(spec: ActionSpec, m: int, n: int) -> Fraction:
    """Product of the gap ratios of factors m+1 .. n; empty ranges give 1."""
    if m < 0:
        raise ValueError(f"range start must be >= 0, got {m}")
    if n < m:
        raise ValueError(f"range end {n} precedes start {m}")
    out = Fraction(1)
    for i in range(m + 1, n + 1):
        out *= spec.factor(i).gap
    return out


def condense(spec: ActionSpec, m: int, n: int) -> RankPair:
    """Collapse factors m+1 .. n into one equivalent factor.

    The result (P, Q) has P + Q equal to the product of the collapsed matrix
    sizes and P - Q equal to the product of the collapsed rank differences,
    so its gap ratio is the product of the collapsed gap ratios.
    """
    if m < 0 or n <= m:
        raise ValueError(f"condense needs a nonempty range 0 <= m < n, got {m}..{n}")
    size = 1
    diff = 1
    for i in range(m + 1, n + 1):
        f = spec.factor(i)
        size *= f.size
        diff *= f.p - f.q
    return RankPair((size + diff) // 2, (size - diff) // 2)


def first_zero_gap_after(spec: ActionSpec, stage: int) -> int | None:
    """Smallest factor index n > stage with gap ratio zero, or None."""
    n0 = len(spec.prefix)
    for i in range(max(stage, 0) + 1, n0 + 1):
        if spec.prefix[i - 1].symmetric:
            return i
    if spec.tail is None:
        return None
    j = spec.tail.first_zero_gap(max(stage - n0, 0) + 1)
    return None if j is None else n0 + j


def gap_product_tail(
    spec: ActionSpec, m: int, cutoff: int = DEFAULT_CUTOFF
) -> TailProductResult:
    """Decide the limit of gap_product(spec, m, n) as n grows.

    Returns TailZero with a witness (a later zero gap, or a named divergence
    test for the sum of 1 - gap), TailPositive with a certified rational
    enclosure, or TailUnknown when the geometric certificate does not engage
    within ``cutoff`` tail factors.
    """
    if m < 0:
        raise ValueError(f"range start must be >= 0, got {m}")
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    if spec.tail is None:
        raise FiniteActionError("tail products need an infinite action")
    n0 = len(spec.prefix)
    z = first_zero_gap_after(spec, m)
    if z is not None:
        return TailZero(zero_index=z)
    tail = spec.tail
    divergence = tail.divergence()
    if divergence is not None:
        return TailZero(divergence=divergence)

    settle = tail.settle_depth()
    if settle > cutoff:
        upper = gap_product(spec, m, max(m, n0 + cutoff))
        return TailUnknown(cutoff=cutoff, lower=Fraction(0), upper=upper)
    depth = max(settle, m - n0)
    if tail.remainder_bound(depth):
        # a nonzero remainder shrinks geometrically: go cutoff factors deeper
        depth += cutoff
    partial = gap_product(spec, m, n0 + depth)
    return TailPositive(partial * (1 - tail.remainder_bound(depth)), partial)


def tail_result_interval(result: TailProductResult) -> RatInterval:
    if isinstance(result, TailZero):
        return RatInterval.exact(0)
    return result.interval
