"""Exact interval arithmetic with rational endpoints.

Endpoints are `fractions.Fraction`, so enclosures are certified without any
floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

RationalLike = Fraction | int


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = Fraction(self.lo), Fraction(self.hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def exact(x: RationalLike) -> "RatInterval":
        x = Fraction(x)
        return RatInterval(x, x)

    @staticmethod
    def hull(x) -> "RatInterval":
        return x if isinstance(x, RatInterval) else RatInterval.exact(x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, x: RationalLike) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def intersects(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        other = RatInterval.hull(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-RatInterval.hull(other))

    def __rsub__(self, other):
        return RatInterval.hull(other) + (-self)

    def __mul__(self, other):
        other = RatInterval.hull(other)
        corners = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return RatInterval(min(corners), max(corners))

    __rmul__ = __mul__

    def __truediv__(self, den: RationalLike):
        den = Fraction(den)
        if den == 0:
            raise ZeroDivisionError("interval divided by zero")
        ends = sorted((self.lo / den, self.hi / den))
        return RatInterval(ends[0], ends[1])

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


def collapse(x: RatInterval) -> Fraction | RatInterval:
    """Return the single rational when an interval is exact."""
    return x.lo if x.is_exact else x


def round_down(x: Fraction) -> Fraction:
    """Largest decimal fraction with 12 digits after the point that is <= x.

    Strict positivity is preserved: the precision grows until a positive x
    stays positive, so rounded enclosures remain valid certificates.
    """
    x = Fraction(x)
    scale = 10**12
    out = Fraction(x.numerator * scale // x.denominator, scale)
    while x > 0 and out <= 0:
        scale *= 10**6
        out = Fraction(x.numerator * scale // x.denominator, scale)
    return out


def round_down_above(x: Fraction, bound: Fraction) -> Fraction:
    """Largest decimal fraction <= x at the fewest digits, at least 12, that
    still exceeds bound < x, so the rounded value certifies x > bound."""
    x = Fraction(x)
    scale = 10**12
    out = Fraction(x.numerator * scale // x.denominator, scale)
    while out <= bound:
        scale *= 10
        out = Fraction(x.numerator * scale // x.denominator, scale)
    return out


def round_up(x: Fraction) -> Fraction:
    """Smallest decimal fraction with 12 digits after the point that is >= x."""
    return -round_down(-Fraction(x))


def round_outward(x: RatInterval) -> RatInterval:
    return RatInterval(round_down(x.lo), round_up(x.hi))
