"""The enclosure value and directed decimal rounding.

A `RatInterval` is a validated pair of `fractions.Fraction` ends lo <= hi, so
enclosures are certified without any floating-point rounding.  The rounding
helpers turn an exact rational into a short decimal certificate that lies
below it, above it, or below it but still above a given bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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

    def __str__(self) -> str:
        if self.lo == self.hi:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


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
