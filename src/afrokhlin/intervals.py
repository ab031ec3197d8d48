"""The enclosure value and directed decimal rounding.

A `RatInterval` is a validated pair of Fraction ends lo <= hi, built from ints or
Fractions only (no floating point), exact when lo == hi: every trace weight and every
tail product is one.  The rounding helpers turn a rational into a short decimal below
it, above it, or below it but above a bound, sized from bit lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not {type(self.lo), type(self.hi)} <= {int, Fraction}:
            raise ValueError("interval ends must be integers or Fractions")
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

    Strict positivity is preserved: a positive x is rounded at the least
    scale 10^(12 + 6i) at which it stays positive, so rounded enclosures
    remain valid certificates.
    """
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    scale = 10**12
    if num > 0:
        # den/num > 2^(b - 1) for b = bits(den) - bits(num), so num*10^k >= den needs
        # k > (b - 1)*log10(2) >= d (1233/4096 < log10(2); d < 0 if b < 1): start at the
        # least k = 12 + 6i above d.  As den/num < 2^(b + 1), the least k with 10^k >=
        # den/num is under 3 + b/200000 digits above d: one step up below 600,000 bits.
        d = (den.bit_length() - num.bit_length() - 1) * 1233 // 4096
        scale = 10 ** (12 + 6 * max(0, (d - 6) // 6))
        while num * scale < den:
            scale *= 10**6
    return Fraction(num * scale // den, scale)


def round_down_above(x: Fraction, bound: Fraction) -> Fraction:
    """Largest decimal fraction <= x at the fewest digits, at least 12, that
    still exceeds bound < x, so the rounded value certifies x > bound."""
    if (gap := x - bound) <= 0:
        raise ValueError("bound must lie below x")
    # floor_k(x) = floor(x*10^k) / 10^k never decreases as k grows and exceeds bound once
    # 10^-k <= x - bound = n/d (as floor_k(x) > x - 10^-k), which holds at k = e*1234//4096
    # + 1 > e*log10(2) for e = bits(d) - bits(n) + 1, as n/d > 2^-e: bisect [12, k] on ints.
    e = gap.denominator.bit_length() - gap.numerator.bit_length() + 1
    lo, hi = 12, max(12, e * 1234 // 4096 + 1)
    (xn, xd), (bn, bd) = x.as_integer_ratio(), bound.as_integer_ratio()
    while lo < hi:
        k = (lo + hi) // 2
        if xn * 10**k // xd * bd > bn * 10**k:
            hi = k
        else:
            lo = k + 1
    return Fraction(xn * 10**lo // xd, 10**lo)


def round_up(x: Fraction) -> Fraction:
    """Smallest decimal fraction with 12 digits after the point that is >= x."""
    return -round_down(-Fraction(x))
