"""Exact gap ratios, their finite products, and certified tail products.

Every factor ``(p, q)`` carries a gap ratio ``(p - q) / (p + q)`` in [0, 1]
(after normalization).  The master invariants of the whole toolkit are the
finite products of gap ratios over factor ranges and their limits along the
tail.  A tail product is zero exactly when some later factor has gap zero or
the sum of ``1 - gap`` diverges; each supported tail family admits a closed
form divergence test, so the zero/positive decision is exact.  Every tail
result is a `RatInterval` read by its ends: `TailZero` [0, 0] with a witness,
the undecided [0, P] when the certificate needs more than the cutoff, and
`TailPositive` [P * (1 - r), P] for a partial product P and a geometric
remainder bound r.  When r is zero (periodic tails, affine tails whose
smaller rank settles to zero) P is the exact limit and stays an exact
fraction.  Otherwise P * (1 - r) lies within about P * r**2 of the limit, so
P is needed to about 2 * log2(1/r) bits and no more: it is enclosed by dyadic
numbers rounded outward (lower end down, upper end up) at a working precision
derived from r alone.

Every product reads the factors after a range start from one stream,
`ActionSpec.split_stream`, in split form: p - q = x*P + y and p + q = A*P,
with P = B**j for an affine tail factor and P = 1, y = 0 otherwise.  One walk,
`_exact_walk`, multiplies the running unreduced products of p - q and p + q,
drawing a factor only when asked; `range_product`, which `gap_product`,
`condense` and `ktheory` read, takes one item of it.
The rounded walk `_gap_walk`, which gives the tail enclosures and the
positivity scan of `ktheory.is_positive` every stage product, reads the exact
walk until the denominator outgrows the precision, then rounds from the next
factor of the same stream, taking a mantissa V to
floor((V*x + floor(V*y / P)) / A) = floor(V*(x*P + y) / (A*P)), because
floor(z / A) = floor(floor(z) / A).  No operand has the bits of P: a rounded
step costs O(prec) when P is a power of two and one division by P otherwise.
Finite products and condensations are exact.  No floating point enters any
result; see `afrokhlin.intervals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

from .actions import ActionSpec, FiniteActionError, RankPair
from .intervals import RatInterval

DEFAULT_CUTOFF = 64

# Bits kept beyond what the remainder bound of a positive tail can resolve.
_GUARD_BITS = 64


@dataclass(frozen=True)
class TailZero(RatInterval):
    """The tail product is exactly zero: the enclosure [0, 0] with a witness.

    Exactly one witness field is set: ``zero_index`` points at a factor with
    gap zero beyond the range start, ``divergence`` names the comparison test
    certifying that the sum of (1 - gap) diverges.
    """

    lo: Fraction = Fraction(0)
    hi: Fraction = Fraction(0)
    zero_index: int | None = None
    divergence: str | None = None

    def __post_init__(self):
        if (self.zero_index is None) == (self.divergence is None):
            raise ValueError("TailZero needs exactly one witness")
        super().__post_init__()
        if self.hi != 0 or self.lo != 0:
            raise ValueError(f"a zero tail is the enclosure [0, 0], got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class TailPositive(RatInterval):
    """Certified enclosure 0 < lo <= true tail product <= hi <= 1."""

    def __post_init__(self):
        # before RatInterval's own checks, so a reversed pair names the tail
        if not (0 < self.lo <= self.hi <= 1):
            raise ValueError(f"invalid positive enclosure [{self.lo}, {self.hi}]")
        super().__post_init__()

    # the ends under their earlier names, read-only
    lower = property(lambda self: self.lo)
    upper = property(lambda self: self.hi)


def _exact_walk(stream):
    """Yield (diff, size), the unreduced products of p - q and of p + q over
    the first 0, 1, 2, ... factors of a split stream; a factor is drawn only
    when the item that needs it is asked for."""
    diff = size = 1
    yield diff, size
    for x, y, A, P in stream:
        diff *= x * P + y
        size *= A * P
        yield diff, size


def range_product(spec: ActionSpec, m: int, n: int) -> tuple[int, int]:
    """(diff, size) of `_exact_walk` over factors m+1 .. n; empty ranges give (1, 1)."""
    if m < 0:
        raise ValueError(f"range start must be >= 0, got {m}")
    if n < m:
        raise ValueError(f"range end {n} precedes start {m}")
    return next(islice(_exact_walk(spec.split_stream(m)), n - m, None))


def gap_product(spec: ActionSpec, m: int, n: int) -> Fraction:
    """Product of the gap ratios of factors m+1 .. n; empty ranges give 1."""
    return Fraction(*range_product(spec, m, n))


def condense(spec: ActionSpec, m: int, n: int) -> RankPair:
    """Collapse factors m+1 .. n into one equivalent factor.

    The result (P, Q) has P + Q equal to the product of the collapsed matrix
    sizes and P - Q equal to the product of the collapsed rank differences,
    so its gap ratio is the product of the collapsed gap ratios.
    """
    if m < 0 or n <= m:
        raise ValueError(f"condense needs a nonempty range 0 <= m < n, got {m}..{n}")
    diff, size = range_product(spec, m, n)
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
) -> RatInterval:
    """Decide the limit of gap_product(spec, m, n) as n grows.

    The result is an enclosure read by its ends: TailZero, [0, 0], with a
    witness (a later zero gap, or a named divergence test for the sum of
    1 - gap) when hi == 0; TailPositive, a certified enclosure, when lo > 0;
    and the undecided RatInterval(0, partial product) when lo == 0 < hi, as
    the geometric certificate does not engage within ``cutoff`` tail factors.
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
        return RatInterval(Fraction(0), gap_product(spec, m, max(m, n0 + cutoff)))
    depth = max(settle, m - n0)
    if not tail.remainder_bound(depth):
        partial = gap_product(spec, m, n0 + depth)
        return TailPositive(partial, partial)
    # a nonzero remainder shrinks geometrically: go cutoff factors deeper
    depth += cutoff
    r = tail.remainder_bound(depth)
    n = n0 + depth
    # P * (1 - r) lies only about P * r**2 below the limit, so the rounding
    # error of the n - m factors must stay a 2**-_GUARD_BITS share of r**2
    r_bits = (r.denominator // r.numerator).bit_length()
    prec = 2 * r_bits + (n - m).bit_length() + _GUARD_BITS
    lo, hi = _enclose_gap_product(spec, m, n, prec)
    lower = lo * (1 - r)
    if lo != hi:
        # a rounded product keeps its lower end at the working precision
        # too, instead of adding the bits of r to it
        lower = _floor_bits(lower, prec)
    return TailPositive(lower, min(hi, 1))


def _floor_bits(x: Fraction, prec: int) -> Fraction:
    """Largest dyadic <= x in (0, 1] with about prec significant bits."""
    shift = prec + x.denominator.bit_length() - x.numerator.bit_length()
    return Fraction((x.numerator << shift) // x.denominator, 1 << shift)


def _product_bit_length(u: int, v: int) -> int:
    """(u * v).bit_length() for u, v >= 0: u*v / 2**(su + sv) lies in [tu*tv,
    (tu + 1)(tv + 1)) for the 64-bit tops tu = u >> su, tv = v >> sv, and the exact
    product is formed only if an operand fits 64 bits or the ends' lengths differ."""
    su, sv = u.bit_length() - 64, v.bit_length() - 64
    if su > 0 < sv:
        tu, tv = u >> su, v >> sv
        low = (tu * tv).bit_length()
        if low == ((tu + 1) * (tv + 1) - 1).bit_length():
            return low + su + sv
    return (u * v).bit_length()


def _enclose_gap_product(
    spec: ActionSpec, m: int, n: int, prec: int
) -> tuple[Fraction, Fraction]:
    """Outward-rounded enclosure lo <= gap_product(spec, m, n) <= hi: the
    item of `_gap_walk` at n, exact (lo == hi) when the product never
    outgrew the precision."""
    lo, hi, den = next(islice(_gap_walk(spec, m, prec), n - m, None))
    return Fraction(lo, den), Fraction(hi, den)


def _gap_walk(spec: ActionSpec, m: int, prec: int):
    """Yield (lo, hi, den) with lo/den <= gap_product(spec, m, n) <= hi/den for
    n = m, m + 1, ...

    The items of `_exact_walk` on ``spec.split_stream(m)``, unreduced and
    with no gcd, come first while the denominator fits in ``prec`` bits
    (lo == hi, den that denominator).  From then on, reading
    on in the same stream, both ends are integer mantissas of about ``prec``
    bits over den = 2**scale, lo floored and hi ceiled at every factor.  A
    factor (x*P + y)/(A*P) takes a mantissa V to floor((V*x + floor(V*y / P))
    / A), which is floor(V*(x*P + y) / (A*P)) as floor(z / A) = floor(floor(z)
    / A); for a shift s < 0 the floor by 2**-s comes first, as V = v / 2**-s
    is no integer.  Each rounded step moves an end by less than one unit of a
    mantissa above 2**(prec - 2), so after N of them the ends lie within a
    factor 1 -+ 4*N / 2**prec of the product.
    """
    stream = spec.split_stream(m)
    for num, den in _exact_walk(stream):
        if den.bit_length() > prec:
            break
        yield num, num, den
    lo, hi = 1, -1  # hi is kept negated: floor(-x / d) = -ceil(x / d) rounds it up
    scale = 0  # the mantissas stand for lo / 2**scale and -hi / 2**scale
    for x, y, A, P in chain([(num, 0, den, 1)], stream):
        # choose the shift that leaves about prec bits in the quotient
        shift = prec + (A * P).bit_length() - _product_bit_length(-hi, x * P + y)
        scale += shift
        if shift > 0:
            lo, hi = lo << shift, hi << shift
        lo_w, hi_w = lo * x, hi * x
        if y and P & (P - 1):
            lo_w, hi_w = lo_w + lo * y // P, hi_w + hi * y // P
        elif y:  # floor(v*y / P) is a shift
            t = P.bit_length() - 1
            lo_w, hi_w = lo_w + (lo * y >> t), hi_w + (hi * y >> t)
        if shift < 0:
            lo_w, hi_w = lo_w >> -shift, hi_w >> -shift
        lo, hi = lo_w // A, hi_w // A
        yield lo, -hi, 1 << scale
