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
derived from r alone.  A rendering that rounds the ends outward, as the
tracial witness and the trace weights do, is read through `fixed_tail`: from
the Euler enclosure of the limit of a positive affine tail, `_euler_tail`,
and from the cutoff walk only on a straddle.

Every product reads the factors after a range start from one stream,
`ActionSpec.split_stream`, in split form: p - q = x*P + y and p + q = A*P,
with P = B**j for an affine tail factor and P = 1, y = 0 otherwise.  One walk,
`_exact_walk`, multiplies the running unreduced products of p - q and p + q,
drawing a factor only when asked; `range_product`, which `gap_product`,
`condense` and `ktheory` read, takes one item of it.
The rounded walk `_gap_walk`, which gives the tail enclosures and the
positivity scan `cone_scan` of `ktheory.is_positive` every stage product,
reads the exact walk until the denominator outgrows the precision, then
rounds from the next factor of the same stream, taking a mantissa V to
floor((V*x + floor(V*y / P)) / A) = floor(V*(x*P + y) / (A*P)), because
floor(z / A) = floor(floor(z) / A).  No operand has the bits of P: a rounded
step costs O(prec) when P is a power of two and one division by P otherwise.
Finite products and condensations are exact.  No floating point enters any
result; see `afrokhlin.intervals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice

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


def fixed_tail(spec: ActionSpec, m: int, cutoff: int, key) -> RatInterval:
    """An enclosure E of the tail product from m with key(E.lo, E.hi) equal to
    key at the ends of `gap_product_tail(spec, m, cutoff)`, read from the
    Euler enclosure of `_euler_tail` when that fixes it; each component of
    ``key`` reads one end and is monotone in it, as a rendering rounded
    outward is.

    A positive tail with a nonzero remainder bound is an affine tail with
    base B and |c| = A.  When it has no zero gap after m and settles by the
    cutoff, the cutoff enclosure ends a remainder bound r_c =
    remainder_bound(b + cutoff) deep, from the base depth b = max(settle
    depth, m - prefix length).  If r_c <= 1/4, the Euler enclosure [l, u] of
    the limit L brackets the cutoff ends:

        lower_c in [l * (1 - 2 r_c), u],  upper_c in [l, min(u * (1 + 2 r_c), 1)].

    The inner ends hold as lower_c <= L <= u and upper_c >= L >= l.  For the
    outer ones, the partial product P_c satisfies P_c * (1 - r_c) <= L <= P_c.
    `_gap_walk` keeps P_c within a factor 1 -+ delta, delta = 4N / 2**prec <=
    r_c**2 / 2**62 at the precision of `gap_product_tail`, and `_floor_bits`
    loses less than 2**(1 - prec) more, so lower_c >= l * (1 - r_c) * (1 - 2
    delta) >= l * (1 - 2 r_c), and upper_c <= P_c * (1 + delta) <= u * (1 +
    delta) / (1 - r_c) <= u * (1 + 2 r_c), as delta <= r_c * (1 - 2 r_c) when
    r_c <= 1/4.  An exact enclosure has delta = 0.  When key takes one value
    at the outer ends and at the inner ones, monotonicity fixes it on both
    brackets, and the outer enclosure is returned; otherwise the cutoff
    enclosure is.

    The brackets are narrow against a 12-digit grid: round_down and round_up
    step by at least 10^-12 > 2^-40 of any value in (0, 1].  The Euler
    enclosure is narrower than 2**-(40 + _GUARD_BITS) relative to L and to
    1 - L, and the slack 2 r_c is at most 2 * B**-cutoff relative to L and
    4 * B**-cutoff relative to 1 - L >= 2e / (A * B**(b + 1)), as A * B**b >=
    2e for the smaller rank e, so ends read from (1 - L) / 2 are fixed alike.
    """
    tail = spec.tail
    if (
        tail is not None
        and tail.divergence() is None
        and tail.remainder_bound(0)
        and first_zero_gap_after(spec, m) is None
    ):
        settle = tail.settle_depth()
        r = tail.remainder_bound(max(settle, m - len(spec.prefix)) + cutoff)
        if settle <= cutoff and 4 * r <= 1:
            lo, hi = _euler_tail(spec, m)
            outer_lo, outer_hi = lo * (1 - 2 * r), min(hi * (1 + 2 * r), 1)
            if key(outer_lo, outer_hi) == key(hi, lo):
                return TailPositive(outer_lo, outer_hi)
    return gap_product_tail(spec, m, cutoff)


def _euler_tail(spec: ActionSpec, m: int) -> tuple[Fraction, Fraction]:
    """Rational l <= L <= u for the limit L of the tail product from m of a
    positive affine tail with smaller rank e > 0 and |c| = A.

    From tail position j1 = max(settle depth, m - prefix length + 1) on, each
    gap is 1 - 2e / (A * B**j), so L = G * (z; q)_inf with G =
    gap_product(spec, m, prefix length + j1 - 1), z = 2e / N for N = A *
    B**j1, and q = 1 / B.  Euler's identity (Andrews, The Theory of
    Partitions, 1976, Cor. 2.2) sums (z; q)_inf = sum over k of t_k, t_0 = 1 and
    t_k / t_(k - 1) = -z * B / (B**k - 1).  As no gap after m is zero, z < 1,
    so |t_k| decreases from k = 1 on, and the signs alternate: after the
    terms up to K the rest has the sign of t_(K + 1) and at most its size.

    The sum is taken in fixed point at W bits: |t_k| * 2**W is floored and
    ceiled from the previous floor and ceiling, and the first term whose
    ceiling is one unit or less bounds the rest.  A floor or a ceiling moves
    a term by less than 3 units, as the ratios from k = 2 on are at most
    2/3; |t_k| <= 4 * 2**-(k * (k - 1) / 2), so at most K <= sqrt(2W + 10) +
    1 terms are summed, and [l, u] is less than 6K + 1 units wide.  Against
    L >= G * (1 - z) * (q; q)_inf >= G / (4N) and 1 - L >= z >= 2 / N, the
    width W = 40 + _GUARD_BITS + bl(N) + bl(bl(N)) + 8, for bit length bl,
    keeps it below 2**-(40 + _GUARD_BITS) relative to L and to 1 - L.
    """
    tail, n0 = spec.tail, len(spec.prefix)
    j1 = max(tail.settle_depth(), m - n0 + 1)
    B = tail.B
    N = tail.A * B**j1
    step = 2 * tail.eventual_smaller_rank() * B  # z * B = step / N
    width = 40 + _GUARD_BITS + N.bit_length() + N.bit_length().bit_length() + 8
    lo = hi = total_lo = total_hi = 1 << width  # |t_k| is in [lo, hi] units
    power = 1
    for k in count(1):
        power *= B
        den = N * (power - 1)
        lo, hi = lo * step // den, -(-hi * step // den)
        if hi <= 1:
            # the rest lies between 0 and t_k
            if k % 2:
                total_lo -= hi
            else:
                total_hi += hi
            break
        if k % 2:
            total_lo, total_hi = total_lo - hi, total_hi - lo
        else:
            total_lo, total_hi = total_lo + lo, total_hi + hi
    G = gap_product(spec, m, n0 + j1 - 1)
    return G * Fraction(total_lo, 1 << width), G * Fraction(total_hi, 1 << width)


def cone_scan(spec: ActionSpec, s: int, u: int, absv: int):
    """Yield (n, |v| * gap_product(spec, s, n) <= u) for n = s, s + 1, ...

    The stage products come from `_gap_walk` at prec = bits(u) + bits(|v|) +
    _GUARD_BITS: exact while their denominator fits, then rounded outward to
    lo <= gap_product * den <= hi.  A rounded stage is inside when |v| * hi <=
    u * den and outside when |v| * lo > u * den; only a stage whose enclosure
    straddles the threshold multiplies out the exact `range_product`.
    """
    prec = u.bit_length() + absv.bit_length() + _GUARD_BITS
    for n, (lo, hi, den) in enumerate(_gap_walk(spec, s, prec), s):
        bound = u * den
        if absv * hi <= bound:
            yield n, True
        elif lo == hi or absv * lo > bound:
            yield n, False
        else:
            diff, size = range_product(spec, s, n)
            yield n, absv * diff <= u * size


def _floor_bits(x: Fraction, prec: int) -> Fraction:
    """Largest dyadic <= x in (0, 1] with about prec significant bits."""
    shift = prec + x.denominator.bit_length() - x.numerator.bit_length()
    return Fraction((x.numerator << shift) // x.denominator, 1 << shift)


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
    is no integer.  The shift s = prec + 1 + bl(A*P) - bl(h) - bl(x*P + y), for
    the upper mantissa h and bit length bl, needs no product: bl(u*v) is bl(u)
    + bl(v) or one less, so h*(x*P + y)*2**s has prec + bl(A*P) bits or one
    more, and the new h lies in (2**(prec - 1), 2**(prec + 2)]; without the + 1
    it could fall near 2**(prec - 2).  Each rounded step moves an end by less
    than one unit of a mantissa above 2**(prec - 2), so after N of them the
    ends lie within a factor 1 -+ 4*N / 2**prec of the product.
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
        shift = prec + 1 + (A * P).bit_length() - (-hi).bit_length() - (x * P + y).bit_length()
        scale += shift
        if shift > 0:
            lo, hi = lo << shift, hi << shift
        lo_w, hi_w = lo * x, hi * x
        if y and P & (P - 1):
            # one long division by P: with d = -hi - lo small, hi*y is
            # -q*P - rem - d*y and floor((-q*P + z) / P) = -q + floor(z / P),
            # where z has the size of P and z // P is small
            q, rem = divmod(lo * y, P)
            lo_w, hi_w = lo_w + q, hi_w - q + (-rem - (-hi - lo) * y) // P
        elif y:  # floor(v*y / P) is a shift
            t = P.bit_length() - 1
            lo_w, hi_w = lo_w + (lo * y >> t), hi_w + (hi * y >> t)
        if shift < 0:
            lo_w, hi_w = lo_w >> -shift, hi_w >> -shift
        lo, hi = lo_w // A, hi_w // A
        yield lo, -hi, 1 << scale
