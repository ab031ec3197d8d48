import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afrokhlin.intervals import RatInterval, round_down, round_down_above, round_up
from afrokhlin.report import decimal_str, weight_json
from oracles import reference_decimal_str, reference_round_down, reference_round_down_above

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=997)


@st.composite
def wide_rationals(draw):
    """Rationals with numerator and denominator of up to about 4,000 bits each,
    so positive values reach below 10^-1200 and above 10^1200."""
    num_bits, den_bits = draw(st.integers(0, 4000)), draw(st.integers(1, 4000))
    num = draw(st.integers(-(2**num_bits), 2**num_bits))
    return Fraction(num, draw(st.integers(2 ** (den_bits - 1), 2**den_bits)))


@st.composite
def rationals_with_bounds(draw):
    """A rational x of up to about 3,000 bits each way and a bound below it:
    x - |x|*10^-e, x*t for t in [0, 1], 0 or -x, whichever lie below x."""
    num_bits, den_bits = draw(st.integers(0, 3000)), draw(st.integers(1, 3000))
    num = draw(st.integers(1, 2**num_bits)) * draw(st.sampled_from((1, -1)))
    x = Fraction(num, draw(st.integers(2 ** (den_bits - 1), 2**den_bits)))
    e = draw(st.integers(0, 1000))
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    bounds = [x - abs(x) / 10**e, x * t, Fraction(0), -x]
    return x, draw(st.sampled_from([b for b in bounds if b < x]))


@st.composite
def decimal_like_rationals(draw):
    """Rationals with denominators 2^a * 5^b * c, c drawn from odd numbers
    that are, are not, or are only partly powers of 5."""
    a, b = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    c = draw(st.sampled_from((1, 1, 1, 3, 7, 15, 25, 125 * 3, 5**40 * 11)))
    return Fraction(draw(st.integers(-(10**80), 10**80)), 2**a * 5**b * c)


def test_basic_construction():
    iv = RatInterval(Fraction(1, 3), Fraction(1, 2))
    assert (iv.lo, iv.hi) == (Fraction(1, 3), Fraction(1, 2))
    assert str(iv) == "[1/3, 1/2]"
    whole = RatInterval(0, 1)
    assert type(whole.lo) is Fraction and type(whole.hi) is Fraction
    with pytest.raises(ValueError, match=r"empty interval \[1, 0\]"):
        RatInterval(Fraction(1), Fraction(0))


@given(rationals)
def test_directional_rounding(x):
    lo = round_down(x)
    hi = round_up(x)
    assert lo <= x <= hi
    if x > 0:
        assert lo > 0
    if x < 0:
        assert hi < 0


def test_round_down_keeps_tiny_values_positive():
    tiny = Fraction(1, 10**30)
    assert 0 < round_down(tiny) <= tiny


@settings(max_examples=2000, deadline=None)
@given(wide_rationals())
def test_round_down_matches_reference(x):
    # the digit count read from bit lengths is the one the step-by-step loop finds
    assert round_down(x) == reference_round_down(x)
    assert round_up(x) == -reference_round_down(-x)


def test_round_down_matches_reference_near_powers_of_ten():
    # scales 10^(12 + 6i) are exactly enough, or just not enough, at these points
    for k in range(12, 301):
        step = Fraction(1, 10 ** (k + 40))
        for x in (Fraction(1, 10**k), Fraction(1, 10**k) - step, Fraction(1, 10**k) + step):
            for y in (x, 7 * x, x / 3, -x):
                assert round_down(y) == reference_round_down(y), (k, y)


@given(rationals, rationals)
def test_round_outward_contains(a, b):
    # an interval weight is rendered with its ends rounded outward, an exact one exactly
    iv = RatInterval(min(a, b), max(a, b))
    out = weight_json(iv)
    if a == b:
        assert out == decimal_str(a)
    else:
        assert Fraction(out["lo"]) <= iv.lo and iv.hi <= Fraction(out["hi"])


@given(st.fractions(min_value=0, max_value=1))
def test_exact_weight_renders_as_decimal_str(x):
    assert weight_json(RatInterval(x, x)) == decimal_str(x)


def test_round_down_above_uses_fewest_digits():
    third = Fraction(1, 3)
    assert round_down_above(third, Fraction(0)) == round_down(third)
    twelve = Fraction(333333333333, 10**12)
    assert round_down_above(third, twelve) == Fraction(3333333333333, 10**13)
    assert round_down_above(third, third - Fraction(1, 10**20)) == Fraction(
        33333333333333333333, 10**20
    )


@settings(max_examples=1000, deadline=None)
@given(rationals_with_bounds())
def test_round_down_above_matches_reference(case):
    # the digit count found by bisection is the one the digit-by-digit loop finds
    x, bound = case
    assert round_down_above(x, bound) == reference_round_down_above(x, bound)


def test_round_down_above_matches_reference_near_powers_of_ten():
    # x - bound sits at, just above and just below 10^-k: k digits are exactly
    # enough, or just not enough
    for k in range(12, 301):
        step = Fraction(1, 10 ** (k + 40))
        for gap in (Fraction(1, 10**k), Fraction(1, 10**k) - step, Fraction(1, 10**k) + step):
            for x in (Fraction(1, 3), Fraction(2, 7) + Fraction(1, 10**k), Fraction(1, 10**k)):
                bound = x - gap
                assert round_down_above(x, bound) == reference_round_down_above(x, bound), (k, x)


def test_round_down_above_deep_bound_is_fast():
    # a 16,391-bit x just 2^-16000 above its bound needs 4,817 digits; the
    # digit-by-digit loop takes seconds here
    x = Fraction(5**7000 + 1, 3**10341)
    bound = x - Fraction(1, 2**16000)
    start = time.perf_counter()
    out = round_down_above(x, bound)
    assert time.perf_counter() - start < 1
    assert out == Fraction(x.numerator * 10**4817 // x.denominator, 10**4817)
    assert Fraction(x.numerator * 10**4816 // x.denominator, 10**4816) <= bound < out


@settings(max_examples=2000, deadline=None)
@given(decimal_like_rationals())
def test_decimal_str_matches_reference(fr):
    # the count of fives read from the bit length is the one division finds
    assert decimal_str(fr) == reference_decimal_str(fr)


def test_decimal_str_matches_reference_on_powers_of_five():
    # every 5^f up to f = 3,000, with a sign and some twos; every 50th f also
    # next to the odd non-powers 3 * 5^f and 5^f + 2
    for f in range(3001):
        fracs = [Fraction((-1) ** f * (2 * f + 1), 2 ** (f % 7) * 5**f)]
        if f % 50 == 0:
            fracs += [Fraction(1, 3 * 5**f), Fraction(1, 5**f + 2)]
        for fr in fracs:
            assert decimal_str(fr) == reference_decimal_str(fr), f
