from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afrokhlin.intervals import RatInterval, round_down, round_down_above, round_up
from afrokhlin.report import decimal_str, weight_json
from oracles import reference_round_down

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=997)


@st.composite
def wide_rationals(draw):
    """Rationals with numerator and denominator of up to about 4,000 bits each,
    so positive values reach below 10^-1200 and above 10^1200."""
    num_bits, den_bits = draw(st.integers(0, 4000)), draw(st.integers(1, 4000))
    num = draw(st.integers(-(2**num_bits), 2**num_bits))
    return Fraction(num, draw(st.integers(2 ** (den_bits - 1), 2**den_bits)))


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
