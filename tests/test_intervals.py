from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from afrokhlin.intervals import RatInterval, round_down, round_down_above, round_up
from afrokhlin.report import weight_json

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=997)


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


@given(rationals, rationals)
def test_round_outward_contains(a, b):
    # an interval weight is rendered with its ends rounded outward
    iv = RatInterval(min(a, b), max(a, b))
    out = weight_json(iv)
    assert Fraction(out["lo"]) <= iv.lo and iv.hi <= Fraction(out["hi"])


def test_round_down_above_uses_fewest_digits():
    third = Fraction(1, 3)
    assert round_down_above(third, Fraction(0)) == round_down(third)
    twelve = Fraction(333333333333, 10**12)
    assert round_down_above(third, twelve) == Fraction(3333333333333, 10**13)
    assert round_down_above(third, third - Fraction(1, 10**20)) == Fraction(
        33333333333333333333, 10**20
    )
