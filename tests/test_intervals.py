from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from afrokhlin.intervals import (
    RatInterval,
    collapse,
    round_down,
    round_down_above,
    round_outward,
    round_up,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=997)


def test_basic_construction():
    iv = RatInterval(Fraction(1, 3), Fraction(1, 2))
    assert Fraction(2, 5) in iv
    assert iv.width == Fraction(1, 6)
    assert not iv.is_exact
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))


@given(rationals, rationals, rationals, rationals)
def test_multiplication_encloses(a, b, c, d):
    x = RatInterval(min(a, b), max(a, b))
    y = RatInterval(min(c, d), max(c, d))
    prod = x * y
    for p in (x.lo, x.hi):
        for q in (y.lo, y.hi):
            assert p * q in prod


@given(rationals, rationals)
def test_add_sub_roundtrip(a, b):
    x = RatInterval.exact(a)
    assert collapse((x + b) - b) == a


def test_division_requires_nonzero():
    iv = RatInterval.exact(Fraction(1, 2))
    assert (iv / 2).lo == Fraction(1, 4)
    assert (iv / -2).lo == Fraction(-1, 4)
    with pytest.raises(ZeroDivisionError):
        iv / 0


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
    iv = RatInterval(min(a, b), max(a, b))
    assert round_outward(iv).contains_interval(iv)


def test_round_down_above_uses_fewest_digits():
    third = Fraction(1, 3)
    assert round_down_above(third, Fraction(0)) == round_down(third)
    twelve = Fraction(333333333333, 10**12)
    assert round_down_above(third, twelve) == Fraction(3333333333333, 10**13)
    assert round_down_above(third, third - Fraction(1, 10**20)) == Fraction(
        33333333333333333333, 10**20
    )
