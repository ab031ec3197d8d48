"""Checks on outside input and rendering branches that no command reaches
in-process, as one table: each row is a call and either the exception it
raises (type and message) or the value it returns."""

import runpy
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from afrokhlin import (
    ActionSpec,
    FgAbPresentation,
    FiniteActionError,
    InvalidActionSpec,
    K0Element,
    PeriodicTail,
    RankPair,
    RatInterval,
    SupernaturalNumber,
    TailPositive,
    TailZero,
    TraceVector,
    Verdict,
    extreme_trace_vector,
    fixture,
    gap_product_tail,
)
from afrokhlin.actions import _factorize
from afrokhlin.citations import cite
from afrokhlin.intervals import round_down_above
from afrokhlin.products import first_zero_gap_after
from afrokhlin.report import decimal_str, weight_json
from oracles import fgab_colimit

FINITE = ActionSpec("finite", (RankPair(2, 1),), None)
CAR3 = fixture("car3")
QUARTER = RatInterval(Fraction(1, 4), Fraction(1, 4))

ROWS = {
    "empty periodic tail": (
        lambda: PeriodicTail(()),
        InvalidActionSpec("periodic tail needs at least one factor"),
    ),
    "factorize zero": (lambda: _factorize(0), ValueError("can only factor positive integers")),
    "supernatural zero exponent": (
        lambda: SupernaturalNumber(((2, 0),)),
        ValueError("exponent of 2 must be a positive integer or inf"),
    ),
    "supernatural repeated prime": (
        lambda: SupernaturalNumber(((3, 1), (3, 2))),
        ValueError("duplicate prime 3"),
    ),
    "supernatural one": (lambda: str(SupernaturalNumber.one()), "1"),
    "bad decision": (lambda: Verdict("maybe", {}, ()), ValueError("bad decision 'maybe'")),
    "exact interval": (lambda: str(RatInterval(Fraction(1, 3), Fraction(1, 3))), "1/3"),
    "float interval ends": (
        lambda: RatInterval(0.1, 0.2),
        ValueError("interval ends must be integers or Fractions"),
    ),
    "bool interval end": (
        lambda: RatInterval(True, 1),
        ValueError("interval ends must be integers or Fractions"),
    ),
    "str interval ends": (
        lambda: RatInterval("1/3", "1/2"),
        ValueError("interval ends must be integers or Fractions"),
    ),
    "Decimal interval end": (
        lambda: RatInterval(Fraction(0), Decimal("0.5")),
        ValueError("interval ends must be integers or Fractions"),
    ),
    "negative stage": (lambda: K0Element(-1, 0, 0), ValueError("stage must be >= 0")),
    "localization count": (
        lambda: FgAbPresentation(2, (), (SupernaturalNumber.one(),)),
        ValueError("need one localization per free generator"),
    ),
    "finite-exponent localization": (
        lambda: str(FgAbPresentation(1, (), (SupernaturalNumber(((2, 2),)),))),
        "Z[1/2^2]",
    ),
    "colimit map size": (
        lambda: fgab_colimit(FgAbPresentation(1), [[[1, 0], [0, 1]]]),
        ValueError("colimit maps must be 1x1 integer matrices"),
    ),
    "tail zero without witness": (
        lambda: TailZero(),
        ValueError("TailZero needs exactly one witness"),
    ),
    "tail positive reversed": (
        lambda: TailPositive(2, 1),
        ValueError("invalid positive enclosure [2, 1]"),
    ),
    "tail positive of floats": (
        lambda: TailPositive(0.25, 0.5),
        ValueError("interval ends must be integers or Fractions"),
    ),
    "tail positive of bools": (
        lambda: TailPositive(True, True),
        ValueError("interval ends must be integers or Fractions"),
    ),
    "tail zero with a nonzero end": (
        lambda: TailZero(Fraction(0), Fraction(1, 2), zero_index=3),
        ValueError("a zero tail is the enclosure [0, 0], got [0, 1/2]"),
    ),
    "first zero gap of a finite spec": (lambda: first_zero_gap_after(FINITE, 0), None),
    "tail from a negative stage": (
        lambda: gap_product_tail(CAR3, -1),
        ValueError("range start must be >= 0, got -1"),
    ),
    "tail at cutoff zero": (
        lambda: gap_product_tail(CAR3, 0, 0),
        ValueError("cutoff must be positive"),
    ),
    "tail of a finite spec": (
        lambda: gap_product_tail(FINITE, 0),
        FiniteActionError("tail products need an infinite action"),
    ),
    "non-decimal rational": (lambda: decimal_str(Fraction(1, 3)), "1/3"),
    "rounding above x itself": (
        lambda: round_down_above(Fraction(1, 3), Fraction(1, 3)),
        ValueError("bound must lie below x"),
    ),
    "rounding above a bound over x": (
        lambda: round_down_above(Fraction(1, 3), Fraction(1, 2)),
        ValueError("bound must lie below x"),
    ),
    "interval weight": (
        lambda: weight_json(RatInterval(Fraction(1, 3), Fraction(2, 3))),
        {"lo": "0.333333333333", "hi": "0.666666666667"},
    ),
    "weights not summing to 1": (
        lambda: TraceVector(2, QUARTER, QUARTER),
        ValueError("weights must sum to 1, got enclosure 1/2"),
    ),
    "interval weights not summing to 1": (
        lambda: TraceVector(1, RatInterval(Fraction(1, 4), Fraction(1, 3)), QUARTER),
        ValueError("weights must sum to 1, got enclosure [1/2, 7/12]"),
    ),
    "weights that are not enclosures": (
        lambda: TraceVector(2, Fraction(1, 2), Fraction(1, 2)),
        ValueError("trace weights must be RatInterval enclosures"),
    ),
    "weight s that is not an enclosure": (
        lambda: TraceVector(2, RatInterval(Fraction(1, 2), Fraction(1, 2)), 0.5),
        ValueError("trace weights must be RatInterval enclosures"),
    ),
    "extreme 2": (
        lambda: extreme_trace_vector(CAR3, 2, 0),
        ValueError("extreme must be 0 or 1"),
    ),
    "extreme at stage -1": (
        lambda: extreme_trace_vector(CAR3, 1, -1),
        ValueError("stage must be >= 0"),
    ),
    "unknown fixture": (
        lambda: fixture("nope"),
        KeyError("unknown fixture 'nope'; available: car1, car2, car3, notcar"),
    ),
    "unknown anchor": (lambda: cite("nope"), KeyError("unknown citation anchor 'nope'")),
}


@pytest.mark.parametrize("call, want", list(ROWS.values()), ids=list(ROWS))
def test_guard_or_rendering(call, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            call()
        assert type(info.value) is type(want) and info.value.args == want.args
    else:
        assert call() == want


def test_module_entry_point(monkeypatch, capsys):
    """`python -m afrokhlin`, run in-process: the exit code of main."""
    monkeypatch.setattr(sys, "argv", ["afrokhlin", "classify", "car1", "--quiet"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("afrokhlin", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out == ""
