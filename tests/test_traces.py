import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afrokhlin import (
    ActionSpec,
    PeriodicTail,
    RankPair,
    RatInterval,
    TailZero,
    UndecidedError,
    UniqueTraceError,
    extreme_trace_vector,
    fixture,
    invariant_trace_vector,
)
from afrokhlin.traces import TraceVector
from oracles import MixingMatrix, exact_gap_product_tail
from specgen import random_spec

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=1000)


def entries(m):
    return m.entries


def test_mixing_matrix_examples():
    assert entries(MixingMatrix(Fraction(1))) == ((1, 0), (0, 1))
    h = Fraction(1, 2)
    assert entries(MixingMatrix(Fraction(0))) == ((h, h), (h, h))
    assert entries(MixingMatrix(h)) == (
        (Fraction(3, 4), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(3, 4)),
    )


@settings(max_examples=300, deadline=None)
@given(unit_fractions, unit_fractions)
def test_mixing_matrix_multiplicative(lam, mu):
    (a1, b1), _ = entries(MixingMatrix(lam))
    (a2, b2), _ = entries(MixingMatrix(mu))
    # generic 2x2 product of the two symmetric stochastic matrices
    same = a1 * a2 + b1 * b2
    cross = a1 * b2 + b1 * a2
    assert entries(MixingMatrix(lam * mu)) == ((same, cross), (cross, same))


def test_invariant_vector_is_half_half():
    for name in ("car1", "car2", "car3"):
        for n in (0, 3, 5):
            tv = invariant_trace_vector(fixture(name), n)
            assert (tv.r.lo, tv.r.hi, tv.s.lo, tv.s.hi) == (Fraction(1, 2),) * 4


def test_extreme_vector_car3_stage1():
    tv = extreme_trace_vector(fixture("car3"), 1, 1, cutoff=40)
    assert Fraction("0.64439") <= tv.r.lo <= tv.r.hi <= Fraction("0.64440")
    mirror = extreme_trace_vector(fixture("car3"), 0, 1, cutoff=40)
    assert (mirror.r, mirror.s) == (tv.s, tv.r)


def test_extreme_vector_trivial_tail_is_exact():
    # no prefix, trivial tail: the tail product is exactly 1
    spec = ActionSpec("inner", (), PeriodicTail((RankPair(3, 0),)))
    tv = extreme_trace_vector(spec, 1, 0)
    assert (tv.r.lo, tv.r.hi, tv.s.lo, tv.s.hi) == (1, 1, 0, 0)
    tv0 = extreme_trace_vector(spec, 0, 0)
    assert (tv0.r.lo, tv0.r.hi, tv0.s.lo, tv0.s.hi) == (0, 0, 1, 1)


def test_extreme_vector_degenerates_before_a_zero_gap():
    # car3 has its only zero gap at index 1, so stage 0 collapses to the center
    tv = extreme_trace_vector(fixture("car3"), 1, 0)
    assert (tv.r.lo, tv.r.hi, tv.s.lo, tv.s.hi) == (Fraction(1, 2),) * 4


def test_extreme_vector_refuses_unique_trace():
    with pytest.raises(UniqueTraceError):
        extreme_trace_vector(fixture("car2"), 1, 0)
    with pytest.raises(UniqueTraceError):
        extreme_trace_vector(fixture("car1"), 0, 2)


def test_extreme_vectors_match_exact_oracle():
    # weights (1 +- L)/2 must enclose those the mixing matrices of the exact
    # tail product's ends give, stay exact exactly when it is, and mirror each
    # other between the extremes
    two_trace = intervals = 0
    for seed in range(200):
        spec = random_spec(random.Random(seed), f"s{seed}")
        n0 = len(spec.prefix)
        for n in (n0, n0 + 2):
            for cutoff in (1, 8, 64):
                try:
                    tv = extreme_trace_vector(spec, 1, n, cutoff)
                except (UniqueTraceError, UndecidedError):
                    continue
                two_trace += 1
                want = exact_gap_product_tail(spec, n, cutoff)
                lo, hi = (0, 0) if isinstance(want, TailZero) else (want.lower, want.upper)
                (same_lo, cross_lo), _ = entries(MixingMatrix(Fraction(lo)))
                (same_hi, cross_hi), _ = entries(MixingMatrix(Fraction(hi)))
                for w, (want_lo, want_hi) in (
                    (tv.r, (same_lo, same_hi)),
                    (tv.s, (cross_hi, cross_lo)),
                ):
                    assert type(w) is RatInterval, (seed, n, cutoff)
                    assert w.lo <= want_lo and want_hi <= w.hi, (seed, n, cutoff)
                    if want_lo == want_hi:
                        assert w.lo == w.hi, (seed, n, cutoff)
                    else:
                        assert w.lo < w.hi, (seed, n, cutoff)
                        intervals += 1
                mirror = extreme_trace_vector(spec, 0, n, cutoff)
                assert (mirror.r, mirror.s) == (tv.s, tv.r)
                assert tv.r.lo + tv.s.lo <= 1 <= tv.r.hi + tv.s.hi
    assert two_trace > 300 and intervals > 300


def test_trace_vector_rejects_weights_outside_unit_interval():
    # these weights sum to 1 but would give the positive class (0, 1) at
    # stage 2 of car3 the trace -1/16
    half = RatInterval(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TraceVector(
            2,
            RatInterval(Fraction(3, 2), Fraction(3, 2)),
            RatInterval(Fraction(-1, 2), Fraction(-1, 2)),
        )
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TraceVector(2, RatInterval(Fraction(-1, 4), Fraction(1, 2)), half)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TraceVector(2, half, RatInterval(Fraction(1, 2), Fraction(5, 4)))
    assert TraceVector(2, RatInterval(Fraction(0), Fraction(1)), half).stage == 2


def test_compatibility_recursion_car3():
    spec = fixture("car3")
    prev = extreme_trace_vector(spec, 1, 0, cutoff=40)
    for n in range(1, 13):
        cur = extreme_trace_vector(spec, 1, n, cutoff=40)
        (r_lo, r_hi), _ = MixingMatrix(spec.factor(n).gap).apply(
            (cur.r.lo, cur.r.hi), (cur.s.lo, cur.s.hi)
        )
        prev_lo, prev_hi = prev.r.lo, prev.r.hi
        assert r_lo <= prev_hi and prev_lo <= r_hi
        assert r_hi - r_lo <= Fraction(1, 10**9)
        prev = cur


def test_extreme_vectors_converge_to_endpoint():
    spec = fixture("car3")
    lowers = []
    for n in range(1, 13):
        tv = extreme_trace_vector(spec, 1, n, cutoff=40)
        lowers.append(tv.r.lo)
    assert all(b > a for a, b in zip(lowers, lowers[1:]))
    assert lowers[-1] > Fraction(99, 100)


def test_trace_of_eta_car3():
    # eta = (1, -1) at stage 1 pairs with (r, s) to (r - s) / t(1), t(1) = 2
    spec = fixture("car3")
    tv = extreme_trace_vector(spec, 1, 1, cutoff=40)
    (r_lo, r_hi), (s_lo, s_hi) = (tv.r.lo, tv.r.hi), (tv.s.lo, tv.s.hi)
    size = spec.factor(1).size
    value_lo, value_hi = (r_lo - s_hi) / size, (r_hi - s_lo) / size
    assert Fraction("0.1443") <= value_lo <= value_hi <= Fraction("0.1444")
