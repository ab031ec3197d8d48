import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afrokhlin import (
    ActionSpec,
    MixingMatrix,
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
from oracles import exact_gap_product_tail
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


def test_mixing_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        MixingMatrix(Fraction(3, 2))
    with pytest.raises(ValueError):
        MixingMatrix(Fraction(-1, 2))


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
            assert (tv.r, tv.s) == (Fraction(1, 2), Fraction(1, 2))


def test_extreme_vector_car3_stage1():
    tv = extreme_trace_vector(fixture("car3"), 1, 1, cutoff=40)
    assert Fraction("0.64439") <= tv.r.lo <= tv.r.hi <= Fraction("0.64440")
    mirror = extreme_trace_vector(fixture("car3"), 0, 1, cutoff=40)
    assert (mirror.r, mirror.s) == (tv.s, tv.r)


def test_extreme_vector_trivial_tail_is_exact():
    # no prefix, trivial tail: the tail product is exactly 1
    spec = ActionSpec("inner", (), PeriodicTail((RankPair(3, 0),)))
    tv = extreme_trace_vector(spec, 1, 0)
    assert (tv.r, tv.s) == (Fraction(1), Fraction(0))
    tv0 = extreme_trace_vector(spec, 0, 0)
    assert (tv0.r, tv0.s) == (Fraction(0), Fraction(1))


def test_extreme_vector_degenerates_before_a_zero_gap():
    # car3 has its only zero gap at index 1, so stage 0 collapses to the center
    tv = extreme_trace_vector(fixture("car3"), 1, 0)
    assert (tv.r, tv.s) == (Fraction(1, 2), Fraction(1, 2))


def test_extreme_vector_refuses_unique_trace():
    with pytest.raises(UniqueTraceError):
        extreme_trace_vector(fixture("car2"), 1, 0)
    with pytest.raises(UniqueTraceError):
        extreme_trace_vector(fixture("car1"), 0, 2)


def test_extreme_vectors_match_exact_oracle():
    # weights (1 +- L)/2 must enclose those of the exact tail product, stay
    # exact exactly when it is, and mirror each other between the extremes
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
                lam = (
                    RatInterval.exact(0)
                    if isinstance(want, TailZero)
                    else RatInterval(want.lower, want.upper)
                )
                for w, exact in ((tv.r, (1 + lam) / 2), (tv.s, (1 - lam) / 2)):
                    hull = RatInterval.hull(w)
                    assert hull.lo <= exact.lo and exact.hi <= hull.hi, (seed, n, cutoff)
                    if exact.is_exact:
                        assert isinstance(w, Fraction), (seed, n, cutoff)
                    else:
                        assert isinstance(w, RatInterval) and w.lo < w.hi, (seed, n, cutoff)
                        intervals += 1
                mirror = extreme_trace_vector(spec, 0, n, cutoff)
                assert (mirror.r, mirror.s) == (tv.s, tv.r)
                assert 1 in RatInterval.hull(tv.r) + tv.s
    assert two_trace > 300 and intervals > 300


def test_trace_vector_rejects_weights_outside_unit_interval():
    # these weights sum to 1 but would give the positive class (0, 1) at
    # stage 2 of car3 the trace -1/16
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TraceVector(2, Fraction(3, 2), Fraction(-1, 2))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TraceVector(2, RatInterval(Fraction(-1, 4), Fraction(1, 2)), Fraction(1, 2))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TraceVector(2, Fraction(1, 2), RatInterval(Fraction(1, 2), Fraction(5, 4)))
    assert TraceVector(2, RatInterval(Fraction(0), Fraction(1)), Fraction(1, 2)).stage == 2


def test_compatibility_recursion_car3():
    spec = fixture("car3")
    prev = extreme_trace_vector(spec, 1, 0, cutoff=40)
    for n in range(1, 13):
        cur = extreme_trace_vector(spec, 1, n, cutoff=40)
        r, s = MixingMatrix(spec.factor(n).gap).apply(cur.r, cur.s)
        hull_r = RatInterval.hull(r)
        hull_prev = RatInterval.hull(prev.r)
        assert hull_r.intersects(hull_prev)
        assert hull_r.width <= Fraction(1, 10**9)
        prev = cur


def test_extreme_vectors_converge_to_endpoint():
    spec = fixture("car3")
    lowers = []
    for n in range(1, 13):
        tv = extreme_trace_vector(spec, 1, n, cutoff=40)
        lowers.append(RatInterval.hull(tv.r).lo)
    assert all(b > a for a, b in zip(lowers, lowers[1:]))
    assert lowers[-1] > Fraction(99, 100)


def test_trace_of_eta_car3():
    # eta = (1, -1) at stage 1 pairs with (r, s) to (r - s) / t(1), t(1) = 2
    spec = fixture("car3")
    tv = extreme_trace_vector(spec, 1, 1, cutoff=40)
    value = (RatInterval.hull(tv.r) - tv.s) / spec.factor(1).size
    assert Fraction("0.1443") <= value.lo <= value.hi <= Fraction("0.1444")
