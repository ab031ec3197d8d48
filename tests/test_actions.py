import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afrokhlin import (
    ActionSpec,
    AffinePowerTail,
    FactorRangeError,
    FiniteActionError,
    InvalidActionSpec,
    PeriodicTail,
    RankPair,
    SupernaturalNumber,
    fixture,
    spec_from_json,
    spec_to_json,
    supernatural_of_algebra,
)
from afrokhlin.actions import _factorize, _is_prime
from oracles import scanned_tail_facts
from specgen import random_factor_list, random_spec

INF = math.inf


def test_normalize_examples():
    assert RankPair(1, 3).normalized() == RankPair(3, 1)
    assert RankPair(3, 1).normalized() == RankPair(3, 1)
    assert RankPair(2, 2).normalized() == RankPair(2, 2)


def test_zero_size_factor_rejected():
    with pytest.raises(InvalidActionSpec):
        RankPair(0, 0)
    with pytest.raises(InvalidActionSpec):
        RankPair(-1, 2)


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
def test_normalize_idempotent(p, q):
    if p + q == 0:
        return
    once = RankPair(p, q).normalized()
    assert once.normalized() == once
    assert once.p >= once.q


def test_prefix_normalized_on_ingestion():
    spec = ActionSpec("x", (RankPair(1, 4),), PeriodicTail((RankPair(0, 2),)))
    assert spec.factor(1) == RankPair(4, 1)
    assert spec.factor(2) == RankPair(2, 0)


def test_factor_at_car2():
    # factor 3 acts on M_8 with ranks (2**2 + 1, 2**2 - 1)
    f = fixture("car2").factor(3)
    assert (f.p, f.q) == (5, 3)
    assert f.size == 8


def test_factor_at_car3():
    f = fixture("car3").factor(2)
    assert (f.p, f.q) == (3, 1)
    assert f.size == 4


def test_factor_at_deep_periodic():
    spec = ActionSpec("deep", (), PeriodicTail((RankPair(1, 1),)))
    assert spec.factor(10**6) == RankPair(1, 1)


def test_factor_at_finite_range():
    spec = ActionSpec("finite", (RankPair(2, 1), RankPair(3, 0)), None)
    assert spec.factor(2) == RankPair(3, 0)
    with pytest.raises(FactorRangeError):
        spec.factor(3)
    with pytest.raises(FactorRangeError):
        spec.factor(0)


def test_factor_agrees_with_prefix_then_cycles():
    rng = random.Random(7)
    for _ in range(50):
        spec = random_spec(rng)
        if not isinstance(spec.tail, PeriodicTail):
            continue
        n0 = len(spec.prefix)
        for i, pair in enumerate(spec.prefix):
            assert spec.factor(i + 1) == pair.normalized()
        period = spec.tail.period
        for n in range(n0 + 1, n0 + 2 * period + 1):
            assert spec.factor(n) == spec.factor(n + period)


def test_affine_tail_validation():
    with pytest.raises(InvalidActionSpec):
        AffinePowerTail(B=1, A=2, alpha=1, beta=0, gamma=1, delta=0)
    with pytest.raises(InvalidActionSpec):
        AffinePowerTail(B=2, A=2, alpha=2, beta=0, gamma=1, delta=0)
    with pytest.raises(InvalidActionSpec):
        AffinePowerTail(B=2, A=2, alpha=1, beta=3, gamma=1, delta=-2)
    with pytest.raises(InvalidActionSpec):
        # first tail factor would have a negative rank
        AffinePowerTail(B=2, A=2, alpha=2, beta=-5, gamma=0, delta=5)
    with pytest.raises(InvalidActionSpec):
        AffinePowerTail(B=2, A=0, alpha=0, beta=0, gamma=0, delta=0)


def test_supernatural_of_car1():
    assert supernatural_of_algebra(fixture("car1")).as_dict() == {2: INF}


def test_supernatural_of_car2():
    assert supernatural_of_algebra(fixture("car2")).as_dict() == {2: INF}


def test_supernatural_of_notcar():
    assert supernatural_of_algebra(fixture("notcar")).as_dict() == {2: 1, 3: INF}


def test_supernatural_constant_size():
    spec = ActionSpec("three", (), PeriodicTail((RankPair(2, 1),)))
    assert supernatural_of_algebra(spec).as_dict() == {3: INF}
    spec12 = ActionSpec("twelve", (), PeriodicTail((RankPair(11, 1),)))
    assert supernatural_of_algebra(spec12).as_dict() == {2: INF, 3: INF}


def test_supernatural_affine_primes():
    tail = AffinePowerTail(B=2, A=3, alpha=2, beta=0, gamma=1, delta=0)
    spec = ActionSpec("mixed", (RankPair(5, 0),), tail)
    assert supernatural_of_algebra(spec).as_dict() == {2: INF, 3: INF, 5: 1}


def test_supernatural_requires_tail():
    with pytest.raises(FiniteActionError):
        supernatural_of_algebra(ActionSpec("finite", (RankPair(1, 0),), None))


def test_supernatural_multiplication():
    a = SupernaturalNumber.from_dict({2: 3, 3: INF})
    b = SupernaturalNumber.from_dict({2: INF, 5: 1})
    assert (a * b).as_dict() == {2: INF, 3: INF, 5: 1}
    assert a * SupernaturalNumber.one() == a


def test_supernatural_of_int():
    assert SupernaturalNumber.of_int(360).as_dict() == {2: 3, 3: 2, 5: 1}
    assert SupernaturalNumber.of_int(1).as_dict() == {}


def test_json_round_trip_fixtures():
    for name in ("car1", "car2", "car3", "notcar"):
        spec = fixture(name)
        assert spec_from_json(spec_to_json(spec)) == spec


def test_json_round_trip_random():
    rng = random.Random(11)
    for _ in range(100):
        spec = random_spec(rng)
        assert spec_from_json(spec_to_json(spec)) == spec


def test_json_rejects_unknown_tail_kind():
    with pytest.raises(InvalidActionSpec):
        spec_from_json({"name": "x", "prefix": [], "tail": {"kind": "generator"}})


def test_json_rejects_bad_pairs():
    with pytest.raises(InvalidActionSpec):
        spec_from_json({"name": "x", "prefix": [[1]], "tail": {"kind": "none"}})
    with pytest.raises(InvalidActionSpec):
        spec_from_json(
            {"name": "x", "prefix": [], "tail": {"kind": "periodic", "pairs": []}}
        )
    with pytest.raises(InvalidActionSpec):
        spec_from_json({"name": "", "prefix": [], "tail": {"kind": "none"}})


def check_tail_protocol(tail, n0: int, depth: int = 40) -> dict:
    facts = scanned_tail_facts(tail, depth)
    pairs, zeros = facts["pairs"], facts["zeros"]
    for j in range(1, depth + 1):
        assert tail.first_zero_gap(j) == next((z for z in zeros if z >= j), None)

    recurring = tail.recurring_zero_gap(n0)
    assert (recurring is not None) == facts["zero_recurs"]
    if recurring is not None:
        assert recurring["first_index"] == n0 + zeros[0]
        assert recurring.get("period_position", zeros[0]) == zeros[0]

    rank = tail.recurring_nonzero_rank(n0)
    assert (rank is not None) == facts["rank_recurs"]
    if rank is not None and "first_index" in rank:
        first = facts["first_nonzero_rank"]
        assert rank["first_index"] == n0 + first
        p = pairs[first - 1]
        assert rank["pair"] == [p.p, p.q]
    elif rank is not None:
        eventual = rank["eventual_smaller_rank"]
        if eventual == "unbounded":
            assert facts["rank_grows"]
        else:
            assert facts["late_ranks"] == {eventual}

    assert (tail.divergence() is not None) == facts["diverges"]
    bound = tail.gap_limit()
    if bound:
        (value,) = bound.values()
        assert abs(value - facts["gap_sup"]) < Fraction(1, 10**6)
    else:
        assert facts["gap_sup"] == 1
    assert tail.recurring_primes() == facts["primes"]

    if not facts["diverges"]:
        # the smaller rank is constant from the settle depth on, and not before
        settle = tail.settle_depth()
        assert settle < depth
        assert len({p.q for p in pairs[max(settle, 1) - 1 :]}) == 1
        if settle > 1:
            assert pairs[settle - 2].q != pairs[settle - 1].q
        for d in range(settle, settle + 4):
            rest = Fraction(1)
            for p in pairs[d:]:
                rest *= p.gap
            assert rest >= 1 - tail.remainder_bound(d)

    assert type(tail).from_json(tail.to_json()) == tail
    return facts


def test_tail_protocol_matches_scan():
    rng = random.Random(53)
    seen = {"periodic": 0, "affine": 0, "identically_symmetric": 0, "isolated_zero": 0}
    for _ in range(1500):
        spec = random_spec(rng)
        facts = check_tail_protocol(spec.tail, len(spec.prefix))
        if spec.tail.kind == "periodic":
            seen["periodic"] += 1
            continue
        seen["affine"] += 1
        if facts["zero_recurs"]:
            seen["identically_symmetric"] += 1
        elif facts["zeros"]:
            seen["isolated_zero"] += 1
    assert min(seen.values()) >= 5, seen


def test_is_prime_matches_trial_division():
    sieve = [True] * 100_000
    sieve[0] = sieve[1] = False
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    assert [_is_prime(n) for n in range(100_000)] == sieve


@pytest.mark.parametrize(
    "n", [3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051]
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not _is_prime(n)


def test_large_primes_skip_trial_division():
    # each of these takes about 10**9 trial divisions without the prime test
    big = 2**61 - 1
    assert _is_prime(big) and _is_prime(999_999_999_989)
    assert _factorize(2 * big) == {2: 1, big: 1}
    assert _factorize(1024 * 999_983 * 1_000_003) == {2: 10, 999_983: 1, 1_000_003: 1}
    assert SupernaturalNumber(((big, 1),)).exponent(big) == 1
    with pytest.raises(ValueError, match="not prime"):
        SupernaturalNumber(((999_983 * 1_000_003, 1),))


def _trial_division(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    """Primes in increasing order, as SupernaturalNumber.of_int needs, for
    every n below 2 * 10**5 and 200 seeded semiprimes near 10**12 (some of
    them squares), which Pollard-Brent rho splits."""
    for n in range(1, 200_000):
        got = _factorize(n)
        assert got == _trial_division(n) and list(got) == sorted(got), n
    rng = random.Random(12)
    primes = [p for p in range(970_001, 1_000_000, 2) if list(_trial_division(p)) == [p]]
    for _ in range(200):
        p, q = sorted((rng.choice(primes), rng.choice(primes)))
        if rng.random() < 0.1:
            q = p
        small = rng.choice((1, 2, 12, 3 * 997))
        want = _trial_division(small)
        for prime in (p, q):
            want[prime] = want.get(prime, 0) + 1
        got = _factorize(p * q * small)
        assert got == want and list(got) == sorted(got), (p, q, small)


def test_partial_products_walk_is_lazy_and_unreduced():
    spec = ActionSpec("fin", (RankPair(3, 1), RankPair(2, 2), RankPair(5, 0)), None)
    walk = spec.partial_products(0)
    assert [next(walk) for _ in range(4)] == [(0, 1, 1), (1, 2, 4), (2, 0, 16), (3, 0, 80)]
    with pytest.raises(FactorRangeError):
        next(walk)
    assert spec.range_product(1, 3) == (0, 20)
    assert spec.range_product(2, 2) == (1, 1)
    assert spec.range_product(0, 3) == (0, 80)
    for m, n in ((-1, 2), (2, 1)):
        with pytest.raises(ValueError):
            spec.range_product(m, n)
    with pytest.raises(FactorRangeError):
        spec.range_product(2, 4)


def test_factor_stream_matches_factor():
    # both tail families, starts inside and past the prefix, deep affine powers
    rng = random.Random(1111)
    for _ in range(400):
        spec = random_spec(rng)
        m = rng.randint(0, len(spec.prefix) + 60)
        want = [(f.p - f.q, f.size) for f in map(spec.factor, range(m + 1, m + 31))]
        assert list(islice(spec.factor_stream(m), 30)) == want, (spec, m)


def test_split_stream_rebuilds_each_factor():
    rng = random.Random(1113)
    for _ in range(300):
        spec = random_spec(rng)
        n0 = len(spec.prefix)
        for m in (0, n0, rng.randint(0, n0 + 60)):
            items = islice(spec.split_stream(m), 30)
            for f, (x, y, A, P) in zip(map(spec.factor, range(m + 1, m + 31)), items):
                assert x * P + y >= 0
                assert (x * P + y, A * P) == (f.p - f.q, f.size), (spec, m)


def test_factor_stream_of_a_finite_action_raises_at_its_end():
    rng = random.Random(1112)
    for _ in range(200):
        spec = ActionSpec("fin", tuple(random_factor_list(rng)), None)
        n0 = len(spec.prefix)
        m = rng.randint(-2, n0 + 2)
        stream = spec.factor_stream(m)
        end = m + 1 if m < 0 else max(m, n0) + 1
        for n in range(m + 1, end):
            f = spec.factor(n)
            assert next(stream) == (f.p - f.q, f.size)
        with pytest.raises(FactorRangeError) as want:
            spec.factor(end)
        with pytest.raises(FactorRangeError) as got:
            next(stream)
        assert str(got.value) == str(want.value)
