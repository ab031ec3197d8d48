import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import afrokhlin
from afrokhlin import (
    ActionSpec,
    AffinePowerTail,
    K0Element,
    PeriodicTail,
    RankPair,
    RatInterval,
    TailPositive,
    TailZero,
    classification_report,
    condense,
    extreme_trace_vector,
    fixture,
    gap_product,
    gap_product_tail,
    is_positive,
)
from afrokhlin.intervals import round_down, round_up
from afrokhlin import classify, products
from afrokhlin.products import (
    _enclose_gap_product,
    _euler_tail,
    _exact_walk,
    first_zero_gap_after,
    range_product,
)
from afrokhlin.report import classification_json
from oracles import (
    dyadic_euler_interval,
    exact_gap_product_tail,
    q_pochhammer_tail,
    reference_enclose_gap_product,
    sign_tensor_counts,
)
from specgen import random_factor_list, random_periodic, random_positive_affine_spec, random_spec


def test_gap_examples():
    assert fixture("car2").factor(2).gap == Fraction(1, 2)
    assert fixture("car3").factor(3).gap == Fraction(3, 4)
    spec = ActionSpec("sym", (RankPair(4, 4),), PeriodicTail((RankPair(1, 1),)))
    assert spec.factor(1).gap == 0
    assert spec.factor(17).gap == 0


def test_gap_product_examples():
    assert gap_product(fixture("car2"), 1, 3) == Fraction(1, 8)
    assert gap_product(fixture("car3"), 1, 3) == Fraction(3, 8)
    assert gap_product(fixture("car3"), 5, 5) == 1


def test_gap_product_monotone_in_end():
    rng = random.Random(23)
    for _ in range(100):
        spec = random_spec(rng)
        m = rng.randint(0, 3)
        prev = Fraction(1)
        for n in range(m, m + 12):
            cur = gap_product(spec, m, n)
            assert cur <= prev
            prev = cur


def frozen_spec(factors) -> ActionSpec:
    return ActionSpec("frozen", tuple(factors), PeriodicTail((RankPair(1, 0),)))


def test_condense_examples_against_oracle():
    pairs = [RankPair(1, 1), RankPair(3, 1)]
    assert sign_tensor_counts(pairs) == (4, 4)
    got = condense(frozen_spec(pairs), 0, 2)
    assert (got.p, got.q) == (4, 4)

    pairs = [RankPair(3, 1), RankPair(5, 3)]
    assert sign_tensor_counts(pairs) == (18, 14)
    got = condense(frozen_spec(pairs), 0, 2)
    assert (got.p, got.q) == (18, 14)


def test_condense_single_factor_identity():
    spec = frozen_spec([RankPair(7, 2)])
    assert condense(spec, 0, 1) == RankPair(7, 2)


def test_condense_rejects_empty_range():
    with pytest.raises(ValueError):
        condense(fixture("car1"), 3, 3)


def test_condense_matches_oracle_randomized():
    rng = random.Random(5)
    for _ in range(300):
        factors = random_factor_list(rng, max_len=5, max_entry=5)
        spec = frozen_spec(factors)
        got = condense(spec, 0, len(factors))
        assert (got.p, got.q) == sign_tensor_counts(factors)


def test_condense_multiplicative_and_structure():
    rng = random.Random(6)
    for _ in range(200):
        factors = random_factor_list(rng, max_len=6, max_entry=6)
        spec = frozen_spec(factors)
        n = len(factors)
        whole = condense(spec, 0, n)
        # gap of the condensation is the product of the gaps
        assert whole.gap == gap_product(spec, 0, n)
        if n >= 2:
            r = rng.randint(1, n - 1)
            left, right = condense(spec, 0, r), condense(spec, r, n)
            assert whole.gap == left.gap * right.gap
        # structural consequences of the construction (on normalized factors)
        normed = [f.normalized() for f in factors]
        assert whole.size == range_product(spec, 0, n)[1]
        if any(f.symmetric for f in normed):
            assert whole.symmetric
        if all(f.p > f.q for f in normed):
            assert whole.p > whole.q
        if any(f.q > 0 for f in normed):
            assert whole.q > 0


def test_tail_car2_zero_by_divergence():
    result = gap_product_tail(fixture("car2"), 0)
    assert isinstance(result, TailZero)
    assert result.divergence is not None


def test_tail_car3_zero_then_positive():
    zero = gap_product_tail(fixture("car3"), 0)
    assert isinstance(zero, TailZero)
    assert zero.zero_index == 1

    pos = gap_product_tail(fixture("car3"), 1, cutoff=40)
    assert isinstance(pos, TailPositive)
    lo, hi = dyadic_euler_interval()
    assert pos.lower <= lo <= hi <= pos.upper or (
        lo <= pos.lower and pos.upper <= hi
    ) or (pos.lower <= hi and lo <= pos.upper)
    # the two independent enclosures must overlap, and ours must be tight
    assert pos.lower <= hi and lo <= pos.upper
    assert pos.upper - pos.lower <= Fraction(1, 10**9)


def test_tail_periodic_one_third():
    spec = ActionSpec("drift", (), PeriodicTail((RankPair(2, 1),)))
    result = gap_product_tail(spec, 0)
    assert isinstance(result, TailZero)
    assert "1/3" in result.divergence


def test_tail_periodic_trivial_is_exact():
    spec = ActionSpec("inner", (RankPair(3, 1), RankPair(2, 0)), PeriodicTail((RankPair(4, 0),)))
    result = gap_product_tail(spec, 0)
    assert isinstance(result, TailPositive)
    assert result.lower == result.upper == Fraction(1, 2)
    deep = gap_product_tail(spec, 2)
    assert deep.lower == deep.upper == 1


def test_tail_positive_bounds_are_sound():
    # bounds bracket all deep finite products: lower <= product(m, n) for all n
    rng = random.Random(32)
    checked = 0
    while checked < 120:
        spec = random_spec(rng)
        m = rng.randint(0, 4)
        result = gap_product_tail(spec, m)
        if not isinstance(result, TailPositive):
            continue
        checked += 1
        for n in range(m, m + 60):
            value = gap_product(spec, m, n)
            assert value >= result.lower
        assert gap_product(spec, m, m + 200) >= result.lower


def test_tail_enclosure_contains_deep_enclosure():
    # a much deeper certification must produce a nested enclosure, so the
    # shallow one provably brackets the limit
    rng = random.Random(33)
    checked = 0
    while checked < 40:
        spec = random_spec(rng)
        m = rng.randint(0, 3)
        shallow = gap_product_tail(spec, m, cutoff=8)
        if not isinstance(shallow, TailPositive):
            continue
        deep = gap_product_tail(spec, m, cutoff=200)
        assert isinstance(deep, TailPositive)
        assert shallow.lower <= deep.lower <= deep.upper <= shallow.upper
        checked += 1


def test_tail_unknown_when_certificate_needs_depth():
    tail = AffinePowerTail(B=3, A=1, alpha=1, beta=-3, gamma=0, delta=3)
    spec = ActionSpec("slow", (), tail)
    shallow = gap_product_tail(spec, 0, cutoff=1)
    assert type(shallow) is RatInterval
    assert shallow.lo == 0
    deep = gap_product_tail(spec, 0, cutoff=64)
    assert isinstance(deep, TailPositive)
    assert shallow.lo <= deep.lower and deep.upper <= shallow.hi


def test_tail_isolated_zero_located():
    # raw rank difference vanishes exactly at tail position 2
    tail = AffinePowerTail(B=2, A=1, alpha=1, beta=-2, gamma=0, delta=2)
    spec = ActionSpec("iso", (RankPair(3, 0),), tail)
    assert spec.factor(3).gap == 0  # absolute index of the isolated zero
    zero = gap_product_tail(spec, 0)
    assert isinstance(zero, TailZero) and zero.zero_index == 3
    past = gap_product_tail(spec, 3)
    assert isinstance(past, TailPositive)


def test_first_zero_gap_matches_brute_scan():
    rng = random.Random(41)
    for _ in range(200):
        spec = random_spec(rng)
        stage = rng.randint(0, 6)
        got = first_zero_gap_after(spec, stage)
        brute = next(
            (n for n in range(stage + 1, stage + 200) if spec.factor(n).gap == 0), None
        )
        if got is None:
            assert brute is None
        else:
            assert got == brute


def test_tail_enclosure_matches_exact_oracle():
    # the rounded enclosure must contain the exact one, lose almost nothing,
    # and render the same 12-digit witness ends; products short enough to stay exact come back
    # identical to the oracle's, which every cutoff-1 query is; every tail here settles
    # by depth 2, so only cutoff 1 leaves some undecided ([0, P] enclosures)
    rounded = 0
    undecided = {cutoff: 0 for cutoff in (1, 2, 8, 64, 200)}
    for seed in range(300):
        spec = random_spec(random.Random(seed), f"s{seed}")
        n0 = len(spec.prefix)
        for m in (n0, n0 + 2):
            for cutoff in undecided:
                got = gap_product_tail(spec, m, cutoff)
                want = exact_gap_product_tail(spec, m, cutoff)
                undecided[cutoff] += type(got) is RatInterval
                for tail in (got, want):
                    # callers decide from the ends, so the ends name the class
                    kind = TailZero if tail.hi == 0 else TailPositive if tail.lo else RatInterval
                    assert type(tail) is kind, (seed, m, cutoff)
                if cutoff == 1 or not isinstance(want, TailPositive):
                    assert got == want, (seed, m, cutoff)
                    continue
                assert isinstance(got, TailPositive)
                assert got.lower <= want.lower and want.upper <= got.upper
                # P * (1 - r) is within about P * r**2 of the limit, so the
                # rounding loss must stay far below that
                r = 1 - want.lower / want.upper
                slack = want.upper * r**2 / 2**60
                assert want.lower - got.lower <= slack and got.upper - want.upper <= slack
                assert round_down(got.lower) == round_down(want.lower), (seed, m, cutoff)
                assert round_up(got.upper) == round_up(want.upper), (seed, m, cutoff)
                rounded += got.upper != want.upper
    assert rounded > 100
    assert undecided[1] >= 50 and not any(undecided[cutoff] for cutoff in (2, 8, 64, 200))


@pytest.mark.parametrize(
    "spec, lower, upper",
    [
        (ActionSpec("s79", (RankPair(7, 5),), fixture("car3").tail), "0.046875", "0.0625"),
        (
            ActionSpec(
                "s479",
                (RankPair(8, 8), RankPair(8, 8), RankPair(8, 2)),
                AffinePowerTail(B=2, A=2, alpha=0, beta=1, gamma=2, delta=-1),
            ),
            "0.16875",
            "0.225",
        ),
    ],
)
def test_tail_witness_exact_at_cutoff_one(spec, lower, upper):
    # short products stay exact, so their witness ends render exactly
    report = classification_json(classification_report(spec, 1))
    witness = report["classification"]["tracial_rokhlin"]["witness"]
    assert (witness["lower"], witness["upper"]) == (lower, upper)


def test_tail_enclosure_bits_follow_remainder():
    # the working precision follows the remainder bound 2**-2049, not the
    # exact partial product, whose denominator has about 2.1 million bits
    result = gap_product_tail(fixture("car3"), 1, 2048)
    assert isinstance(result, TailPositive)
    for end in (result.lower, result.upper):
        assert end.denominator.bit_length() < 2 * 2048 + 256
    assert result.upper - result.lower < Fraction(1, 2**2048)


def test_enclosure_rounds_when_the_last_factor_outgrows_the_precision():
    # 3**40 fits in 64 bits and 3**41 does not, so the exact product stops
    # one factor short of the end and the enclosure is rounded
    spec = ActionSpec("thirds", (), PeriodicTail((RankPair(2, 1),)))
    assert _enclose_gap_product(spec, 0, 40, 64) == (Fraction(1, 3**40),) * 2
    lo, hi = _enclose_gap_product(spec, 0, 41, 64)
    assert lo < Fraction(1, 3**41) < hi
    assert max(lo.denominator, hi.denominator).bit_length() > 64


def test_split_enclosure_matches_the_whole_factor_reference():
    # bases with and without power-of-two P, c = alpha - gamma and beta of
    # both signs, prefixes with and without symmetric factors, periodic
    # tails, and n one before, at, one after and well past the first
    # rounded factor
    rng = random.Random(1313)
    shifts, seen, cases = [], set(), 0
    for B in (2, 3, 4, 6, 10, 16):
        for _ in range(25):
            A = rng.randint(1, 6)
            alpha = rng.randint(0, A)
            beta = rng.randint(-alpha * B, (A - alpha) * B)
            if rng.random() < 0.8:
                tail = AffinePowerTail(B, A, alpha, beta, A - alpha, -beta)
                seen.add((2 * alpha > A, 2 * alpha < A, beta > 0, beta < 0))
            else:
                tail = random_periodic(rng)
            seen.add(tail.kind)
            prefix = tuple(random_factor_list(rng, 3, 9)) if rng.random() < 0.7 else ()
            seen.add(any(f.symmetric for f in prefix))
            spec = ActionSpec("split", prefix, tail)
            m = rng.randint(0, len(prefix) + 2)
            prec = rng.randint(8, 160)
            walk = enumerate(_exact_walk(spec.split_stream(m)), m)
            switch = next(k for k, (_, size) in walk if size.bit_length() > prec)
            for n in (switch - 1, switch, switch + 1, switch + rng.randint(2, 40)):
                want = reference_enclose_gap_product(spec, m, n, prec, shifts)
                assert _enclose_gap_product(spec, m, n, prec) == want, (spec, m, n, prec)
                cases += 1
    assert cases >= 500
    assert {"periodic", True, False, (False, True, True, False), (False, True, False, True)} <= seen
    assert min(shifts) < 0 < max(shifts)


def test_tail_walk_reads_integers_only(monkeypatch):
    # the tail enclosures and the positivity scan read the integer factor
    # stream: no ActionSpec.factor call and no RankPair per factor
    car3 = fixture("car3")
    t256, t512 = gap_product_tail(car3, 1, 256), gap_product_tail(car3, 1, 512)
    ratio = (t256.lower + t512.lower) / 2  # separates only at cutoff 512
    el = K0Element(1, ratio.numerator + ratio.denominator, ratio.numerator - ratio.denominator)
    counts = {"factor": 0, "RankPair": 0}
    real_factor, real_init = ActionSpec.factor, RankPair.__post_init__

    def factor(self, n):
        counts["factor"] += 1
        return real_factor(self, n)

    def post_init(self):
        counts["RankPair"] += 1
        real_init(self)

    monkeypatch.setattr(ActionSpec, "factor", factor)
    monkeypatch.setattr(RankPair, "__post_init__", post_init)
    assert gap_product_tail(car3, 1, 512) == t512
    v = is_positive(car3, el, 8)
    assert v.is_no and v.witness["kind"] == "tail_threshold_exceeded"
    assert counts == {"factor": 0, "RankPair": 0}


def test_no_module_but_products_imports_its_private_names():
    # the rounded walk, its guard bits and the precision rules built on them
    # are read only inside products: every other module imports public names
    offenders = []
    for path in sorted(Path(afrokhlin.__file__).parent.glob("*.py")):
        if path.name == "products.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("products", "afrokhlin.products"):
                offenders += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert offenders == []


def _check_euler_tail(spec: ActionSpec, m: int, cutoffs) -> None:
    """The Euler enclosure meets the q-Pochhammer value at twice its working
    bits and the cutoff enclosure at each cutoff, and is narrower than
    2**-104 relative to the limit L and to 1 - L."""
    lo, hi = _euler_tail(spec, m)
    tail, n0 = spec.tail, len(spec.prefix)
    # at least twice the working bits: every tail here settles by position 2
    prec = 2 * (128 + (tail.A * tail.B ** (max(m - n0, 0) + 4)).bit_length())
    want_lo, want_hi = q_pochhammer_tail(spec, m, prec)
    assert lo <= want_hi and want_lo <= hi
    assert (hi - lo) * 2**104 < min(lo, 1 - hi)
    for c in cutoffs:
        walk = gap_product_tail(spec, m, c)
        assert max(lo, walk.lo) <= min(hi, walk.hi), c


@pytest.mark.parametrize("B", [2, 3, 5, 10])
def test_euler_tail_contains_the_limit_and_meets_every_walk(B):
    rng = random.Random(f"euler/{B}")
    checked = 0
    for seed in range(20):
        spec = random_positive_affine_spec(rng, B, f"s{seed}")
        n0 = len(spec.prefix)
        for m in (n0, n0 + 2, rng.randint(250, 1000)):
            if first_zero_gap_after(spec, m) is None:
                cutoffs = (1, rng.randint(2, 64), rng.randint(65, 1000))
                _check_euler_tail(spec, m, cutoffs)
                checked += 1
    assert checked >= 45


@pytest.mark.parametrize("A, B, e", [(1, 3, 1), (5, 3, 7), (9, 3, 13), (1, 5, 2), (3, 5, 7)])
def test_euler_tail_near_a_zero_gap(A, B, e):
    # A * B = 2e + 1: the first tail gap is 1 / (A * B), the least L the width
    # rule allows for, and z = 1 - 1 / (A * B) needs the most terms
    for tail in (
        AffinePowerTail(B=B, A=A, alpha=A, beta=-e, gamma=0, delta=e),
        AffinePowerTail(B=B, A=A, alpha=0, beta=e, gamma=A, delta=-e),
    ):
        assert tail.settle_depth() == 1
        for prefix in ((), (RankPair(3, 1),)):
            _check_euler_tail(ActionSpec("near", prefix, tail), 0, (1, 2, 64))


def test_keyed_tail_falls_back_to_one_cutoff_walk(monkeypatch):
    # a key that reads the exact ends straddles every bracket: one walk, at
    # the cutoff, gives the result of the keyless call
    car3 = fixture("car3")
    want = gap_product_tail(car3, 3, 100)
    walks, real = [], products._enclose_gap_product
    monkeypatch.setattr(products, "_enclose_gap_product", lambda *a: walks.append(a) or real(*a))
    assert gap_product_tail(car3, 3, 100, lambda lo, hi: (lo, hi)) == want
    assert [a[1:3] for a in walks] == [(3, 103)]


def test_keyed_tail_sums_euler_only_from_a_cutoff_remainder_of_2_pow_minus_40(monkeypatch):
    # car3 from m = 1 has r_c = 2**-(1 + c): 2**-39 at cutoff 38, 2**-40 at 39
    car3, key = fixture("car3"), classify._witness_ends
    assert car3.tail.remainder_bound(1 + 38) == Fraction(1, 2**39)
    euler, real = [], products._euler_tail
    monkeypatch.setattr(products, "_euler_tail", lambda *a: euler.append(a) or real(*a))
    got = gap_product_tail(car3, 1, 38, key)
    assert euler == [] and got == gap_product_tail(car3, 1, 38)
    got, walk = gap_product_tail(car3, 1, 39, key), gap_product_tail(car3, 1, 39)
    assert euler == [(car3, 1)] and key(got.lo, got.hi) == key(walk.lo, walk.hi)


def _car3_near_limit(bits: int, sign: int) -> K0Element:
    """A car3 class at stage 1 whose threshold u / |v| lies 2**-bits from the
    lower end of the cutoff-1024 enclosure, itself within 2**-1000 of L."""
    ratio = gap_product_tail(fixture("car3"), 1, 1024).lo + sign * Fraction(1, 2**bits)
    return K0Element(1, ratio.numerator + ratio.denominator, ratio.numerator - ratio.denominator)


@pytest.mark.parametrize("cutoff", [64, 128])
@pytest.mark.parametrize("bits", [60, 200])
def test_is_positive_near_the_limit_sums_no_euler(monkeypatch, bits, cutoff):
    # the ladder's enclosures sit within 2**-60 .. 2**-200 of the threshold,
    # where a bracket straddles, so is_positive passes no key
    euler, real = [], products._euler_tail
    monkeypatch.setattr(products, "_euler_tail", lambda *a: euler.append(a) or real(*a))
    car3 = fixture("car3")
    above = is_positive(car3, _car3_near_limit(bits, 1), cutoff)
    assert above.is_yes and above.witness == {"kind": "in_cone_at_stage", "stage": bits}
    below = is_positive(car3, _car3_near_limit(bits, -1), cutoff)
    assert below.is_no and below.witness["kind"] == "tail_threshold_exceeded"
    assert euler == []


@pytest.mark.parametrize("cutoff", [64, 512])
def test_report_and_extreme_vectors_of_car3_walk_no_tail(monkeypatch, cutoff):
    # every rendered car3 tail end comes from the Euler enclosure
    counts = {"walk": 0, "euler": 0}
    real_walk, real_euler = products._enclose_gap_product, products._euler_tail

    def walk(*args):
        counts["walk"] += 1
        return real_walk(*args)

    def euler(*args):
        counts["euler"] += 1
        return real_euler(*args)

    monkeypatch.setattr(products, "_enclose_gap_product", walk)
    monkeypatch.setattr(products, "_euler_tail", euler)
    car3 = fixture("car3")
    classification_report(car3, cutoff)
    for stage in (1, 2, 10, 100, 1000):
        for extreme in (0, 1):
            extreme_trace_vector(car3, extreme, stage, cutoff)
    assert counts == {"walk": 0, "euler": 11}
