import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from afrokhlin import (
    ActionSpec,
    AffinePowerTail,
    FgAbPresentation,
    K0Element,
    PeriodicTail,
    RankPair,
    SupernaturalNumber,
    fixture,
    flip,
    gap_product_tail,
    is_equal,
    is_positive,
    is_totally_ordered,
    is_zero,
    push_forward,
)
from afrokhlin import ktheory, products
from afrokhlin.ktheory import torsion_family_k0
from afrokhlin.products import cone_scan, range_product
from afrokhlin.report import presentation_json
from oracles import (
    ORACLE_TAILS,
    TransitionMatrix,
    _smith_diagonal,
    _subgroup_invariant_factors,
    cone_oracle,
    fgab_colimit,
    mat_mul,
    reference_cone_scan,
    transition,
    truncated_spec,
)
from specgen import random_factor_list, random_spec

INF = float("inf")


def test_transition_examples():
    assert transition(fixture("car2"), 2).rows == ((3, 1), (1, 3))
    assert transition(fixture("car1"), 7).rows == ((1, 1), (1, 1))
    assert TransitionMatrix(5, 3).rows == ((5, 3), (3, 5))


def test_push_forward_car3():
    got = push_forward(fixture("car3"), K0Element(1, 1, -1), 3)
    assert (got.a, got.b) == (12, -12)


def test_push_forward_identity_and_car1():
    el = K0Element(2, 4, 7)
    assert push_forward(fixture("car2"), el, 2) == el
    got = push_forward(fixture("car1"), K0Element(1, 1, -1), 2)
    assert (got.a, got.b) == (0, 0)
    with pytest.raises(ValueError):
        push_forward(fixture("car1"), el, 1)


def test_flip_examples():
    assert flip(K0Element(0, 3, 5)) == K0Element(0, 5, 3)
    assert flip(K0Element(4, 2, 2)) == K0Element(4, 2, 2)
    car3 = fixture("car3")
    eta = K0Element(1, 1, -1)
    assert is_equal(car3, flip(eta), -eta)


def test_is_equal_examples():
    eta = K0Element(1, 1, -1)
    zero = K0Element(1, 0, 0)
    assert is_equal(fixture("car1"), eta, zero)
    assert not is_equal(fixture("car3"), eta, zero)
    assert is_equal(fixture("car3"), eta, eta)


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)
def test_diagonalization_identity(a, b, p, q):
    if p + q == 0 or p < q:
        return
    t = TransitionMatrix(p, q)
    a2, b2 = t.apply((a, b))
    assert a2 + b2 == (p + q) * (a + b)
    assert a2 - b2 == (p - q) * (a - b)


def test_push_forward_composition_randomized():
    rng = random.Random(55)
    for _ in range(300):
        spec = random_spec(rng)
        s1 = rng.randint(0, 4)
        s2 = s1 + rng.randint(0, 4)
        s3 = s2 + rng.randint(0, 4)
        el = K0Element(s1, rng.randint(-9, 9), rng.randint(-9, 9))
        direct = push_forward(spec, el, s3)
        stepped = push_forward(spec, push_forward(spec, el, s2), s3)
        assert direct == stepped


def test_push_forward_matches_stage_matrices_randomized():
    # the diagonal (u, v) form against the stage maps applied one at a time
    rng = random.Random(57)
    for _ in range(300):
        spec = random_spec(rng)
        el = K0Element(rng.randint(0, 5), rng.randint(-99, 99), rng.randint(-99, 99))
        to = el.stage + rng.randint(0, 8)
        vec = (el.a, el.b)
        for n in range(el.stage + 1, to + 1):
            vec = transition(spec, n).apply(vec)
        assert push_forward(spec, el, to) == K0Element(to, *vec)


def test_flip_involution_and_commutation():
    rng = random.Random(56)
    for _ in range(300):
        spec = random_spec(rng)
        el = K0Element(rng.randint(0, 4), rng.randint(-9, 9), rng.randint(-9, 9))
        assert flip(flip(el)) == el
        to = el.stage + rng.randint(0, 5)
        assert flip(push_forward(spec, el, to)) == push_forward(spec, flip(el), to)


def test_no_false_torsion():
    rng = random.Random(57)
    for _ in range(300):
        spec = random_spec(rng)
        el = K0Element(rng.randint(0, 4), rng.randint(-6, 6), rng.randint(-6, 6))
        c = rng.randint(2, 5)
        if is_zero(spec, K0Element(el.stage, c * el.a, c * el.b)):
            assert is_zero(spec, el)


def test_is_positive_fixture_facts():
    car3 = fixture("car3")
    eta = K0Element(1, 1, -1)
    assert is_positive(car3, eta).is_no
    assert is_positive(car3, -eta).is_no
    assert is_positive(car3, K0Element(0, 1, 0)).is_yes
    assert is_positive(car3, K0Element(2, 0, 0)).is_yes
    # car1: the class dies, so it is positive as the zero class
    assert is_positive(fixture("car1"), eta).is_yes
    # car2: u = 0 and no later factor is rank-symmetric, oracle-confirmed "no"
    car2 = fixture("car2")
    assert is_positive(car2, eta).is_no
    factors = [car2.factor(n) for n in range(1, 9)]
    assert cone_oracle(factors, "identity", eta) is False


def test_is_positive_matches_cone_oracle():
    rng = random.Random(58)
    for _ in range(200):
        factors = random_factor_list(rng, max_len=8, max_entry=9)
        kind = rng.choice(sorted(ORACLE_TAILS))
        spec = truncated_spec("trunc", factors, kind)
        el = K0Element(
            rng.randint(0, len(factors)), rng.randint(-9, 9), rng.randint(-9, 9)
        )
        verdict = is_positive(spec, el)
        assert not verdict.is_unknown
        assert verdict.is_yes == cone_oracle(factors, kind, el)


def test_is_totally_ordered_matches_fixtures():
    assert is_totally_ordered(fixture("car1")).is_yes
    assert is_totally_ordered(fixture("car2")).is_no
    assert is_totally_ordered(fixture("car3")).is_no


# ----------------------------------------------------------------------------
# Smith diagonal


def det(mat):
    n = len(mat)
    if n == 0:
        return 1
    rows = [[Fraction(x) for x in r] for r in mat]
    sign = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        for r in range(c + 1, n):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    out = Fraction(sign)
    for c in range(n):
        out *= rows[c][c]
    return out


def minor_gcd(mat, k):
    """The k-th determinantal divisor: the gcd of all k x k minors of mat."""
    g = 0
    for rs in combinations(range(len(mat)), k):
        for cs in combinations(range(len(mat[0])), k):
            g = math.gcd(g, int(det([[mat[i][j] for j in cs] for i in rs])))
    return g


def check_snf(mat):
    """The Smith diagonal against the determinantal divisors: d_1 ... d_k is
    the gcd of the k x k minors.  Every k is checked on matrices up to 4 x 4,
    only k = 1 and k = min(rows, cols) on larger ones."""
    rows, cols = len(mat), len(mat[0]) if mat else 0
    diag = _smith_diagonal(mat)
    assert len(diag) == min(rows, cols)
    assert all(d >= 0 for d in diag)
    for d, e in zip(diag, diag[1:]):
        if d == 0:
            assert e == 0
        else:
            assert e % d == 0
    ks = range(1, len(diag) + 1) if max(rows, cols) <= 4 else {1, len(diag)}
    for k in ks:
        assert math.prod(diag[:k]) == minor_gcd(mat, k), (mat, diag, k)
    return diag


def test_snf_examples():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]
    assert check_snf([[0]]) == [0]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_snf_randomized(rows, cols, data):
    mat = [
        [
            data.draw(st.integers(min_value=-9, max_value=9))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    check_snf(mat)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_snf_matches_reference(rows, cols, data):
    """The pivot loop against sympy's invariant factors, an implementation
    written separately, on the whole diagonal of matrices up to 8 x 8 with
    large entries and with whole zero rows and columns."""
    bound = data.draw(st.sampled_from([9, 10**6]))
    entry = st.integers(min_value=-bound, max_value=bound)
    mat = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in data.draw(st.sets(st.integers(min_value=0, max_value=rows - 1))):
        mat[i] = [0] * cols
    for j in data.draw(st.sets(st.integers(min_value=0, max_value=cols - 1))):
        for row in mat:
            row[j] = 0
    diagonal = _smith_diagonal(mat)
    assert tuple(diagonal) == invariant_factors(Matrix(mat), domain=ZZ), mat


# ----------------------------------------------------------------------------
# Colimits of finitely generated abelian presentations


def test_colimit_torsion_family():
    initial = FgAbPresentation(1, (2,))
    maps = [[[2 * r + 1, 0], [0, 1]] for r in (1, 2, 3)]
    out = fgab_colimit(initial, maps)
    assert out.torsion == (2,)
    assert out.free_rank == 1
    assert out.localizations[0].as_dict() == {3: INF, 5: INF, 7: INF}


def test_colimit_identity_is_z():
    out = fgab_colimit(FgAbPresentation(1), [[[1]]])
    assert out.free_rank == 1 and out.torsion == ()
    assert str(out) == "Z"
    # the zero group: 0 x 0 maps, a list or a tuple
    assert str(fgab_colimit(FgAbPresentation(0), [[]])) == "0"
    assert str(fgab_colimit(FgAbPresentation(0), [[], ()])) == "0"


def test_colimit_kills_annihilated_generator():
    # Hand-unrolled: (a, b) -> (2a, 0), so b dies and a localizes at 2.
    out = fgab_colimit(FgAbPresentation(2), [[[2, 0], [0, 0]]])
    assert out.free_rank == 1
    assert out.torsion == ()
    assert out.localizations[0].as_dict() == {2: INF}


def test_colimit_torsion_image_stabilizes():
    # Z/2 survives (identity block), Z/4 dies under multiplication by 2.
    initial = FgAbPresentation(0, (2, 4))
    out = fgab_colimit(initial, [[[1, 0], [0, 2]]])
    assert out.free_rank == 0
    assert out.torsion == (2,)


def test_colimit_torsion_long_image_chain():
    # The images of x2 on Z/1024 fall through ten strict steps; a power of the
    # map short of 2^10 (say 2^8, one squaring too few) would leave Z/4.
    assert fgab_colimit(FgAbPresentation(0, (1024,)), [[[2]]]).torsion == ()
    out = fgab_colimit(FgAbPresentation(0, (2, 1024)), [[[1, 0], [0, 2]]])
    assert out.torsion == (2,)


def test_torsion_family_k0_matches_colimit_engine():
    """The closed form against the colimit engine it replaced, in value, text
    and JSON, for both variants: K0 of the torsion family, and K1 of the
    torsion-free one, which the command takes to be Z outright."""
    rng = random.Random(4391)
    for _ in range(3000):
        m = rng.randint(1, 12)
        rs = [rng.randint(1, 10**6) for _ in range(rng.randint(1, 6))]
        maps = [[[2 * r + 1, 0], [0, 1]] for r in rs]
        pairs = [
            (torsion_family_k0(m, rs), fgab_colimit(FgAbPresentation(1, (2**m,)), maps)),
            (FgAbPresentation(1), fgab_colimit(FgAbPresentation(1), [[[1]] for _ in rs])),
        ]
        for got, want in pairs:
            assert got == want, (m, rs)
            assert str(got) == str(want), (m, rs)
            assert presentation_json(got) == presentation_json(want), (m, rs)


def order_multiset(orders, elements):
    """Element-order statistics classify finite abelian groups up to iso."""
    from math import gcd

    out = {}
    for x in elements:
        o = 1
        for coord, d in zip(x, orders):
            o = o * (d // gcd(d, coord)) // gcd(o, d // gcd(d, coord))
        out[o] = out.get(o, 0) + 1
    return out


def brute_stable_image(tb, orders):
    from itertools import product as iproduct

    t = len(orders)
    current = {
        tuple(x) for x in iproduct(*[range(d) for d in orders])
    }
    while True:
        image = {
            tuple(
                sum(tb[i][j] * x[j] for j in range(t)) % orders[i] for i in range(t)
            )
            for x in current
        }
        if image == current:
            return current
        current = image


def test_colimit_torsion_against_brute_force():
    from itertools import product as iproduct

    rng = random.Random(77)
    chains = [(2,), (4,), (2, 2), (2, 4), (3, 3), (2, 6), (8,), (2, 2, 4)]
    for _ in range(150):
        orders = rng.choice(chains)
        t = len(orders)
        tb = []
        for i in range(t):
            row = []
            for j in range(t):
                step = orders[i] // __import__("math").gcd(orders[i], orders[j])
                row.append((rng.randint(0, 7) * step) % orders[i])
            tb.append(row)
        initial = FgAbPresentation(0, tuple(orders))
        full = [[0] * t for _ in range(t)]
        for i in range(t):
            for j in range(t):
                full[i][j] = tb[i][j]
        got = fgab_colimit(initial, [full])
        stable = brute_stable_image(tb, orders)
        expected_stats = order_multiset(orders, stable)
        got_elements = list(iproduct(*[range(d) for d in got.torsion])) or [()]
        got_stats = order_multiset(got.torsion, got_elements)
        assert got_stats == expected_stats


def brute_subgroup(gens, orders):
    """Every element of the subgroup of +Z/orders spanned by the columns."""
    cols = [
        tuple(gens[i][j] % d for i, d in enumerate(orders)) for j in range(len(gens[0]))
    ]
    seen = {tuple(0 for _ in orders)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in cols:
            y = tuple((a + b) % d for a, b, d in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def test_subgroup_invariant_factors_against_brute_force():
    from itertools import product as iproduct

    rng = random.Random(1403)
    chains = [
        (2,), (8,), (2, 4), (2, 2, 4), (2, 4, 8), (3, 9), (3, 9, 27), (5, 10),
        (6, 12), (5, 25), (2, 6, 12), (4, 4),
    ]
    shapes = [(orders, r, zero) for orders in chains for r in range(1, 5) for zero in (False, True)]
    for orders, r, zero in shapes * 4:
        gens = [[rng.randint(-2 * d, 2 * d) for _ in range(r)] for d in orders]
        if zero:
            column = rng.randrange(r)
            for row in gens:
                row[column] = 0
        got = _subgroup_invariant_factors(gens, orders)
        assert all(d >= 2 for d in got)
        assert all(e % d == 0 for d, e in zip(got, got[1:]))
        elements = list(iproduct(*[range(d) for d in got])) or [()]
        expected = order_multiset(orders, brute_subgroup(gens, orders))
        assert order_multiset(got, elements) == expected, (gens, orders, got)
    assert _subgroup_invariant_factors([], ()) == ()
    assert _subgroup_invariant_factors([[], []], (2, 4)) == ()


def test_colimit_rejects_bad_maps():
    initial = FgAbPresentation(1, (2,))
    diagonal = r"free block must be diagonal \(nonzero entry at \(0, 1\)\)"
    hits = "map does not respect torsion: torsion generator 0 hits free generator 0"
    feeds = r"free generators may not feed torsion \(nonzero entry at \({}, 0\)\)"
    with pytest.raises(ValueError, match=hits):
        fgab_colimit(initial, [[[1, 1], [0, 1]]])
    with pytest.raises(ValueError, match=feeds.format(1)):
        fgab_colimit(initial, [[[1, 0], [1, 1]]])
    with pytest.raises(ValueError, match=diagonal):
        fgab_colimit(FgAbPresentation(2), [[[1, 1], [0, 1]]])
    with pytest.raises(ValueError, match="order 4 generator maps with coefficient 1 into Z/8"):
        # Z/4 -> Z/8 with odd coefficient
        fgab_colimit(FgAbPresentation(0, (4, 8)), [[[1, 0], [1, 1]]])
    with pytest.raises(ValueError, match="need a nonempty cycle of maps"):
        fgab_colimit(FgAbPresentation(1), [])
    # two faults of different kinds: the first in row-major order is named
    two_faults = [
        (FgAbPresentation(2, (2,)), [[1, 1, 1], [0, 1, 0], [0, 0, 1]], diagonal),
        (FgAbPresentation(2, (2,)), [[1, 0, 1], [1, 1, 0], [0, 0, 1]], hits),
        (FgAbPresentation(1, (4, 8)), [[1, 0, 0], [0, 1, 0], [1, 1, 1]], feeds.format(2)),
        (
            FgAbPresentation(1, (2, 4, 8)),
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]],
            "order 2 generator maps with coefficient 1 into Z/4",
        ),
    ]
    for initial, mat, message in two_faults:
        with pytest.raises(ValueError, match=message):
            fgab_colimit(initial, [mat])
    # non-integer entries and non-sequence maps or rows are not read through int()
    bad = "colimit maps must be 2x2 integer matrices"
    for mat in (
        [[3, 0], [0, 2.5]],
        [[3, 0], [0, 3.9]],
        [["3", 0], [0, 1]],
        [[True, 0], [0, 1]],
        [[3, 0], [0, Fraction(1)]],
        [3, 0],
        [(3, 0), 0],
        "ab",
        [[3, 0], [0, 1], [0]],
        [[3, 0], [0, 2.5], [0]],
    ):
        with pytest.raises(ValueError, match=bad):
            fgab_colimit(FgAbPresentation(1, (4,)), [mat])
    out = fgab_colimit(FgAbPresentation(1, (4,)), [((3, 0), (0, 1))])
    assert str(out) == "Z[1/3] (+) Z/4"


def test_presentation_validation():
    with pytest.raises(ValueError):
        FgAbPresentation(1, (3, 4))  # 3 does not divide 4
    with pytest.raises(ValueError):
        FgAbPresentation(-1)
    with pytest.raises(ValueError):
        FgAbPresentation(1, (1,))
    with pytest.raises(ValueError, match="invariant factors must be >= 2"):
        FgAbPresentation(0, (0, 4))  # checked before the divisibility loop divides by 0
    for free_rank in (True, 1.5):  # checked before range() reads the rank
        with pytest.raises(ValueError, match="free rank must be an integer"):
            FgAbPresentation(free_rank)
    for torsion in ((2.5, 5), (2, 4.0), (True, 2), ("2",)):
        with pytest.raises(ValueError, match="invariant factors must be integers"):
            FgAbPresentation(0, torsion)
    for loc in ({2: 1}, 2, None):
        with pytest.raises(ValueError, match="localizations must be supernatural numbers"):
            FgAbPresentation(1, (), (loc,))
    pres = FgAbPresentation(2, (2, 6))
    assert str(pres) == "Z (+) Z (+) Z/2 (+) Z/6"
    # list fields are stored as tuples, so the frozen value hashes and compares
    listed = FgAbPresentation(0, [2, 4])
    assert listed.torsion == (2, 4) and listed == FgAbPresentation(0, (2, 4))
    assert hash(listed) == hash(FgAbPresentation(0, (2, 4)))
    one = SupernaturalNumber.one()
    assert FgAbPresentation(1, [], [one]).localizations == (one,)
    for fields in ((0, 4), (0, "24"), (0, range(2, 3)), (1, (), one), (1, (), {one})):
        with pytest.raises(ValueError, match="must be tuples or lists"):
            FgAbPresentation(*fields)
    with pytest.raises(ValueError):
        fgab_colimit(
            FgAbPresentation(1, (), (SupernaturalNumber(((2, INF),)),)),
            [[[1]]],
        )


def test_threshold_no_witness_stays_above_threshold():
    # a threshold 1e-15 below the certified lower end: 12 digits cannot separate them
    spec = fixture("car3")
    tail = gap_product_tail(spec, 1, 64)
    ratio = tail.lower - Fraction(1, 10**15)
    num, den = ratio.numerator, ratio.denominator
    v = is_positive(spec, K0Element(1, num + den, num - den), 64)
    assert v.is_no and v.witness["kind"] == "tail_threshold_exceeded"
    assert v.witness["threshold"] == ratio
    assert ratio < v.witness["tail_lower"] <= tail.lower


def test_is_positive_stage_is_first_cone_stage():
    # the in-cone witness names the first stage whose pushforward is in the
    # cone, checked here by pushing the element forward directly
    rng = random.Random(61)
    checked = 0
    while checked < 150:
        spec = random_spec(rng)
        el = K0Element(rng.randint(0, 3), rng.randint(-40, 40), rng.randint(-40, 40))
        verdict = is_positive(spec, el, 8)
        if verdict.witness.get("kind") != "in_cone_at_stage":
            continue
        checked += 1
        stage = verdict.witness["stage"]
        pushed = (push_forward(spec, el, n) for n in range(el.stage, stage + 1))
        assert next(p.stage for p in pushed if min(p.a, p.b) >= 0) == stage


def _element_with_threshold(stage, ratio):
    """A class at this stage with u / |v| equal to the given ratio."""
    num, den = ratio.numerator, ratio.denominator
    return K0Element(stage, num + den, num - den)


def _car3_enclosures_256_512():
    car3 = fixture("car3")
    return car3, gap_product_tail(car3, 1, 256), gap_product_tail(car3, 1, 512)


def test_is_positive_tests_the_last_refinement():
    # At cutoff 8 the enclosures at cutoffs 8 .. 512 are each tested; this
    # threshold separates only from the last one, below its lower end.
    car3, t256, t512 = _car3_enclosures_256_512()
    ratio = (t256.lower + t512.lower) / 2
    assert t256.lower < ratio < t512.lower
    v = is_positive(car3, _element_with_threshold(1, ratio), 8)
    assert v.is_no and v.witness["kind"] == "tail_threshold_exceeded"
    assert ratio < v.witness["tail_lower"] <= t512.lower


def test_is_positive_scans_after_the_last_refinement():
    # the twin: this threshold separates only from the last enclosure, above
    # its upper end, so the scan finds the first stage in the cone
    car3, t256, t512 = _car3_enclosures_256_512()
    ratio = (t256.upper + t512.upper) / 2
    assert t512.upper < ratio < t256.upper
    el = _element_with_threshold(1, ratio)
    v = is_positive(car3, el, 8)
    assert v.is_yes and v.witness["kind"] == "in_cone_at_stage"
    stage = v.witness["stage"]
    at, before = push_forward(car3, el, stage), push_forward(car3, el, stage - 1)
    assert min(at.a, at.b) >= 0 > min(before.a, before.b)


def _car3_midpoint_element():
    t64 = gap_product_tail(fixture("car3"), 1, 64)
    return _element_with_threshold(1, (t64.lower + t64.upper) / 2)


# one row per exit of is_positive: spec, element, cutoff, decision, witness
_SETTLES_AT_2 = ActionSpec(
    "settles-at-2", (), AffinePowerTail(B=2, A=3, alpha=3, beta=-5, gamma=0, delta=5)
)
_SLOW_ZERO = ActionSpec(
    "slow-zero", (), PeriodicTail((RankPair(1, 0),) * 999 + (RankPair(2, 1),))
)
_CAR3_LOWER_64 = Fraction(144394047543, 500000000000)
_IS_POSITIVE_EXITS = [
    ("car3", K0Element(2, 0, 0), 64, "yes", {"kind": "zero_class"}),
    ("car1", K0Element(1, 1, -1), 64, "yes", {"kind": "zero_class", "annihilated_at": 2}),
    ("car2", K0Element(1, 1, -1), 64, "no", {"kind": "mixed_signs_persist", "u": 0, "v": 2}),
    ("car3", K0Element(0, -1, 0), 64, "no", {"kind": "negative_total_rank", "u": -1}),
    ("car3", K0Element(0, 1, 0), 64, "yes", {"kind": "in_cone_at_stage", "stage": 0}),
    (
        "car3", K0Element(1, 10, -9), 64, "no",
        {
            "kind": "tail_threshold_exceeded",
            "threshold": Fraction(1, 19),
            "tail_lower": _CAR3_LOWER_64,
        },
    ),
    (
        # settle depth 2 > cutoff 1
        _SETTLES_AT_2, K0Element(0, 2**39 + 1, -(2**39)), 1, "unknown",
        {
            "kind": "cutoff_exhausted",
            "cutoff": 1,
            "interval": [Fraction(0), Fraction(666666666667, 10**12)],
            "threshold": Fraction(1, 2**40 + 1),
        },
    ),
    (
        # each period multiplies the gap product by 1/3, and the threshold
        # 2**-199 needs 126 periods of 1000 stages
        _SLOW_ZERO, K0Element(0, 1 + 2**199, 1 - 2**199), 8, "unknown",
        {"kind": "scan_exhausted", "scanned_to": 65536, "cutoff": 8},
    ),
    (
        # the midpoint of the cutoff-64 enclosure, inside every enclosure
        "car3", "midpoint", 1, "unknown",
        {
            "kind": "threshold_boundary",
            "threshold": "midpoint",
            "interval": [_CAR3_LOWER_64, Fraction(288788095087, 10**12)],
            "cutoff": 1,
        },
    ),
]


@pytest.mark.parametrize(
    "spec, el, cutoff, decision, witness",
    _IS_POSITIVE_EXITS,
    ids=[row[4]["kind"] for row in _IS_POSITIVE_EXITS],
)
def test_is_positive_exits(spec, el, cutoff, decision, witness):
    spec = fixture(spec) if isinstance(spec, str) else spec
    if el == "midpoint":
        el = _car3_midpoint_element()
        witness = {**witness, "threshold": Fraction(el.u, abs(el.v))}
    verdict = is_positive(spec, el, cutoff)
    assert verdict.decision == decision
    assert list(verdict.witness.items()) == list(witness.items())


def _near_threshold(rng, spec, s, stop):
    """(u, |v|) with u / |v| within a few units of 1/|v| of a stage product in s ..
    stop, for |v| of 8 to 200 bits, or small random integers; None when u <= 0."""
    if rng.random() < 0.3:
        return rng.randint(1, 2**40), rng.randint(1, 2**40)
    diff, size = range_product(spec, s, rng.randint(s, stop))
    absv = rng.getrandbits(rng.choice([8, 60, 200])) | 1
    u = diff * absv // size + rng.randint(-3, 3)
    return (u, absv) if u > 0 else None


@pytest.mark.parametrize("cutoff", [8, 64, 200, 1000])
def test_cone_scan_matches_exact_reference(cutoff):
    # the rounded scan answers every stage of the first scan as the exact one
    rng = random.Random(cutoff)
    cases = 0
    while cases < {8: 80, 64: 80, 200: 15, 1000: 8}[cutoff]:
        spec, s = random_spec(rng), rng.randint(0, 3)
        pair = _near_threshold(rng, spec, s, s + cutoff + 8)
        if pair is None:
            continue
        cases += 1
        got = list(islice(cone_scan(spec, s, *pair), cutoff + 8))
        assert got == list(islice(reference_cone_scan(spec, s, *pair), cutoff + 8))


def test_is_positive_matches_exact_scan_reference(monkeypatch):
    rng = random.Random(23)
    cases = []
    while len(cases) < 150:
        spec, s = random_spec(rng), rng.randint(0, 3)
        pair = _near_threshold(rng, spec, s, s + 16)
        if pair is not None:
            u, v = 2 * pair[0], 2 * pair[1] * rng.choice([1, -1])
            cases.append((spec, K0Element(s, (u + v) // 2, (u - v) // 2)))
    got = [is_positive(spec, el, 8) for spec, el in cases]
    monkeypatch.setattr(ktheory, "cone_scan", reference_cone_scan)
    assert got == [is_positive(spec, el, 8) for spec, el in cases]


def test_is_positive_boundary_stage_pays_one_exact_product(monkeypatch):
    # gap products 1/2, 1/3 alternate, so 6^-80 is the product at stage 160, and
    # its unreduced denominator 12^80 has outgrown the scan's precision there:
    # the rounded enclosure straddles the threshold and the exact product decides
    spec = ActionSpec("sixths", (), PeriodicTail((RankPair(3, 1), RankPair(2, 1))))
    el = K0Element(0, 1 + 6**80, 1 - 6**80)  # u = 2, |v| = 2 * 6^80
    calls = []
    real = products.range_product
    monkeypatch.setattr(products, "range_product", lambda *a: calls.append(a[1:]) or real(*a))
    verdict = is_positive(spec, el)
    assert verdict.witness == {"kind": "in_cone_at_stage", "stage": 160}
    assert calls == [(0, 160)]
    diff, size = real(spec, 0, 160)
    assert abs(el.v) * diff == el.u * size


def test_is_positive_scan_cap_is_reachable():
    # gap products (999999/1000001)^n reach the threshold 1/2 only near n = 346,574
    spec = ActionSpec("slow-million", (), PeriodicTail((RankPair(1000000, 1),)))
    start = time.perf_counter()
    verdict = is_positive(spec, K0Element(0, 3, -1))
    assert time.perf_counter() - start < 2
    assert verdict.decision == "unknown"
    assert verdict.witness == {"kind": "scan_exhausted", "scanned_to": 65536, "cutoff": 64}


_BOUNDARY_SCRIPT = """
import time
import afrokhlin as af
car3 = af.fixture("car3")
lower = af.gap_product_tail(car3, 1, 8192).lower
n, d = lower.numerator, lower.denominator
start = time.perf_counter()
verdict = af.is_positive(car3, af.K0Element(1, n + d, n - d), 2048)
print(verdict.witness["kind"], time.perf_counter() - start)
"""


def test_is_positive_boundary_element_finishes():
    # the threshold is the lower end of the cutoff-8192 enclosure, 16,000 bits
    # long, so the scan to stage 2048 carries 32,000-bit mantissas
    r = subprocess.run([sys.executable, "-c", _BOUNDARY_SCRIPT], capture_output=True, text=True, timeout=30)
    assert r.returncode == 0, r.stderr
    kind, seconds = r.stdout.split()
    assert kind == "tail_threshold_exceeded"
    assert float(seconds) < 3


def test_mat_mul_products():
    assert mat_mul([[1, 2], [3, 4]], [[1], [1]]) == [[3], [7]]
    assert mat_mul([], [[1]]) == []
