import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from afrokhlin import (
    FIXTURE_NAMES,
    ActionSpec,
    AffinePowerTail,
    FiniteActionError,
    PeriodicTail,
    RankPair,
    TailPositive,
    classification_report,
    condense,
    extreme_trace_count,
    extreme_trace_vector,
    fixture,
    outer_verdict,
    strict_rokhlin_verdict,
    tracial_rokhlin_verdict,
)
from afrokhlin import classify, products, traces
from afrokhlin.citations import CITATIONS
from afrokhlin.traces import UniqueTraceError
from oracles import reference_tracial_witness
from specgen import random_pair, random_spec


def test_car1_verdicts():
    r = classification_report(fixture("car1"))
    assert r.strict_rokhlin.is_yes
    assert r.tracial_rokhlin.is_yes
    assert r.outer.is_yes
    assert r.crossed_product_uhf.is_yes
    assert r.crossed_product_supernatural.as_dict() == {2: float("inf")}
    assert r.extreme_trace_count == 1


def test_car2_verdicts():
    r = classification_report(fixture("car2"))
    assert r.strict_rokhlin.is_no
    assert r.tracial_rokhlin.is_yes
    assert r.outer.is_yes
    assert r.crossed_product_simple.is_yes
    assert r.crossed_product_uhf.is_no
    assert r.extreme_trace_count == 1


def test_car3_verdicts():
    r = classification_report(fixture("car3"))
    assert r.strict_rokhlin.is_no
    assert r.tracial_rokhlin.is_no
    assert r.outer.is_yes
    assert r.crossed_product_uhf.is_no
    assert r.extreme_trace_count == 2
    w = r.tracial_rokhlin.witness
    assert w["m"] == 1
    assert w["lower"] > Fraction(1, 4)


def test_notcar_verdicts():
    r = classification_report(fixture("notcar"))
    assert r.tracial_rokhlin.is_yes
    assert r.strict_rokhlin.is_no
    assert r.outer.is_yes
    assert r.tracial_rokhlin.witness["tail_gap_max"] == Fraction(1, 3)


def test_strict_symmetric_period_entry():
    spec = ActionSpec("mix", (), PeriodicTail((RankPair(2, 2), RankPair(3, 0))))
    assert strict_rokhlin_verdict(spec).is_yes


def test_strict_no_witness_is_checkable():
    rng = random.Random(91)
    for _ in range(150):
        spec = random_spec(rng)
        v = strict_rokhlin_verdict(spec)
        if v.is_no:
            beyond = v.witness["none_beyond"]
            for n in range(beyond + 1, beyond + 40):
                assert spec.factor(n).gap != 0
            for i in v.witness["symmetric_indices"]:
                assert spec.factor(i).gap == 0


def test_outer_no_for_trivial_tail():
    spec = ActionSpec("inner", (), PeriodicTail((RankPair(2, 0),)))
    v = outer_verdict(spec)
    assert v.is_no
    assert v.witness["index"] == 0
    spec2 = ActionSpec("inner2", (RankPair(1, 1),), PeriodicTail((RankPair(2, 0),)))
    assert outer_verdict(spec2).witness["index"] == 1


def test_finite_action_rejected():
    finite = ActionSpec("finite", (RankPair(1, 0),), None)
    with pytest.raises(FiniteActionError):
        classification_report(finite)
    with pytest.raises(FiniteActionError):
        strict_rokhlin_verdict(finite)


def test_trace_count_follows_tracial():
    assert extreme_trace_count(fixture("car2")) == 1
    assert extreme_trace_count(fixture("car3")) == 2
    assert extreme_trace_count(fixture("car1")) == 1


def check_lattice(report):
    strict = report.strict_rokhlin
    tracial = report.tracial_rokhlin
    outer = report.outer
    assert not strict.is_unknown and not tracial.is_unknown and not outer.is_unknown
    if strict.is_yes:
        assert tracial.is_yes
    if tracial.is_yes:
        assert outer.is_yes
    assert outer.decision == report.crossed_product_simple.decision
    assert strict.decision == report.crossed_product_uhf.decision
    assert (report.extreme_trace_count == 1) == tracial.is_yes
    assert (report.extreme_trace_count == 2) == tracial.is_no
    if report.crossed_product_uhf.is_yes:
        assert report.crossed_product_supernatural is not None


def test_implication_lattice_small():
    rng = random.Random(17)
    for _ in range(200):
        check_lattice(classification_report(random_spec(rng)))


def condensed_within_prefix(spec, m, n):
    new_prefix = spec.prefix[:m] + (condense(spec, m, n),) + spec.prefix[n:]
    return ActionSpec(spec.name + "-condensed", new_prefix, spec.tail)


def test_verdicts_stable_under_condensation():
    rng = random.Random(19)
    done = 0
    while done < 150:
        spec = random_spec(rng)
        n0 = len(spec.prefix)
        if n0 < 2:
            continue
        done += 1
        m = rng.randint(0, n0 - 2)
        n = rng.randint(m + 1, n0)
        other = condensed_within_prefix(spec, m, n)
        a, b = classification_report(spec), classification_report(other)
        assert a.strict_rokhlin.decision == b.strict_rokhlin.decision
        assert a.tracial_rokhlin.decision == b.tracial_rokhlin.decision
        assert a.outer.decision == b.outer.decision
        assert a.extreme_trace_count == b.extreme_trace_count


def test_verdicts_stable_under_prefix_perturbation():
    rng = random.Random(29)
    for _ in range(150):
        spec = random_spec(rng)
        extra = tuple(random_pair(rng) for _ in range(rng.randint(1, 3)))
        other = ActionSpec(spec.name + "-padded", extra + spec.prefix, spec.tail)
        a, b = classification_report(spec), classification_report(other)
        assert a.strict_rokhlin.decision == b.strict_rokhlin.decision
        assert a.tracial_rokhlin.decision == b.tracial_rokhlin.decision
        assert a.outer.decision == b.outer.decision


def test_tracial_unknown_at_tiny_cutoff_then_decided():
    tail = AffinePowerTail(B=3, A=1, alpha=1, beta=-3, gamma=0, delta=3)
    spec = ActionSpec("slow", (), tail)
    shallow = tracial_rokhlin_verdict(spec, cutoff=1)
    assert shallow.is_unknown
    assert shallow.witness["cutoff"] == 1
    deep = tracial_rokhlin_verdict(spec, cutoff=64)
    assert deep.is_no


def _tail_cutoffs(monkeypatch) -> list[int]:
    """Record the cutoff of every cutoff walk, `_enclose_gap_product`, that
    `gap_product_tail` starts: the walk ends that many factors past the base
    depth max(settle depth, m - prefix length)."""
    cutoffs = []
    real = products._enclose_gap_product

    def walk(spec, m, n, prec):
        n0 = len(spec.prefix)
        cutoffs.append(n - n0 - max(spec.tail.settle_depth(), m - n0))
        return real(spec, m, n, prec)

    monkeypatch.setattr(products, "_enclose_gap_product", walk)
    return cutoffs


def _euler_starts(monkeypatch, enclosure=None) -> list[int]:
    """Record the range start of every `_euler_tail` call made by
    `gap_product_tail`, and make it return ``enclosure`` when one is given."""
    starts = []
    real = products._euler_tail
    monkeypatch.setattr(
        products,
        "_euler_tail",
        lambda spec, m: starts.append(m) or (enclosure or real(spec, m)),
    )
    return starts


@pytest.mark.parametrize("cutoff", [1, 8, 64, 200, 1000])
def test_tracial_witness_matches_cutoff_reference(monkeypatch, cutoff):
    # the witness read from the Euler enclosure has the bytes of the cutoff one
    rng = random.Random(cutoff)
    cutoffs, starts = _tail_cutoffs(monkeypatch), _euler_starts(monkeypatch)
    shallow = 0
    for _ in range(200):
        spec = random_spec(rng)
        # the reference walks too, so it goes before the counted call
        want = reference_tracial_witness(spec, cutoff)
        del cutoffs[:], starts[:]
        witness = tracial_rokhlin_verdict(spec, cutoff).witness
        assert witness == want
        # no walk but the one at the cutoff, after an Euler enclosure or
        # alone, and one of them for a positive tail with a nonzero remainder
        assert cutoffs in ([], [cutoff])
        geometric = witness["kind"] == "positive_tail_product" and spec.tail.remainder_bound(0)
        assert bool(starts + cutoffs) == bool(geometric)
        if starts:
            # the Euler bracket is read only for a positive tail with a
            # nonzero remainder, settled by the cutoff, with r_c <= 2**-40
            tail, m = spec.tail, witness["m"]
            settle = tail.settle_depth()
            assert starts == [m] and geometric and settle <= cutoff
            base = max(settle, m - len(spec.prefix))
            assert tail.remainder_bound(base + cutoff) <= Fraction(1, 2**40)
        shallow += bool(starts) and not cutoffs
    # a bracket 2 r_c wide fixes 12 digits only at cutoffs of about 40 / log2(B)
    assert shallow >= (40 if cutoff >= 64 else 0)


def test_fixed_witness_falls_back_on_a_straddle(monkeypatch):
    # car3 from m = 1 at cutoff 128 has r_c = 2^-129; give its Euler
    # enclosure chosen ends [l, u]
    car3, key = fixture("car3"), classify._witness_ends
    full = products.gap_product_tail(car3, 1, 128)
    r = car3.tail.remainder_bound(129)
    assert r == Fraction(1, 2**129)
    grid, eps = Fraction(288788095087, 10**12), Fraction(1, 10**20)
    step = Fraction(1, 10**12)
    for (lo, hi), fixed in (
        ((grid - 2 * eps, grid - eps), (grid - step, grid)),
        ((grid + eps, grid + 2 * eps), (grid, grid + step)),
        ((grid - eps, grid + eps), None),
        # the 2 r_c slack alone reaches the grid point
        ((grid, grid + eps), None),
        ((grid - eps, grid), None),
        # and so does it from 1.5 r_c away, where r_c alone would not
        ((grid / (1 - 3 * r / 2), grid + eps), None),
        ((grid - eps, grid / (1 + 3 * r / 2)), None),
    ):
        monkeypatch.undo()
        starts = _euler_starts(monkeypatch, (lo, hi))
        cutoffs = _tail_cutoffs(monkeypatch)
        got = products.gap_product_tail(car3, 1, 128, key)
        assert starts == [1]
        if fixed is None:
            assert cutoffs == [128] and got == full
        else:
            assert cutoffs == [] and key(got.lo, got.hi) == fixed
            assert got.lo < lo and hi < got.hi


def test_tracial_witness_falls_back_to_the_cutoff_enclosure(monkeypatch):
    car3 = fixture("car3")
    want = reference_tracial_witness(car3, 128)
    cutoffs, starts = _tail_cutoffs(monkeypatch), _euler_starts(monkeypatch)
    assert tracial_rokhlin_verdict(car3, 128).witness == want
    assert cutoffs == [] and starts == [1]
    del starts[:]
    assert tracial_rokhlin_verdict(car3, 105).witness == want
    assert cutoffs == [] and starts == [1]
    # an Euler enclosure widened by one grid step straddles a grid point
    lo, hi = products._euler_tail(car3, 1)
    monkeypatch.undo()
    starts = _euler_starts(monkeypatch, (lo, hi + Fraction(1, 10**12)))
    cutoffs = _tail_cutoffs(monkeypatch)
    assert tracial_rokhlin_verdict(car3, 128).witness == want
    assert cutoffs == [128] and starts == [1]


def count_calls(monkeypatch, modules, names) -> dict[str, int]:
    """Replace each name in each module by one counting wrapper per name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(modules[0], name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_report_computes_each_verdict_once(monkeypatch, name):
    names = ("strict_rokhlin_verdict", "tracial_rokhlin_verdict", "outer_verdict", "gap_product_tail")
    counts = count_calls(monkeypatch, [classify], names)
    tails = count_calls(monkeypatch, [products], ["_enclose_gap_product", "_euler_tail"])
    classification_report(fixture(name))
    # car3 is the one fixture with a positive tail: its end is Euler's, and
    # no fixture walks to the cutoff
    euler = name == "car3"
    assert counts == dict.fromkeys(names, 1)
    assert tails == {"_enclose_gap_product": 0, "_euler_tail": int(euler)}


def test_extreme_trace_vector_makes_one_tail_call(monkeypatch):
    counts = count_calls(monkeypatch, [traces], ["gap_product_tail"])
    tails = count_calls(monkeypatch, [products], ["_enclose_gap_product", "_euler_tail"])
    extreme_trace_vector(fixture("car3"), 1, 5, 64)
    assert counts == {"gap_product_tail": 1}
    assert tails == {"_enclose_gap_product": 0, "_euler_tail": 1}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_extreme_trace_count_makes_no_tail_call(monkeypatch, name):
    counts = count_calls(monkeypatch, [products, classify], ["gap_product_tail"])
    extreme_trace_count(fixture(name))
    assert counts["gap_product_tail"] == 0


@pytest.mark.parametrize("cutoff", [1, 8, 64])
def test_extreme_trace_count_matches_the_report(cutoff):
    rng = random.Random(cutoff)
    counts = set()
    for _ in range(300):
        spec = random_spec(rng)
        count = extreme_trace_count(spec, cutoff)
        assert count == classification_report(spec, cutoff).extreme_trace_count
        counts.add(count)
    assert counts == ({1, 2, "unknown"} if cutoff == 1 else {1, 2})


@pytest.mark.parametrize(
    "query",
    [extreme_trace_count, lambda spec, cutoff: extreme_trace_vector(spec, 1, 0, cutoff)],
    ids=["extreme_trace_count", "extreme_trace_vector"],
)
def test_trace_count_error_order(query):
    # a finite action is refused before the cutoff is looked at, and a bad
    # cutoff before a unique trace is
    finite = ActionSpec("finite", (RankPair(1, 0),), None)
    with pytest.raises(FiniteActionError):
        query(finite, 0)
    with pytest.raises(ValueError, match="cutoff must be positive") as info:
        query(fixture("car2"), 0)
    assert not isinstance(info.value, UniqueTraceError)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_report_derives_the_rest_of_the_sheet(name):
    spec = fixture(name)
    r = classification_report(spec)
    assert r.crossed_product_simple.decision == r.outer.decision
    assert r.crossed_product_uhf.decision == r.strict_rokhlin.decision
    assert r.extreme_trace_count == extreme_trace_count(spec)
    assert list(r.verdicts()) == [
        "strict_rokhlin",
        "tracial_rokhlin",
        "outer",
        "crossed_product_simple",
        "crossed_product_uhf",
    ]


def _periodic(prefix, pairs):
    tail = PeriodicTail(tuple(RankPair(*p) for p in pairs))
    return ActionSpec("hint", tuple(RankPair(*p) for p in prefix), tail)


@pytest.mark.parametrize(
    "make_spec, line",
    [
        (
            lambda: _periodic((), [(1, 1), (1, 0)]),
            "- tracial Rokhlin property: yes  [gap ratio 0 recurs (first at index 1)]",
        ),
        (
            lambda: _periodic((), [(2, 1), (1, 0)]),
            "- tracial Rokhlin property: yes  [sum of (1 - gap) diverges]",
        ),
        (
            lambda: ActionSpec("hint", (), AffinePowerTail(2, 4, 3, 0, 1, 0)),
            "- tracial Rokhlin property: yes  [gap ratios converge to 1/2 < 1]",
        ),
        (
            lambda: ActionSpec("hint", (), AffinePowerTail(2, 2, 1, 0, 1, 0)),
            "- strict Rokhlin property: yes  [every tail factor from index 1 is rank-symmetric]",
        ),
        (
            lambda: _periodic([(2, 1)], [(1, 0)]),
            "- action outer: no  [all factors beyond index 1 have zero smaller rank]",
        ),
    ],
    ids=["recurring_zero_gap", "divergent_sum", "gap_limit", "symmetric_tail", "inner_beyond"],
)
def test_classification_text_witness_hints(make_spec, line):
    from afrokhlin.report import classification_text

    assert line in classification_text(classification_report(make_spec())).splitlines()


def test_every_anchor_is_cited():
    """The registry holds exactly the anchors some ``cite()`` call in the
    package names: no dead anchor, and no misspelled one."""
    cited = set()
    for path in Path(classify.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "cite":
                assert all(isinstance(arg, ast.Constant) for arg in node.args), path
                cited.update(arg.value for arg in node.args)
    assert cited == set(CITATIONS)
