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
    classification_report,
    condense,
    extreme_trace_count,
    extreme_trace_vector,
    fixture,
    outer_verdict,
    strict_rokhlin_verdict,
    tracial_rokhlin_verdict,
)
from afrokhlin import classify, traces
from afrokhlin.citations import CITATIONS
from afrokhlin.traces import UniqueTraceError
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
    classification_report(fixture(name))
    assert counts == dict.fromkeys(names, 1)


def test_extreme_trace_vector_makes_one_tail_call(monkeypatch):
    counts = count_calls(monkeypatch, [classify, traces], ["gap_product_tail"])
    extreme_trace_vector(fixture("car3"), 1, 5, 64)
    assert counts["gap_product_tail"] == 1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_extreme_trace_count_makes_no_tail_call(monkeypatch, name):
    counts = count_calls(monkeypatch, [classify], ["gap_product_tail"])
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
