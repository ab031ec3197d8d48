"""Relations between two runs of the tool, checked without an oracle.

Cutoff: a decided verdict keeps its decision at every larger cutoff, and an
answer that a cutoff allows stays allowed, and consistent, at a larger one.

K0 colimit: a class and its push-forward to a later stage are one colimit
class, so positivity never answers yes for one and no for the other, and
zeroness and equality agree.

Rank exchange: swapping the two eigenspace ranks of every factor gives the
same action up to conjugacy, so the `classify`, `traces` and `ktheory`
documents are the same bytes, apart from the echo of an affine tail, which
is not normalized.

Re-indexing: moving the first affine tail factor into the prefix (A' = AB,
alpha' = alpha B, gamma' = gamma B, beta and delta kept) gives the same
action, whose tail settles one factor earlier, so no `classify` decision
flips, an unknown may become decided only on the re-encoded side, and the
positive tail product witnesses share a point.
"""

import json
import random

import pytest

from fractions import Fraction

from afrokhlin import (
    ActionSpec,
    AffinePowerTail,
    K0Element,
    PeriodicTail,
    RankPair,
    UndecidedError,
    UniqueTraceError,
    extreme_trace_vector,
    is_equal,
    is_positive,
    is_zero,
    push_forward,
    spec_to_json,
    tracial_rokhlin_verdict,
)
from afrokhlin.cli import main
from afrokhlin.products import range_product
from specgen import random_affine, random_pair, random_positive_affine_spec, random_spec


@pytest.mark.parametrize("cutoff", [1, 4, 16, 64, 256])
def test_tracial_decision_kept_at_larger_cutoffs(cutoff):
    rng = random.Random(f"cutoff/{cutoff}")
    decided = 0
    for seed in range(300):
        spec = random_spec(rng, f"s{seed}")
        first = tracial_rokhlin_verdict(spec, cutoff)
        if first.is_unknown:
            continue
        decided += 1
        for larger in (2 * cutoff, 4 * cutoff):
            later = tracial_rokhlin_verdict(spec, larger)
            assert later.decision == first.decision, (seed, larger)
            if first.is_no:
                # both witness enclosures hold the tail product
                w, v = first.witness, later.witness
                assert max(w["lower"], v["lower"]) <= min(w["upper"], v["upper"]), (seed, larger)
    assert decided > 200


@pytest.mark.parametrize("cutoff", [1, 4, 16, 64, 256])
def test_extreme_weights_kept_at_twice_the_cutoff(cutoff):
    # a trace vector given at cutoff c is given at 2c, and each weight's
    # enclosures at c and 2c share a point, the true weight
    rng = random.Random(f"traces-cutoff/{cutoff}")
    given = 0
    for seed in range(300):
        spec = random_spec(rng, f"s{seed}")
        n = len(spec.prefix) + rng.randint(0, 3)
        extreme = rng.randint(0, 1)
        try:
            tv = extreme_trace_vector(spec, extreme, n, cutoff)
        except (UniqueTraceError, UndecidedError):
            continue
        given += 1
        deeper = extreme_trace_vector(spec, extreme, n, 2 * cutoff)
        for w, v in ((tv.r, deeper.r), (tv.s, deeper.s)):
            assert max(w.lo, v.lo) <= min(w.hi, v.hi), (seed, n)
    assert given > 50


def _k0_classes(rng, spec):
    """A small class at a stage of 0 .. 3, one with u = 0, and two whose
    threshold u / |v| lies within 2**-40 of the gap product of a stage up to 80
    later, each with whether that stage's size outgrows the scan's precision,
    so that the scan reaches it rounded."""
    s = rng.randint(0, 3)
    yield K0Element(s, rng.randint(-9, 9), rng.randint(-9, 9)), False
    k = rng.randint(1, 9)
    yield K0Element(s, k, -k), False
    for _ in range(2):
        diff, size = range_product(spec, s, s + rng.randint(0, 80))
        absv = rng.getrandbits(rng.choice((48, 100, 200))) | 1 << 47
        u = max(diff * absv // size + rng.randint(-3, 3), 1)
        v = rng.choice((absv, -absv))
        rounded = size.bit_length() > u.bit_length() + absv.bit_length() + 64
        yield K0Element(s, u + v, u - v), rounded  # u, v doubled: threshold kept


def test_k0_class_agrees_with_its_push_forward():
    rng = random.Random("k0-colimit")
    pairs = rounded = 0
    for seed in range(300):
        spec = random_spec(rng, f"s{seed}")
        for el, far in _k0_classes(rng, spec):
            rounded += far
            verdicts = [is_positive(spec, el, c) for c in (1, 64)]
            for t in (1, 3):
                later = push_forward(spec, el, el.stage + t)
                assert is_zero(spec, later) == is_zero(spec, el), (seed, el, t)
                assert is_equal(spec, el, later), (seed, el, t)
                for c, first in zip((1, 64), verdicts):
                    second = is_positive(spec, later, c)
                    pairs += 1
                    assert {first.decision, second.decision} != {"yes", "no"}, (seed, el, t, c)
    assert pairs == 300 * 4 * 2 * 2
    assert rounded > 250


def _rank_exchange(spec):
    """The same action with p and q swapped in every factor."""
    tail = spec.tail
    if isinstance(tail, PeriodicTail):
        swapped = PeriodicTail(tuple(RankPair(f.q, f.p) for f in tail.pairs))
    else:
        swapped = AffinePowerTail(tail.B, tail.A, tail.gamma, tail.delta, tail.alpha, tail.beta)
    return ActionSpec(spec.name, tuple(RankPair(f.q, f.p) for f in spec.prefix), swapped)


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_rank_exchange_keeps_every_document(tmp_path, capsys):
    rng = random.Random("rank-exchange")
    pairs = 0
    for seed in range(200):
        spec = random_spec(rng, f"s{seed}")
        paths = []
        for side, doc in (("a", spec), ("b", _rank_exchange(spec))):
            paths.append(tmp_path / f"{seed}{side}.json")
            paths[-1].write_text(json.dumps(spec_to_json(doc)))
        stage = rng.randint(0, len(spec.prefix) + 3)
        element = f"{rng.randint(-20, 20)},{rng.randint(-20, 20)}@{rng.randint(0, 3)}"
        for cutoff in ("1", "64"):
            for args in (
                ["classify"],
                ["traces", "--stage", str(stage), "--extreme", "1"],
                ["traces", "--stage", str(stage), "--extreme", "inv"],
                ["ktheory", "--element", element, "--query", "positive"],
            ):
                a, b = (
                    _run([args[0], str(path), *args[1:], "--json", "--cutoff", cutoff], capsys)
                    for path in paths
                )
                if a[1] and isinstance(spec.tail, AffinePowerTail):
                    # the rest of each document, in its own key order
                    docs = [json.loads(out) for _, out, _ in (a, b)]
                    assert [d.pop("spec") for d in docs] == [json.loads(p.read_text()) for p in paths]
                    a, b = ((code, json.dumps(d), err) for (code, _, err), d in zip((a, b), docs))
                assert a == b, (seed, args, cutoff)
                pairs += 1
    assert pairs == 1600


def _reindexed(spec):
    """The same action with its first affine tail factor moved into the prefix."""
    t = spec.tail
    tail = AffinePowerTail(t.B, t.A * t.B, t.alpha * t.B, t.beta, t.gamma * t.B, t.delta)
    return ActionSpec(spec.name, spec.prefix + (t.pair_at(1),), tail)


def _decisions(classification):
    """Every decision of a `classify --json` document, by its key path."""
    found = {"extreme_trace_count": classification["extreme_trace_count"]}
    for key, value in classification.items():
        if isinstance(value, dict) and "decision" in value:
            found[key] = value["decision"]
    for key, value in classification["dual_facts"].items():
        found[f"dual_facts/{key}"] = value["decision"]
    return found


def test_reindexing_keeps_every_decision(tmp_path, capsys):
    rng = random.Random("reindex")
    decided = crossed = 0
    for seed in range(300):
        if seed % 2:
            spec = random_positive_affine_spec(rng, rng.choice((2, 3, 5, 10)), f"s{seed}")
        else:
            prefix = tuple(random_pair(rng) for _ in range(rng.randint(0, 3)))
            spec = ActionSpec(f"s{seed}", prefix, random_affine(rng))
        paths = []
        for side, doc in (("a", spec), ("b", _reindexed(spec))):
            paths.append(tmp_path / f"{seed}{side}.json")
            paths[-1].write_text(json.dumps(spec_to_json(doc)))
        for cutoff in ("1", "4", "64"):
            a, b = (
                json.loads(_run(["classify", str(path), "--json", "--cutoff", cutoff], capsys)[1])
                for path in paths
            )
            a, b = a["classification"], b["classification"]
            da, db = _decisions(a), _decisions(b)
            for key, first in da.items():
                if first != "unknown":
                    assert db[key] == first, (seed, cutoff, key)
                    decided += 1
            if a["crossed_product_supernatural"] is not None:
                assert b["crossed_product_supernatural"] == a["crossed_product_supernatural"]
            w, v = a["tracial_rokhlin"]["witness"], b["tracial_rokhlin"]["witness"]
            if w["kind"] == v["kind"] == "positive_tail_product":
                lower = max(Fraction(w["lower"]), Fraction(v["lower"]))
                assert lower <= min(Fraction(w["upper"]), Fraction(v["upper"])), (seed, cutoff)
                crossed += 1
    assert decided > 6000 and crossed > 500
