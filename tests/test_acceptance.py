"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything is exact except the trace parametrization, which is pinned at
interval tolerance 1e-9 with certification depth 40.
"""

import json
import random
from fractions import Fraction

from afrokhlin import (
    ActionSpec,
    FgAbPresentation,
    K0Element,
    PeriodicTail,
    RankPair,
    classification_report,
    condense,
    extreme_trace_vector,
    fixture,
    flip,
    gap_product,
    is_equal,
    is_positive,
    is_totally_ordered,
    is_zero,
    push_forward,
)
from afrokhlin.cantor import default_cover, greedy_tower, is_free, verify_tower
from afrokhlin.ktheory import torsion_family_k0
from gsets import GROUP_V4, GROUP_Z2, GROUP_Z3, build_gset, orbit_multisets
from oracles import (
    ORACLE_TAILS,
    MixingMatrix,
    cone_oracle,
    dyadic_euler_interval,
    fgab_colimit,
    sign_tensor_counts,
    tower_base_exists,
    truncated_spec,
)
from specgen import random_pair, random_spec
from test_cli import FIXTURES, GOLDEN, normalize, run_cli

TOL = Fraction(1, 10**9)
DEPTH = 40


def test_acceptance_1_fixture_verdicts():
    car1 = classification_report(fixture("car1"))
    assert car1.strict_rokhlin.is_yes
    assert car1.crossed_product_uhf.is_yes
    assert car1.crossed_product_supernatural.as_dict() == {2: float("inf")}

    car2 = classification_report(fixture("car2"))
    assert car2.tracial_rokhlin.is_yes
    assert car2.strict_rokhlin.is_no
    assert car2.crossed_product_simple.is_yes
    assert car2.crossed_product_uhf.is_no
    assert car2.extreme_trace_count == 1

    car3 = classification_report(fixture("car3"))
    assert car3.outer.is_yes
    assert car3.tracial_rokhlin.is_no
    assert car3.extreme_trace_count == 2

    notcar = classification_report(fixture("notcar"))
    assert notcar.tracial_rokhlin.is_yes
    assert notcar.tracial_rokhlin.witness["tail_gap_max"] == Fraction(1, 3)

    print(
        "ACCEPTANCE 1 (fixture verdicts): PASS - car1 strict+UHF(2^inf), "
        "car2 tracial-only with unique trace, car3 outer non-tracial with 2 "
        "extreme traces, notcar tracial with tail gaps <= 1/3"
    )


def test_acceptance_2_k0_element_facts():
    eta = K0Element(1, 1, -1)
    car3 = fixture("car3")
    assert not is_zero(car3, eta)
    assert is_equal(car3, flip(eta), -eta)
    assert is_positive(car3, eta).is_no
    assert is_positive(car3, -eta).is_no
    assert is_zero(fixture("car1"), eta)

    rng = random.Random(20260810)
    agreements = 0
    for _ in range(600):
        length = rng.randint(1, 8)
        factors = [random_pair(rng, 9) for _ in range(length)]
        kind = rng.choice(sorted(ORACLE_TAILS))
        spec = truncated_spec("trunc", factors, kind)
        el = K0Element(rng.randint(0, length), rng.randint(-9, 9), rng.randint(-9, 9))
        verdict = is_positive(spec, el)
        assert not verdict.is_unknown
        assert verdict.is_yes == cone_oracle(factors, kind, el)
        agreements += 1
    assert agreements >= 500
    print(
        f"ACCEPTANCE 2 (K0 element facts): PASS - car3 class (1,-1)@1 nonzero, "
        f"flip-negated, neither sign positive; car1 class zero; lazy decision "
        f"matched the brute-force cone oracle on {agreements} randomized elements"
    )


def test_acceptance_3_torsion_fixtures():
    for m in (1, 2, 3, 4):
        initial = FgAbPresentation(1, (2**m,))
        maps = [[[2 * r + 1, 0], [0, 1]] for r in (1, 2, 3)]
        for out in (torsion_family_k0(m, (1, 2, 3)), fgab_colimit(initial, maps)):
            assert out.torsion == (2**m,)
    result = run_cli("torsion", "--m", "4", "--r", "1,2", "--json")
    doc = json.loads(result.stdout)["torsion_family"]
    assert doc["k0_torsion_subgroup"] == "Z/16"
    assert doc["k1"]["value"] == "0"

    notor = json.loads(
        run_cli("torsion", "--m", "2", "--r", "1,2", "--notor", "--json").stdout
    )["torsion_family"]
    assert notor["k1"]["pretty"] == "Z"
    assert notor["k1"]["free_rank"] == 1 and notor["k1"]["invariant_factors"] == []
    assert notor["k0"]["torsion_free"] is True
    print(
        "ACCEPTANCE 3 (torsion fixtures): PASS - torsion subgroup Z/2^m for "
        "m in {1,2,3,4} with K1 = 0; torsion-free variant has K1 = Z and "
        "torsion-free K0"
    )


def test_acceptance_4_trace_parametrization():
    spec = fixture("car3")
    vec = {
        n: extreme_trace_vector(spec, 1, n, cutoff=DEPTH) for n in range(0, 21)
    }
    for n in range(1, 21):
        (r_lo, r_hi), _ = MixingMatrix(spec.factor(n).gap).apply(
            (vec[n].r.lo, vec[n].r.hi), (vec[n].s.lo, vec[n].s.hi)
        )
        prev_lo, prev_hi = vec[n - 1].r.lo, vec[n - 1].r.hi
        assert r_hi - r_lo <= TOL and prev_hi - prev_lo <= TOL
        assert r_lo <= prev_hi and prev_lo <= r_hi
    lo, hi = dyadic_euler_interval()
    target_lo, target_hi = (1 + lo) / 2, (1 + hi) / 2
    r1_lo, r1_hi = vec[1].r.lo, vec[1].r.hi
    assert r1_lo <= target_hi and target_lo <= r1_hi
    assert r1_hi - r1_lo <= TOL
    for n in range(0, 21):
        mirror = extreme_trace_vector(spec, 0, n, cutoff=DEPTH)
        assert (mirror.r, mirror.s) == (vec[n].s, vec[n].r)
    print(
        "ACCEPTANCE 4 (trace parametrization): PASS - compatibility recursion "
        "holds at stages 1..20 within 1e-9 at depth 40, r_1 brackets "
        "(1 + prod(1 - 2^-j))/2, and the two extreme vectors are swaps"
    )


def _frozen(factors):
    return ActionSpec("frozen", tuple(factors), PeriodicTail((RankPair(1, 0),)))


def _suite_condense(rng) -> int:
    runs = 0
    for _ in range(1000):
        factors = []
        dim = 1
        for _ in range(rng.randint(1, 6)):
            pair = random_pair(rng, 9)
            if dim * pair.size > 2**14:
                break
            factors.append(pair)
            dim *= pair.size
        if not factors:
            factors = [random_pair(rng, 9)]
        spec = _frozen(factors)
        n = len(factors)
        whole = condense(spec, 0, n)
        assert (whole.p, whole.q) == sign_tensor_counts(factors)
        assert whole.gap == gap_product(spec, 0, n)
        if n >= 2:
            r = rng.randint(1, n - 1)
            assert whole.gap == condense(spec, 0, r).gap * condense(spec, r, n).gap
        runs += 1
    return runs


def _suite_mixing(rng) -> int:
    for _ in range(1000):
        lam = Fraction(rng.randint(0, 60), 60)
        mu = Fraction(rng.randint(0, 60), 60)
        (a1, b1), _ = MixingMatrix(lam).entries
        (a2, b2), _ = MixingMatrix(mu).entries
        same, cross = a1 * a2 + b1 * b2, a1 * b2 + b1 * a2
        assert MixingMatrix(lam * mu).entries == ((same, cross), (cross, same))
    return 1000


def _suite_push_and_flip(rng) -> tuple[int, int]:
    pushes = flips = 0
    for _ in range(1000):
        spec = random_spec(rng)
        s1 = rng.randint(0, 4)
        s2 = s1 + rng.randint(0, 3)
        s3 = s2 + rng.randint(0, 3)
        el = K0Element(s1, rng.randint(-9, 9), rng.randint(-9, 9))
        assert push_forward(spec, el, s3) == push_forward(
            spec, push_forward(spec, el, s2), s3
        )
        pushes += 1
    for _ in range(1000):
        spec = random_spec(rng)
        el = K0Element(rng.randint(0, 4), rng.randint(-9, 9), rng.randint(-9, 9))
        assert flip(flip(el)) == el
        to = el.stage + rng.randint(0, 4)
        assert flip(push_forward(spec, el, to)) == push_forward(spec, flip(el), to)
        flips += 1
    return pushes, flips


def _suite_snf(rng) -> int:
    from test_ktheory import check_snf

    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        check_snf(mat)
    return 1000


def _suite_towers() -> int:
    rng = random.Random(404)
    checked = 0
    for name, table in (("Z2", GROUP_Z2), ("Z3", GROUP_Z3), ("V4", GROUP_V4)):
        for orbits in orbit_multisets(table, 12):
            for relabel in (None, rng):
                gs = build_gset(table, orbits, relabel)
                free, _ = is_free(gs)
                assert free == all(H == {0} for H in orbits)
                assert tower_base_exists(gs) == free
                if free:
                    tower = greedy_tower(gs, default_cover(gs))
                    assert verify_tower(gs, tower)
                    assert len(tower.base) * gs.order == gs.size
                checked += 1
    return checked


def test_acceptance_5_property_suites():
    rng = random.Random(505)
    condensations = _suite_condense(rng)
    mixings = _suite_mixing(rng)
    pushes, flips = _suite_push_and_flip(rng)
    snfs = _suite_snf(rng)
    towers = _suite_towers()
    assert min(condensations, mixings, pushes, flips, snfs) >= 1000
    print(
        f"ACCEPTANCE 5 (property suites): PASS - condense vs eigenvalue oracle "
        f"x{condensations}, mixing-matrix multiplicativity x{mixings}, "
        f"pushforward composition x{pushes}, flip involution/commutation "
        f"x{flips}, Smith normal form x{snfs}, exhaustive towers on "
        f"{towers} group actions"
    )


def test_acceptance_6_implication_lattice():
    rng = random.Random(606)
    for _ in range(1000):
        spec = random_spec(rng)
        rep = classification_report(spec)
        strict, tracial, outer = rep.strict_rokhlin, rep.tracial_rokhlin, rep.outer
        assert not (strict.is_unknown or tracial.is_unknown or outer.is_unknown)
        if strict.is_yes:
            assert tracial.is_yes
        if tracial.is_yes:
            assert outer.is_yes
        assert outer.decision == rep.crossed_product_simple.decision
        assert strict.decision == rep.crossed_product_uhf.decision
        assert strict.decision == is_totally_ordered(spec).decision
        assert (rep.extreme_trace_count == 1) == tracial.is_yes
    print(
        "ACCEPTANCE 6 (implication lattice): PASS - strict => tracial => outer, "
        "outer <=> simple, strict <=> UHF <=> totally ordered, tracial <=> "
        "unique trace on 1000 randomized specs"
    )


def test_acceptance_7_golden_reports_and_exit_codes(tmp_path):
    for name in FIXTURES:
        first = run_cli("classify", name, "--json")
        second = run_cli("classify", name, "--json")
        assert first.stdout == second.stdout
        assert normalize(first.stdout) == (GOLDEN / f"{name}.json").read_text()
        assert first.returncode == 0

    assert run_cli("classify", "car1").returncode == 0
    assert run_cli("classify", "missing-fixture").returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli("classify", str(bad)).returncode == 2
    slow = tmp_path / "slow.json"
    slow.write_text(
        json.dumps(
            {
                "name": "slow",
                "prefix": [],
                "tail": {
                    "kind": "affine_power",
                    "B": 3,
                    "A": 1,
                    "alpha": 1,
                    "beta": -3,
                    "gamma": 0,
                    "delta": 3,
                },
            }
        )
    )
    assert run_cli("classify", str(slow), "--cutoff", "1").returncode == 3
    fixed = tmp_path / "fixed.json"
    fixed.write_text(
        json.dumps(
            {
                "elements": ["a", "b", "c"],
                "group": {"order": 2, "table": [[0, 1], [1, 0]]},
                "action": [[0, 1, 2], [1, 0, 2]],
            }
        )
    )
    assert run_cli("cantor", str(fixed)).returncode == 4
    print(
        "ACCEPTANCE 7 (golden reports + exit codes): PASS - four fixture "
        "reports byte-stable and matching the goldens; exit codes 0/2/3/4 "
        "observed on the contract cases"
    )
