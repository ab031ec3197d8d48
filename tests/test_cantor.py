import random
import sys
from collections import Counter
from itertools import compress, permutations, product

import pytest

from afrokhlin import cantor
from afrokhlin.cantor import (
    FiniteGSet,
    _generators,
    InvalidCover,
    InvalidGSet,
    NotFreeError,
    Tower,
    cover_from_json,
    default_cover,
    greedy_tower,
    gset_from_json,
    is_free,
    verify_tower,
)
from gsets import (
    GROUP_V4,
    GROUP_Z2,
    GROUP_Z3,
    build_gset,
    cyclic_group,
    dihedral_group,
    orbit_multisets,
    product_group,
    relabel,
    relabel_group,
    subgroups,
)
from oracles import (
    reference_fixed_point,
    reference_gset_error,
    reference_greedy_tower,
    tower_base_exists,
)


def two_point_swap():
    return FiniteGSet(("a", "b"), GROUP_Z2, ((0, 1), (1, 0)))


def four_point_two_orbits():
    return FiniteGSet(("a", "b", "c", "d"), GROUP_Z2, ((0, 1, 2, 3), (1, 0, 3, 2)))


def swap_with_fixed_point():
    return FiniteGSet(("a", "b", "c"), GROUP_Z2, ((0, 1, 2), (1, 0, 2)))


def test_is_free_examples():
    assert is_free(two_point_swap()) == (True, None)
    free, witness = is_free(swap_with_fixed_point())
    assert not free and witness == (1, 2)
    assert is_free(four_point_two_orbits()) == (True, None)


def test_default_cover_examples():
    assert default_cover(two_point_swap()) == [frozenset({0}), frozenset({1})]
    assert default_cover(four_point_two_orbits()) == [
        frozenset({i}) for i in range(4)
    ]
    z3 = FiniteGSet(("a", "b", "c"), GROUP_Z3, GROUP_Z3)
    assert default_cover(z3) == [frozenset({i}) for i in range(3)]
    with pytest.raises(NotFreeError):
        default_cover(swap_with_fixed_point())


def test_greedy_tower_examples():
    gs = four_point_two_orbits()
    tower = greedy_tower(gs, [frozenset({0}), frozenset({2})])
    assert tower.base == frozenset({0, 2})
    assert set(tower.translates) == {frozenset({0, 2}), frozenset({1, 3})}

    single = greedy_tower(two_point_swap(), [frozenset({0})])
    assert single.base == frozenset({0})

    with pytest.raises(InvalidCover) as err:
        greedy_tower(gs, [frozenset({0}), frozenset({0})])
    assert "cover union insufficient" in str(err.value)


def test_greedy_tower_rejects_colliding_cover_set():
    gs = four_point_two_orbits()
    with pytest.raises(InvalidCover) as err:
        greedy_tower(gs, [frozenset({0, 1}), frozenset({2})])
    assert err.value.index == 0


@pytest.mark.parametrize(
    "cover, bad",
    [
        ([{0}, {4}], 1),  # past the last point
        ([{0}, {-4}, {2}], 1),  # would alias point 0
        ([{1.0}], 0),
        ([{0}, {"c"}], 1),
    ],
)
def test_greedy_tower_rejects_point_indices_out_of_range(cover, bad):
    with pytest.raises(InvalidCover) as err:
        greedy_tower(four_point_two_orbits(), [frozenset(k) for k in cover])
    assert err.value.index == bad
    assert f"cover set {bad} " in str(err.value) and "range(4)" in str(err.value)


def test_default_cover_tower_scans_for_fixed_points_once(monkeypatch):
    # the orbit map is computed once per G-set and shared by is_free,
    # default_cover and greedy_tower; the row scan runs only for a non-free
    # action, once, and all three report its witness
    orbit_maps, row_scans = [], []
    orbit_min = FiniteGSet.__dict__["orbit_min"]
    compute = orbit_min.func

    def counted_orbit_map(gs):
        orbit_maps.append(gs)
        return compute(gs)

    def counted_scan(data, selectors):
        row_scans.append(1)
        return compress(data, selectors)

    monkeypatch.setattr(orbit_min, "func", counted_orbit_map)
    monkeypatch.setattr(cantor, "compress", counted_scan)
    gs = FiniteGSet(("a", "b", "c"), GROUP_Z3, GROUP_Z3)
    assert verify_tower(gs, greedy_tower(gs, default_cover(gs)))
    assert greedy_tower(gs, [frozenset({1})]).base == frozenset({1})
    assert is_free(gs) == (True, None)
    assert orbit_maps == [gs] and row_scans == []
    bad = swap_with_fixed_point()
    assert is_free(bad) == (False, (1, 2))
    for build in (default_cover, lambda g: greedy_tower(g, [frozenset({0})])):
        with pytest.raises(NotFreeError) as err:
            build(bad)
        assert err.value.witness == (1, 2)
    assert orbit_maps == [gs, bad] and len(row_scans) == 1


def _package_calls(fn):
    """fn() and the number of afrokhlin frames started while it ran; frames
    of other code, such as a test plugin's garbage-collection callback, are
    not counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith("afrokhlin."):
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.mark.parametrize("table, orbits", [(GROUP_Z2, 2000), (cyclic_group(128), 2)])
def test_tower_work_does_not_grow_with_the_set(table, orbits):
    """Building and verifying the default tower starts a constant number of
    package frames plus two translates per group element, however many points
    and cover sets there are: a free Z/2 action on 4,000 points and an
    order-128 group on 256 points."""
    gs = build_gset(table, [frozenset({0})] * orbits)
    verified, calls = _package_calls(lambda: verify_tower(gs, greedy_tower(gs, default_cover(gs))))
    assert verified
    assert calls <= 2 * gs.order + 32, calls


def test_greedy_tower_rejects_non_free():
    with pytest.raises(NotFreeError) as err:
        greedy_tower(swap_with_fixed_point(), [frozenset({0})])
    assert err.value.witness == (1, 2)


def test_verify_tower_examples():
    gs = four_point_two_orbits()
    tower = greedy_tower(gs, default_cover(gs))
    assert verify_tower(gs, tower)
    overlapping = Tower(frozenset({0, 1}), (frozenset({0, 1}), frozenset({1, 0})))
    assert not verify_tower(gs, overlapping)
    missing = Tower(frozenset({0}), (frozenset({0}), frozenset({1})))
    assert not verify_tower(gs, missing)
    # disjoint and covering, but one translate for a group of order two
    too_few = Tower(frozenset(range(4)), (frozenset(range(4)),))
    assert not verify_tower(gs, too_few)
    # disjoint and covering, but {0, 1} is not the identity translate of {0, 2}
    forged = Tower(frozenset({0, 2}), (frozenset({0, 1}), frozenset({2, 3})))
    assert not verify_tower(gs, forged)


def test_gset_validation():
    with pytest.raises(InvalidGSet):
        FiniteGSet(("a",), ((0, 1), (1, 1)), ((0,), (0,)))  # not a latin square
    with pytest.raises(InvalidGSet):
        FiniteGSet(("a", "b"), GROUP_Z2, ((0, 1), (0, 0)))  # non-permutation row
    with pytest.raises(InvalidGSet):
        FiniteGSet(("a", "b"), GROUP_Z2, ((1, 0), (0, 1)))  # identity acts nontrivially
    with pytest.raises(InvalidGSet):
        # incompatible with the group product: g*g = e but action says otherwise
        FiniteGSet(("a", "b", "c"), GROUP_Z2, ((0, 1, 2), (1, 2, 0)))


def test_gset_from_json():
    gs = gset_from_json(
        {
            "elements": ["a", "b"],
            "group": {"order": 2, "table": [[0, 1], [1, 0]]},
            "action": [[0, 1], [1, 0]],
        }
    )
    assert is_free(gs) == (True, None)
    with pytest.raises(InvalidGSet):
        gset_from_json({"elements": ["a"]})


class Name(str):
    pass


def test_name_checks_keep_str_subclasses_and_report_the_first_bad_name():
    doc = {"elements": [Name("a"), "b"], "group": {"table": [[0, 1], [1, 0]]}, "action": [[0, 1], [1, 0]]}
    gs = gset_from_json(doc)
    assert cover_from_json([[Name("b")], []], gs) == [frozenset({1}), frozenset()]
    for entry, bad in ((["a", "z", 1], "'z'"), (["a", 1, "z"], "1"), (["b", None], "None")):
        with pytest.raises(InvalidCover, match=f"^cover entry 1 names unknown element {bad}$"):
            cover_from_json([["a"], entry], gs)
    with pytest.raises(InvalidCover, match="cover entry 0 must be a list"):
        cover_from_json([("a",), [1]], gs)
    with pytest.raises(InvalidGSet, match="'elements' must be a list of strings"):
        gset_from_json({**doc, "elements": ["a", 1, {}]})


def test_repeated_element_names_are_rejected():
    # the free Z/2 action 0 <-> 1, 2 <-> 3 is valid, but "a" names two points
    with pytest.raises(InvalidGSet, match="element name 'a' is repeated"):
        gset_from_json(
            {
                "elements": ["a", "a", "b", "b"],
                "group": {"table": [[0, 1], [1, 0]]},
                "action": [[0, 1, 2, 3], [1, 0, 3, 2]],
            }
        )
    with pytest.raises(InvalidGSet, match="element name 'b' is repeated"):
        FiniteGSet(("a", "b", "c", "b"), GROUP_Z2, ((0, 1, 2, 3), (1, 0, 3, 2)))


def test_subgroup_enumeration():
    assert len(subgroups(GROUP_Z2)) == 2
    assert len(subgroups(GROUP_Z3)) == 2
    assert len(subgroups(GROUP_V4)) == 5


GROUPS = (("Z2", GROUP_Z2), ("Z3", GROUP_Z3), ("V4", GROUP_V4))


@pytest.mark.parametrize("name,table", GROUPS)
def test_exhaustive_towers_and_freeness(name, table):
    """Over every action type on <= 12 points: greedy soundness, the
    tower-exists-iff-free equivalence by exhaustive base search, and the base
    cardinality law; element order is shuffled to exercise cover order."""
    rng = random.Random(hash(name) & 0xFFFF)
    trivial = frozenset(range(len(table)))
    count = 0
    for orbits in orbit_multisets(table, 12):
        for relabel in (None, rng):
            gs = build_gset(table, orbits, relabel)
            count += 1
            expected_free = all(H == {0} for H in orbits)
            free, witness = is_free(gs)
            assert free == expected_free
            exists = tower_base_exists(gs)
            assert exists == free
            if free:
                tower = greedy_tower(gs, default_cover(gs))
                assert verify_tower(gs, tower)
                assert len(tower.base) * gs.order == gs.size
            else:
                g, x = witness
                assert gs.action[g][x] == x and g != gs.identity
                with pytest.raises(NotFreeError):
                    greedy_tower(gs, [frozenset({0})])
    assert count > 20


SMALL_GROUPS = (
    [cyclic_group(k) for k in range(1, 13)]
    + [dihedral_group(n) for n in range(2, 7)]
    + [
        product_group(cyclic_group(a), cyclic_group(b))
        for a, b in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 6))
    ]
)


def _relabel_gset(gs: FiniteGSet, pi) -> FiniteGSet:
    """The same G-set with group element g renamed pi[g]."""
    action = [None] * gs.order
    for g, row in enumerate(gs.action):
        action[pi[g]] = row
    return FiniteGSet(gs.elements, relabel(gs.table, pi), tuple(action))


def _edge_gsets():
    trivial = cyclic_group(1)
    for orbits in orbit_multisets(trivial, 5):
        yield build_gset(trivial, orbits)  # k = 1: zip(*action) has one row
    for table in SMALL_GROUPS:
        yield build_gset(table, [frozenset({0})], random.Random(len(table)))  # n = k
    rng = random.Random(12)
    for _, table in GROUPS:
        k = len(table)
        for orbits in orbit_multisets(table, 8):
            gs = build_gset(table, orbits, rng)
            for shift in (1, -1):  # the identity becomes element 1, then k - 1
                yield _relabel_gset(gs, [(g + shift) % k for g in range(k)])
    for m in (0, 1, 5):
        # pairs swapped, and the last point fixed by the last row alone
        n = 2 * m + 1
        swap = tuple(x ^ 1 for x in range(n - 1)) + (n - 1,)
        yield FiniteGSet(tuple(f"x{i}" for i in range(n)), GROUP_Z2, (tuple(range(n)), swap))


def test_edge_gsets_match_brute_force():
    """The trivial group, a single orbit, an identity that is not element 0
    and a lone fixed point at the last entry: freeness, the default cover and
    greedy towers over covers with an empty, a repeated or an oversized set
    agree with the exhaustive base search and the reference tower."""
    seen = Counter()
    for gs in _edge_gsets():
        witness = reference_fixed_point(gs)
        assert is_free(gs) == (witness is None, witness)
        assert tower_base_exists(gs) == (witness is None)
        singletons = [frozenset({x}) for x in range(gs.size)]
        if witness is None:
            assert default_cover(gs) == singletons
        else:
            with pytest.raises(NotFreeError) as err:
                default_cover(gs)
            assert err.value.witness == witness
        covers = (
            singletons,
            [frozenset()] + singletons,
            singletons[::-1] + singletons,
            [singletons[-1]] * 2 + singletons[:-1],
            [frozenset(range(gs.size))],
            [frozenset()],
            [],
        )
        for cover in covers:
            got = _outcome(greedy_tower, gs, cover)
            assert got == _outcome(reference_greedy_tower, gs, cover), (gs, cover)
            if got[0] == "tower":
                assert verify_tower(gs, Tower(*got[1:]))
            seen[got[0] if got[0] != "InvalidCover" else got[1][:20]] += 1
    assert set(seen) == {"tower", "NotFreeError", "cover set 0 has coll", "cover union insuffic"}, seen


def _random_gset(rng: random.Random, table, free: bool) -> FiniteGSet:
    """A G-set with one to three orbits; a non-free one has at least one
    orbit G/<g> for a random element g."""
    k = len(table)
    e = next(g for g in range(k) if table[g][g] == g)
    orbits = []
    for i in range(rng.randint(1, 3)):
        H = {e}
        if not free and (i == 0 or rng.random() < 0.5):
            g = x = rng.randrange(k)
            while x not in H:
                H.add(x)
                x = table[x][g]
        orbits.append(frozenset(H))
    return build_gset(table, orbits, rng)


def _mutate(rng: random.Random, gs: FiniteGSet):
    """Up to three swapped or overwritten entries of the table or the action."""
    table = [list(row) for row in gs.table]
    action = [list(row) for row in gs.action]
    for _ in range(rng.randint(0, 3)):
        rows, size = (table, gs.order) if rng.random() < 0.5 else (action, gs.size)
        r1, r2 = rng.randrange(len(rows)), rng.randrange(len(rows))
        i, j = rng.randrange(len(rows[r1])), rng.randrange(len(rows[r1]))
        how = rng.random()
        if how < 0.4:
            rows[r1][i], rows[r1][j] = rows[r1][j], rows[r1][i]
        elif how < 0.6:
            rows[r1][i], rows[r2][i] = rows[r2][i], rows[r1][i]
        elif how < 0.95:
            rows[r1][i] = rng.randrange(size)
        else:
            rows[r1][i] = rng.choice((-1, size))
    return tuple(map(tuple, table)), tuple(map(tuple, action))


def _covers(rng: random.Random, gs: FiniteGSet):
    """Singletons, a block cover with repeated orbits, a colliding one and an
    insufficient one."""
    orbit_of = {}
    for x in range(gs.size):
        orbit_of.setdefault(min(row[x] for row in gs.action), []).append(x)
    orbits = list(orbit_of.values())
    reps = [rng.choice(o) for o in orbits]
    rng.shuffle(reps)
    blocks = []
    i = 0
    while i < len(reps):
        size = rng.randint(1, 3)
        blocks.append(set(reps[i : i + size]))
        i += size
    for _ in range(rng.randint(0, 2)):
        blocks.insert(rng.randint(0, len(blocks)), {rng.choice(rng.choice(orbits))})
    covers = [[frozenset({x}) for x in range(gs.size)], blocks]
    wide = [o for o in orbits if len(o) > 1]
    if wide:
        colliding = [set(b) for b in blocks]
        colliding.insert(rng.randint(0, len(colliding)), set(rng.sample(rng.choice(wide), 2)))
        covers.append(colliding)
    covers.append(blocks[:-1])
    return covers


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except (InvalidGSet, InvalidCover, NotFreeError) as exc:
        name = type(exc).__name__
        return name, str(exc), getattr(exc, "index", None), getattr(exc, "witness", None)
    if isinstance(result, Tower):
        return "tower", result.base, result.translates
    return "accepted"


def _reference_validation(elements, table, action):
    message = reference_gset_error(elements, table, action)
    return "accepted" if message is None else ("InvalidGSet", message, None, None)


def test_validation_and_towers_match_reference_on_mutated_gsets():
    """Seeded G-sets over groups of order <= 12, free and not, with up to
    three broken entries: the same rejection, cover error and base as the
    all-triples validator and the saturation-recomputing tower."""
    seen = Counter()
    for seed in range(3000):
        rng = random.Random(seed)
        table = relabel_group(rng, rng.choice(SMALL_GROUPS))
        gs = _random_gset(rng, table, free=rng.random() < 0.6)
        table, action = _mutate(rng, gs)
        got = _outcome(FiniteGSet, gs.elements, table, action)
        assert got == _reference_validation(gs.elements, table, action), seed
        seen[got if got == "accepted" else got[1].split(" ")[-1]] += 1
        if got != "accepted":
            continue
        mutated = FiniteGSet(gs.elements, table, action)
        for cover in _covers(rng, mutated):
            got = _outcome(greedy_tower, mutated, cover)
            assert got == _outcome(reference_greedy_tower, mutated, cover), seed
            seen[got[0] if got[0] != "InvalidCover" else got[1][:20]] += 1
    for outcome in ("accepted", "tower", "NotFreeError", "element", "associative", "product",
                    "permutation", "range", "trivially", "cover set", "cover union"):
        assert any(outcome in key for key in seen), (outcome, seen)


def _reduced_latin_squares(k: int):
    square = [[(i if r == 0 else r if i == 0 else None) for i in range(k)] for r in range(k)]

    def fill(pos):
        if pos == k * k:
            yield tuple(map(tuple, square))
            return
        r, c = divmod(pos, k)
        if square[r][c] is not None:
            yield from fill(pos + 1)
            return
        used = set(square[r]) | {square[i][c] for i in range(k)}
        for v in range(k):
            if v not in used:
                square[r][c] = v
                yield from fill(pos + 1)
                square[r][c] = None

    yield from fill(0)


def test_light_test_decides_associativity_of_every_small_latin_square():
    """All 63 reduced Latin squares of order <= 5, the non-associative loops
    of order 5 among them: rejected exactly when some triple fails."""
    squares = [t for k in range(1, 6) for t in _reduced_latin_squares(k)]
    assert len(squares) == 63
    rejected = 0
    for table in squares:
        k = len(table)
        associative = all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in range(k) for b in range(k) for c in range(k)
        )
        got = _outcome(FiniteGSet, ("x",), table, ((0,),) * k)
        assert got == _reference_validation(("x",), table, ((0,),) * k)
        assert (got == "accepted") == associative
        rejected += not associative
    assert rejected == 63 - (1 + 1 + 1 + 4 + 6)


def test_light_test_matches_all_triples_on_every_order_4_table():
    """Every table of order <= 4 with permutation rows and an identity, under
    every relabeling, so that the picked generators vary; some of these are
    associative on the first picked generator only."""
    count = 0
    for k in range(1, 5):
        choices = [[p for p in permutations(range(k)) if p[0] == h] for h in range(1, k)]
        for rows in product(*choices):
            for pi in permutations(range(k)):
                table = relabel((tuple(range(k)),) + rows, pi)
                action = ((0,),) * k
                assert _outcome(FiniteGSet, ("x",), table, action) == _reference_validation(
                    ("x",), table, action
                ), table
                count += 1
    assert count == 1 + 2 + 4 * 6 + 216 * 24


def test_compatibility_matches_reference_on_every_small_action():
    """Every action of the groups of order <= 4 on three points with a
    trivial identity (all maps for order <= 3, all permutations for order 4),
    under every relabeling of the group."""
    maps = list(product(range(3), repeat=3))
    perms = list(permutations(range(3)))
    for table in (GROUP_Z2, GROUP_Z3, cyclic_group(4), GROUP_V4):
        k = len(table)
        for pi in permutations(range(k)):
            relabeled = relabel(table, pi)
            e = pi[0]
            for rows in product(*([maps if k <= 3 else perms] * (k - 1))):
                rows = iter(rows)
                action = tuple((0, 1, 2) if g == e else next(rows) for g in range(k))
                elements = ("a", "b", "c")
                assert _outcome(FiniteGSet, elements, relabeled, action) == _reference_validation(
                    elements, relabeled, action
                ), (relabeled, action)


def test_generating_set_has_at_most_log2_order_elements():
    """The work of validation is |generators| * k * (k + n); for every
    cyclic, dihedral and C2 x Cm group of order <= 128, relabeled so the
    identity sits anywhere, the generating set has <= floor(log2 k) elements."""
    rng = random.Random(128)
    tables = [cyclic_group(k) for k in range(1, 129)]
    tables += [dihedral_group(n) for n in range(1, 65)]
    tables += [product_group(cyclic_group(2), cyclic_group(m)) for m in range(1, 65)]
    for table in tables:
        table = relabel_group(rng, table)
        k = len(table)
        identity = next(g for g in range(k) if table[g][g] == g)
        generators = _generators(table, identity)
        assert len(generators) <= k.bit_length() - 1, (k, generators)


class Index(int):
    pass


class Indexable:
    """Not an int, but bytes() and range() take it as one."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def _swapped_pairs(n: int):
    """The free Z/2 action on n (even) points that swaps 2i and 2i + 1."""
    return (tuple(range(n)), tuple(x ^ 1 for x in range(n)))


def _with_entry(rows, g: int, x: int, value):
    return tuple(row[:x] + (value,) + row[x + 1 :] if i == g else row for i, row in enumerate(rows))


def test_non_integer_entries_are_rejected():
    with pytest.raises(InvalidGSet, match="multiplication table entries out of range"):
        FiniteGSet(("a", "b"), ((0, 1.0), (1.0, 0)), ((0, 1), (1, 0)))
    with pytest.raises(InvalidGSet, match="action table entries out of range"):
        FiniteGSet(("a", "b"), GROUP_Z2, ((0, 1), (1, "a")))
    # an int subclass or an __index__ object, in a table and in an action,
    # with rows of bytes (at most 256 points) and of tuples (more)
    for make in (Index, Indexable):
        for k in (2, 257):
            table = cyclic_group(k)
            names = tuple(f"x{i}" for i in range(k))
            with pytest.raises(InvalidGSet, match="^multiplication table entries out of range$"):
                FiniteGSet(names, _with_entry(table, k - 1, 1, make(table[k - 1][1])), table)
        for n in (4, 300):
            names = tuple(f"x{i}" for i in range(n))
            action = _swapped_pairs(n)
            with pytest.raises(InvalidGSet, match="^action table entries out of range$"):
                FiniteGSet(names, GROUP_Z2, _with_entry(action, 1, n - 1, make(action[1][n - 1])))
    # JSON true and false keep working as 1 and 0, in bytes and in tuples
    for n in (2, 300):
        names = tuple(f"x{i}" for i in range(n))
        flags = tuple(tuple(bool(x) if x < 2 else x for x in row) for row in _swapped_pairs(n))
        for action in (_swapped_pairs(n), flags):
            assert FiniteGSet(names, ((False, True), (True, False)), action).identity == 0


@pytest.mark.parametrize("order, table", [(2.0, [[0, 1], [1, 0]]), (True, [[0]])])
def test_non_integer_order_is_rejected(order, table):
    """2.0 and true compare equal to the number of rows, but are no order."""
    doc = {"elements": ["a", "b"], "group": {"order": order, "table": table}, "action": [[0, 1]] * len(table)}
    with pytest.raises(InvalidGSet, match="^'group.table' must be a list of rows matching 'order'$"):
        gset_from_json(doc)
    doc["group"]["order"] = len(table)
    assert gset_from_json(doc).order == len(table)


_SWITCH_SIZES = (255, 256, 257, 300)


def _gset_of_size(rng: random.Random, table, n: int, free: bool) -> FiniteGSet:
    """A G-set on exactly n points: regular orbits when free (the order
    divides n), otherwise orbits G/<g> for random g while they fit and then
    fixed points, in shuffled order."""
    k = len(table)
    e = next(g for g in range(k) if table[g][g] == g)
    if free:
        return build_gset(table, [frozenset({e})] * (n // k), rng)
    orbits, total = [], 0
    while True:
        g = x = rng.randrange(k)
        H = {e}
        while x not in H:
            H.add(x)
            x = table[x][g]
        if total + k // len(H) > n:
            break
        orbits.append(frozenset(H))
        total += k // len(H)
    orbits += [frozenset(range(k))] * (n - total)
    rng.shuffle(orbits)
    return build_gset(table, orbits, rng)


def _mutate_at_the_switch(rng: random.Random, gs: FiniteGSet):
    """Up to three entries overwritten with a value at an edge of the range
    or of a byte, or swapped within a row; mostly in the action."""
    table = [list(row) for row in gs.table]
    action = [list(row) for row in gs.action]
    for _ in range(rng.randint(0, 3)):
        rows, size = (table, gs.order) if rng.random() < 0.25 else (action, gs.size)
        row = rng.choice(rows)
        i, j = rng.randrange(len(row)), rng.randrange(len(row))
        if rng.random() < 0.3:
            row[i], row[j] = row[j], row[i]
        else:
            row[i] = rng.choice((size - 1, size, 255, 256, -1, True, 2**70))
    return tuple(map(tuple, table)), tuple(map(tuple, action))


def test_validation_and_towers_match_reference_across_the_256_point_switch():
    """Groups of order <= 12 on 255, 256, 257 and about 300 points, rows of
    bytes below the switch and of tuples above it, with entries broken at
    n - 1, n, 255, 256, -1, True and 2**70: the same rejection, fixed point
    and greedy base as the references."""
    seen = Counter()
    for seed in range(400):
        rng = random.Random(f"switch/{seed}")
        n = rng.choice(_SWITCH_SIZES)
        free = rng.random() < 0.5
        groups = [t for t in SMALL_GROUPS if n % len(t) == 0] if free else SMALL_GROUPS
        gs = _gset_of_size(rng, relabel_group(rng, rng.choice(groups)), n, free)
        table, action = _mutate_at_the_switch(rng, gs)
        got = _outcome(FiniteGSet, gs.elements, table, action)
        assert got == _reference_validation(gs.elements, table, action), seed
        seen[(gs.size > 256, got if got == "accepted" else got[1].split(" ")[-1])] += 1
        if got != "accepted":
            continue
        mutated = FiniteGSet(gs.elements, table, action)
        witness = reference_fixed_point(mutated)
        assert is_free(mutated) == (witness is None, witness), seed
        for cover in _covers(rng, mutated)[:2]:
            got = _outcome(greedy_tower, mutated, cover)
            assert got == _outcome(reference_greedy_tower, mutated, cover), seed
            seen[(gs.size > 256, got[0])] += 1
    for above in (False, True):
        for outcome in ("accepted", "tower", "NotFreeError", "range", "product", "trivially"):
            assert any(key == (above, outcome) for key in seen), (above, outcome, seen)


def test_cyclic_group_of_order_257_acting_on_itself():
    """Table and action rows above the switch: accepted, and a broken table
    entry rejected with the reference's message; the reference's
    associativity check stops at the first failing triple, so only tables
    whose failure comes early are given to it."""
    table = cyclic_group(257)
    names = tuple(f"x{i}" for i in range(257))
    gs = FiniteGSet(names, table, table)
    assert is_free(gs) == (True, None)
    assert verify_tower(gs, greedy_tower(gs, default_cover(gs)))
    row1 = table[1]
    broken = [
        _with_entry(table, 1, 5, 257),
        _with_entry(table, 1, 5, -1),
        _with_entry(table, 1, 5, 2**70),
        _with_entry(table, 1, 5, True),  # a repeated entry in row 1
        _with_entry(table, 200, 3, 3),  # a repeated entry in a later row
        _with_entry(_with_entry(table, 1, 5, row1[6]), 1, 6, row1[5]),  # not associative
    ]
    for bad in broken:
        got = _outcome(FiniteGSet, names, bad, table)
        assert got != "accepted" and got == _reference_validation(names, bad, table), got
    # the reference's associativity check alone runs 257**3 triples, so the
    # action's messages are spelled out
    for g, value, message in (
        (1, 257, "action table entries out of range"),
        (1, 3, "group element 1 does not act by a permutation"),
        (200, 3, "action is not compatible with the group product"),
    ):
        assert _outcome(FiniteGSet, names, table, _with_entry(table, g, 7, value)) == (
            "InvalidGSet", message, None, None
        )
