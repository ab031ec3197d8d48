"""Freeness tests and greedy Rokhlin towers for finite group actions.

Finite group actions on finite sets stand in for actions on clopen-partition
quotients of Cantor systems.  A tower is a base set whose group translates
partition the whole set; one exists exactly when the action is free, and the
greedy recursion below builds one from any cover by sets with pairwise
disjoint translates.  Cover order matters and is preserved, so outputs are
reproducible.

Towers rest on two facts about a group G of order k acting on n points,
where every point x is labelled with the least point of its orbit Gx:
- The action is free exactly when (number of orbits)·k == n.  Each orbit
  has |G|/|Stab(x)| ≤ k points, with equality exactly when the stabilizer
  is trivial, and the orbits partition the set.
- For a free action, the translates gK of a cover set K are pairwise
  disjoint exactly when no two points of K share an orbit: g·x == h·y puts
  x and y in one orbit, and for x == y freeness forces g == h.
So the greedy base is the first cover point of each orbit, and it covers
exactly when it has n/k points.

Costs: validation is O(k² log k + k·n log k), because the axioms are
checked only against a generating set of at most log2 k elements (Light's
associativity test, Clifford & Preston, The Algebraic Theory of
Semigroups I, §1.2).  Each check of a generator a composes every row g
with row a in one C call: bytes.translate on byte rows when the rows index
at most 256 points, one itemgetter built per generator above that, where a
row no longer fits in bytes.  The switch is read from the input (n for the
action, k for the table), and both sides stay because G-sets of either size
are common.  Python work per entry is then one flat type pass and a range
check.  No row of an accepted action is scanned for being a permutation:
compatibility on the generators gives it for all of G, so act[g] composed
with act[g⁻¹] is act[e], the identity, and every row is a bijection.  The
same holds for the table, whose row g*a is row g composed with row a once
it is associative.  Only a rejected document is scanned, to name its first
broken axiom.  The orbit labels are one C-level O(k·n) pass, shared
by the freeness test, the default cover and the tower; only a non-free
action pays for the row scan that names its first fixed point.  A tower
is then Python work in O(n + Σ|K|) over the cover sets K, in place of
building all k translates of every cover set, O(k·Σ|K|).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import eq, itemgetter


class InvalidGSet(ValueError):
    """The group table or action table violates the axioms."""


class NotFreeError(ValueError):
    """A tower was requested for an action with a fixed point."""

    def __init__(self, g: int, x: int, message: str):
        super().__init__(message)
        self.witness = (g, x)


class InvalidCover(ValueError):
    """A tower cover violates its preconditions."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class FiniteGSet:
    """A finite group acting on a finite set.

    The group is given by its multiplication table (table[g][h] = g*h); the
    action by one permutation row per group element (action[g][x] = g.x).
    Group and action axioms are checked at construction.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        table, action = self.table, self.action
        k = len(table)
        n = len(self.elements)
        if k < 1:
            raise InvalidGSet("group must have at least one element")
        if n < 1:
            raise InvalidGSet("the acted-on set must be nonempty")
        if len(set(self.elements)) < n:
            seen: set[str] = set()
            name = next(e for e in self.elements if e in seen or seen.add(e))
            raise InvalidGSet(f"element name {name!r} is repeated")
        if any(len(row) != k for row in table):
            raise InvalidGSet("multiplication table must be square")
        trows = _index_rows(table, k)
        if trows is None:
            raise InvalidGSet("multiplication table entries out of range")
        identity = None
        for e in range(k):
            if all(table[e][h] == h and table[h][e] == h for h in range(k)):
                identity = e
                break
        if identity is None:
            raise InvalidGSet("multiplication table has no identity element")
        generators = _generators(table, identity)
        # column a of the table: g*a for every g
        columns = [[row[a] for row in trows] for a in generators]
        # Light's test: the elements a with (g*a)*l == g*(a*l) for all g, l
        # are closed under the product, so checking generators suffices.
        # Then row g*a is row g composed with row a, and every element is a
        # product of generators, so every row is a permutation once theirs
        # are; only a rejected table is scanned for the first row that is not.
        touter = _outer_rows(trows)
        if not all(
            len(set(trows[a])) == k and _composes(trows, touter, column, trows[a])
            for a, column in zip(generators, columns)
        ):
            # entries are integers in range, so a row of k distinct ones is a permutation
            for g in range(k):
                if len(set(trows[g])) != k:
                    raise InvalidGSet(f"row {g} of the multiplication table is not a permutation")
            raise InvalidGSet("multiplication table is not associative")
        if len(action) != k or any(len(row) != n for row in action):
            raise InvalidGSet("action table must have one row of size |X| per group element")
        arows = _index_rows(action, n)
        if arows is None:
            raise InvalidGSet("action table entries out of range")
        if list(action[identity]) != list(range(n)):
            raise InvalidGSet("identity must act trivially")
        # With associativity and a trivial identity, the h with
        # act[g*h] == act[g] o act[h] for all g are closed under the product,
        # so the action is compatible iff it is on the generators.  Then
        # act[g] o act[g^-1] == act[e] is the identity, so every row is a
        # permutation and only a rejected action is scanned for one.
        aouter = _outer_rows(arows)
        if not all(_composes(arows, aouter, column, arows[a]) for a, column in zip(generators, columns)):
            # Name the same axiom as a check of every row in order, each row
            # for being a permutation and then for compatibility.  Some row is
            # incompatible, so the scan stops at a row or at an incompatibility.
            bad_row = next((g for g in range(k) if len(set(arows[g])) != n), k)
            before = trows[:bad_row]
            if all(_composes(arows, aouter, [row[h] for row in before], arows[h]) for h in range(k)):
                raise InvalidGSet(f"group element {bad_row} does not act by a permutation")
            raise InvalidGSet("action is not compatible with the group product")
        object.__setattr__(self, "_identity", identity)

    @property
    def identity(self) -> int:
        return self._identity

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def size(self) -> int:
        return len(self.elements)

    def translate(self, g: int, subset: frozenset[int]) -> frozenset[int]:
        return frozenset(map(self.action[g].__getitem__, subset))

    @cached_property
    def orbit_min(self) -> list[int]:
        """orbit_min[x] is the least point of the orbit of x, {g.x : g in G}.
        Computed once per G-set."""
        return list(map(min, zip(*self.action)))

    @cached_property
    def fixed_point(self) -> tuple[int, int] | None:
        """The first (g, x), in row order, with g not the identity and
        g.x == x; None for a free action.  Computed once per G-set."""
        if len(set(self.orbit_min)) * self.order == self.size:
            return None
        for g, row in enumerate(self.action):
            if g == self.identity:
                continue
            for x in compress(range(self.size), map(eq, row, range(self.size))):
                return g, x


# JSON true and false index like 1 and 0, so they count as integers here.
_INDEX_TYPES = {int, bool}


def _index_rows(rows, bound: int) -> list | None:
    """The (nonempty) rows as bytes when bound <= 256, as tuples above that;
    None unless every entry is an integer in range(bound).

    The types are checked first, over all rows at once, because bytes() also
    takes int subclasses and objects with __index__."""
    if not set(map(type, chain.from_iterable(rows))) <= _INDEX_TYPES:
        return None
    if bound <= 256:
        try:
            rows = list(map(bytes, rows))
        except ValueError:  # an entry outside range(256)
            return None
        # deleting every byte in range leaves the entries outside it
        return None if b"".join(rows).translate(None, bytes(range(bound))) else rows
    rows = list(map(tuple, rows))
    return rows if min(map(min, rows)) >= 0 and max(map(max, rows)) < bound else None


def _outer_rows(rows: list) -> list:
    """The rows of _index_rows as _composes takes them for its outer maps:
    bytes.translate reads a table of 256 bytes, so byte rows are padded,
    once per table."""
    if not isinstance(rows[0], bytes):
        return rows
    pad = bytes(256 - len(rows[0]))
    return [row + pad for row in rows]


def _composes(rows: list, outer: list, column, inner) -> bool:
    """rows[column[g]] is the row x -> outer[g][inner[x]] for every g in
    range(len(column)): one bytes.translate or one itemgetter call per row."""
    compose = inner.translate if isinstance(inner, bytes) else itemgetter(*inner)
    return all(map(eq, map(rows.__getitem__, column), map(compose, outer)))


def _generators(table, identity: int) -> list[int]:
    """Greedy generating set: each element, in index order, that is missing
    from the closure of the identity under right multiplication by the
    elements picked so far.

    Every element ends up reached, that is, a product of the picked ones,
    associative table or not.  For a group each pick at least doubles the
    generated subgroup, so at most log2 of the order are picked.
    """
    reached = bytearray(len(table))
    reached[identity] = 1
    members = [identity]
    generators: list[int] = []
    for a in range(len(table)):
        if reached[a]:
            continue
        generators.append(a)
        pending = [table[c][a] for c in members]
        while pending:
            x = pending.pop()
            if not reached[x]:
                reached[x] = 1
                members.append(x)
                pending.extend(table[x][b] for b in generators)
    return generators


@dataclass(frozen=True)
class Tower:
    """A base together with its translates, one per group element."""

    base: frozenset[int]
    translates: tuple[frozenset[int], ...]


def is_free(gs: FiniteGSet) -> tuple[bool, tuple[int, int] | None]:
    """Whether no nontrivial group element fixes a point; witness on failure."""
    return gs.fixed_point is None, gs.fixed_point


def _require_free(gs: FiniteGSet) -> None:
    if gs.fixed_point is not None:
        g, x = gs.fixed_point
        raise NotFreeError(g, x, _fixed_point_message(gs, g, x))


def default_cover(gs: FiniteGSet) -> list[frozenset[int]]:
    """One singleton per element, in element order.

    For a free action singleton translates are automatically disjoint and the
    union of their orbits is everything, so this is always a valid cover.
    """
    _require_free(gs)
    return list(map(frozenset, zip(range(gs.size))))


def _fixed_point_message(gs: FiniteGSet, g: int, x: int) -> str:
    return (
        f"action is not free: group element {g} fixes "
        f"{gs.elements[x]!r} (index {x})"
    )


def greedy_tower(gs: FiniteGSet, cover) -> Tower:
    """Build a tower base by greedy accumulation along the given cover.

    Starting from the first cover set, each later set contributes only the
    points whose whole orbit is still uncovered.  Disjointness of the base
    translates is preserved at every step, and the final base covers because
    the cover does.  Cover points are indices in range(gs.size).
    """
    _require_free(gs)
    cover = list(map(frozenset, cover))
    indices = list(chain.from_iterable(cover))
    if indices and _index_rows([indices], gs.size) is None:
        idx = next(i for i, k in enumerate(cover) if k and _index_rows([k], gs.size) is None)
        raise InvalidCover(f"cover set {idx} has a point not in range({gs.size})", idx)
    orbit_of = gs.orbit_min.__getitem__
    ids = list(map(orbit_of, indices))
    # the action is free, so the translates of a cover set are pairwise
    # disjoint exactly when its points lie in distinct orbits
    if max(map(len, cover), default=0) > 1:
        owners = chain.from_iterable(map(repeat, range(len(cover)), map(len, cover)))
        if len(set(zip(owners, ids))) < len(ids):
            idx = next(i for i, k in enumerate(cover) if len(set(map(orbit_of, k))) < len(k))
            raise InvalidCover(f"cover set {idx} has colliding translates", index=idx)
    # the first cover point of each orbit: reversed, so that earlier points win
    base = frozenset(dict(zip(reversed(ids), reversed(indices))).values())
    if len(base) * gs.order != gs.size:
        raise InvalidCover("cover union insufficient: orbits of the cover miss the set")
    return Tower(base=base, translates=tuple(map(gs.translate, range(gs.order), repeat(base))))


def verify_tower(gs: FiniteGSet, tower: Tower) -> bool:
    """Exact check: translates pairwise disjoint and covering."""
    if len(tower.translates) != gs.order:
        return False
    seen: set[int] = set()
    for g, t in enumerate(tower.translates):
        if t != gs.translate(g, tower.base):
            return False
        if seen & t:
            return False
        seen |= t
    return seen == set(range(gs.size))


# ----------------------------------------------------------------------------
# JSON documents

_BAD_TABLE = "'group.table' must be a list of rows matching 'order'"
_BAD_ACTION = "'action' must be a list of rows, one per group element"


def gset_from_json(obj) -> FiniteGSet:
    if not isinstance(obj, dict):
        raise InvalidGSet("G-set document must be a JSON object")
    elements = obj.get("elements")
    if not isinstance(elements, list) or not all(map(isinstance, elements, repeat(str))):
        raise InvalidGSet("'elements' must be a list of strings")
    group = obj.get("group")
    if not isinstance(group, dict) or "table" not in group:
        raise InvalidGSet("'group' must be an object with a 'table'")
    table = group["table"]
    if not isinstance(table, list):
        raise InvalidGSet(_BAD_TABLE)
    # 2.0 and true compare equal to a length, but are no order
    order = group.get("order", len(table))
    if type(order) is not int or order != len(table):
        raise InvalidGSet(_BAD_TABLE)
    action = obj.get("action")
    if not isinstance(action, list):
        raise InvalidGSet(_BAD_ACTION)
    return FiniteGSet(
        elements=tuple(elements),
        table=_rows(table, _BAD_TABLE),
        action=_rows(action, _BAD_ACTION),
    )


def _rows(rows: list, message: str) -> tuple[tuple, ...]:
    try:
        return tuple(tuple(row) for row in rows)
    except TypeError:  # a row that is a number, a boolean or null
        raise InvalidGSet(message) from None


def cover_from_json(obj, gs: FiniteGSet) -> list[frozenset[int]]:
    if not isinstance(obj, list):
        raise InvalidCover("cover document must be a list of element-name lists")
    index = dict(zip(gs.elements, range(gs.size)))
    cover = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, list):
            raise InvalidCover(f"cover entry {i} must be a list of element names", i)
        # element names are strings, so no other name is known
        if not (all(map(isinstance, entry, repeat(str))) and all(map(index.__contains__, entry))):
            name = next(n for n in entry if not isinstance(n, str) or n not in index)
            raise InvalidCover(f"cover entry {i} names unknown element {name!r}", i)
        cover.append(frozenset(map(index.__getitem__, entry)))
    return cover


def tower_to_json(gs: FiniteGSet, tower: Tower) -> dict:
    return {
        "base": sorted(gs.elements[x] for x in tower.base),
        "translates": [
            sorted(gs.elements[x] for x in t) for t in tower.translates
        ],
        "base_size": len(tower.base),
    }
