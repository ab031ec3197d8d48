"""Seeded generators for the documents the workloads hand to the program.

Every generator takes a ``random.Random`` and returns plain JSON-ready data:
action documents, G-set documents and covers.  The program only ever sees
these documents (or objects it builds from them itself).
"""

from __future__ import annotations

import random

import oracle

# The built-in fixtures, written out from their mathematical definition (see
# the project README) so that checks on fixture queries do not read them back
# from the program.
FIXTURE_DOCS = {
    "car1": {"name": "car1", "prefix": [], "tail": {"kind": "periodic", "pairs": [[1, 1]]}},
    "car2": {
        "name": "car2",
        "prefix": [[2, 0]],
        "tail": {"kind": "affine_power", "B": 2, "A": 2, "alpha": 1, "beta": 1, "gamma": 1, "delta": -1},
    },
    "car3": {
        "name": "car3",
        "prefix": [[1, 1]],
        "tail": {"kind": "affine_power", "B": 2, "A": 2, "alpha": 2, "beta": -1, "gamma": 0, "delta": 1},
    },
    "notcar": {"name": "notcar", "prefix": [[2, 0]], "tail": {"kind": "periodic", "pairs": [[2, 1]]}},
}


def _pair(rng: random.Random, top: int = 9, symmetric: bool = False) -> list[int]:
    if symmetric:
        s = rng.randint(1, top)
        return [s, s]
    p = rng.randint(1, top)
    q = rng.randrange(0, p)
    return [p, q] if rng.random() < 0.5 else [q, p]


def prefix(rng: random.Random, length: int, symmetric_at: int | None = None) -> list[list[int]]:
    out = [_pair(rng) for _ in range(length)]
    if symmetric_at is not None:
        out.insert(symmetric_at, _pair(rng, symmetric=True))
    return out


def positive_affine(rng: random.Random, name: str, B: int, pre: list) -> dict:
    """Affine tail whose smaller rank settles at e >= 1: positive tail product.

    A*B >= 2e + 1 keeps every tail gap nonzero, so the product from any stage
    past the prefix is positive.
    """
    A = rng.randint(2, 3) if B == 2 else rng.randint(1, 3)
    e = rng.randint(1, (A * B - 1) // 2)
    if rng.random() < 0.5:
        coeffs = {"alpha": A, "beta": -e, "gamma": 0, "delta": e}
    else:
        coeffs = {"alpha": 0, "beta": e, "gamma": A, "delta": -e}
    return {"name": name, "prefix": pre, "tail": {"kind": "affine_power", "B": B, "A": A, **coeffs}}


def vanishing_affine(rng: random.Random, name: str, B: int, pre: list) -> dict:
    """Affine tail whose gap ratios converge below 1: every tail product is 0."""
    A = rng.randint(2, 4)
    alpha = rng.randint(1, A - 1)
    gamma = A - alpha
    beta = rng.randint(-alpha * B, gamma * B)
    tail = {"kind": "affine_power", "B": B, "A": A, "alpha": alpha, "beta": beta, "gamma": gamma, "delta": -beta}
    return {"name": name, "prefix": pre, "tail": tail}


def periodic(rng: random.Random, name: str, pre: list, kind: str) -> dict:
    """kind 'symmetric': a rank-symmetric factor recurs; 'mixing': every
    factor has gap below 1; 'trivial': every factor has gap 1."""
    n = rng.randint(1, 3)
    if kind == "trivial":
        pairs = [[rng.randint(1, 5), 0] for _ in range(n)]
    elif kind == "mixing":
        pairs = [[rng.randint(2, 6), 1] for _ in range(n)]
    else:
        pairs = [_pair(rng, 5) for _ in range(n)]
        pairs.insert(rng.randint(0, n), _pair(rng, 4, symmetric=True))
    return {"name": name, "prefix": pre, "tail": {"kind": "periodic", "pairs": pairs}}


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if oracle.is_prime(n):
            return n


def big_factor_doc(rng: random.Random, name: str, size: int) -> dict:
    """Strict-yes action with one prefix factor of the given (large) size."""
    q = rng.randint(1, 9)
    pre = [[size - q, q]] + prefix(rng, rng.randint(0, 2))
    rng.shuffle(pre)
    tail = {"kind": "periodic", "pairs": [[1, 1]] if rng.random() < 0.5 else [[2, 2], [3, 1]]}
    return {"name": name, "prefix": pre, "tail": tail}


# ---------------------------------------------------------------------------
# groups and G-sets


def cyclic(k: int) -> list[list[int]]:
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def dihedral(n: int) -> list[list[int]]:
    """Order 2n: element i + n*f stands for r^i s^f."""
    out = []
    for x in range(2 * n):
        i1, f1 = x % n, x // n
        row = []
        for y in range(2 * n):
            i2, f2 = y % n, y // n
            row.append((i1 + (-i2 if f1 else i2)) % n + n * (f1 ^ f2))
        out.append(row)
    return out


def product(t1: list[list[int]], t2: list[list[int]]) -> list[list[int]]:
    k2 = len(t2)
    k = len(t1) * k2
    return [
        [t1[a // k2][b // k2] * k2 + t2[a % k2][b % k2] for b in range(k)] for a in range(k)
    ]


def group(kind: str, order: int) -> list[list[int]]:
    if kind == "cyclic":
        return cyclic(order)
    if kind == "dihedral":
        return dihedral(order // 2)
    # product of two cyclic groups, the first of order 2 or the smallest
    # factor that splits the order
    a = next((d for d in (2, 3, 4) if order % d == 0 and order > d), order)
    return product(cyclic(a), cyclic(order // a))


def relabel_group(rng: random.Random, table) -> list[list[int]]:
    k = len(table)
    pi = list(range(k))
    rng.shuffle(pi)
    out = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            out[pi[a]][pi[b]] = pi[table[a][b]]
    return out


def coset_orbits(table, subgroups) -> tuple[list[list[int]], list[list[int]]]:
    """Rows of the left action on the disjoint union of the coset spaces G/H,
    and the point lists of each orbit."""
    k = len(table)
    rows: list[list[int]] = [[] for _ in range(k)]
    orbits = []
    total = 0
    for H in subgroups:
        cosets, index = [], {}
        for g in range(k):
            c = frozenset(table[g][h] for h in H)
            if c not in index:
                index[c] = len(cosets)
                cosets.append(c)
        for g in range(k):
            rows[g].extend(total + index[frozenset(table[g][y] for y in c)] for c in cosets)
        orbits.append(list(range(total, total + len(cosets))))
        total += len(cosets)
    return rows, orbits


def gset_doc(rng: random.Random, kind: str, order: int, n: int, fixed: str | None = None):
    """A G-set document with n points and its orbits (after relabeling).

    ``fixed`` None gives a free action (n / order regular orbits); 'point'
    adds a one-point orbit and 'involution' an orbit G/H with |H| = 2, so the
    action is not free.
    """
    table = relabel_group(rng, group(kind, order))
    e = oracle.identity_of(table)
    regular = [frozenset([e])] * (n // order)
    extra = []
    if fixed == "involution":
        s = next((g for g in range(order) if g != e and table[g][g] == e), None)
        extra = [frozenset([e, s])] if s is not None else [frozenset(range(order))]
    elif fixed == "point":
        extra = [frozenset(range(order))]
    subgroups = regular + extra
    rng.shuffle(subgroups)
    rows, orbits = coset_orbits(table, subgroups)
    total = len(rows[0])
    perm = list(range(total))
    rng.shuffle(perm)
    action = [[0] * total for _ in range(order)]
    for g in range(order):
        for x in range(total):
            action[g][perm[x]] = perm[rows[g][x]]
    orbits = [[perm[x] for x in orbit] for orbit in orbits]
    doc = {
        "elements": [f"x{i}" for i in range(total)],
        "group": {"order": order, "table": table},
        "action": action,
    }
    return doc, orbits


def block_cover(rng: random.Random, doc: dict, orbits, max_block: int) -> list[list[str]]:
    """Blocks that each meet an orbit at most once and together meet all.

    A few extra blocks repeat orbits already met, so the greedy construction
    has points to skip.
    """
    names = doc["elements"]
    reps = [rng.choice(orbit) for orbit in orbits]
    rng.shuffle(reps)
    blocks = []
    i = 0
    while i < len(reps):
        size = rng.randint(1, max_block)
        blocks.append(reps[i : i + size])
        i += size
    for _ in range(max(1, len(blocks) // 8)):
        chosen = rng.sample(orbits, min(len(orbits), rng.randint(1, max_block)))
        blocks.insert(rng.randint(0, len(blocks)), [rng.choice(o) for o in chosen])
    return [[names[x] for x in block] for block in blocks]


def malformed(rng: random.Random, doc: dict, how: str) -> dict:
    """Break one axiom of a valid G-set document, keeping rows permutations."""
    table = [row[:] for row in doc["group"]["table"]]
    action = [row[:] for row in doc["action"]]
    k, n = len(table), len(action[0])
    e = oracle.identity_of(table)
    others = [g for g in range(k) if g != e]
    if how == "associativity":
        g = rng.choice(others)
        h1, h2 = rng.sample(others, 2)
        table[g][h1], table[g][h2] = table[g][h2], table[g][h1]
    elif how == "compatibility":
        g = rng.choice(others)
        x1, x2 = rng.sample(range(n), 2)
        action[g][x1], action[g][x2] = action[g][x2], action[g][x1]
    elif how == "identity":
        x1, x2 = rng.sample(range(n), 2)
        action[e][x1], action[e][x2] = action[e][x2], action[e][x1]
    elif how == "structure":
        return {"elements": doc["elements"], "group": {"order": k + 1, "table": table}, "action": action}
    else:
        raise ValueError(how)
    return {"elements": doc["elements"], "group": {"order": k, "table": table}, "action": action}
