"""Builders for finite group actions used by the tower tests.

Actions are assembled from orbit types: every transitive action of G is the
coset action on G/H for a subgroup H, so multisets of subgroups enumerate all
actions up to isomorphism.  A relabeling hook exercises order dependence.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from afrokhlin.cantor import FiniteGSet

GROUP_Z2 = ((0, 1), (1, 0))
GROUP_Z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# Klein four group as XOR on {0, 1, 2, 3}
GROUP_V4 = tuple(tuple(a ^ b for b in range(4)) for a in range(4))


def cyclic_group(k: int):
    return tuple(tuple((a + b) % k for b in range(k)) for a in range(k))


def dihedral_group(n: int):
    """Order 2n: element i + n*f stands for r^i s^f."""

    def mul(x, y):
        (f1, i1), (f2, i2) = divmod(x, n), divmod(y, n)
        return (i1 + (-i2 if f1 else i2)) % n + n * (f1 ^ f2)

    return tuple(tuple(mul(x, y) for y in range(2 * n)) for x in range(2 * n))


def product_group(t1, t2):
    k2 = len(t2)
    k = len(t1) * k2
    return tuple(
        tuple(t1[a // k2][b // k2] * k2 + t2[a % k2][b % k2] for b in range(k)) for a in range(k)
    )


def relabel(table, pi):
    """The same table with element a renamed pi[a]."""
    k = len(table)
    out = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            out[pi[a]][pi[b]] = pi[table[a][b]]
    return tuple(tuple(row) for row in out)


def relabel_group(rng: random.Random, table):
    """The same group with its elements renamed by a random permutation, so
    the identity can sit at any index."""
    pi = list(range(len(table)))
    rng.shuffle(pi)
    return relabel(table, pi)


def subgroups(table) -> list[frozenset[int]]:
    k = len(table)
    out = []
    for size in range(1, k + 1):
        if k % size:
            continue
        for cand in combinations_with_replacement(range(k), size):
            s = frozenset(cand)
            if len(s) != size or 0 not in s:
                continue
            if all(table[a][b] in s for a in s for b in s):
                if s not in out:
                    out.append(s)
    return out


def coset_orbit(table, H: frozenset[int]):
    """Cosets of H and the left translation action on them."""
    k = len(table)
    cosets: list[frozenset[int]] = []
    index: dict[frozenset[int], int] = {}
    for g in range(k):
        c = frozenset(table[g][h] for h in H)
        if c not in index:
            index[c] = len(cosets)
            cosets.append(c)
    action = [
        [index[frozenset(table[g][y] for y in c)] for c in cosets] for g in range(k)
    ]
    return len(cosets), action


def build_gset(table, orbit_subgroups, relabel: random.Random | None = None) -> FiniteGSet:
    k = len(table)
    total = 0
    rows = [[] for _ in range(k)]
    for H in orbit_subgroups:
        size, action = coset_orbit(table, H)
        for g in range(k):
            rows[g].extend(total + x for x in action[g])
        total += size
    perm = list(range(total))
    if relabel is not None:
        relabel.shuffle(perm)
    inverse = [0] * total
    for i, p in enumerate(perm):
        inverse[p] = i
    relabeled = [
        tuple(perm[rows[g][inverse[x]]] for x in range(total)) for g in range(k)
    ]
    return FiniteGSet(
        elements=tuple(f"x{i}" for i in range(total)),
        table=tuple(tuple(row) for row in table),
        action=tuple(relabeled),
    )


def orbit_multisets(table, max_points: int):
    """All multisets of orbit types with at most max_points total points."""
    subs = subgroups(table)
    k = len(table)
    sizes = [k // len(H) for H in subs]

    out = []

    def rec(i, remaining, chosen):
        if chosen:
            out.append(tuple(chosen))
        if i == len(subs):
            return
        rec(i + 1, remaining, chosen)
        if sizes[i] <= remaining:
            rec(i, remaining - sizes[i], chosen + [subs[i]])

    rec(0, max_points, [])
    return out
