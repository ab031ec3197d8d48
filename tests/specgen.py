"""Randomized generators shared across the suite (seeded, deterministic)."""

from __future__ import annotations

import random

from afrokhlin import ActionSpec, AffinePowerTail, PeriodicTail, RankPair


def random_pair(rng: random.Random, max_entry: int = 9) -> RankPair:
    while True:
        p = rng.randint(0, max_entry)
        q = rng.randint(0, max_entry)
        if p + q >= 1:
            return RankPair(p, q)


def random_periodic(rng: random.Random, max_len: int = 3) -> PeriodicTail:
    return PeriodicTail(
        tuple(random_pair(rng) for _ in range(rng.randint(1, max_len)))
    )


def random_affine(rng: random.Random) -> AffinePowerTail:
    B = rng.randint(2, 3)
    A = rng.randint(1, 4)
    alpha = rng.randint(0, A)
    gamma = A - alpha
    # Any beta in [-alpha*B, gamma*B] keeps both tail ranks nonnegative.
    beta = rng.randint(-alpha * B, gamma * B)
    return AffinePowerTail(B=B, A=A, alpha=alpha, beta=beta, gamma=gamma, delta=-beta)


def random_positive_affine(rng: random.Random, B: int) -> AffinePowerTail:
    """Affine tail of base B with |c| = A and smaller rank e >= 1: a positive
    tail with a nonzero remainder bound."""
    A = rng.randint(1, 6)
    e = rng.randint(1, A * B)
    if rng.random() < 0.5:
        return AffinePowerTail(B=B, A=A, alpha=A, beta=-e, gamma=0, delta=e)
    return AffinePowerTail(B=B, A=A, alpha=0, beta=e, gamma=A, delta=-e)


def random_positive_affine_spec(rng: random.Random, B: int, name: str = "random") -> ActionSpec:
    """A spec with a positive affine tail of base B after up to three prefix
    factors, none of them symmetric."""
    prefix, length = [], rng.randint(0, 3)
    while len(prefix) < length:
        pair = random_pair(rng)
        if not pair.symmetric:
            prefix.append(pair)
    return ActionSpec(name, tuple(prefix), random_positive_affine(rng, B))


def random_spec(rng: random.Random, name: str = "random", max_prefix: int = 3) -> ActionSpec:
    prefix = tuple(random_pair(rng) for _ in range(rng.randint(0, max_prefix)))
    tail = random_periodic(rng) if rng.random() < 0.5 else random_affine(rng)
    return ActionSpec(name, prefix, tail)


def random_factor_list(
    rng: random.Random, max_len: int = 5, max_entry: int = 5
) -> list[RankPair]:
    return [random_pair(rng, max_entry) for _ in range(rng.randint(1, max_len))]
